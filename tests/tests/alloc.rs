//! Allocation-count regression test for the streaming receive chain.
//!
//! A counting global allocator (the same harness `perf_report` uses)
//! watches the steady-state push path: once the grow-only buffers have
//! warmed up, pushing chunks through the DSP front end with a
//! caller-owned output buffer must not touch the heap at all, and the
//! full covert receiver may only pay the rare amortised doubling of
//! its accumulated energy/edge vectors. A second counter adds up the
//! bytes requested, which pins the working set of the metric
//! alignment.
//!
//! This file holds exactly one `#[test]`: the allocation counter is
//! process-global, so a second concurrently-running test in the same
//! binary would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use emsc_core::chain::{Chain, Setup};
use emsc_core::fused::FUSED_BLOCK;
use emsc_core::laptop::Laptop;
use emsc_covert::rx::RxConfig;
use emsc_covert::stream::StreamingReceiver;
use emsc_emfield::synth::samples_for;
use emsc_pmu::workload::Program;
use emsc_sdr::stream::EnergyStream;
use emsc_sdr::Complex;
use emsc_vrm::buck::Buck;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations so far (monotonic).
fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested from the heap so far (monotonic; frees are not
/// subtracted, a realloc counts its new size).
fn requested_bytes() -> usize {
    REQUESTED_BYTES.load(Ordering::Relaxed)
}

/// On-off-keyed capture samples at the corpus tuning, with a
/// deterministic xorshift noise floor — the same shape as
/// `perf_report`'s streaming bench input.
fn ook_samples(n: usize) -> Vec<Complex> {
    let bit_samples = 600; // 250 us at 2.4 Msps
    let mut state = 0x2020_u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = ((state & 0xFFFF) as f64 / 65535.0 - 0.5) * 0.05;
            let amp = if (i / bit_samples) % 2 == 0 { 0.5 } else { 0.02 };
            Complex::new(amp + noise, noise)
        })
        .collect()
}

#[test]
fn steady_state_streaming_is_allocation_free() {
    let samples = ook_samples(600_000);
    let chunks: Vec<&[Complex]> = samples.chunks(16 * 1024).collect();
    let warm = chunks.len() / 2;
    let measured = chunks.len() - warm;

    // 1. The DSP-layer chain with a caller-owned, reused output
    //    buffer: strictly zero heap traffic once warmed up. This is
    //    the contract DESIGN.md's scratch-buffer API promises for
    //    every `_into` kernel.
    let mut es = EnergyStream::new(64, &[0, 1, 5], 24).expect("valid stream config");
    let mut out = Vec::new();
    for c in &chunks[..warm] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let before = allocations();
    for c in &chunks[warm..] {
        out.clear();
        es.push_into(c, &mut out);
    }
    let es_allocs = allocations() - before;
    assert_eq!(es_allocs, 0, "EnergyStream::push_into allocated {es_allocs}x in steady state");

    // 2. The full covert receiver accumulates its decimated
    //    energy/edge history across the stream, so Vec doubling may
    //    still fire on a rare chunk; everything per-chunk (mixer,
    //    FIR, sliding DFT, smoothing, edge convolution) must be free.
    let mut rx = StreamingReceiver::new(RxConfig::new(250e3, 250e-6), 2.4e6, 250e3)
        .expect("valid receiver config");
    for c in &chunks[..warm] {
        rx.push(c);
    }
    let mut total = 0usize;
    let mut alloc_chunks = 0usize;
    for c in &chunks[warm..] {
        let b = allocations();
        rx.push(c);
        let d = allocations() - b;
        total += d;
        alloc_chunks += usize::from(d > 0);
    }
    assert!(
        (total as f64) < 0.25 * measured as f64,
        "streaming receiver: {total} allocations over {measured} chunks"
    );
    assert!(
        alloc_chunks * 4 <= measured,
        "{alloc_chunks}/{measured} chunks allocated — expected only rare amortised growth"
    );

    // 3. The fused TX producer: once its thread-local scratch arena
    //    has warmed up on a first run, draining a stream block by
    //    block must not touch the heap at all — the digitised block
    //    buffer is recycled and `digitize_window_into` reuses its
    //    capacity.
    let laptop = Laptop::dell_inspiron();
    let chain = Chain::new(&laptop, Setup::NearField);
    let program = Program::alternating(300e-6, 300e-6, 6, chain.machine.steady_state_ips());
    let trace = chain.machine.run(&program, 9);
    // Warm run: grows the pooled arena to this trace's size and the
    // block buffer to the block size, then recycles both.
    drop(chain.stream_trace(trace.clone(), 9).into_run());
    let mut stream = chain.stream_trace(trace, 9);
    let blocks = stream.blocks_total();
    let before = allocations();
    let mut drained = 0usize;
    while let Some(b) = stream.next_block() {
        std::hint::black_box(b.len());
        drained += 1;
    }
    let fused_allocs = allocations() - before;
    assert_eq!(drained, blocks);
    assert_eq!(
        fused_allocs, 0,
        "fused producer allocated {fused_allocs}x over {blocks} steady-state blocks"
    );

    // 4. The through-wall scene renderer: synthesis, path gain, both
    //    interferer combs (tones held in fixed-size stack batches) and
    //    AWGN, window by window over fused-size blocks into one reused
    //    buffer. After one warm-up pass it must not touch the heap.
    let wall = Chain::new(&laptop, Setup::ThroughWall);
    let wall_program = Program::alternating(300e-6, 300e-6, 40, wall.machine.steady_state_ips());
    let wall_train = Buck::new(wall.vrm.clone()).convert(&wall.machine.run(&wall_program, 9));
    let wall_samples = samples_for(&wall_train, wall.scene.synth);
    let renderer = wall.scene.window_renderer(&wall_train, 9);
    let mut window = vec![Complex::ZERO; FUSED_BLOCK];
    let mut render_pass = || {
        for start in (0..wall_samples).step_by(FUSED_BLOCK) {
            let w = &mut window[..FUSED_BLOCK.min(wall_samples - start)];
            w.fill(Complex::ZERO);
            renderer.render_into(start, w);
            std::hint::black_box(w[0]);
        }
    };
    render_pass();
    let before = allocations();
    render_pass();
    let wall_allocs = allocations() - before;
    assert!(wall_samples > 4 * FUSED_BLOCK, "the wall pass should span several blocks");
    assert_eq!(
        wall_allocs, 0,
        "through-wall window renderer allocated {wall_allocs}x over {wall_samples} samples"
    );

    // 5. The Hamming(7,4) decoder proper: it returns its nibble in a
    //    fixed array, so decoding any number of codewords in a hot
    //    loop — the inner kernel of every deframe attempt the anchor
    //    candidate chain makes — is strictly heap-free.
    let codewords: Vec<[u8; 7]> = (0..1024u32)
        .map(|i| {
            let mut cw = emsc_covert::coding::hamming74_encode(&[
                (i & 1) as u8,
                ((i >> 1) & 1) as u8,
                ((i >> 2) & 1) as u8,
                ((i >> 3) & 1) as u8,
            ]);
            cw[(i % 7) as usize] ^= (i % 3 == 0) as u8; // sprinkle correctable errors
            cw
        })
        .collect();
    let before = allocations();
    let mut corrected = 0usize;
    for cw in &codewords {
        let (nibble, fixed) = emsc_covert::coding::hamming74_decode(cw);
        std::hint::black_box(nibble);
        corrected += usize::from(fixed);
    }
    let decode_allocs = allocations() - before;
    assert!(corrected > 0, "the error sprinkle above should exercise the corrector");
    assert_eq!(decode_allocs, 0, "hamming74_decode allocated {decode_allocs}x over 1024 codewords");

    // 6. The semi-global metric alignment of one marker-coded frame
    //    (2,339 on-air bits) against a receive with lead junk and
    //    indels: the bit-parallel kernel keeps two delta words per
    //    64 tx bits and rx bit, ~1.4 MB here, where an (n+1)(m+1)
    //    `u32` table would request ~22 MB.
    let mut state = 0x5EED_u64;
    let mut coin = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let tx: Vec<u8> = (0..2339).map(|_| (coin() & 1) as u8).collect();
    let mut rx: Vec<u8> = (0..12).map(|_| (coin() & 1) as u8).collect();
    for &t in &tx {
        match coin() % 500 {
            0 => {}                                  // deletion
            1 => rx.extend([t, (coin() & 1) as u8]), // insertion
            2 => rx.push(t ^ 1),                     // substitution
            _ => rx.push(t),
        }
    }
    assert!((2300..2400).contains(&rx.len()), "rx has {} bits", rx.len());
    let before = requested_bytes();
    let a = std::hint::black_box(emsc_covert::metrics::align_semiglobal(&tx, &rx));
    let align_bytes = requested_bytes() - before;
    assert_eq!(a.tx_len(), tx.len());
    assert!(
        align_bytes < 2 << 20,
        "align_semiglobal requested {align_bytes} bytes for {}x{} bits",
        tx.len(),
        rx.len()
    );
}
