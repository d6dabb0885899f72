//! Performance report for the experiment runtime and DSP hot paths.
//!
//! ```text
//! cargo run --release -p emsc-examples --example perf_report
//! ```
//!
//! Times the layers below and writes the results to `BENCH_runtime.json`
//! in the current directory:
//!
//! 1. **FFT** — repeated transforms through the thread-local plan
//!    cache vs rebuilding the plan every call.
//! 2. **End to end** — Table II (the biggest `reproduce` grid) with
//!    `with_threads(1)` vs the full worker pool.
//! 3. **Streaming** — the streaming receiver fed the capture in
//!    16 Ki-sample chunks vs the same receiver fed the whole capture
//!    as one push (`Receiver::receive`): steady-state throughput in
//!    Msamples/s plus per-chunk heap allocations (counted by a
//!    wrapping global allocator). The JSON keeps the one-push time
//!    under its historical key `batch_s`.
//! 4. **Sessions** — the multi-tenant registry multiplexing several
//!    bounded-buffer streams (including a poisoned one): wall time
//!    plus the per-session cumulative counters (chunks accepted and
//!    rejected, stream errors, last error kind).
//! 5. **Fused TX chain** — one chain run's TX side through the
//!    blockwise producer: pass time, blocks/s and peak resident
//!    samples, with the capture checked bit for bit against the
//!    whole-buffer composition `Frontend::digitize(&scene.render(..))`.
//! 6. **Interference** — the through-wall printer + refrigerator
//!    combs rendered in fused-size windows by the anchored-phasor
//!    kernel vs a reference loop with one `from_polar` per harmonic
//!    and sample: ns/sample for both, speedup and the kernel's max
//!    error relative to the weaker comb's fundamental.
//! 7. **Alignment** — the semi-global metric alignment of one
//!    marker-coded frame (2,339 on-air bits) against a seeded impaired
//!    receive with lead junk: ms per call of the bit-parallel kernel.
//! 8. **Eq. (1) front end** — `EnergyStream` (the modulated sliding
//!    DFT) vs the rotating recurrence it replaced, on the seeded
//!    Inspiron capture of section 5 at the Inspiron receiver's window,
//!    bins and decimation: ns/sample for both, speedup and the
//!    kernel's max error relative to the peak energy.
//!
//! `--quick` runs every section at smoke scale and asserts its
//! invariants (grid rows bit-identical across thread counts, chunked
//! receive == whole-capture receive, fused capture == whole-buffer
//! capture, comb error ≤ −150 dB, the alignment covers every sent bit
//! and scores the frame against itself error-free, Eq. (1) error
//! ≤ −120 dB and chunked energy == one-chunk energy) without writing
//! the JSON.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use emsc_core::chain::{Chain, Setup};
use emsc_core::covert_run::CovertScenario;
use emsc_core::experiments::tables::{measure_channel_grid, TableScale};
use emsc_core::fused::{ChainStream, FUSED_BLOCK};
use emsc_core::laptop::Laptop;
use emsc_covert::metrics::align_semiglobal;
use emsc_covert::rx::{Receiver, RxConfig};
use emsc_covert::stream::StreamingReceiver;
use emsc_emfield::interference::Interferer;
use emsc_emfield::synth::SynthConfig;
use emsc_pmu::workload::Program;
use emsc_runtime::{current_threads, with_threads};
use emsc_sdr::fft::{frequency_bin, plan_for, FftPlan};
use emsc_sdr::iq::Complex;
use emsc_sdr::stream::EnergyStream;
use emsc_sdr::{Capture, Frontend};
use emsc_vrm::buck::Buck;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Allocation-counting wrapper around the system allocator, so the
/// streaming bench can report allocations per pushed chunk. The
/// counter only ever increments; benches read deltas.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations so far (monotonic).
fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// The per-sample comb `Interferer::add_to_window` used to compute:
/// the same in-band gate and `phase0` draws, then one `from_polar` per
/// harmonic and sample at its absolute index. The reference arm of the
/// interference bench.
fn reference_comb(
    intf: &Interferer,
    buf: &mut [Complex],
    sample_rate: f64,
    center_freq: f64,
    seed: u64,
    start: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ intf.fundamental_hz.to_bits());
    for h in 1..=intf.harmonics {
        let f_bb = intf.fundamental_hz * f64::from(h) - center_freq;
        if f_bb.abs() > sample_rate / 2.0 {
            continue;
        }
        let amp = intf.amplitude * intf.rolloff.powi(h as i32 - 1);
        let phase0: f64 = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        let step = 2.0 * std::f64::consts::PI * f_bb / sample_rate;
        for (k, slot) in buf.iter_mut().enumerate() {
            *slot += Complex::from_polar(amp, phase0 + step * (start + k) as f64);
        }
    }
}

/// The Eq. (1) energy the rotating sliding DFT used to compute:
/// `F ← (F + x − old) · e^{+2πik/M}` per bin and sample, re-summed
/// exactly from the ring every `M`-th sample, with `Σ_k |F_k|` emitted
/// on the `EnergyStream` decimation grid. The reference arm of the
/// front-end bench.
fn reference_energy(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Vec<f64> {
    let turn = |k: usize, m: usize| 2.0 * std::f64::consts::PI * (k * m) as f64 / window as f64;
    let rotators: Vec<Complex> = bins.iter().map(|&k| Complex::cis(turn(k, 1))).collect();
    let twiddles: Vec<Vec<Complex>> =
        bins.iter().map(|&k| (0..window).map(|m| Complex::cis(-turn(k, m))).collect()).collect();
    let mut values = vec![Complex::ZERO; bins.len()];
    let mut ring = vec![Complex::ZERO; window];
    let mut out = Vec::new();
    for (n, &x) in samples.iter().enumerate() {
        let slot = n % window;
        let oldest = std::mem::replace(&mut ring[slot], x);
        if (n + 1).is_multiple_of(window) {
            for (v, tw) in values.iter_mut().zip(&twiddles) {
                *v = (0..window)
                    .fold(Complex::ZERO, |acc, m| acc + ring[(slot + 1 + m) % window] * tw[m]);
            }
        } else {
            for (v, r) in values.iter_mut().zip(&rotators) {
                *v = (*v + x - oldest) * *r;
            }
        }
        if n + 1 >= window && (n + 1 - window).is_multiple_of(decimation) {
            out.push(values.iter().map(|v| v.abs()).sum());
        }
    }
    out
}

/// Calls `render(start, window)` on each zeroed [`FUSED_BLOCK`]-sample
/// window of an `n`-sample capture, the way the fused TX chain walks
/// it, and returns a checksum so the work cannot be optimised away.
fn sweep_windows(n: usize, mut render: impl FnMut(usize, &mut [Complex])) -> f64 {
    let mut window = vec![Complex::ZERO; FUSED_BLOCK];
    let mut checksum = 0.0;
    for start in (0..n).step_by(FUSED_BLOCK) {
        let w = &mut window[..FUSED_BLOCK.min(n - start)];
        w.fill(Complex::ZERO);
        render(start, w);
        checksum += w[0].re;
    }
    checksum
}

/// On-off-keyed covert capture at the corpus tuning (centre tuned to
/// the switching line, so the carrier sits at baseband DC): the
/// streaming-bench input. Deterministic xorshift noise floor.
fn streaming_capture(n: usize) -> Capture {
    let bit_samples = 600; // 250 us at 2.4 Msps
    let mut state = 0x2020_u64;
    let samples = (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = ((state & 0xFFFF) as f64 / 65535.0 - 0.5) * 0.05;
            let amp = if (i / bit_samples).is_multiple_of(2) { 0.5 } else { 0.02 };
            Complex::new(amp + noise, noise)
        })
        .collect();
    Capture { samples, sample_rate: 2.4e6, center_freq: 250e3 }
}

fn main() {
    // `--quick` shrinks every section to a CI-smoke scale: the whole
    // report runs in a few seconds, still exercising every code path
    // (including the bit-identity checks), but the timings are too
    // noisy to publish — so quick mode never writes BENCH_runtime.json.
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let threads = current_threads();
    println!(
        "perf_report — {threads} worker threads available{}\n",
        if quick { " (--quick smoke scale)" } else { "" }
    );

    // 1. FFT plan cache: plan_for() (cached) vs a fresh plan per call
    //    (same per-call buffer clone on both arms, so the difference
    //    is purely plan construction).
    let fft_n = 4096;
    let fft_reps = if quick { 40 } else { 400 };
    let buf: Vec<Complex> = (0..fft_n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let (uncached_s, _) = time_best(reps, || {
        let mut acc = 0.0;
        for _ in 0..fft_reps {
            let mut b = buf.clone();
            FftPlan::new(fft_n).forward(&mut b);
            acc += b[1].re;
        }
        acc
    });
    let (cached_s, _) = time_best(reps, || {
        let mut acc = 0.0;
        for _ in 0..fft_reps {
            let mut b = buf.clone();
            plan_for(fft_n).forward(&mut b);
            acc += b[1].re;
        }
        acc
    });
    let fft_speedup = uncached_s / cached_s;
    println!("fft ({fft_reps} x {fft_n}-point):");
    println!("  fresh plan per call  {uncached_s:>9.4} s");
    println!("  thread-local cache   {cached_s:>9.4} s   ({fft_speedup:.2}x)\n");

    // 2. End to end: the Table II grid (the biggest `reproduce`
    //    artefact), at a reduced scale that keeps the report under a
    //    minute, on one thread and on all workers.
    let scale = if quick {
        TableScale { payload_bytes: 16, runs: 1 }
    } else {
        TableScale { payload_bytes: 32, runs: 4 }
    };
    let seed = 2020;
    let scenarios = || -> Vec<(String, CovertScenario)> {
        Laptop::all()
            .iter()
            .map(|laptop| {
                let chain = Chain::new(laptop, Setup::NearField);
                (laptop.model.to_string(), CovertScenario::for_laptop(laptop, chain))
            })
            .collect()
    };
    let fast_scenarios = scenarios();
    // Reps interleave across the two rows (serial, pool) and each row
    // keeps its best: paired sampling, so slow drift in the host's
    // available throughput hits both rows' epochs alike instead of
    // biasing whichever row it coincides with.
    let e2e_reps = if quick { 1 } else { 3 };
    let mut serial_s = f64::INFINITY;
    let mut parallel_s = f64::INFINITY;
    let mut serial_rows = Vec::new();
    let mut parallel_rows = Vec::new();
    for _ in 0..e2e_reps {
        let (t, rows) =
            time_best(1, || with_threads(1, || measure_channel_grid(&fast_scenarios, scale, seed)));
        serial_s = serial_s.min(t);
        serial_rows = rows;
        let (t, rows) = time_best(1, || measure_channel_grid(&fast_scenarios, scale, seed));
        parallel_s = parallel_s.min(t);
        parallel_rows = rows;
    }
    let identical = serial_rows.len() == parallel_rows.len()
        && serial_rows.iter().zip(&parallel_rows).all(|(a, b)| {
            a.ber.to_bits() == b.ber.to_bits() && a.tr_bps.to_bits() == b.tr_bps.to_bits()
        });
    let pool_speedup = serial_s / parallel_s;
    println!("end-to-end (Table II grid, {} cells):", 6 * scale.runs);
    println!("  1 thread             {serial_s:>9.3} s");
    println!("  {threads} thread(s)          {parallel_s:>9.3} s   ({pool_speedup:.2}x)");
    println!("  rows bit-identical   {identical}");
    if threads < 4 {
        println!("  (pool speedup is bounded by the {threads} core(s) available here)");
    }
    println!();

    // 3. Streaming receive chain: steady-state throughput of the
    //    chunked StreamingReceiver vs one whole-capture push on the
    //    same capture, plus heap allocations per pushed chunk once the
    //    internal buffers have warmed up.
    let stream_cfg = RxConfig::new(250e3, 250e-6);
    let stream_cap = streaming_capture(if quick { 300_000 } else { 1_200_000 });
    let stream_chunk = 16 * 1024;
    let (whole_rx_s, whole_report) =
        time_best(reps, || Receiver::new(stream_cfg.clone()).receive(&stream_cap));
    let (stream_rx_s, stream_report) = time_best(reps, || {
        let mut rx = StreamingReceiver::new(
            stream_cfg.clone(),
            stream_cap.sample_rate,
            stream_cap.center_freq,
        )
        .expect("bench config is valid");
        for c in stream_cap.samples.chunks(stream_chunk) {
            rx.push(c);
        }
        rx.finish()
    });
    let stream_msps = stream_cap.samples.len() as f64 / stream_rx_s / 1e6;
    let stream_identical = stream_report == whole_report;

    // Steady-state allocation count: the first half of the chunks
    // warms the grow-only buffers, the second half is measured.
    let mut warm_rx =
        StreamingReceiver::new(stream_cfg.clone(), stream_cap.sample_rate, stream_cap.center_freq)
            .expect("bench config is valid");
    let chunks: Vec<&[Complex]> = stream_cap.samples.chunks(stream_chunk).collect();
    let warm = chunks.len() / 2;
    for c in &chunks[..warm] {
        warm_rx.push(c);
    }
    let alloc_before = allocations();
    for c in &chunks[warm..] {
        warm_rx.push(c);
    }
    let allocs_per_chunk = (allocations() - alloc_before) as f64 / (chunks.len() - warm) as f64;

    println!("streaming ({} samples, {stream_chunk}-sample chunks):", stream_cap.samples.len());
    println!("  whole-capture push   {whole_rx_s:>9.4} s");
    println!("  streamed receive     {stream_rx_s:>9.4} s   ({stream_msps:.1} Msamples/s)");
    println!("  allocs per chunk     {allocs_per_chunk:>9.2}   (steady state)");
    println!("  report bit-identical {stream_identical}\n");

    // 4. Multi-tenant session registry: the bench capture multiplexed
    //    through bounded-buffer sessions at two chunk sizes, next to a
    //    poisoned stream that fails with a typed error. The per-session
    //    cumulative counters (satellite of the service layer) land in
    //    the table below and in the JSON.
    use emsc_core::session::SessionRegistry;
    let poisoned_cap = Capture {
        samples: vec![Complex::new(f64::NAN, f64::NAN); 50_000],
        sample_rate: stream_cap.sample_rate,
        center_freq: stream_cap.center_freq,
    };
    let tenants: Vec<(&str, &Capture, usize)> = vec![
        ("covert 16k-chunk", &stream_cap, 16 * 1024),
        ("covert 4k-chunk", &stream_cap, 4 * 1024),
        ("poisoned stream", &poisoned_cap, 8 * 1024),
    ];
    let (session_s, session_rows) = time_best(reps, || {
        let mut registry = SessionRegistry::new(seed, 1 << 16);
        let ids: Vec<_> = tenants
            .iter()
            .map(|(_, cap, _)| {
                registry
                    .open_covert(stream_cfg.clone(), cap.sample_rate, cap.center_freq)
                    .expect("bench session admits")
            })
            .collect();
        let mut offsets = vec![0usize; tenants.len()];
        loop {
            let mut progressed = false;
            for (k, (_, cap, chunk)) in tenants.iter().enumerate() {
                if offsets[k] >= cap.samples.len() {
                    continue;
                }
                let end = (offsets[k] + chunk).min(cap.samples.len());
                while registry.offer(ids[k], &cap.samples[offsets[k]..end]).is_err() {
                    registry.pump();
                }
                offsets[k] = end;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        registry.pump();
        ids.into_iter()
            .map(|id| registry.finish(id).expect("bench session closes").stats)
            .collect::<Vec<_>>()
    });
    println!("sessions ({} tenants, shared registry):", tenants.len());
    println!("  multiplexed replay   {session_s:>9.4} s");
    println!(
        "  {:<18} {:>8} {:>8} {:>12} {:>7} last error",
        "session", "accepted", "rejected", "samples", "errors"
    );
    for ((label, _, _), stats) in tenants.iter().zip(&session_rows) {
        println!(
            "  {:<18} {:>8} {:>8} {:>12} {:>7} {}",
            label,
            stats.chunks_accepted,
            stats.chunks_rejected,
            stats.samples_processed,
            stats.stream_errors,
            stats.last_error.unwrap_or("-")
        );
    }
    println!();

    // 5. Fused TX chain: one chain run's TX side (trace → train →
    //    analog → capture) through the blockwise producer, which
    //    streams cache-resident blocks and never materialises the
    //    capture. Timed on a pre-built trace so the PMU stage stays
    //    out of the figure; the capture is checked bit for bit against
    //    the whole-buffer render + digitise composition.
    let fused_laptop = Laptop::dell_inspiron();
    let fused_chain = Chain::new(&fused_laptop, Setup::NearField);
    let fused_program = Program::alternating(
        500e-6,
        500e-6,
        if quick { 10 } else { 100 },
        fused_chain.machine.steady_state_ips(),
    );
    let fused_trace = with_threads(1, || fused_chain.machine.run(&fused_program, seed));
    let (fused_tx_s, _) = time_best(reps, || {
        with_threads(1, || {
            let mut stream = fused_chain.stream_trace(fused_trace.clone(), seed);
            let mut checksum = 0.0f64;
            while let Some(block) = stream.next_block() {
                checksum += block[0].re;
            }
            std::hint::black_box(checksum);
            stream.into_trace_train()
        })
    });
    let fused_run = ChainStream::new(&fused_chain, fused_trace.clone(), seed).into_run();
    let fused_samples = fused_run.capture.samples.len();
    let fused_blocks = fused_samples.div_ceil(FUSED_BLOCK);
    let fused_identical = {
        let train = Buck::new(fused_chain.vrm.clone()).convert(&fused_trace);
        let analog = fused_chain.scene.render(&train, seed);
        let whole = Frontend::new(fused_chain.frontend.clone()).digitize(&analog).samples;
        whole.len() == fused_samples
            && whole
                .iter()
                .zip(&fused_run.capture.samples)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
    };
    let fused_blocks_per_s = fused_blocks as f64 / fused_tx_s;
    // Peak resident complex samples: the analog arena + one digitised
    // block.
    let fused_resident = fused_samples + FUSED_BLOCK.min(fused_samples);
    println!("fused TX chain ({fused_samples} samples, {FUSED_BLOCK}-sample blocks):");
    println!("  fused pass           {fused_tx_s:>9.4} s   ({fused_blocks_per_s:.0} blocks/s)");
    println!("  peak resident        {fused_resident} samples");
    println!("  capture bit-identical {fused_identical}\n");

    // 6. Interferer combs: the through-wall printer + refrigerator
    //    pair (25 in-band harmonics), anchored-phasor kernel vs the
    //    per-sample reference, both in fused-size windows.
    let comb_synth = SynthConfig::rtl_sdr_for(970e3);
    let (comb_fs, comb_fc) = (comb_synth.sample_rate, comb_synth.center_freq);
    let comb_n = ((if quick { 0.05 } else { 1.0 }) * comb_fs) as usize;
    let combs = [Interferer::printer(0.8), Interferer::refrigerator(0.5)];
    let comb_seed = |i: usize| seed ^ (i as u64) << 32;
    let comb_fast = |start: usize, w: &mut [Complex]| {
        for (i, intf) in combs.iter().enumerate() {
            intf.add_to_window(w, comb_fs, comb_fc, comb_seed(i), start);
        }
    };
    let comb_reference = |start: usize, w: &mut [Complex]| {
        for (i, intf) in combs.iter().enumerate() {
            reference_comb(intf, w, comb_fs, comb_fc, comb_seed(i), start);
        }
    };
    let (comb_fast_s, _) = time_best(reps, || sweep_windows(comb_n, comb_fast));
    let (comb_ref_s, _) = time_best(reps, || sweep_windows(comb_n, comb_reference));
    let mut reference = vec![Complex::ZERO; FUSED_BLOCK];
    let mut comb_max_err = 0.0f64;
    sweep_windows(comb_n, |start, w| {
        let r = &mut reference[..w.len()];
        r.fill(Complex::ZERO);
        comb_reference(start, r);
        comb_fast(start, w);
        comb_max_err = w.iter().zip(&*r).fold(comb_max_err, |m, (a, b)| m.max((*a - *b).abs()));
    });
    let weakest = combs.iter().map(|c| c.amplitude).fold(f64::INFINITY, f64::min);
    let comb_err_db = 20.0 * (comb_max_err / weakest).log10();
    let comb_fast_ns = comb_fast_s * 1e9 / comb_n as f64;
    let comb_ref_ns = comb_ref_s * 1e9 / comb_n as f64;
    let comb_speedup = comb_ref_s / comb_fast_s;
    println!("interference (printer + refrigerator, {comb_n} samples):");
    println!("  per-sample reference {comb_ref_ns:>9.1} ns/sample");
    println!("  anchored phasors     {comb_fast_ns:>9.1} ns/sample   ({comb_speedup:.2}x)");
    println!("  max error            {comb_err_db:>9.1} dB\n");

    // 7. Alignment: the semi-global score of one marker-coded frame
    //    (2,339 on-air bits, as `MarkerConfig::standard()` puts a
    //    128-byte payload on air) against a receive with 40 lead junk
    //    bits, then 5 % substitutions and 2 % each of insertions and
    //    deletions.
    let align_n = 2339;
    let mut rng = StdRng::seed_from_u64(seed);
    let align_tx: Vec<u8> = (0..align_n).map(|_| rng.gen_range(0..2)).collect();
    let mut align_rx: Vec<u8> = (0..40).map(|_| rng.gen_range(0..2)).collect();
    for &t in &align_tx {
        if rng.gen_bool(0.02) {
            align_rx.push(rng.gen_range(0..2));
        }
        if !rng.gen_bool(0.02) {
            align_rx.push(t ^ u8::from(rng.gen_bool(0.05)));
        }
    }
    let align_calls = if quick { 5 } else { 100 };
    let (align_s, scored) = time_best(reps, || {
        let mut scored = None;
        for _ in 0..align_calls {
            scored = Some(std::hint::black_box(align_semiglobal(&align_tx, &align_rx)));
        }
        scored.expect("align_calls >= 1")
    });
    let align_ms = align_s * 1e3 / align_calls as f64;
    let self_aligned = align_semiglobal(&align_tx, &align_tx);
    println!("alignment (semi-global, {align_n} tx x {} rx bits):", align_rx.len());
    println!("  bit-parallel kernel  {align_ms:>9.3} ms/call");
    println!(
        "  BER {:.4}  IP {:.4}  DP {:.4}\n",
        scored.ber(),
        scored.insertion_probability(),
        scored.deletion_probability()
    );

    // 8. Eq. (1) front end: the receiver's energy stream over the
    //    seeded Inspiron capture of section 5, at the Inspiron
    //    receiver's geometry, fed in 16 Ki-sample chunks, vs the
    //    rotating-recurrence reference.
    let front_rx =
        CovertScenario::for_laptop(&fused_laptop, Chain::new(&fused_laptop, Setup::NearField)).rx;
    let front_cap = &fused_run.capture;
    let front_bins: Vec<usize> = (1..=front_rx.harmonics)
        .map(|h| front_rx.switching_freq_hz * h as f64 - front_cap.center_freq)
        .filter(|f| f.abs() < front_cap.sample_rate / 2.0)
        .map(|f| frequency_bin(f, front_rx.fft_size, front_cap.sample_rate))
        .collect();
    let (front_window, front_decimation) = (front_rx.fft_size, front_rx.decimation);
    let front_energy = |chunk: usize| {
        let mut stream = EnergyStream::new(front_window, &front_bins, front_decimation)
            .expect("bench receiver geometry is valid");
        let mut out = Vec::new();
        for c in front_cap.samples.chunks(chunk) {
            stream.push_into(c, &mut out);
        }
        out
    };
    let front_passes = if quick { 2 } else { 20 };
    let (front_s, front_out) = time_best(reps, || {
        let mut out = Vec::new();
        for _ in 0..front_passes {
            out = std::hint::black_box(front_energy(16 * 1024));
        }
        out
    });
    let (front_ref_s, front_ref) = time_best(reps, || {
        let mut out = Vec::new();
        for _ in 0..front_passes {
            out = std::hint::black_box(reference_energy(
                &front_cap.samples,
                front_window,
                &front_bins,
                front_decimation,
            ));
        }
        out
    });
    let front_whole = front_energy(front_cap.samples.len());
    let front_chunked_identical = front_whole.len() == front_out.len()
        && front_whole.iter().zip(&front_out).all(|(a, b)| a.to_bits() == b.to_bits());
    assert_eq!(front_out.len(), front_ref.len(), "kernel and reference emit on one grid");
    let front_peak = front_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let front_max_err =
        front_out.iter().zip(&front_ref).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    let front_err_db = 20.0 * (front_max_err / front_peak).log10();
    let front_n = (front_passes * front_cap.samples.len()) as f64;
    let front_ns = front_s * 1e9 / front_n;
    let front_ref_ns = front_ref_s * 1e9 / front_n;
    let front_speedup = front_ref_s / front_s;
    println!(
        "Eq. (1) front end (Inspiron, {} samples, window {front_window}, bins {front_bins:?}, decimation {front_decimation}):",
        front_cap.samples.len()
    );
    println!("  rotating reference   {front_ref_ns:>9.2} ns/sample");
    println!("  modulated kernel     {front_ns:>9.2} ns/sample   ({front_speedup:.2}x)");
    println!("  max error            {front_err_db:>9.1} dB");
    println!("  chunked bit-identical {front_chunked_identical}\n");

    let sessions_json = {
        let entries: Vec<String> = tenants
            .iter()
            .zip(&session_rows)
            .map(|((label, _, chunk), s)| {
                format!(
                    concat!(
                        "{{ \"label\": \"{}\", \"chunk_samples\": {}, ",
                        "\"chunks_accepted\": {}, \"chunks_rejected\": {}, ",
                        "\"samples_processed\": {}, \"stream_errors\": {}, \"last_error\": {} }}"
                    ),
                    label,
                    chunk,
                    s.chunks_accepted,
                    s.chunks_rejected,
                    s.samples_processed,
                    s.stream_errors,
                    s.last_error.map(|e| format!("\"{e}\"")).unwrap_or_else(|| "null".to_string()),
                )
            })
            .collect();
        format!("[\n      {}\n    ]", entries.join(",\n      "))
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"threads\": {},\n",
            "  \"energy_front_end\": {{\n",
            "    \"samples\": {},\n",
            "    \"window\": {},\n",
            "    \"bins\": {},\n",
            "    \"decimation\": {},\n",
            "    \"reference_ns_per_sample\": {:.2},\n",
            "    \"ns_per_sample\": {:.2},\n",
            "    \"speedup\": {:.3},\n",
            "    \"error_db\": {:.1},\n",
            "    \"chunked_bit_identical\": {}\n",
            "  }},\n",
            "  \"alignment\": {{\n",
            "    \"tx_bits\": {},\n",
            "    \"rx_bits\": {},\n",
            "    \"ms_per_call\": {:.4}\n",
            "  }},\n",
            "  \"interference\": {{\n",
            "    \"samples\": {},\n",
            "    \"reference_ns_per_sample\": {:.2},\n",
            "    \"ns_per_sample\": {:.2},\n",
            "    \"speedup\": {:.3},\n",
            "    \"error_db\": {:.1}\n",
            "  }},\n",
            "  \"fft\": {{\n",
            "    \"size\": {},\n",
            "    \"reps\": {},\n",
            "    \"uncached_s\": {:.6},\n",
            "    \"cached_s\": {:.6},\n",
            "    \"speedup\": {:.3}\n",
            "  }},\n",
            "  \"streaming\": {{\n",
            "    \"samples\": {},\n",
            "    \"chunk_samples\": {},\n",
            "    \"batch_s\": {:.6},\n",
            "    \"stream_s\": {:.6},\n",
            "    \"msamples_per_s\": {:.3},\n",
            "    \"allocs_per_chunk\": {:.2},\n",
            "    \"report_bit_identical\": {}\n",
            "  }},\n",
            "  \"sessions\": {{\n",
            "    \"multiplexed_replay_s\": {:.6},\n",
            "    \"tenants\": {}\n",
            "  }},\n",
            "  \"fused\": {{\n",
            "    \"samples\": {},\n",
            "    \"block_samples\": {},\n",
            "    \"fused_s\": {:.6},\n",
            "    \"blocks_per_s\": {:.0},\n",
            "    \"peak_resident_samples_fused\": {},\n",
            "    \"capture_bit_identical\": {}\n",
            "  }},\n",
            "  \"end_to_end\": {{\n",
            "    \"experiment\": \"table2\",\n",
            "    \"cells\": {},\n",
            "    \"fast_serial_s\": {:.6},\n",
            "    \"fast_parallel_s\": {:.6},\n",
            "    \"rows_bit_identical\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        threads,
        front_cap.samples.len(),
        front_window,
        format!("{front_bins:?}"),
        front_decimation,
        front_ref_ns,
        front_ns,
        front_speedup,
        front_err_db,
        front_chunked_identical,
        align_n,
        align_rx.len(),
        align_ms,
        comb_n,
        comb_ref_ns,
        comb_fast_ns,
        comb_speedup,
        comb_err_db,
        fft_n,
        fft_reps,
        uncached_s,
        cached_s,
        fft_speedup,
        stream_cap.samples.len(),
        stream_chunk,
        whole_rx_s,
        stream_rx_s,
        stream_msps,
        allocs_per_chunk,
        stream_identical,
        session_s,
        sessions_json,
        fused_samples,
        FUSED_BLOCK,
        fused_tx_s,
        fused_blocks_per_s,
        fused_resident,
        fused_identical,
        6 * scale.runs,
        serial_s,
        parallel_s,
        identical,
    );
    if quick {
        // Smoke mode still validates the equivalence invariants the
        // full report publishes, without clobbering the committed
        // numbers with noisy short-run timings.
        assert!(identical, "--quick: grid rows not thread-count bit-identical");
        assert!(stream_identical, "--quick: chunked report != whole-capture report");
        assert!(fused_identical, "--quick: fused capture != whole-buffer capture");
        assert!(comb_err_db <= -150.0, "--quick: comb error {comb_err_db:.1} dB above -150 dB");
        assert_eq!(scored.tx_len(), align_n, "--quick: alignment does not cover every sent bit");
        assert_eq!(
            self_aligned.substitutions + self_aligned.insertions + self_aligned.deletions,
            0,
            "--quick: a frame aligned with itself has errors"
        );
        assert!(
            front_err_db <= -120.0,
            "--quick: Eq. (1) error {front_err_db:.1} dB above -120 dB"
        );
        assert!(front_chunked_identical, "--quick: chunked energy != one-chunk energy");
        println!("--quick: invariants hold, BENCH_runtime.json left untouched");
    } else {
        std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
        println!("wrote BENCH_runtime.json");
    }
}
