//! Fused chunked TX chain: synth → AWGN → digitise in one
//! cache-resident pass.
//!
//! [`Chain::run_program`] historically materialised the full analog
//! waveform (`Scene::render` → one multi-megabyte `Vec`), then walked
//! it again in the digitiser — every sample made three round trips
//! through main memory before the receiver saw it. [`ChainStream`]
//! replaces that with a blockwise producer: the switching train is
//! rendered in L1/L2-sized blocks, and synthesis, path gain,
//! interference, AWGN and the AGC peak fold all touch a block while it
//! is cache-resident.
//!
//! # Two passes, one arena
//!
//! The AGC gain is a function of the *global* analog peak, so no block
//! can be digitised before every block has been rendered. Rather than
//! render twice (synthesis + AWGN dominate the chain's TX cost), the
//! stream keeps the rendered analog in a recycled arena:
//!
//! 1. **Render pass** (construction): each block is composed by
//!    [`emsc_emfield::scene::WindowRenderer::render_into`] and folded
//!    into the running peak while hot in cache.
//! 2. **Digitise pass** ([`ChainStream::next_block`]): each block is
//!    quantised by [`emsc_sdr::Frontend::digitize_window_into`] into a
//!    small recycled buffer the consumer borrows — the full capture
//!    `Vec` never exists unless the caller asks for a [`ChainRun`].
//!
//! Both scratch buffers live in a thread-local pool, so a grid cell's
//! steady state allocates nothing per block and nothing per run after
//! warm-up.
//!
//! # Equivalence contract
//!
//! Every TX-side primitive is window-invariant (absolute-index phasor
//! anchors, positional AWGN sub-seeding, absolute mixer grid), so the
//! fused stream is **bit-identical** to the whole-buffer composition
//! `Buck::convert` → [`emsc_emfield::scene::Scene::render`] →
//! [`emsc_sdr::Frontend::digitize`] for every block size and thread
//! count. The tests in `tests/tests/streaming.rs` pin this at block
//! sizes {1, 7, 4096, whole} × `EMSC_THREADS` ∈ {1, 3}.

use std::cell::RefCell;

use emsc_emfield::synth::samples_for;
use emsc_pmu::trace::PowerTrace;
use emsc_sdr::iq::Complex;
use emsc_sdr::simd::peak_abs;
use emsc_sdr::{Capture, Frontend};
use emsc_vrm::buck::Buck;
use emsc_vrm::train::SwitchingTrain;

use crate::chain::{Chain, ChainRun};

/// Default fused block: 8192 complex samples = 128 KiB, sized so one
/// block plus the synthesis LUT and the mixer tables sit inside L2
/// while each stage streams over it. The `perf_report` sweep over
/// {1k, 2k, 4k, 8k, 16k, 64k} put the optimum here, with a flat ±2 %
/// plateau from 2k to 16k.
pub const FUSED_BLOCK: usize = 8192;

/// Reusable buffers for one chain run: the analog arena (pass 1) and
/// the digitised block (pass 2). Pooled per thread so repeated runs —
/// a BER grid's cells, a service's capture loop — reach a zero-
/// allocation steady state.
#[derive(Debug, Default)]
struct ChainScratch {
    analog: Vec<Complex>,
    block: Vec<Complex>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<ChainScratch>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch() -> ChainScratch {
    SCRATCH_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn recycle_scratch(scratch: ChainScratch) {
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        // A couple of arenas covers every nesting the experiments use
        // (an outer run streaming while an inner oracle runs); beyond
        // that, dropping is cheaper than hoarding capacity.
        if pool.len() < 2 {
            pool.push(scratch);
        }
    });
}

/// A blockwise producer of digitised capture samples for one chain
/// run. Created by [`Chain::stream_trace`]; drained by
/// [`ChainStream::next_block`] into a streaming consumer, or collected
/// whole by [`ChainStream::into_run`].
#[derive(Debug)]
pub struct ChainStream {
    trace: PowerTrace,
    train: SwitchingTrain,
    frontend: Frontend,
    gain: f64,
    block_samples: usize,
    cursor: usize,
    scratch: ChainScratch,
}

impl ChainStream {
    /// Renders the chain's analog waveform blockwise (the fused pass 1)
    /// and readies the digitise cursor. Blinking is applied to the
    /// trace before the VRM converts it.
    pub fn new(chain: &Chain, trace: PowerTrace, seed: u64) -> Self {
        ChainStream::with_block_samples(chain, trace, seed, FUSED_BLOCK)
    }

    /// [`ChainStream::new`] with an explicit block size (in complex
    /// samples). Output is bit-identical for every block size; the
    /// size only moves the cache/working-set trade-off.
    pub fn with_block_samples(
        chain: &Chain,
        trace: PowerTrace,
        seed: u64,
        block_samples: usize,
    ) -> Self {
        let block_samples = block_samples.max(1);
        let trace = match chain.blinking {
            Some(b) => trace.with_blinking(b.period_s, b.duty, b.level_a),
            None => trace,
        };
        let train = Buck::new(chain.vrm.clone()).convert(&trace);
        let n = samples_for(&train, chain.scene.synth);

        let mut scratch = take_scratch();
        scratch.analog.clear();
        scratch.analog.reserve(n);
        // Probes the train's pulse ordering once for the whole run, so
        // each block pays only binary-search + phasor-warm-up overhead.
        let renderer = chain.scene.window_renderer(&train, seed);
        let mut peak = 0.0f64;
        let mut start = 0;
        while start < n {
            let len = block_samples.min(n - start);
            scratch.analog.resize(start + len, Complex::ZERO);
            renderer.render_into(start, &mut scratch.analog[start..start + len]);
            // `peak_abs` is an order-independent max fold, so folding
            // block peaks reproduces the whole-buffer AGC scan bit for
            // bit while the block is still in cache.
            peak = peak.max(peak_abs(&scratch.analog[start..start + len]));
            start += len;
        }

        let frontend = Frontend::new(chain.frontend.clone());
        let gain = frontend.agc_gain(peak);
        ChainStream { trace, train, frontend, gain, block_samples, cursor: 0, scratch }
    }

    /// Ground-truth power-state trace (blinking applied).
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// The VRM's switching activity.
    pub fn train(&self) -> &SwitchingTrain {
        &self.train
    }

    /// Total capture length in samples.
    pub fn total_samples(&self) -> usize {
        self.scratch.analog.len()
    }

    /// Number of blocks [`ChainStream::next_block`] will yield.
    pub fn blocks_total(&self) -> usize {
        self.total_samples().div_ceil(self.block_samples)
    }

    /// Digitises and returns the next block of capture samples, or
    /// `None` once the run is fully consumed. The returned slice
    /// aliases an internal buffer that the next call overwrites —
    /// push it into a consumer before advancing.
    ///
    /// Concatenating every block reproduces
    /// `Frontend::digitize(&scene.render(..)).samples` bit for bit.
    pub fn next_block(&mut self) -> Option<&[Complex]> {
        let ChainScratch { analog, block } = &mut self.scratch;
        if self.cursor >= analog.len() {
            return None;
        }
        let len = self.block_samples.min(analog.len() - self.cursor);
        self.frontend.digitize_window_into(
            &analog[self.cursor..self.cursor + len],
            self.cursor,
            self.gain,
            block,
        );
        self.cursor += len;
        Some(block)
    }

    /// Drains the remaining blocks into a full [`ChainRun`] — the
    /// convenience shape for callers that want the materialised
    /// capture. Blocks already taken with [`ChainStream::next_block`]
    /// are re-digitised so the capture is always complete.
    pub fn into_run(mut self) -> ChainRun {
        let n = self.total_samples();
        let mut samples = Vec::with_capacity(n);
        self.cursor = 0;
        while let Some(block) = self.next_block() {
            samples.extend_from_slice(block);
        }
        let cfg = self.frontend.config();
        let capture =
            Capture { samples, sample_rate: cfg.sample_rate, center_freq: cfg.center_freq };
        let ChainStream { trace, train, scratch, .. } = self;
        recycle_scratch(scratch);
        ChainRun { trace, train, capture }
    }

    /// Consumes the stream, returning the ground-truth stages without
    /// materialising a capture — the exit for fully streamed runs
    /// whose samples were already pushed into a receiver.
    pub fn into_trace_train(self) -> (PowerTrace, SwitchingTrain) {
        let ChainStream { trace, train, scratch, .. } = self;
        recycle_scratch(scratch);
        (trace, train)
    }
}

impl Chain {
    /// Starts a fused blockwise run from an externally-built power
    /// trace: the streaming sibling of [`Chain::run_trace`].
    pub fn stream_trace(&self, trace: PowerTrace, seed: u64) -> ChainStream {
        ChainStream::new(self, trace, seed)
    }

    /// [`Chain::stream_trace`] for a program (the streaming sibling of
    /// [`Chain::run_program`]).
    pub fn stream_program(&self, program: &emsc_pmu::workload::Program, seed: u64) -> ChainStream {
        let trace = self.machine.run(program, seed);
        self.stream_trace(trace, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Setup;
    use crate::laptop::Laptop;
    use emsc_pmu::workload::Program;

    /// The whole-buffer TX composition the fused stream must reproduce:
    /// blinking → buck → full analog render → one digitise sweep.
    fn staged_capture(chain: &Chain, trace: &PowerTrace, seed: u64) -> Vec<Complex> {
        let trace = match chain.blinking {
            Some(b) => trace.clone().with_blinking(b.period_s, b.duty, b.level_a),
            None => trace.clone(),
        };
        let train = Buck::new(chain.vrm.clone()).convert(&trace);
        let analog = chain.scene.render(&train, seed);
        Frontend::new(chain.frontend.clone()).digitize(&analog).samples
    }

    #[test]
    fn fused_run_matches_staged_oracle_bitwise() {
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let program = Program::alternating(300e-6, 300e-6, 12, chain.machine.steady_state_ips());
        let trace = chain.machine.run(&program, 7);
        let staged = staged_capture(&chain, &trace, 7);
        let fused = chain.stream_trace(trace, 7).into_run();
        assert_eq!(staged.len(), fused.capture.samples.len());
        for (i, (a, b)) in staged.iter().zip(&fused.capture.samples).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i} differs"
            );
        }
    }

    #[test]
    fn block_size_is_unobservable() {
        let laptop = Laptop::lenovo_thinkpad();
        let mut chain = Chain::new(&laptop, Setup::ThroughWall);
        chain.blinking =
            Some(crate::chain::BlinkingConfig { period_s: 1e-3, duty: 0.3, level_a: 2.0 });
        let program = Program::alternating(200e-6, 200e-6, 6, chain.machine.steady_state_ips());
        let trace = chain.machine.run(&program, 3);
        let whole =
            ChainStream::with_block_samples(&chain, trace.clone(), 3, usize::MAX).into_run();
        for block in [997usize, 4096] {
            let mut stream = ChainStream::with_block_samples(&chain, trace.clone(), 3, block);
            assert_eq!(stream.blocks_total(), stream.total_samples().div_ceil(block));
            let mut samples = Vec::new();
            while let Some(b) = stream.next_block() {
                samples.extend_from_slice(b);
            }
            assert_eq!(samples, whole.capture.samples, "block size {block}");
            let (trace_out, train) = stream.into_trace_train();
            assert_eq!(trace_out.duration_s(), whole.trace.duration_s());
            assert_eq!(train.pulses.len(), whole.train.pulses.len());
        }
    }

    #[test]
    fn partially_consumed_stream_still_yields_full_run() {
        let laptop = Laptop::dell_inspiron();
        let chain = Chain::new(&laptop, Setup::NearField);
        let program = Program::alternating(250e-6, 250e-6, 8, chain.machine.steady_state_ips());
        let trace = chain.machine.run(&program, 11);
        let reference = chain.run_trace(trace.clone(), 11);
        let mut stream = chain.stream_trace(trace, 11);
        let first = stream.next_block().expect("non-empty run").to_vec();
        assert_eq!(first[..], reference.capture.samples[..first.len()]);
        let run = stream.into_run();
        assert_eq!(run.capture.samples, reference.capture.samples);
    }
}
