//! The TX chain driven stage by stage through the library's public
//! functions, with a span around each call: the decomposition of the
//! fused producer `emsc_core::ChainStream` (buck → per-block synthesis,
//! path gain, interference, AWGN and AGC peak → per-block digitise).
//! Every stage is window-invariant, so this reproduces the production
//! capture bit for bit; the parity check verifies that it does.

use emsc_core::{Chain, FUSED_BLOCK};
use emsc_emfield::interference::{add_awgn_window, Interferer};
use emsc_emfield::synth::{pulses_sorted, render_train_window_hint, samples_for};
use emsc_pmu::trace::PowerTrace;
use emsc_sdr::iq::Complex;
use emsc_sdr::simd::peak_abs;
use emsc_sdr::Frontend;
use emsc_vrm::buck::Buck;

use crate::trace::{Tracer, AWGN, BUCK, FRONTEND, INTERFERENCE, SYNTH};

/// The analog arena and digitised block, reused across operations the
/// way `ChainStream` reuses its pooled scratch.
#[derive(Debug, Default)]
pub struct Arena {
    analog: Vec<Complex>,
    block: Vec<Complex>,
}

/// Harmonics of `intf` that fall inside the capture band — the ones
/// `Interferer::add_to_window` synthesises.
fn in_band_harmonics(intf: &Interferer, sample_rate: f64, center_freq: f64) -> u64 {
    (1..=intf.harmonics)
        .filter(|&h| (intf.fundamental_hz * f64::from(h) - center_freq).abs() <= sample_rate / 2.0)
        .count() as u64
}

/// Converts `trace` into digitised capture blocks, handing each block
/// to `sink` in order. Mirrors `ChainStream::new` + `next_block`.
pub fn render(
    chain: &Chain,
    trace: &PowerTrace,
    seed: u64,
    arena: &mut Arena,
    tr: &mut Tracer,
    mut sink: impl FnMut(&[Complex], &mut Tracer),
) -> Result<(), String> {
    if chain.blinking.is_some() {
        return Err("the stage decomposition does not model architecture blinking".into());
    }
    let train = tr.time(BUCK, || Buck::new(chain.vrm.clone()).convert(trace));
    tr.count("vrm.buck.pulses", train.pulses.len() as u64);

    let scene = &chain.scene;
    let synth = scene.synth;
    let n = samples_for(&train, synth);
    let sorted = tr.time(SYNTH, || pulses_sorted(&train));
    let path_gain = scene.path.gain() * scene.emission_scale;
    let harmonics: u64 = scene
        .interferers
        .iter()
        .map(|i| in_band_harmonics(i, synth.sample_rate, synth.center_freq))
        .sum();

    // Pass 1: render each block and fold the AGC peak while it is hot.
    let analog = &mut arena.analog;
    analog.clear();
    analog.reserve(n);
    let mut peak = 0.0f64;
    let mut start = 0;
    while start < n {
        let len = FUSED_BLOCK.min(n - start);
        tr.time(SYNTH, || {
            analog.resize(start + len, Complex::ZERO);
            let out = &mut analog[start..start + len];
            render_train_window_hint(&train, synth, sorted, start, out);
            for s in out.iter_mut() {
                *s = s.scale(path_gain);
            }
        });
        let out = &mut analog[start..start + len];
        if !scene.interferers.is_empty() {
            tr.time(INTERFERENCE, || {
                for (i, intf) in scene.interferers.iter().enumerate() {
                    intf.add_to_window(
                        out,
                        synth.sample_rate,
                        synth.center_freq,
                        seed ^ (i as u64) << 32,
                        start,
                    );
                }
            });
            tr.count("emfield.interference.samples", len as u64);
        }
        tr.time(AWGN, || {
            add_awgn_window(out, scene.noise_sigma, seed ^ 0x00ff_00ff_00ff_00ff, start)
        });
        peak = tr.time(FRONTEND, || peak.max(peak_abs(out)));
        start += len;
    }
    tr.count("emfield.synth.samples", n as u64);
    tr.count("emfield.interference.harmonic_samples", harmonics * n as u64);
    tr.count("sdr.frontend.samples", n as u64);

    // Pass 2: digitise block by block under the global-peak AGC gain.
    let frontend = Frontend::new(chain.frontend.clone());
    let gain = frontend.agc_gain(peak);
    let mut cursor = 0;
    while cursor < n {
        let len = FUSED_BLOCK.min(n - cursor);
        let block = &mut arena.block;
        tr.time(FRONTEND, || {
            frontend.digitize_window_into(&analog[cursor..cursor + len], cursor, gain, block)
        });
        sink(block, tr);
        cursor += len;
    }
    Ok(())
}

/// Bitwise equality of two capture sample sequences.
pub fn same_samples(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}
