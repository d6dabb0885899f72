//! Synthesis of the VRM's electromagnetic emission at complex baseband.
//!
//! Each replenishment pulse is a burst of `di/dt` which, by Faraday's
//! law, produces a magnetic-field transient whose strength scales with
//! the transferred charge. A pulse train that fires every switching
//! period therefore emits strong spectral lines at `f_sw` and its
//! harmonics; a pulse-skipped train emits proportionally weaker lines
//! (§II of the paper).
//!
//! We synthesise the *complex baseband* representation of that field
//! around a tuner centre frequency `f_c` at sample rate `fs`: a pulse
//! of charge `Q` at time `t_k` contributes a band-limited impulse
//!
//! ```text
//! s(t) += Q · fs · e^{−2πi·f_c·t_k} · k((t − t_k)·fs)
//! ```
//!
//! where `k` is a windowed-sinc interpolation kernel. The kernel acts
//! as the receiver's anti-alias filter (out-of-band harmonics are
//! attenuated instead of folding onto the measurement bins), while the
//! complex exponential carries the carrier phase, so spectral lines,
//! PFM sub-harmonics, and the phase decoherence caused by the
//! switching-randomisation countermeasure all emerge naturally in the
//! capture's spectrum.

use std::sync::OnceLock;

use emsc_sdr::iq::Complex;
use emsc_vrm::train::SwitchingTrain;

/// Half-width of the interpolation kernel, in samples.
const KERNEL_HALF_WIDTH: usize = 6;

/// Kernel look-up table resolution, entries per unit sample offset.
/// Linear interpolation at this density keeps the worst-case kernel
/// error below ~2·10⁻⁶ of the peak — two orders of magnitude under
/// the synthesis accuracy contract (−90 dB, asserted in tests).
const LUT_RES: usize = 1024;

/// Fast-path pulses between exact carrier-phasor re-computations.
/// The incremental rotation drifts ≲ 1 ulp per step, so the error at
/// refresh time stays ~1e-13 — the same periodic drift-control pattern
/// as `emsc_sdr::sliding::SlidingDft`. Anchors sit at *global pulse
/// indices* (`p % PHASOR_REFRESH == 0`), never at chunk boundaries, so
/// the phasor at any pulse is a function of the train alone and every
/// window decomposition reproduces it bit for bit.
const PHASOR_REFRESH: usize = 256;

/// Synthesis parameters: where the receiver is tuned and how fast it
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Complex sample rate, samples/second.
    pub sample_rate: f64,
    /// Tuner centre frequency, hertz. Choose it so `f_sw` and `2·f_sw`
    /// both land within `±sample_rate/2`.
    pub center_freq: f64,
}

impl SynthConfig {
    /// The paper's receiver setup for a given switching frequency:
    /// 2.4 Msps with the tuner centred midway between the fundamental
    /// and its first harmonic so both are in-band (§IV-B1 uses exactly
    /// those two components).
    pub fn rtl_sdr_for(f_sw: f64) -> Self {
        SynthConfig { sample_rate: 2.4e6, center_freq: 1.5 * f_sw }
    }

    /// Baseband offset of RF frequency `f` under this configuration.
    pub fn baseband(&self, f: f64) -> f64 {
        f - self.center_freq
    }
}

/// Windowed-sinc interpolation kernel evaluated at a fractional sample
/// offset `x` (Hann-windowed, cutoff at Nyquist).
fn kernel(x: f64) -> f64 {
    let half = KERNEL_HALF_WIDTH as f64;
    if x.abs() >= half {
        return 0.0;
    }
    let sinc = if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    };
    let window = 0.5 * (1.0 + (std::f64::consts::PI * x / half).cos());
    sinc * window
}

/// The precomputed kernel table: `kernel(−H + i/LUT_RES)` for
/// `i = 0 ..= 2·H·LUT_RES`, plus one trailing zero so a lookup landing
/// exactly on the right edge can still read `values[i + 1]`. Test
/// oracle for the transposed row table the render loop actually walks.
#[cfg(test)]
fn kernel_lut() -> &'static [f64] {
    static LUT: OnceLock<Vec<f64>> = OnceLock::new();
    LUT.get_or_init(|| {
        let n = 2 * KERNEL_HALF_WIDTH * LUT_RES;
        let mut values: Vec<f64> =
            (0..=n).map(|i| kernel(i as f64 / LUT_RES as f64 - KERNEL_HALF_WIDTH as f64)).collect();
        values.push(0.0);
        values
    })
}

/// Width of one row of the transposed kernel table: one entry per tap
/// a pulse can touch (2·H + 1).
const LUT_ROW: usize = 2 * KERNEL_HALF_WIDTH + 1;

/// The kernel table transposed for the render loop's access pattern.
///
/// A pulse's taps all share one fractional offset `j/LUT_RES` and walk
/// the flat table with stride `LUT_RES` — 26 scattered cache lines per
/// pulse through a 98 KB table that does not fit in L1. Row `j` of
/// this table gathers those strided entries contiguously:
/// `rows[j·LUT_ROW + m] = kernel((j + m·LUT_RES)/LUT_RES − H)`, so one
/// pulse reads exactly two adjacent rows (`j` for the left sample,
/// `j + 1` for the interpolation partner — row `LUT_RES` holds the
/// integer-lattice values that the flat table's `i + 1` wrap lands
/// on). The argument expression matches the flat table's bit for bit,
/// so every interpolated value is unchanged.
fn kernel_lut_rows() -> &'static [f64] {
    static ROWS: OnceLock<Vec<f64>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let mut rows = Vec::with_capacity((LUT_RES + 1) * LUT_ROW);
        for j in 0..=LUT_RES {
            for m in 0..LUT_ROW {
                let i = j + m * LUT_RES;
                rows.push(kernel(i as f64 / LUT_RES as f64 - KERNEL_HALF_WIDTH as f64));
            }
        }
        rows
    })
}

/// Linearly interpolated kernel lookup. `x` must lie in `[−H, H]`
/// (callers construct sample indices so that it does). The render loop
/// inlines a strided form of this walk (index += `LUT_RES`, fixed
/// fraction); this reference form remains the oracle for its tests.
#[cfg(test)]
#[inline]
fn kernel_fast(x: f64, lut: &[f64]) -> f64 {
    let pos = (x + KERNEL_HALF_WIDTH as f64) * LUT_RES as f64;
    let i = pos as usize;
    let frac = pos - i as f64;
    lut[i] + (lut[i + 1] - lut[i]) * frac
}

/// Renders a switching train into an ideal (noise-free, unit-path)
/// complex-baseband waveform of `n_samples` samples: one
/// [`render_train_window`] call over the whole range.
///
/// The output amplitude is in "source amperes": a VRM continuously
/// replenishing `I` amperes produces a spectral line of complex
/// amplitude ≈ `I` at baseband frequency `f_sw − f_c`.
///
/// # Examples
///
/// ```
/// use emsc_vrm::train::{Pulse, SwitchingTrain};
/// use emsc_emfield::synth::{render_train, SynthConfig};
///
/// // A perfectly regular 1 MHz train carrying 2 µC per pulse.
/// let train = SwitchingTrain {
///     pulses: (0..2000).map(|k| Pulse { t_s: k as f64 * 1e-6, charge_c: 2e-6 }).collect(),
///     nominal_period_s: 1e-6,
///     duration_s: 2e-3,
/// };
/// let cfg = SynthConfig::rtl_sdr_for(1e6);
/// let iq = render_train(&train, cfg, 4096);
/// assert_eq!(iq.len(), 4096);
/// ```
pub fn render_train(train: &SwitchingTrain, config: SynthConfig, n_samples: usize) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; n_samples];
    render_train_window(train, config, 0, &mut out);
    out
}

/// Whether the train's pulses are time-ordered — the precondition for
/// the binary-searched fast path. O(pulses); callers rendering many
/// windows of one train should probe once and pass the result to
/// [`render_train_window_hint`] instead of paying this per window.
pub fn pulses_sorted(train: &SwitchingTrain) -> bool {
    train.pulses.windows(2).all(|w| w[0].t_s <= w[1].t_s)
}

/// Renders the window `[start, start + out.len())` of a capture —
/// bit-identical to the same index range of a whole-buffer
/// [`render_train`] — *adding* each pulse's contribution into the
/// caller-zeroed `out` slice.
///
/// This is the chunk-windowed entry the fused TX chain renders its
/// cache-resident blocks through. Window invariance holds because
/// nothing depends on the window placement:
///
/// - the carrier phasor anchors at global pulse indices (an exact
///   `cis` at every `PHASOR_REFRESH`-th pulse *of the train*), and a
///   window warms it up from the nearest anchor at or before its first
///   pulse — the Δt rotator is a pure function of the pulse spacing,
///   so the warm-up reproduces the whole-buffer product exactly;
/// - each pulse's kernel-LUT row and interpolation fraction are
///   computed from the pulse's *intrinsic* first tap (`⌈center − H⌉`,
///   which may precede the window); clipping at the window edge only
///   shifts an integer row offset, never the fraction;
/// - an unsorted train (no generator in this workspace emits one)
///   takes the per-pulse `cis` + analytic-kernel path, whose every tap
///   is a function of its absolute sample index.
///
/// Cost per window beyond the taps themselves: one binary search over
/// the train and at most `PHASOR_REFRESH − 1` carrier warm-up
/// multiplies, both negligible at kilosample block sizes.
pub fn render_train_window(
    train: &SwitchingTrain,
    config: SynthConfig,
    start: usize,
    out: &mut [Complex],
) {
    render_train_window_hint(train, config, pulses_sorted(train), start, out)
}

/// [`render_train_window`] with the [`pulses_sorted`] probe hoisted
/// out: `sorted` **must** equal `pulses_sorted(train)`. This is the
/// entry for blockwise producers — the probe is O(pulses), so paying
/// it once per run instead of once per block keeps the per-window
/// overhead at the documented binary-search + warm-up level.
pub fn render_train_window_hint(
    train: &SwitchingTrain,
    config: SynthConfig,
    sorted: bool,
    start: usize,
    out: &mut [Complex],
) {
    if sorted {
        render_window_fast(train, config, start, out)
    } else {
        render_window_exact(train, config, start, out)
    }
}

/// Per-pulse `Complex::cis` and the analytic kernel at absolute sample
/// indices, walking every pulse: the only path that renders an
/// unsorted train (the fast path binary-searches the pulse range). A
/// window is bit-identical to the matching range of the whole-buffer
/// render by construction. Also the accuracy reference the fast path
/// is tested against.
fn render_window_exact(
    train: &SwitchingTrain,
    config: SynthConfig,
    start: usize,
    out: &mut [Complex],
) {
    let len = out.len();
    if len == 0 {
        return;
    }
    let fs = config.sample_rate;
    for pulse in &train.pulses {
        let carrier = Complex::cis(-2.0 * std::f64::consts::PI * config.center_freq * pulse.t_s);
        let amp = pulse.charge_c * fs;
        let center = pulse.t_s * fs;
        let lo = (center - KERNEL_HALF_WIDTH as f64).ceil().max(start as f64) as usize;
        let hi = ((center + KERNEL_HALF_WIDTH as f64).floor() as usize).min(start + len - 1);
        if lo > hi {
            continue;
        }
        for n in lo..=hi {
            out[n - start] += carrier.scale(amp * kernel(n as f64 - center));
        }
    }
}

/// Incremental carrier phasor with global pulse-index anchors: pulse
/// `p` gets an exact `cis` whenever `p % PHASOR_REFRESH == 0` and one
/// complex multiply by a Δt rotator otherwise. The rotator is a pure
/// function of the spacing (the cache only avoids recomputing the same
/// value), so the phasor at pulse `p` depends on the train alone —
/// any window that warms up from the anchor at `p − p % PHASOR_REFRESH`
/// reproduces it bit for bit. Regular trains amortise `cis` to ~1/256
/// calls per pulse; jittered trains degrade gracefully to one per.
struct CarrierPhasor {
    omega: f64,
    value: Complex,
    prev_t: f64,
    cached_dt: f64,
    rotator: Complex,
}

impl CarrierPhasor {
    fn new(omega: f64) -> Self {
        CarrierPhasor {
            omega,
            value: Complex::ZERO,
            prev_t: 0.0,
            cached_dt: f64::NAN,
            rotator: Complex::ZERO,
        }
    }

    /// Advances to pulse `pulse_idx` (global index) at time `t_s` and
    /// returns its carrier phasor.
    #[inline]
    fn step(&mut self, pulse_idx: usize, t_s: f64) -> Complex {
        if pulse_idx.is_multiple_of(PHASOR_REFRESH) {
            self.value = Complex::cis(self.omega * t_s);
        } else {
            let dt = t_s - self.prev_t;
            if dt != self.cached_dt {
                self.cached_dt = dt;
                self.rotator = Complex::cis(self.omega * dt);
            }
            self.value *= self.rotator;
        }
        self.prev_t = t_s;
        self.value
    }
}

/// The fast path's windowed core: the contributions of every pulse
/// whose kernel support intersects `[start, start + out.len())`,
/// processed in time order (see [`render_train_window`] for the
/// window-invariance argument).
fn render_window_fast(
    train: &SwitchingTrain,
    config: SynthConfig,
    start: usize,
    out: &mut [Complex],
) {
    let len = out.len();
    if len == 0 {
        return;
    }
    let fs = config.sample_rate;
    let omega = -2.0 * std::f64::consts::PI * config.center_freq;
    let lut = kernel_lut_rows();

    // Pulses whose kernel support [t·fs − H, t·fs + H] can reach this
    // window (binary search over the time-ordered train).
    let t_min = (start as f64 - KERNEL_HALF_WIDTH as f64) / fs;
    let t_max = ((start + len) as f64 + KERNEL_HALF_WIDTH as f64) / fs;
    let first = train.pulses.partition_point(|p| p.t_s < t_min);
    let last = train.pulses.partition_point(|p| p.t_s < t_max);
    if first == last {
        return;
    }

    // Warm the carrier up from the global anchor at or before `first`.
    let mut carrier = CarrierPhasor::new(omega);
    let anchor = first - first % PHASOR_REFRESH;
    for (q, pulse) in train.pulses[anchor..first].iter().enumerate() {
        carrier.step(anchor + q, pulse.t_s);
    }

    let end = start + len;
    for (q, pulse) in train.pulses[first..last].iter().enumerate() {
        let c = carrier.step(first + q, pulse.t_s);
        let amp = pulse.charge_c * fs;
        let center = pulse.t_s * fs;
        // Intrinsic tap window [⌈center − H⌉, ⌊center + H⌋]: the LUT
        // row and fraction come from the intrinsic first tap (which
        // may precede the window), so they are window-invariant;
        // clipping only advances the integer row offset `skip`.
        let lo_intr_f = (center - KERNEL_HALF_WIDTH as f64).ceil();
        let hi_abs = (center + KERNEL_HALF_WIDTH as f64).floor();
        if hi_abs < start as f64 {
            continue;
        }
        let hi = (hi_abs as usize).min(end - 1);
        let lo_intr = lo_intr_f as i64;
        let lo = lo_intr.max(start as i64) as usize;
        if lo > hi {
            continue;
        }
        let skip = (lo as i64 - lo_intr) as usize;
        // Hoisted LUT walk over the transposed row table: the
        // fractional part is computed once per pulse and the taps read
        // two contiguous rows instead of striding through the flat
        // table. This differs from recomputing `kernel_fast(n −
        // center)` per tap only in the last ulps of the interpolation
        // weight — far inside the fast path's −90 dB accuracy contract
        // (pinned in tests below).
        let pos = (lo_intr_f - center + KERNEL_HALF_WIDTH as f64) * LUT_RES as f64;
        let j = pos as usize;
        let frac = pos - j as f64;
        let row_a = &lut[j * LUT_ROW + skip..(j + 1) * LUT_ROW];
        let row_b = &lut[(j + 1) * LUT_ROW + skip..(j + 2) * LUT_ROW];
        let dst = &mut out[lo - start..hi + 1 - start];
        // A pulse clear of the window edges touches 12 or 13 taps
        // depending on its fractional center; dispatching those two
        // counts to a const-length block lets the compiler unroll and
        // schedule the taps as one straight-line group. Same ops in
        // the same order — bit-identical to the generic loop below,
        // which keeps handling the edge-clipped stragglers.
        match dst.len() {
            N_FULL => tap_block::<N_FULL>(dst, row_a, row_b, frac, amp, c),
            N_SHORT => tap_block::<N_SHORT>(dst, row_a, row_b, frac, amp, c),
            _ => {
                for ((slot, &a), &b) in dst.iter_mut().zip(row_a).zip(row_b) {
                    let k = a + (b - a) * frac;
                    *slot += c.scale(amp * k);
                }
            }
        }
    }
}

/// All-taps count of an unclipped pulse with near-integer center.
const N_FULL: usize = LUT_ROW;
/// Taps of an unclipped pulse with a strictly fractional center.
const N_SHORT: usize = LUT_ROW - 1;

/// One pulse's tap updates at a compile-time count: `dst[i] +=
/// carrier · (amp · k_i)` with the same per-tap expression as the
/// generic loop in [`render_window_fast`].
#[inline]
fn tap_block<const N: usize>(
    dst: &mut [Complex],
    row_a: &[f64],
    row_b: &[f64],
    frac: f64,
    amp: f64,
    carrier: Complex,
) {
    let dst: &mut [Complex; N] = dst.try_into().expect("tap count");
    let row_a: &[f64; N] = row_a[..N].try_into().expect("row length");
    let row_b: &[f64; N] = row_b[..N].try_into().expect("row length");
    for i in 0..N {
        let k = row_a[i] + (row_b[i] - row_a[i]) * frac;
        dst[i] += carrier.scale(amp * k);
    }
}

/// Number of samples needed to cover a train's full duration.
pub fn samples_for(train: &SwitchingTrain, config: SynthConfig) -> usize {
    (train.duration_s * config.sample_rate).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_sdr::fft::{frequency_bin, plan_for};
    use emsc_vrm::train::Pulse;

    fn regular_train(f_sw: f64, charge_c: f64, duration_s: f64) -> SwitchingTrain {
        let period = 1.0 / f_sw;
        let n = (duration_s / period) as usize;
        SwitchingTrain {
            pulses: (0..n).map(|k| Pulse { t_s: k as f64 * period, charge_c }).collect(),
            nominal_period_s: period,
            duration_s,
        }
    }

    fn spectrum_peak_near(iq: &[Complex], fs: f64, f_bb: f64, fft_size: usize) -> f64 {
        let mut spec = iq[..fft_size].to_vec();
        plan_for(fft_size).forward(&mut spec);
        let k = frequency_bin(f_bb, fft_size, fs);
        // allow ±1 bin
        let mut best = 0.0f64;
        for dk in [-1i64, 0, 1] {
            let idx = (k as i64 + dk).rem_euclid(fft_size as i64) as usize;
            best = best.max(spec[idx].abs());
        }
        best / fft_size as f64
    }

    #[test]
    fn kernel_is_interpolating() {
        assert!((kernel(0.0) - 1.0).abs() < 1e-12);
        for m in 1..KERNEL_HALF_WIDTH {
            assert!(kernel(m as f64).abs() < 1e-12, "kernel({m}) not zero");
        }
        assert_eq!(kernel(100.0), 0.0);
    }

    #[test]
    fn spectral_line_amplitude_equals_mean_current() {
        // 937.5 kHz train of 8 µC pulses = 8 A mean replenish current.
        // (937.5 kHz puts the baseband line exactly on FFT bin −1600
        // of 8192 at 2.4 Msps, avoiding scalloping loss in the check.)
        let f_sw = 937.5e3;
        let train = regular_train(f_sw, 8e-6, 10e-3);
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let iq = render_train(&train, cfg, samples_for(&train, cfg));
        let line = spectrum_peak_near(&iq, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        assert!((line - 8.0).abs() / 8.0 < 0.15, "line amplitude {line}");
    }

    #[test]
    fn first_harmonic_is_present() {
        let f_sw = 970e3;
        let train = regular_train(f_sw, 5e-6, 10e-3);
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let iq = render_train(&train, cfg, samples_for(&train, cfg));
        let h1 = spectrum_peak_near(&iq, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        let h2 = spectrum_peak_near(&iq, cfg.sample_rate, cfg.baseband(2.0 * f_sw), 8192);
        assert!(h1 > 2.0, "fundamental {h1}");
        assert!(h2 > 1.0, "harmonic {h2}");
    }

    #[test]
    fn sparse_train_has_proportionally_weaker_line() {
        let f_sw = 937.5e3;
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let dense = regular_train(f_sw, 8e-6, 10e-3);
        // Every 16th period, same per-pulse charge-cap style as PFM:
        let sparse = SwitchingTrain {
            pulses: dense.pulses.iter().step_by(16).copied().collect(),
            ..dense.clone()
        };
        let iq_d = render_train(&dense, cfg, samples_for(&dense, cfg));
        let iq_s = render_train(&sparse, cfg, samples_for(&sparse, cfg));
        let line_d = spectrum_peak_near(&iq_d, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        let line_s = spectrum_peak_near(&iq_s, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        let ratio = line_d / line_s;
        assert!((ratio - 16.0).abs() < 3.0, "ratio {ratio}");
    }

    #[test]
    fn randomized_periods_spread_the_line() {
        // Jitter each pulse time by ±50 % of a period: the coherent
        // line at f_sw collapses.
        let f_sw = 937.5e3;
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let regular = regular_train(f_sw, 8e-6, 10e-3);
        let mut jittered = regular.clone();
        let mut state = 0x12345u64;
        for p in &mut jittered.pulses {
            // xorshift for a dependency-free deterministic jitter
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            p.t_s += u / f_sw;
        }
        let iq_r = render_train(&regular, cfg, samples_for(&regular, cfg));
        let iq_j = render_train(&jittered, cfg, samples_for(&jittered, cfg));
        let line_r = spectrum_peak_near(&iq_r, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        let line_j = spectrum_peak_near(&iq_j, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        assert!(line_r > 3.0 * line_j, "regular {line_r} vs jittered {line_j}");
    }

    #[test]
    fn out_of_band_harmonics_are_attenuated() {
        // Harmonic 3 of a 970 kHz train sits at 2.91 MHz, outside the
        // ±1.2 MHz band around the 1.455 MHz tuner: after the kernel's
        // anti-alias response its folded image must be much weaker
        // than the in-band lines.
        let f_sw = 970e3;
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let train = regular_train(f_sw, 8e-6, 10e-3);
        let iq = render_train(&train, cfg, samples_for(&train, cfg));
        let in_band = spectrum_peak_near(&iq, cfg.sample_rate, cfg.baseband(f_sw), 8192);
        // Folded image of h3: offset 2.91 MHz − 1.455 MHz = 1.455 MHz
        // wraps to 1.455 − 2.4 = −0.945 MHz.
        let folded = spectrum_peak_near(
            &iq,
            cfg.sample_rate,
            2.0 * f_sw - 2.4e6 + f_sw - cfg.center_freq,
            8192,
        );
        assert!(in_band > 4.0 * folded, "in-band {in_band} vs folded {folded}");
    }

    #[test]
    fn render_is_linear_in_charge() {
        let f_sw = 1e6;
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let a = regular_train(f_sw, 2e-6, 2e-3);
        let b = regular_train(f_sw, 4e-6, 2e-3);
        let ia = render_train(&a, cfg, 4096);
        let ib = render_train(&b, cfg, 4096);
        for (x, y) in ia.iter().zip(&ib) {
            assert!((y.abs() - 2.0 * x.abs()).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_train_renders_silence() {
        let train = SwitchingTrain { pulses: Vec::new(), nominal_period_s: 1e-6, duration_s: 1e-3 };
        let cfg = SynthConfig::rtl_sdr_for(1e6);
        let iq = render_train(&train, cfg, 2400);
        assert!(iq.iter().all(|z| z.abs() == 0.0));
    }

    /// Reference synthesis over a whole buffer: per-pulse `cis` and the
    /// analytic kernel for every pulse, whatever the train's order.
    fn render_train_exact(
        train: &SwitchingTrain,
        config: SynthConfig,
        n_samples: usize,
    ) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; n_samples];
        render_window_exact(train, config, 0, &mut out);
        out
    }

    /// RMS error of the fast path relative to the exact path, in dB.
    fn relative_error_db(fast: &[Complex], exact: &[Complex]) -> f64 {
        let err: f64 = fast.iter().zip(exact).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        let sig: f64 = exact.iter().map(|z| z.norm_sqr()).sum();
        10.0 * (err / sig.max(1e-300)).log10()
    }

    #[test]
    fn fast_path_matches_exact_below_minus_90_db() {
        // Regular train — the phasor's amortised-rotation regime —
        // long enough to cross hundreds of phasor re-anchors.
        let f_sw = 937.5e3;
        let train = regular_train(f_sw, 8e-6, 60e-3);
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let n = samples_for(&train, cfg);
        let fast = render_train(&train, cfg, n);
        let exact = render_train_exact(&train, cfg, n);
        let db = relative_error_db(&fast, &exact);
        assert!(db <= -90.0, "fast path error {db:.1} dB");
    }

    #[test]
    fn fast_path_matches_exact_on_jittered_trains() {
        // Jitter defeats the Δt rotator cache — every pulse recomputes
        // its rotator — and still must meet the accuracy contract.
        let f_sw = 937.5e3;
        let mut train = regular_train(f_sw, 8e-6, 10e-3);
        let mut state = 0xABCDu64;
        for p in &mut train.pulses {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            p.t_s = (p.t_s + 0.4 * u / f_sw).max(0.0);
        }
        train.pulses.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap());
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let n = samples_for(&train, cfg);
        let fast = render_train(&train, cfg, n);
        let exact = render_train_exact(&train, cfg, n);
        let db = relative_error_db(&fast, &exact);
        assert!(db <= -90.0, "fast path error {db:.1} dB");
    }

    #[test]
    fn unsorted_trains_fall_back_to_the_exact_path() {
        let f_sw = 1e6;
        let mut train = regular_train(f_sw, 2e-6, 2e-3);
        train.pulses.reverse();
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        let fast_cfg = render_train(&train, cfg, 4096);
        let exact = render_train_exact(&train, cfg, 4096);
        assert!(fast_cfg.iter().zip(&exact).all(|(a, b)| a.re == b.re && a.im == b.im));
    }

    /// Renders `n` samples as a sequence of `window`-sized blocks
    /// through the public chunk-windowed entry.
    fn render_by_windows(
        train: &SwitchingTrain,
        cfg: SynthConfig,
        n: usize,
        window: usize,
    ) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; n];
        let mut start = 0;
        while start < n {
            let len = window.min(n - start);
            render_train_window(train, cfg, start, &mut out[start..start + len]);
            start += len;
        }
        out
    }

    fn assert_bitwise_eq(a: &[Complex], b: &[Complex], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: sample {i} differs ({x:?} vs {y:?})"
            );
        }
    }

    #[test]
    fn windowed_render_composes_bitwise_with_whole_buffer() {
        // Window invariance is the foundation of the fused TX chain:
        // any block decomposition must reproduce the whole-buffer
        // render bit for bit, for regular and jittered trains (the
        // latter defeats the Δt-rotator cache, exercising the
        // per-pulse `cis` warm-up) and for an unsorted train, which
        // takes the per-pulse reference path.
        let f_sw = 937.5e3;
        let mut jittered = regular_train(f_sw, 8e-6, 4e-3);
        let mut state = 0x9E37u64;
        for p in &mut jittered.pulses {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
            p.t_s = (p.t_s + 0.4 * u / f_sw).max(0.0);
        }
        jittered.pulses.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap());
        // Shorter: the unsorted path walks every pulse per window.
        let mut unsorted = regular_train(f_sw, 8e-6, 1e-3);
        unsorted.pulses.swap(100, 101);
        assert!(!pulses_sorted(&unsorted));
        let cfg = SynthConfig::rtl_sdr_for(f_sw);
        for train in [regular_train(f_sw, 8e-6, 4e-3), jittered, unsorted] {
            let n = samples_for(&train, cfg);
            let whole = render_train(&train, cfg, n);
            for window in [1usize, 7, 997, 4096] {
                let composed = render_by_windows(&train, cfg, n, window);
                assert_bitwise_eq(&composed, &whole, &format!("window {window}"));
            }
        }
    }

    #[test]
    fn window_boundary_straddling_a_pulse_edge_is_bitwise_stable() {
        // A pulse whose 13-tap kernel support straddles the boundary
        // between two windows is rendered twice — its left taps by one
        // window, its right taps by the next — with the same LUT row,
        // fraction and carrier both times. Pin that for an even and an
        // odd boundary cutting straight through a pulse's support,
        // including a pulse whose center sits exactly on the boundary.
        let fs = 2.4e6;
        let cfg = SynthConfig { sample_rate: fs, center_freq: 1.4e6 };
        let train = SwitchingTrain {
            pulses: vec![
                Pulse { t_s: 94.3 / fs, charge_c: 3e-6 }, // straddles n = 100
                Pulse { t_s: 100.0 / fs, charge_c: 2e-6 }, // center exactly at 100
                Pulse { t_s: 103.9 / fs, charge_c: 4e-6 }, // straddles from the right
                Pulse { t_s: 151.5 / fs, charge_c: 5e-6 }, // straddles the odd cut at 153
            ],
            nominal_period_s: 1e-6,
            duration_s: 200.0 / fs,
        };
        let n = 200;
        let whole = render_train(&train, cfg, n);
        for (label, cuts) in [("even", vec![100usize]), ("odd", vec![153usize])] {
            let mut out = vec![Complex::ZERO; n];
            let mut edges = vec![0usize];
            edges.extend(&cuts);
            edges.push(n);
            for w in edges.windows(2) {
                render_train_window(&train, cfg, w[0], &mut out[w[0]..w[1]]);
            }
            assert_bitwise_eq(&out, &whole, &format!("{label} boundary"));
        }
    }

    #[test]
    fn strided_lut_walk_matches_per_tap_lookup() {
        // `render_window_fast` hoists the LUT interpolation: the index
        // strides by LUT_RES with a once-per-pulse fractional part.
        // Check it against the naive per-tap `kernel_fast` for awkward
        // fractional centers, including the exact-edge case.
        let lut = kernel_lut();
        for &center in &[123.456_789f64, 7.000_001, 99_999.500_000_3, 6.0, 1234.0] {
            let lo = (center - KERNEL_HALF_WIDTH as f64).ceil() as usize;
            let hi = (center + KERNEL_HALF_WIDTH as f64).floor() as usize;
            let pos = (lo as f64 - center + KERNEL_HALF_WIDTH as f64) * LUT_RES as f64;
            let mut idx = pos as usize;
            let frac = pos - idx as f64;
            for n in lo..=hi {
                let strided = lut[idx] + (lut[idx + 1] - lut[idx]) * frac;
                let direct = kernel_fast(n as f64 - center, lut);
                assert!(
                    (strided - direct).abs() < 1e-9,
                    "center {center} n {n}: strided {strided} direct {direct}"
                );
                idx += LUT_RES;
            }
        }
    }

    #[test]
    fn transposed_rows_match_flat_lut_bitwise() {
        // Every entry of the row table must be the flat table's
        // strided entry bit for bit, so the render walk's interpolated
        // values are unchanged by the transposition. Row entries past
        // the flat table's end land outside the kernel support and
        // must be exactly zero.
        let flat = kernel_lut();
        let rows = kernel_lut_rows();
        assert_eq!(rows.len(), (LUT_RES + 1) * LUT_ROW);
        for j in 0..=LUT_RES {
            for m in 0..LUT_ROW {
                let i = j + m * LUT_RES;
                let want = if i < flat.len() { flat[i] } else { 0.0 };
                assert_eq!(
                    rows[j * LUT_ROW + m].to_bits(),
                    want.to_bits(),
                    "row {j} tap {m} (flat index {i})"
                );
            }
        }
    }

    mod lut_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn lut_kernel_tracks_analytic_kernel(x in -6.5f64..6.5) {
                let lut = kernel_lut();
                let clamped = x.clamp(-(KERNEL_HALF_WIDTH as f64), KERNEL_HALF_WIDTH as f64);
                let approx = kernel_fast(clamped, lut);
                let truth = kernel(clamped);
                prop_assert!((approx - truth).abs() < 3e-6, "x {} err {}", clamped, (approx - truth).abs());
            }

            #[test]
            fn fast_render_matches_exact_for_random_trains(
                f_sw in 0.5e6f64..1.2e6,
                charge in 1e-6f64..9e-6,
                jitter in 0.0f64..0.45,
            ) {
                let mut train = regular_train(f_sw, charge, 4e-3);
                let mut state = (f_sw as u64) ^ 0x5EED;
                for p in &mut train.pulses {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state % 10_000) as f64 / 10_000.0 - 0.5;
                    p.t_s = (p.t_s + jitter * u / f_sw).max(0.0);
                }
                train.pulses.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap());
                let cfg = SynthConfig::rtl_sdr_for(f_sw);
                let n = samples_for(&train, cfg);
                let fast = render_train(&train, cfg, n);
                let exact = render_train_exact(&train, cfg, n);
                let db = relative_error_db(&fast, &exact);
                prop_assert!(db <= -90.0, "error {} dB", db);
            }
        }
    }
}
