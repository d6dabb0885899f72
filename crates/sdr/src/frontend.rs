//! Software-defined-radio receiver front-end model (RTL-SDR-like).
//!
//! The paper's receiver is an RTL-SDR v3: an 8-bit tuner dongle capped
//! at 2.4 Msps. This module models the imperfections that matter for
//! the detection algorithms: tuner frequency error (crystal ppm),
//! automatic gain normalisation, ADC quantisation, and a small DC
//! offset spur (a well-known RTL-SDR artefact).

use crate::error::CaptureError;
use crate::iq::Complex;
use crate::simd::peak_abs;

/// RTL-SDR v3 maximum reliable sample rate, samples per second (§IV-C1).
pub const RTL_SDR_MAX_SAMPLE_RATE: f64 = 2.4e6;

/// Configuration of the receiver front end.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Complex sample rate in samples/second.
    pub sample_rate: f64,
    /// RF centre frequency the tuner is set to, hertz.
    pub center_freq: f64,
    /// ADC resolution in bits (8 for the RTL-SDR).
    pub adc_bits: u32,
    /// Crystal frequency error in parts-per-million; shifts every
    /// received frequency by `center_freq · ppm / 1e6`.
    pub ppm_error: f64,
    /// DC offset spur amplitude relative to full scale.
    pub dc_offset: f64,
    /// Fraction of ADC full scale the AGC maps the observed signal
    /// peak to (leaving headroom avoids clipping on transients).
    pub agc_target: f64,
}

impl FrontendConfig {
    /// An RTL-SDR v3 with a typical cheap-crystal error.
    pub fn rtl_sdr_v3(center_freq: f64) -> Self {
        FrontendConfig {
            sample_rate: RTL_SDR_MAX_SAMPLE_RATE,
            center_freq,
            adc_bits: 8,
            ppm_error: 1.5,
            dc_offset: 0.004,
            agc_target: 0.7,
        }
    }

    /// An idealised front end: no quantisation, no ppm error, no spur.
    pub fn ideal(sample_rate: f64, center_freq: f64) -> Self {
        FrontendConfig {
            sample_rate,
            center_freq,
            adc_bits: 64,
            ppm_error: 0.0,
            dc_offset: 0.0,
            agc_target: 1.0,
        }
    }
}

/// A finished I/Q capture: what the receiver's DSP gets to work with.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Complex baseband samples.
    pub samples: Vec<Complex>,
    /// Sample rate in samples/second.
    pub sample_rate: f64,
    /// RF centre frequency, hertz; baseband 0 Hz corresponds to this.
    pub center_freq: f64,
}

impl Capture {
    /// Capture duration in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Converts an RF frequency to its baseband offset in this capture.
    pub fn baseband(&self, rf_freq: f64) -> f64 {
        rf_freq - self.center_freq
    }
}

/// Narrowest ADC the quantiser supports: a signed `b`-bit ADC has
/// `2^(b−1) − 1` positive levels, none at all for `b = 1`.
const MIN_ADC_BITS: u32 = 2;

fn valid_sample_rate(rate: f64) -> bool {
    rate > 0.0 && rate.is_finite()
}

/// The receiver front end: applies tuner error, AGC and quantisation
/// to an ideal analog baseband signal.
#[derive(Debug, Clone)]
pub struct Frontend {
    config: FrontendConfig,
}

impl Frontend {
    /// Creates a front end with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`Frontend::try_new`] rejects: a
    /// sample rate that is not positive and finite, or fewer than two
    /// ADC bits.
    pub fn new(config: FrontendConfig) -> Self {
        assert!(valid_sample_rate(config.sample_rate), "sample rate must be positive and finite");
        assert!(config.adc_bits >= MIN_ADC_BITS, "ADC must have at least two bits");
        Frontend { config }
    }

    /// Fallible variant of [`Frontend::new`]: reports a bad sample
    /// rate or ADC width as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`CaptureError::InvalidSampleRate`] if the sample rate is not
    /// positive and finite; [`CaptureError::InvalidConfig`] if
    /// `adc_bits` is below two (a 1-bit signed ADC has no non-zero
    /// level, so every quantised sample would be NaN).
    pub fn try_new(config: FrontendConfig) -> Result<Self, CaptureError> {
        if !valid_sample_rate(config.sample_rate) {
            return Err(CaptureError::InvalidSampleRate);
        }
        if config.adc_bits < MIN_ADC_BITS {
            return Err(CaptureError::InvalidConfig("ADC must have at least two bits"));
        }
        Ok(Frontend { config })
    }

    /// The configuration this front end was built with.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Digitises an ideal analog complex-baseband signal into a
    /// [`Capture`], applying ppm frequency error, AGC scaling, DC
    /// offset and ADC quantisation.
    ///
    /// The ppm mixer advances an incrementally rotated phasor,
    /// re-anchored with an exact `cis` every 64 samples; the
    /// accumulated rounding drift stays at the 1e-14 level, far below
    /// the ADC's quantisation step, so quantised captures equal those
    /// of a per-sample `cis` mixer bit for bit.
    ///
    /// Allocating wrapper around [`Frontend::digitize_into`].
    pub fn digitize(&self, analog: &[Complex]) -> Capture {
        let mut samples = Vec::new();
        self.digitize_into(analog, &mut samples);
        Capture {
            samples,
            sample_rate: self.config.sample_rate,
            center_freq: self.config.center_freq,
        }
    }

    /// [`Frontend::digitize`] into a caller-owned sample buffer
    /// (cleared and refilled; no allocation after a warm-up call at
    /// the largest size).
    ///
    /// This is the digitiser's hot form: the AGC peak scan is the
    /// lane-chunked (value-identical) [`peak_abs`], and the sample
    /// loop is the windowed core [`Frontend::digitize_window_into`]
    /// over the whole range — so whole-buffer and windowed output
    /// agree by construction.
    pub fn digitize_into(&self, analog: &[Complex], out: &mut Vec<Complex>) {
        let gain = self.agc_gain(peak_abs(analog));
        self.digitize_window_into(analog, 0, gain, out);
    }

    /// The AGC gain that maps an observed analog peak (as measured by
    /// [`peak_abs`]) to `agc_target` of ADC full scale. `peak_abs` is
    /// an order-independent max fold, so a blockwise producer can fold
    /// block peaks with `f64::max` and obtain the identical gain the
    /// whole-buffer scan computes.
    pub fn agc_gain(&self, peak: f64) -> f64 {
        self.config.agc_target / peak.max(1e-30)
    }

    /// Digitises the window of the capture beginning at absolute
    /// sample `start` (`analog` holds that window's samples) under a
    /// caller-supplied AGC `gain` — bit-identical to the same index
    /// range of [`Frontend::digitize_into`] when `gain` is the
    /// global-peak gain from [`Frontend::agc_gain`].
    ///
    /// Window invariance: the mixer's 64-sample re-anchor grid is
    /// defined on *absolute* indices (`n % 64 == 0`) and its in-block
    /// rotator powers `step^k` are a pure function of the
    /// configuration, so the quantiser sees the same value sequence
    /// for any decomposition. A window starting mid-anchor-
    /// block simply enters the rotator table at its offset.
    ///
    /// `out` is cleared and refilled; steady-state allocation-free
    /// once warmed up at the largest block size.
    pub fn digitize_window_into(
        &self,
        analog: &[Complex],
        start: usize,
        gain: f64,
        out: &mut Vec<Complex>,
    ) {
        let cfg = &self.config;
        let df = cfg.center_freq * cfg.ppm_error / 1e6;
        // Quantisation rescales by a precomputed reciprocal — one
        // rounding difference in the last ulp versus dividing by `q`.
        let quant = if cfg.adc_bits >= 53 {
            None
        } else {
            let q = ((1u64 << (cfg.adc_bits - 1)) - 1) as f64;
            Some((q, 1.0 / q))
        };
        let dc = Complex::new(cfg.dc_offset, cfg.dc_offset);
        const REFRESH: usize = 64;
        let phase_step = 2.0 * std::f64::consts::PI * df / cfg.sample_rate;
        out.clear();
        out.reserve(analog.len());
        // In-block rotators `step^k` are precomputed once, so each
        // sample's phasor is `anchor · pw[k]` — every sample
        // independent of the previous one, instead of a serial
        // `rot *= step` chain whose complex-multiply latency bounds the
        // whole loop. The ~ulp drift of `anchor · step^k` versus the
        // running product resets at each 64-sample re-anchor, exactly
        // like the chain's own drift (pinned against a per-sample `cis`
        // oracle in the tests below).
        let step = Complex::cis(phase_step);
        let mut pw = [Complex::new(1.0, 0.0); REFRESH];
        for k in 1..REFRESH {
            pw[k] = pw[k - 1] * step;
        }
        let mut rot = [Complex::new(1.0, 0.0); REFRESH];
        let mut consumed = 0usize;
        while consumed < analog.len() {
            // Exact re-anchor on the absolute 64-sample grid, then the
            // block's phasors `anchor · step^k` materialised up front:
            // one complex multiply per sample in the push loop.
            let n = start + consumed;
            let block_idx = n / REFRESH;
            let offset = n % REFRESH;
            let take = (REFRESH - offset).min(analog.len() - consumed);
            let anchor = Complex::cis(phase_step * (block_idx * REFRESH) as f64);
            for (r, &p) in rot.iter_mut().zip(&pw) {
                *r = anchor * p;
            }
            let block = &analog[consumed..consumed + take];
            let rots = &rot[offset..offset + take];
            match quant {
                Some((q, q_inv)) => {
                    out.extend(block.iter().zip(rots).map(|(&z, &r)| {
                        let v = (z * r).scale(gain) + dc;
                        Complex::new(
                            (v.re.clamp(-1.0, 1.0) * q).round() * q_inv,
                            (v.im.clamp(-1.0, 1.0) * q).round() * q_inv,
                        )
                    }));
                }
                None => {
                    out.extend(block.iter().zip(rots).map(|(&z, &r)| (z * r).scale(gain) + dc));
                }
            }
            consumed += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{frequency_bin, plan_for};

    /// Reference digitiser: an exact `cis` mixer at every absolute
    /// sample, with the same global-peak AGC gain, DC offset and
    /// quantiser as [`Frontend::digitize`].
    fn digitize_exact(fe: &Frontend, analog: &[Complex]) -> Vec<Complex> {
        let cfg = fe.config();
        let gain = fe.agc_gain(peak_abs(analog));
        let df = cfg.center_freq * cfg.ppm_error / 1e6;
        let dc = Complex::new(cfg.dc_offset, cfg.dc_offset);
        let quant = (cfg.adc_bits < 53).then(|| {
            let q = ((1u64 << (cfg.adc_bits - 1)) - 1) as f64;
            (q, 1.0 / q)
        });
        analog
            .iter()
            .enumerate()
            .map(|(n, &z)| {
                let t = n as f64 / cfg.sample_rate;
                let v = (z * Complex::cis(2.0 * std::f64::consts::PI * df * t)).scale(gain) + dc;
                match quant {
                    Some((q, q_inv)) => Complex::new(
                        (v.re.clamp(-1.0, 1.0) * q).round() * q_inv,
                        (v.im.clamp(-1.0, 1.0) * q).round() * q_inv,
                    ),
                    None => v,
                }
            })
            .collect()
    }

    fn fft(x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        plan_for(buf.len()).forward(&mut buf);
        buf
    }

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_polar(amp, 2.0 * std::f64::consts::PI * freq * i as f64 / fs))
            .collect()
    }

    #[test]
    fn ideal_frontend_preserves_signal_shape() {
        let fs = 1.0e6;
        let x = tone(1e5, fs, 1024, 0.3);
        let fe = Frontend::new(FrontendConfig::ideal(fs, 1e6));
        let cap = fe.digitize(&x);
        // AGC scales peak to 1.0; shape (ratio between samples) preserved.
        let k = cap.samples[10].abs() / x[10].abs();
        for (a, b) in cap.samples.iter().zip(&x) {
            assert!((a.abs() - b.abs() * k).abs() < 1e-9);
        }
    }

    #[test]
    fn quantization_limits_precision() {
        let fs = 1.0e6;
        let x = tone(1e5, fs, 4096, 1.0);
        let fe = Frontend::new(FrontendConfig {
            adc_bits: 8,
            ppm_error: 0.0,
            dc_offset: 0.0,
            ..FrontendConfig::rtl_sdr_v3(1e6)
        });
        let cap = fe.digitize(&x);
        // All values on the 127-level grid.
        for s in &cap.samples {
            let g = s.re * 127.0;
            assert!((g - g.round()).abs() < 1e-9);
        }
        // Quantisation error bounded by half an LSB.
        for (a, b) in cap.samples.iter().zip(&x) {
            assert!((a.re - b.re * 0.7).abs() <= 0.5 / 127.0 + 1e-12);
        }
    }

    #[test]
    fn quantization_raises_noise_floor_but_keeps_tone_dominant() {
        let fs = 2.4e6;
        let f = 234_375.0; // exactly bin 100 of 1024 at 2.4 Msps
        let x = tone(f, fs, 1024, 1.0);
        let fe = Frontend::new(FrontendConfig {
            ppm_error: 0.0,
            dc_offset: 0.0,
            ..FrontendConfig::rtl_sdr_v3(1.4e6)
        });
        let cap = fe.digitize(&x);
        let spec = fft(&cap.samples);
        let k = frequency_bin(f, 1024, fs);
        let tone_mag = spec[k].abs();
        let noise: f64 = spec
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != k && i != 0)
            .map(|(_, z)| z.abs())
            .fold(0.0, f64::max);
        assert!(tone_mag > 50.0 * noise, "tone {tone_mag} vs max noise {noise}");
    }

    #[test]
    fn ppm_error_shifts_the_tone() {
        let fs = 2.4e6;
        let n = 1 << 16;
        let f = 234_375.0;
        let center = 1.4e6;
        let ppm = 40.0; // exaggerated for a visible shift: 56 Hz... use bigger center error
        let x = tone(f, fs, n, 0.5);
        let fe = Frontend::new(FrontendConfig {
            ppm_error: ppm,
            dc_offset: 0.0,
            adc_bits: 62,
            ..FrontendConfig::rtl_sdr_v3(center)
        });
        let cap = fe.digitize(&x);
        let spec = fft(&cap.samples);
        let k_nominal = frequency_bin(f, n, fs);
        let expected_shift_hz = center * ppm / 1e6;
        let k_expected = frequency_bin(f + expected_shift_hz, n, fs);
        assert_ne!(k_nominal, k_expected, "test must move at least one bin");
        let mag_nom = spec[k_nominal].abs();
        let mag_exp = spec[k_expected].abs();
        assert!(mag_exp > mag_nom, "shifted bin should dominate");
    }

    #[test]
    fn dc_offset_appears_at_bin_zero() {
        let fs = 1e6;
        let x = tone(2e5, fs, 4096, 1.0);
        let fe = Frontend::new(FrontendConfig {
            dc_offset: 0.05,
            ppm_error: 0.0,
            ..FrontendConfig::rtl_sdr_v3(1e6)
        });
        let cap = fe.digitize(&x);
        let spec = fft(&cap.samples[..1024]);
        assert!(spec[0].abs() > 20.0, "DC spur missing: {}", spec[0].abs());
    }

    #[test]
    fn fast_mixer_matches_exact_reference() {
        let fs = 2.4e6;
        let x = tone(234_375.0, fs, 1 << 15, 0.8);
        // Quantised: the 8-bit grid absorbs the phasor drift entirely.
        let fe = Frontend::new(FrontendConfig::rtl_sdr_v3(1.4e6));
        assert_eq!(fe.digitize(&x).samples, digitize_exact(&fe, &x));
        // Unquantised: drift stays at the rounding-noise level.
        let fe =
            Frontend::new(FrontendConfig { adc_bits: 62, ..FrontendConfig::rtl_sdr_v3(1.4e6) });
        let fast = fe.digitize(&x).samples;
        let exact = digitize_exact(&fe, &x);
        let rms = (exact.iter().map(|z| z.norm_sqr()).sum::<f64>() / exact.len() as f64).sqrt();
        let err = (fast.iter().zip(&exact).map(|(a, b)| (*a - *b).norm_sqr()).sum::<f64>()
            / exact.len() as f64)
            .sqrt();
        assert!(err < 1e-12 * rms, "mixer drift {err} vs rms {rms}");
    }

    #[test]
    fn digitize_into_matches_digitize_and_reuses_its_buffer() {
        let fs = 2.4e6;
        let x = tone(100e3, fs, 10_000, 0.8);
        for cfg in [FrontendConfig::rtl_sdr_v3(1.4e6), FrontendConfig::ideal(fs, 1.4e6)] {
            let fe = Frontend::new(cfg);
            let cap = fe.digitize(&x);
            let mut out = Vec::new();
            fe.digitize_into(&x, &mut out);
            assert_eq!(out, cap.samples);
            let capacity = out.capacity();
            fe.digitize_into(&x, &mut out);
            assert_eq!(out.capacity(), capacity, "steady-state must not grow");
        }
    }

    #[test]
    fn digitize_windows_compose_bitwise_with_whole_buffer() {
        let fs = 2.4e6;
        let x = tone(100e3, fs, 10_000, 0.8);
        for cfg in [
            FrontendConfig::rtl_sdr_v3(1.4e6),
            FrontendConfig { adc_bits: 62, ..FrontendConfig::rtl_sdr_v3(1.4e6) },
            FrontendConfig::ideal(fs, 1.4e6),
        ] {
            let fe = Frontend::new(cfg);
            let mut whole = Vec::new();
            fe.digitize_into(&x, &mut whole);
            let gain = fe.agc_gain(peak_abs(&x));
            // Odd window lengths force windows to start mid-way through
            // the fast mixer's 64-sample anchor blocks.
            for window in [1usize, 7, 997, 4096, x.len()] {
                let mut composed = Vec::new();
                let mut block = Vec::new();
                let mut start = 0;
                while start < x.len() {
                    let len = window.min(x.len() - start);
                    fe.digitize_window_into(&x[start..start + len], start, gain, &mut block);
                    composed.extend_from_slice(&block);
                    start += len;
                }
                for (i, (a, b)) in composed.iter().zip(&whole).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "window {window}: sample {i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn capture_metadata_helpers() {
        let cap = Capture {
            samples: vec![Complex::ZERO; 2_400_000],
            sample_rate: 2.4e6,
            center_freq: 1.4e6,
        };
        assert!((cap.duration() - 1.0).abs() < 1e-12);
        assert_eq!(cap.baseband(1.4e6), 0.0);
        assert_eq!(cap.baseband(970e3), -430e3);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        Frontend::new(FrontendConfig { sample_rate: 0.0, ..FrontendConfig::ideal(1.0, 0.0) });
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn infinite_sample_rate_panics() {
        Frontend::new(FrontendConfig {
            sample_rate: f64::INFINITY,
            ..FrontendConfig::ideal(1.0, 0.0)
        });
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn nan_sample_rate_panics() {
        Frontend::new(FrontendConfig { sample_rate: f64::NAN, ..FrontendConfig::ideal(1.0, 0.0) });
    }

    #[test]
    #[should_panic(expected = "two bits")]
    fn one_bit_adc_panics() {
        Frontend::new(FrontendConfig { adc_bits: 1, ..FrontendConfig::rtl_sdr_v3(1.4e6) });
    }

    #[test]
    fn two_bit_adc_digitizes_to_finite_levels() {
        let fe = Frontend::new(FrontendConfig { adc_bits: 2, ..FrontendConfig::rtl_sdr_v3(1.4e6) });
        let cap = fe.digitize(&tone(100e3, 2.4e6, 1024, 0.8));
        assert!(cap
            .samples
            .iter()
            .all(|z| [-1.0, 0.0, 1.0].contains(&z.re) && [-1.0, 0.0, 1.0].contains(&z.im)));
    }

    #[test]
    fn try_new_reports_bad_configs_instead_of_panicking() {
        use crate::error::CaptureError;
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad_rate = FrontendConfig { sample_rate: rate, ..FrontendConfig::ideal(1.0, 0.0) };
            assert_eq!(
                Frontend::try_new(bad_rate).unwrap_err(),
                CaptureError::InvalidSampleRate,
                "sample rate {rate}"
            );
        }
        for bits in [0, 1] {
            let too_narrow = FrontendConfig { adc_bits: bits, ..FrontendConfig::ideal(1.0, 0.0) };
            assert!(
                matches!(Frontend::try_new(too_narrow), Err(CaptureError::InvalidConfig(_))),
                "{bits}-bit ADC"
            );
        }
        assert!(Frontend::try_new(FrontendConfig::rtl_sdr_v3(1.4e6)).is_ok());
    }
}
