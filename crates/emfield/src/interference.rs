//! Environmental interference: other switching emitters and thermal
//! noise.
//!
//! The paper's NLoS experiment (Fig. 10) deliberately includes "other
//! electronic devices such as a printer in the transmitter's room and
//! a refrigerator in the receiver's room which also generate
//! unintentional EM emanations". Those devices contain their own
//! switching converters/inverters, so we model each interferer as a
//! comb of harmonics from its own switching fundamental, plus additive
//! white Gaussian thermal noise.
//!
//! A comb is rendered on a grid of absolute sample anchors: each
//! in-band harmonic gets an exact phasor at every 1024th sample of the
//! capture and is advanced by one complex multiply per sample in
//! between. Any window of the capture therefore reproduces the
//! whole-buffer comb bit for bit, at one multiply per harmonic and
//! sample instead of a `sin`/`cos` pair; the per-sample `from_polar`
//! form survives as the test oracle that bounds the difference.

use std::sync::OnceLock;

use emsc_sdr::iq::Complex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One interfering emitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// Switching fundamental of the interferer, hertz.
    pub fundamental_hz: f64,
    /// Received amplitude of its fundamental (same units as the
    /// signal of interest after path loss).
    pub amplitude: f64,
    /// Number of harmonics to include.
    pub harmonics: u32,
    /// Per-harmonic amplitude rolloff factor (amplitude of harmonic
    /// `h` is `amplitude · rolloff^(h−1)`).
    pub rolloff: f64,
}

impl Interferer {
    /// A laser-printer switching supply near the transmitter.
    pub fn printer(amplitude: f64) -> Self {
        Interferer { fundamental_hz: 310e3, amplitude, harmonics: 8, rolloff: 0.6 }
    }

    /// A refrigerator compressor inverter near the receiver.
    pub fn refrigerator(amplitude: f64) -> Self {
        Interferer { fundamental_hz: 64e3, amplitude, harmonics: 20, rolloff: 0.8 }
    }

    /// Adds this interferer's comb to `buf` (complex baseband around
    /// `center_freq` at `sample_rate`), with a deterministic per-
    /// harmonic starting phase derived from `seed`.
    ///
    /// The call is a no-op unless `sample_rate` is finite and positive
    /// and `center_freq`, the fundamental and the amplitude are all
    /// finite: a NaN or infinite rate would otherwise slip through the
    /// in-band gate and poison or DC-flood every sample.
    pub fn add_to(&self, buf: &mut [Complex], sample_rate: f64, center_freq: f64, seed: u64) {
        self.add_to_window(buf, sample_rate, center_freq, seed, 0);
    }

    /// [`Interferer::add_to`] for the window of the capture beginning
    /// at absolute sample `start`, bit-identical to the same index
    /// range of the whole-buffer call for any window decomposition.
    ///
    /// Each in-band harmonic is a tone `amp · e^{i(phase0 + step·n)}`
    /// at absolute index `n`. The tone is evaluated exactly (one
    /// `from_polar`) on a grid of absolute anchors every 1024 samples
    /// and advanced by one complex multiply by `e^{i·step}` between
    /// them; a window starting mid-segment warms up from its anchor
    /// with the same multiplies, so every sample is a function of its
    /// absolute index alone. The per-harmonic `phase0` draw happens
    /// only for in-band harmonics, in harmonic order (out-of-band
    /// harmonics consume no RNG draws), so seeds keep their meaning.
    /// Non-finite or non-positive rates and non-finite tunings are a
    /// no-op, as on [`Interferer::add_to`].
    pub fn add_to_window(
        &self,
        buf: &mut [Complex],
        sample_rate: f64,
        center_freq: f64,
        seed: u64,
        start: usize,
    ) {
        let finite = sample_rate.is_finite()
            && center_freq.is_finite()
            && self.fundamental_hz.is_finite()
            && self.amplitude.is_finite();
        if !finite || sample_rate <= 0.0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (self.fundamental_hz.to_bits()));
        let mut batch = [Tone::default(); TONE_BATCH];
        let mut len = 0;
        for h in 1..=self.harmonics {
            let f_rf = self.fundamental_hz * h as f64;
            let f_bb = f_rf - center_freq;
            if f_bb.abs() > sample_rate / 2.0 {
                continue;
            }
            let amp = self.amplitude * self.rolloff.powi(h as i32 - 1);
            let phase0: f64 = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
            let step = 2.0 * std::f64::consts::PI * f_bb / sample_rate;
            batch[len] = Tone { amp, phase0, step };
            len += 1;
            if len == TONE_BATCH {
                add_tones(&batch, buf, start);
                len = 0;
            }
        }
        add_tones(&batch[..len], buf, start);
    }
}

/// Spacing, in absolute samples, of the comb's exact-phasor anchors.
/// Rotator drift over one segment stays far inside the −150 dB
/// contract pinned against the per-sample oracle; a power of two keeps
/// the grid aligned with the fused TX chain's 8 Ki blocks, so those
/// never warm up.
const COMB_ANCHOR: usize = 1024;

/// Tones rendered per pass over a window: a fixed-size stack batch, so
/// the kernel allocates nothing. Eight lanes of phasor state fit in
/// registers and the per-sample advance of the whole batch vectorises;
/// 4 and 16 measured slower on the through-wall comb.
const TONE_BATCH: usize = 8;

/// One in-band harmonic of a comb: `amp · e^{i(phase0 + step·n)}`.
#[derive(Debug, Clone, Copy, Default)]
struct Tone {
    amp: f64,
    phase0: f64,
    step: f64,
}

impl Tone {
    /// The exact phasor at absolute sample `n`.
    #[inline]
    fn at(&self, n: usize) -> Complex {
        Complex::from_polar(self.amp, self.phase0 + self.step * n as f64)
    }
}

/// Adds `tones` (at most [`TONE_BATCH`]) to the window of `buf`
/// beginning at absolute sample `start`, walking the [`COMB_ANCHOR`]
/// grid. The batch's phasors live in fixed-width lanes (split re/im,
/// idle lanes rotating a zero phasor by 1) that advance together once
/// per sample; each sample still receives its tones in harmonic order.
fn add_tones(tones: &[Tone], buf: &mut [Complex], start: usize) {
    if tones.is_empty() {
        return;
    }
    let (mut re, mut im) = ([0.0f64; TONE_BATCH], [0.0f64; TONE_BATCH]);
    let (mut rot_re, mut rot_im) = ([1.0f64; TONE_BATCH], [0.0f64; TONE_BATCH]);
    for (k, t) in tones.iter().enumerate() {
        let rot = Complex::cis(t.step);
        (rot_re[k], rot_im[k]) = (rot.re, rot.im);
    }
    // `z *= rot` per lane, in `Complex`'s own operation order.
    let advance = |re: &mut [f64; TONE_BATCH], im: &mut [f64; TONE_BATCH]| {
        for k in 0..TONE_BATCH {
            let (a, b) = (re[k], im[k]);
            re[k] = a * rot_re[k] - b * rot_im[k];
            im[k] = a * rot_im[k] + b * rot_re[k];
        }
    };
    let end = start + buf.len();
    let mut pos = start;
    while pos < end {
        let anchor = pos - pos % COMB_ANCHOR;
        let seg_end = (anchor + COMB_ANCHOR).min(end);
        for (k, t) in tones.iter().enumerate() {
            let z = t.at(anchor);
            (re[k], im[k]) = (z.re, z.im);
        }
        for _ in anchor..pos {
            advance(&mut re, &mut im);
        }
        for slot in &mut buf[pos - start..seg_end - start] {
            for k in 0..tones.len() {
                *slot += Complex::new(re[k], im[k]);
            }
            advance(&mut re, &mut im);
        }
        pos = seg_end;
    }
}

/// Samples per AWGN seeding block: the noise stream is defined on a
/// fixed grid of `AWGN_BLOCK`-sample blocks, block `b` drawing its
/// samples from a fresh xoshiro256++ stream positionally sub-seeded by
/// `emsc_runtime::seed_for(seed, b)`. A window therefore only needs
/// the seeds of the blocks it overlaps — any decomposition of the
/// capture reproduces the same noise bit for bit, which is what lets
/// the fused TX chain add noise per cache-resident block. 64 matches
/// the digitiser's 64-sample mixer-anchor grid, keeps the per-block
/// reseed (four splitmix64 steps) well under 0.1 ns/sample, and
/// bounds the draw-discard cost of an unaligned window start.
pub const AWGN_BLOCK: usize = 64;

/// Adds circular complex AWGN of standard deviation `sigma` (per
/// complex sample) to `buf`, deterministically from `seed`.
///
/// The sampler is a 256-layer Marsaglia–Tsang ziggurat over a
/// xoshiro256++ generator — an *exact* unit-normal distribution (the
/// wedge/tail corrections are taken, not approximated) at roughly one
/// table lookup plus one 64-bit RNG step per draw. Noise synthesis is
/// a large, shared cost of every simulated capture, and nothing in the
/// repo pins the per-sample bit pattern across implementations — only
/// determinism per seed and the channel statistics, both of which this
/// sampler preserves. The stream is blockwise sub-seeded on the
/// [`AWGN_BLOCK`] grid (see [`add_awgn_window`]).
pub fn add_awgn(buf: &mut [Complex], sigma: f64, seed: u64) {
    add_awgn_window(buf, sigma, seed, 0);
}

/// [`add_awgn`] for the window of the capture beginning at absolute
/// sample `start`: adds exactly the noise the whole-buffer call would
/// have added to indices `start..start + buf.len()`, bit for bit.
///
/// Block `b` of the [`AWGN_BLOCK`] grid draws `2·AWGN_BLOCK` normals
/// (re then im per sample, in index order) from its own positionally
/// seeded generator. A window aligned to the grid pays no overhead; a
/// window starting mid-block discards the `2·(start % AWGN_BLOCK)`
/// draws that precede it (draw-exact skipping — the ziggurat consumes
/// a variable number of RNG words per normal, so the draws must be
/// taken, not skipped arithmetically).
pub fn add_awgn_window(buf: &mut [Complex], sigma: f64, seed: u64, start: usize) {
    if sigma <= 0.0 || buf.is_empty() {
        return;
    }
    let zig = Ziggurat::tables();
    let s = sigma / 2f64.sqrt();
    let mut pos = start;
    let mut filled = 0usize;
    while filled < buf.len() {
        let block = pos / AWGN_BLOCK;
        let offset = pos % AWGN_BLOCK;
        let take = (AWGN_BLOCK - offset).min(buf.len() - filled);
        let mut rng = Xoshiro256::from_seed(emsc_runtime::seed_for(seed, block as u64));
        for _ in 0..2 * offset {
            zig.sample(&mut rng);
        }
        for slot in &mut buf[filled..filled + take] {
            let re = zig.sample(&mut rng);
            let im = zig.sample(&mut rng);
            *slot += Complex::new(s * re, s * im);
        }
        pos += take;
        filled += take;
    }
}

/// xoshiro256++ (Blackman & Vigna, public domain), seeded through
/// splitmix64 as its authors recommend. Passes BigCrush; an order of
/// magnitude cheaper per 64-bit output than the ChaCha-based `StdRng`
/// it replaces in the noise hot loop.
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [next_sm(), next_sm(), next_sm(), next_sm()] }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `(0, 1]` — safe under `ln()`.
    #[inline]
    fn uniform_pos(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Layer tables for the 256-layer ziggurat of the standard normal.
struct Ziggurat {
    /// Layer right edges, `x[0] > x[1] > … > x[256] = 0`; `x[0]` is the
    /// virtual base-layer edge `v / f(r)`.
    x: [f64; 257],
    /// `f(x[i]) = exp(-x[i]²/2)` for the wedge test.
    y: [f64; 257],
}

/// Rightmost rectangle edge for 256 layers.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of each layer (and of the base strip + tail).
const ZIG_V: f64 = 0.004_928_673_233_974_655;

impl Ziggurat {
    /// The process-wide tables, built once with the classic
    /// Marsaglia–Tsang recurrence. They used to live on the stack of
    /// each `add_awgn` call — negligible against a megasample buffer,
    /// but the blockwise windowed path may be entered once per
    /// [`AWGN_BLOCK`], so the few microseconds of `exp`/`ln`/`sqrt`
    /// now amortise to zero behind a `OnceLock` (same values bit for
    /// bit; the recurrence is deterministic).
    fn tables() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let f = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0f64; 257];
            x[0] = ZIG_V / f(ZIG_R);
            x[1] = ZIG_R;
            for i in 2..256 {
                x[i] = (-2.0 * (ZIG_V / x[i - 1] + f(x[i - 1])).ln()).sqrt();
            }
            x[256] = 0.0;
            let mut y = [0.0f64; 257];
            for i in 0..257 {
                y[i] = f(x[i]);
            }
            Ziggurat { x, y }
        })
    }

    /// One exact standard-normal draw.
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let sign = if bits & 0x100 != 0 { -1.0 } else { 1.0 };
            let u = ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
            let x = u * self.x[i];
            if x < self.x[i + 1] {
                // Entirely inside the next layer: accept (≈98.5%).
                return sign * x;
            }
            if i == 0 {
                // Base layer overshoot: sample the exact tail beyond r
                // (Marsaglia's exponential-majorant rejection).
                loop {
                    let xt = -rng.uniform_pos().ln() / ZIG_R;
                    let yt = -rng.uniform_pos().ln();
                    if yt + yt > xt * xt {
                        return sign * (ZIG_R + xt);
                    }
                }
            }
            // Wedge: uniform vertical coordinate against the exact pdf.
            let y = self.y[i]
                + (rng.next_u64() >> 11) as f64
                    * (1.0 / (1u64 << 53) as f64)
                    * (self.y[i + 1] - self.y[i]);
            if y < (-0.5 * x * x).exp() {
                return sign * x;
            }
        }
    }
}

/// Adds impulsive interference to `buf`: each sample independently
/// carries an impulse with probability `density`, of magnitude
/// `amplitude` and uniformly random phase. This is the analog-domain
/// counterpart of `emsc_sdr::impair::Impairment::ImpulseBurst` —
/// motor brushes, relay contacts and switching transients near the
/// receiver, injected *before* the front end's AGC and quantisation so
/// the impulses also steal ADC dynamic range. Deterministic from
/// `seed`; `density` is clamped to `[0, 1]` and non-positive
/// amplitudes are a no-op.
pub fn add_impulsive_noise(buf: &mut [Complex], density: f64, amplitude: f64, seed: u64) {
    if amplitude <= 0.0 || !density.is_finite() || density <= 0.0 {
        return;
    }
    let density = density.min(1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    for slot in buf.iter_mut() {
        if rng.gen_bool(density) {
            let phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
            *slot += Complex::from_polar(amplitude, phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsc_sdr::fft::{frequency_bin, plan_for};

    #[test]
    fn awgn_statistics() {
        let mut buf = vec![Complex::ZERO; 50_000];
        add_awgn(&mut buf, 0.5, 7);
        let mean: Complex = buf.iter().copied().sum::<Complex>() / buf.len() as f64;
        assert!(mean.abs() < 0.01, "mean {}", mean.abs());
        let power: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / buf.len() as f64;
        assert!((power - 0.25).abs() < 0.01, "power {power}");
    }

    #[test]
    fn awgn_tail_fractions_are_gaussian() {
        // The ziggurat's wedge/tail handling must reproduce the normal
        // law, not just its variance: check the per-component exceedance
        // fractions at 1σ/2σ/3σ against erfc (0.3173 / 0.0455 / 0.0027).
        let mut buf = vec![Complex::ZERO; 200_000];
        add_awgn(&mut buf, 1.0, 99);
        let s = 1.0 / 2f64.sqrt();
        let n = (buf.len() * 2) as f64;
        let frac = |k: f64| {
            buf.iter().flat_map(|z| [z.re, z.im]).filter(|v| v.abs() > k * s).count() as f64 / n
        };
        assert!((frac(1.0) - 0.3173).abs() < 0.01, "1σ tail {}", frac(1.0));
        assert!((frac(2.0) - 0.0455).abs() < 0.005, "2σ tail {}", frac(2.0));
        assert!((frac(3.0) - 0.0027).abs() < 0.0012, "3σ tail {}", frac(3.0));
    }

    #[test]
    fn awgn_zero_sigma_is_noop() {
        let mut buf = vec![Complex::new(1.0, -1.0); 16];
        add_awgn(&mut buf, 0.0, 3);
        assert!(buf.iter().all(|z| *z == Complex::new(1.0, -1.0)));
    }

    #[test]
    fn awgn_deterministic_per_seed() {
        let mut a = vec![Complex::ZERO; 64];
        let mut b = vec![Complex::ZERO; 64];
        add_awgn(&mut a, 1.0, 42);
        add_awgn(&mut b, 1.0, 42);
        assert_eq!(a, b);
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
    fn awgn_windows_compose_bitwise_with_whole_buffer() {
        // The blockwise sub-seeded stream must be decomposition-
        // independent: grid-aligned, grid-misaligned and single-sample
        // windows all reproduce the whole-buffer noise bit for bit.
        let n = 10 * AWGN_BLOCK + 17;
        let mut whole = vec![Complex::ZERO; n];
        add_awgn(&mut whole, 1.3, 2020);
        for window in [1usize, 7, AWGN_BLOCK, 3 * AWGN_BLOCK + 5, n] {
            let mut composed = vec![Complex::ZERO; n];
            let mut start = 0;
            while start < n {
                let len = window.min(n - start);
                add_awgn_window(&mut composed[start..start + len], 1.3, 2020, start);
                start += len;
            }
            assert_bitwise_eq(&composed, &whole, &format!("window {window}"));
        }
    }

    #[test]
    fn awgn_blocks_are_positionally_independent() {
        // A window deep inside the stream must not depend on having
        // generated anything before it: render the tail directly at
        // its absolute offset and compare against the whole buffer.
        let n = 5 * AWGN_BLOCK;
        let mut whole = vec![Complex::ZERO; n];
        add_awgn(&mut whole, 0.7, 99);
        let tail_at = 2 * AWGN_BLOCK + 13;
        let mut tail = vec![Complex::ZERO; n - tail_at];
        add_awgn_window(&mut tail, 0.7, 99, tail_at);
        assert_bitwise_eq(&tail, &whole[tail_at..], "detached tail");
    }

    /// The per-sample form the anchored kernel replaced: one exact
    /// `from_polar` per harmonic and sample, with the same gate and
    /// `phase0` draws. The accuracy oracle for
    /// [`Interferer::add_to_window`].
    fn add_to_window_oracle(
        intf: &Interferer,
        buf: &mut [Complex],
        sample_rate: f64,
        center_freq: f64,
        seed: u64,
        start: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ (intf.fundamental_hz.to_bits()));
        for h in 1..=intf.harmonics {
            let f_bb = intf.fundamental_hz * h as f64 - center_freq;
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

    #[test]
    fn comb_kernel_tracks_the_per_sample_oracle() {
        // One 2 s through-wall capture at 2.4 Msps, rendered in 64 Ki
        // windows (window invariance makes that the whole-buffer comb).
        let synth = crate::synth::SynthConfig::rtl_sdr_for(970e3);
        let (fs, fc) = (synth.sample_rate, synth.center_freq);
        let n = 4_800_000;
        let window = 1 << 16;
        for intf in [Interferer::printer(0.8), Interferer::refrigerator(0.5)] {
            let mut fast = vec![Complex::ZERO; window];
            let mut oracle = vec![Complex::ZERO; window];
            let mut max_err = 0.0f64;
            let mut start = 0;
            while start < n {
                let len = window.min(n - start);
                fast[..len].fill(Complex::ZERO);
                oracle[..len].fill(Complex::ZERO);
                intf.add_to_window(&mut fast[..len], fs, fc, 3, start);
                add_to_window_oracle(&intf, &mut oracle[..len], fs, fc, 3, start);
                for (a, b) in fast[..len].iter().zip(&oracle[..len]) {
                    max_err = max_err.max((*a - *b).abs());
                }
                start += len;
            }
            let err_db = 20.0 * (max_err / intf.amplitude).log10();
            assert!(err_db <= -150.0, "{intf:?}: max error {err_db:.1} dB");
        }
    }

    #[test]
    fn interferer_windows_compose_bitwise_with_whole_buffer() {
        // Windows that straddle the 1024-sample anchor grid, including
        // one that crosses a fused 8 Ki block boundary.
        let fs = 2.4e6;
        let fc = 1.4e6;
        let n = 2 * 8192 + 31;
        let intf = Interferer::printer(0.8);
        let mut whole = vec![Complex::ZERO; n];
        intf.add_to(&mut whole, fs, fc, 5);
        for window in [1usize, 7, 997, 1023, 1024, 1025, 8192 + 3, n] {
            let mut composed = vec![Complex::ZERO; n];
            let mut start = 0;
            while start < n {
                let len = window.min(n - start);
                intf.add_to_window(&mut composed[start..start + len], fs, fc, 5, start);
                start += len;
            }
            assert_bitwise_eq(&composed, &whole, &format!("window {window}"));
        }
    }

    #[test]
    fn interferer_detached_window_matches_whole_buffer() {
        // A window deep in a 2 s capture, rendered directly at its
        // absolute offset (mid-segment, crossing anchors), must not
        // depend on anything rendered before it.
        let synth = crate::synth::SynthConfig::rtl_sdr_for(970e3);
        let (fs, fc) = (synth.sample_rate, synth.center_freq);
        let n = 4_800_000;
        let at = n - 5 * COMB_ANCHOR - 333;
        for intf in [Interferer::printer(0.8), Interferer::refrigerator(0.5)] {
            let mut whole = vec![Complex::ZERO; n];
            intf.add_to(&mut whole, fs, fc, 11);
            let mut tail = vec![Complex::ZERO; n - at];
            intf.add_to_window(&mut tail, fs, fc, 11, at);
            assert_bitwise_eq(&tail, &whole[at..], &format!("{intf:?} detached at {at}"));
        }
    }

    #[test]
    fn interferer_ignores_non_finite_or_non_positive_tuning() {
        let orig = vec![Complex::new(0.25, -0.5); 64];
        let intf = Interferer::printer(0.8);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut buf = orig.clone();
            intf.add_to(&mut buf, rate, 1.4e6, 5);
            assert_bitwise_eq(&buf, &orig, &format!("sample rate {rate}"));
            intf.add_to_window(&mut buf, rate, 1.4e6, 5, 4096);
            assert_bitwise_eq(&buf, &orig, &format!("sample rate {rate}, windowed"));
        }
        let degenerate = [
            (intf, f64::NAN),
            (intf, f64::NEG_INFINITY),
            (Interferer { fundamental_hz: f64::INFINITY, ..intf }, 1.4e6),
            (Interferer { fundamental_hz: f64::NAN, ..intf }, 1.4e6),
            (Interferer { amplitude: f64::NAN, ..intf }, 1.4e6),
            (Interferer { amplitude: f64::INFINITY, ..intf }, 1.4e6),
        ];
        for (intf, fc) in degenerate {
            let mut buf = orig.clone();
            intf.add_to(&mut buf, 2.4e6, fc, 5);
            assert_bitwise_eq(&buf, &orig, &format!("{intf:?} at {fc}"));
        }
    }

    #[test]
    fn interferer_comb_lands_on_harmonics() {
        let fs = 2.4e6;
        let fc = 1.4e6;
        let n = 8192;
        let mut buf = vec![Complex::ZERO; n];
        let intf = Interferer { fundamental_hz: 300e3, amplitude: 1.0, harmonics: 8, rolloff: 0.5 };
        intf.add_to(&mut buf, fs, fc, 1);
        let mut spec = buf.clone();
        plan_for(n).forward(&mut spec);
        // Harmonic 5 at 1.5 MHz is in-band at +100 kHz baseband.
        let k5 = frequency_bin(1.5e6 - fc, n, fs);
        let a5 = spec[k5].abs() / n as f64;
        assert!((a5 - 0.5f64.powi(4)).abs() < 0.02, "h5 amplitude {a5}");
        // Harmonic 1 at 300 kHz is out of band (−1.1 MHz edge? in-band: −1.1 MHz is within ±1.2) —
        // pick harmonic far out of band instead: none beyond ±1.2 MHz must appear.
        let out_of_band_energy: f64 = (0..n)
            .filter(|&k| {
                let f = emsc_sdr::fft::bin_frequency(k, n, fs);
                f.abs() > 1.19e6
            })
            .map(|k| spec[k].abs() / n as f64)
            .fold(0.0, f64::max);
        assert!(out_of_band_energy < 0.05, "edge leakage {out_of_band_energy}");
    }

    #[test]
    fn impulsive_noise_is_sparse_and_deterministic() {
        let mut a = vec![Complex::ZERO; 10_000];
        let mut b = vec![Complex::ZERO; 10_000];
        add_impulsive_noise(&mut a, 0.01, 2.0, 11);
        add_impulsive_noise(&mut b, 0.01, 2.0, 11);
        assert_eq!(a, b);
        let hits = a.iter().filter(|z| z.abs() > 1e-12).count();
        assert!((50..200).contains(&hits), "expected ~100 impulses, got {hits}");
        for z in a.iter().filter(|z| z.abs() > 1e-12) {
            assert!((z.abs() - 2.0).abs() < 1e-9, "impulse magnitude {}", z.abs());
        }
        let mut c = vec![Complex::ZERO; 10_000];
        add_impulsive_noise(&mut c, 0.01, 2.0, 12);
        assert_ne!(a, c, "seed must move the impulses");
    }

    #[test]
    fn impulsive_noise_degenerate_parameters_are_noops() {
        let orig = vec![Complex::new(0.5, -0.5); 64];
        for (density, amplitude) in
            [(0.0, 1.0), (-1.0, 1.0), (f64::NAN, 1.0), (0.5, 0.0), (0.5, -3.0)]
        {
            let mut buf = orig.clone();
            add_impulsive_noise(&mut buf, density, amplitude, 5);
            assert_eq!(buf, orig, "density {density}, amplitude {amplitude}");
        }
        // Density above 1 clamps instead of panicking in gen_bool.
        let mut buf = vec![Complex::ZERO; 32];
        add_impulsive_noise(&mut buf, 2.0, 1.0, 5);
        assert!(buf.iter().all(|z| z.abs() > 0.0), "density 1 must hit every sample");
    }

    #[test]
    fn printer_and_fridge_have_distinct_fundamentals() {
        let p = Interferer::printer(1.0);
        let f = Interferer::refrigerator(1.0);
        assert_ne!(p.fundamental_hz, f.fundamental_hz);
        // Neither coincides with a typical VRM fundamental (~970 kHz):
        for intf in [p, f] {
            for h in 1..=intf.harmonics {
                let f_h = intf.fundamental_hz * h as f64;
                // Separation > 2 FFT bins at 2.4 Msps / 1024 points (2.34 kHz/bin).
                assert!((f_h - 970e3).abs() > 5e3, "harmonic {f_h} collides with f_sw");
            }
        }
    }
}
