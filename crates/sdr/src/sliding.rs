//! Sliding discrete Fourier transform for per-sample bin tracking.
//!
//! The paper's receiver (§IV-B, Eq. (1)) computes, for *every* sample
//! position `n`, the sum of FFT-bin magnitudes over the set `S` of
//! VRM-related frequency components — an STFT with "maximum
//! overlapping" (hop = 1). Computing a full FFT per sample is wasteful
//! when only two or three bins are needed, so this module tracks them
//! with the *modulated* sliding DFT (Jacobsen & Lyons, "The sliding
//! DFT", IEEE SP Magazine 2003; Duda, "Accurate, guaranteed stable,
//! sliding DFT", IEEE SP Magazine 2010). Each bin `k` of an `M`-sample
//! window keeps
//!
//! ```text
//! S_k[n] = Σ_{t=n−M+1..n} x[t] · tw_k[t mod M],   tw_k[j] = e^{−2πikj/M}
//!        = S_k[n−1] + (x[n] − x[n−M]) · tw_k[n mod M]
//! ```
//!
//! which is the window-aligned DFT up to a unit phasor,
//! `F_n[k] = S_k[n] · e^{+2πik(n+1)/M}`. So `|F_n[k]| = |S_k[n]|` and
//! the Eq. (1) energy needs no rotation at all, and the recurrence's
//! loop-carried dependency is an add rather than the classic
//! `(F + x − old) · e^{+2πik/M}` complex multiply.
//!
//! **Absolute block grid.** The updates are summed in four independent
//! accumulators per bin (lane = ring slot mod 4), and the partial sums
//! fold into `S_k` only at grid points fixed by the absolute sample
//! index: every ring wrap (a multiple of `M`), where every 64th wrap
//! instead re-sums `S_k` exactly from the ring to clear accumulated
//! rounding. An emission reads `|S_k + Σ partials|` without folding.
//! No grid point depends on chunk edges or on the decimation, so the
//! output is bitwise the same for every chunking, and
//! [`SlidingDft::push`] is the one-sample case of
//! [`SlidingDft::process_into`].
//!
//! The kernel is tolerance-bounded against the rotating recurrence it
//! replaced (a `#[cfg(test)]` oracle in this module): ≤ −120 dB error
//! relative to the peak energy, measured at −284 to −297 dB over the
//! torture corpus.

use crate::error::CaptureError;
use crate::fft::frequency_bin;
use crate::iq::Complex;

/// Independent partial-sum accumulators per bin.
const LANES: usize = 4;
/// Exact re-summation period, in windows, anchored on absolute sample
/// index (every `REFRESH_WINDOWS · M`-th sample).
const REFRESH_WINDOWS: usize = 64;
/// Longest run of samples whose `x − old` deltas are staged at once.
const BLOCK: usize = 256;

/// Per-bin partial sums of the updates since the last grid point, one
/// accumulator per lane.
#[derive(Debug, Clone, Copy, Default)]
struct Lanes {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl Lanes {
    /// `lane += (dr + i·di) · (tr + i·ti)`.
    #[inline(always)]
    fn add(&mut self, lane: usize, dr: f64, di: f64, tr: f64, ti: f64) {
        self.re[lane] += dr * tr - di * ti;
        self.im[lane] += dr * ti + di * tr;
    }

    /// Accumulates the deltas of consecutive ring slots starting at
    /// `slot` against their twiddles (`tr`/`ti`, same length as the
    /// deltas). Each sample lands in lane `slot mod LANES`, in slot
    /// order, however the run is split.
    #[inline(always)]
    fn accumulate(&mut self, slot: usize, dr: &[f64], di: &[f64], tr: &[f64], ti: &[f64]) {
        let n = dr.len();
        let (di, tr, ti) = (&di[..n], &tr[..n], &ti[..n]);
        let mut acc = *self;
        let head = ((LANES - slot % LANES) % LANES).min(n);
        for i in 0..head {
            acc.add((slot + i) % LANES, dr[i], di[i], tr[i], ti[i]);
        }
        let body = head + (n - head) / LANES * LANES;
        for (((r, m), a), b) in dr[head..body]
            .chunks_exact(LANES)
            .zip(di[head..body].chunks_exact(LANES))
            .zip(tr[head..body].chunks_exact(LANES))
            .zip(ti[head..body].chunks_exact(LANES))
        {
            for l in 0..LANES {
                acc.add(l, r[l], m[l], a[l], b[l]);
            }
        }
        for i in body..n {
            acc.add(i - body, dr[i], di[i], tr[i], ti[i]);
        }
        *self = acc;
    }

    /// The lanes' sum, as a fixed pairwise tree.
    #[inline]
    fn fold(&self) -> Complex {
        let tree = |v: &[f64; LANES]| (v[0] + v[1]) + (v[2] + v[3]);
        Complex::new(tree(&self.re), tree(&self.im))
    }
}

/// A non-finite sample enters the window as zero — a dropout, what a
/// dongle glitch produces — reported by the flag.
#[inline(always)]
fn sanitize(x: Complex) -> (Complex, bool) {
    let finite = x.re.is_finite() & x.im.is_finite();
    (if finite { x } else { Complex::ZERO }, !finite)
}

/// `|z|` as `√(re² + im²)` while the sum of squares is a normal
/// number, else [`Complex::abs`] (`hypot`), which cannot overflow or
/// underflow.
#[inline]
fn magnitude(z: Complex) -> f64 {
    let sq = z.re * z.re + z.im * z.im;
    if sq.is_normal() {
        sq.sqrt()
    } else {
        z.abs()
    }
}

/// Tracks selected DFT bins over a sliding rectangular window of `M`
/// samples (see the [module docs](self) for the arithmetic).
#[derive(Debug, Clone)]
pub struct SlidingDft {
    window: usize,
    bins: Vec<usize>,
    /// `tw_k[j] = e^{−2πikj/M}` for each tracked bin and ring slot,
    /// split into real and imaginary tables, row-major per bin.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// Per-bin `S_k` as of the last grid point.
    sums: Vec<Complex>,
    /// Per-bin updates since the last grid point.
    partials: Vec<Lanes>,
    /// The last `M` input samples; sample `t` sits in slot `t mod M`.
    ring: Vec<Complex>,
    head: usize,
    seen: usize,
}

impl SlidingDft {
    /// Creates a tracker over a window of `window` samples for the
    /// given bin indices.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, `bins` is empty, or any bin index
    /// is `>= window`.
    pub fn new(window: usize, bins: &[usize]) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(!bins.is_empty(), "at least one bin must be tracked");
        assert!(bins.iter().all(|&k| k < window), "bin index out of range");
        Self::build(window, bins)
    }

    /// Fallible variant of [`SlidingDft::new`]: reports the violated
    /// precondition as a [`CaptureError::InvalidConfig`] instead of
    /// panicking. An empty `bins` slice is what the receiver sees when
    /// no tracked harmonic falls inside the captured band, so callers
    /// can map that case to a "no carrier" decode failure.
    pub fn try_new(window: usize, bins: &[usize]) -> Result<Self, CaptureError> {
        if window == 0 {
            return Err(CaptureError::InvalidConfig("window must be positive"));
        }
        if bins.is_empty() {
            return Err(CaptureError::InvalidConfig("at least one bin must be tracked"));
        }
        if bins.iter().any(|&k| k >= window) {
            return Err(CaptureError::InvalidConfig("bin index out of range"));
        }
        Ok(Self::build(window, bins))
    }

    fn build(window: usize, bins: &[usize]) -> Self {
        let twiddles: Vec<Complex> = bins
            .iter()
            .flat_map(|&k| {
                (0..window).map(move |m| {
                    Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64)
                })
            })
            .collect();
        SlidingDft {
            window,
            bins: bins.to_vec(),
            tw_re: twiddles.iter().map(|t| t.re).collect(),
            tw_im: twiddles.iter().map(|t| t.im).collect(),
            sums: vec![Complex::ZERO; bins.len()],
            partials: vec![Lanes::default(); bins.len()],
            ring: vec![Complex::ZERO; window],
            head: 0,
            seen: 0,
        }
    }

    /// Convenience constructor taking baseband frequencies instead of
    /// bin indices (frequencies are snapped to the nearest bin).
    pub fn for_frequencies(window: usize, frequencies: &[f64], sample_rate: f64) -> Self {
        let bins: Vec<usize> =
            frequencies.iter().map(|&f| frequency_bin(f, window, sample_rate)).collect();
        SlidingDft::new(window, &bins)
    }

    /// Window length `M`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Tracked bin indices.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Pushes one sample (zero if it is not finite) and updates every
    /// tracked bin: the one-sample case of
    /// [`SlidingDft::process_into`].
    pub fn push(&mut self, x: Complex) {
        let slot = self.head;
        let (x, _) = sanitize(x);
        let old = std::mem::replace(&mut self.ring[slot], x);
        self.accumulate(slot, &[x.re - old.re], &[x.im - old.im], &[], &mut []);
        self.advance(1);
    }

    /// Adds the staged deltas of ring slots `start..start + dr.len()`
    /// to every bin's partial sums. `cuts` are the run offsets of the
    /// emissions strictly inside the run, ascending: as each bin passes
    /// one, it adds its magnitude to the matching `energies` entry, so
    /// every emission folds `|S_k|` in bin order.
    fn accumulate(
        &mut self,
        start: usize,
        dr: &[f64],
        di: &[f64],
        cuts: &[usize],
        energies: &mut [f64],
    ) {
        let (w, len) = (self.window, dr.len());
        for (row, (lanes, &sum)) in self.partials.iter_mut().zip(&self.sums).enumerate() {
            let (tr, ti) = (&self.tw_re[row * w + start..], &self.tw_im[row * w + start..]);
            let mut a = 0;
            for (&b, energy) in cuts.iter().zip(energies.iter_mut()) {
                lanes.accumulate(start + a, &dr[a..b], &di[a..b], &tr[a..b], &ti[a..b]);
                *energy += magnitude(sum + lanes.fold());
                a = b;
            }
            lanes.accumulate(start + a, &dr[a..len], &di[a..len], &tr[a..len], &ti[a..len]);
        }
    }

    /// Moves the ring head past `n` already-accumulated samples and,
    /// at a ring wrap, folds the partial sums into `S` — or, every
    /// [`REFRESH_WINDOWS`]-th wrap, re-sums `S` exactly.
    fn advance(&mut self, n: usize) {
        self.seen += n;
        self.head += n;
        if self.head < self.window {
            return;
        }
        self.head = 0;
        if (self.seen / self.window).is_multiple_of(REFRESH_WINDOWS) {
            self.refresh();
        } else {
            for (s, p) in self.sums.iter_mut().zip(&mut self.partials) {
                *s += p.fold();
                *p = Lanes::default();
            }
        }
    }

    /// Exactly recomputes every `S_k` from the ring (slot order, same
    /// lane split as the updates), clearing accumulated rounding.
    fn refresh(&mut self) {
        let w = self.window;
        for (row, (s, p)) in self.sums.iter_mut().zip(&mut self.partials).enumerate() {
            let (tr, ti) = (&self.tw_re[row * w..][..w], &self.tw_im[row * w..][..w]);
            let mut acc = Lanes::default();
            for (j, x) in self.ring.iter().enumerate() {
                acc.add(j % LANES, x.re, x.im, tr[j], ti[j]);
            }
            *s = acc.fold();
            *p = Lanes::default();
        }
    }

    /// The Eq. (1) energy of the current window: `Σ_k |S_k|`, folded
    /// in bin order, with each bin's pending partial sums added in.
    fn energy(&self) -> f64 {
        let mut energy = 0.0;
        for (s, p) in self.sums.iter().zip(&self.partials) {
            energy += magnitude(*s + p.fold());
        }
        energy
    }

    /// Advances the tracker over a whole block of samples, appending
    /// one Eq. (1) energy value — [`SlidingDft::magnitude_sum`] — for
    /// every primed position on the `decimation` grid. A non-finite
    /// sample enters the window as zero; returns how many did.
    ///
    /// Runs of up to 256 samples within one ring cycle first
    /// stage their `x − old` deltas (updating the ring); then each bin
    /// accumulates the run in its independent lanes and adds its
    /// magnitude to every emission inside the run as it passes it.
    /// The result is bitwise the same as a [`SlidingDft::push`]-per-
    /// sample loop, at any chunking.
    ///
    /// The decimation grid is anchored at the priming sample: an
    /// output is emitted after push number `s` (counted from the
    /// tracker's birth) iff `s ≥ window` and
    /// `(s − window) % decimation == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn process_into(
        &mut self,
        chunk: &[Complex],
        decimation: usize,
        out: &mut Vec<f64>,
    ) -> usize {
        assert!(decimation > 0, "decimation must be positive");
        let mut non_finite = 0;
        let w = self.window;
        // Samples from here to the next emission (≥ 1).
        let mut next = match (self.seen + 1).checked_sub(w) {
            None => w - self.seen,
            Some(past) => 1 + (decimation - past % decimation) % decimation,
        };
        let (mut dr, mut di) = ([0.0; BLOCK], [0.0; BLOCK]);
        // Emissions strictly inside the run: their run offsets and
        // energies.
        let (mut cuts, mut energies) = ([0usize; BLOCK], [0.0f64; BLOCK]);
        let mut rest = chunk;
        while !rest.is_empty() {
            let start = self.head;
            let len = rest.len().min(w - start).min(BLOCK);
            let (run, tail) = rest.split_at(len);
            rest = tail;
            for ((slot, &x), (r, i)) in
                self.ring[start..start + len].iter_mut().zip(run).zip(dr.iter_mut().zip(&mut di))
            {
                let (x, dropped) = sanitize(x);
                non_finite += usize::from(dropped);
                let old = std::mem::replace(slot, x);
                *r = x.re - old.re;
                *i = x.im - old.im;
            }
            let mut emits = 0;
            while next < len {
                cuts[emits] = next;
                emits += 1;
                next += decimation;
            }
            energies[..emits].fill(0.0);
            self.accumulate(start, &dr[..len], &di[..len], &cuts[..emits], &mut energies[..emits]);
            out.extend_from_slice(&energies[..emits]);
            self.advance(len);
            // An emission on the run's last sample reads the sums after
            // a wrap has folded (or refreshed) them.
            if next == len {
                out.push(self.energy());
                next += decimation;
            }
            next -= len;
        }
        non_finite
    }

    /// Returns `true` once at least one full window has been seen, so
    /// the tracked values describe a fully-populated window.
    pub fn is_primed(&self) -> bool {
        self.seen >= self.window
    }

    /// Current complex value `F_n[k]` of each tracked bin, in the
    /// window-aligned phase convention (window index 0 is the oldest
    /// sample): `S_k` rotated by `e^{+2πik·seen/M}`, read from the
    /// twiddle table.
    pub fn values(&self) -> Vec<Complex> {
        let w = self.window;
        let back = (w - self.head) % w;
        self.sums
            .iter()
            .zip(&self.partials)
            .enumerate()
            .map(|(row, (s, p))| {
                let rot = Complex::new(self.tw_re[row * w + back], self.tw_im[row * w + back]);
                (*s + p.fold()) * rot
            })
            .collect()
    }

    /// Sum of the magnitudes of all tracked bins — one sample of the
    /// paper's Eq. (1) energy signal `Y[n]`.
    pub fn magnitude_sum(&self) -> f64 {
        self.energy()
    }
}

/// Computes the paper's Eq. (1) energy signal for an entire capture:
/// `Y[n] = Σ_{k∈S} |F_n[k]|`, one value per input sample once the
/// window is primed, optionally decimated by `decimation` to keep
/// downstream processing tractable.
///
/// Returns `(signal, effective_sample_rate_divisor)` where the signal
/// has one entry per `decimation` input samples.
///
/// # Panics
///
/// Panics if `decimation` is zero (see [`SlidingDft::new`] for the
/// window/bin preconditions).
///
/// # Examples
///
/// ```
/// use emsc_sdr::iq::Complex;
/// use emsc_sdr::sliding::energy_signal;
///
/// let fs = 1024.0;
/// let tone: Vec<Complex> = (0..4096)
///     .map(|n| Complex::cis(2.0 * std::f64::consts::PI * 128.0 * n as f64 / fs))
///     .collect();
/// let y = energy_signal(&tone, 256, &[32], 4);
/// // steady tone ⇒ steady energy ≈ window size
/// assert!(y.iter().all(|&v| (v - 256.0).abs() < 1.0));
/// ```
pub fn energy_signal(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len().saturating_sub(window) / decimation + 1);
    energy_signal_into(samples, window, bins, decimation, &mut out);
    out
}

/// [`energy_signal`] into a caller-owned buffer, via the blocked
/// [`SlidingDft::process_into`] path (bit-identical to a
/// push-per-sample loop). The `SlidingDft` tables are still built per
/// call; hold a [`SlidingDft`] (or an [`crate::stream::EnergyStream`])
/// across captures for fully allocation-free steady state.
///
/// # Panics
///
/// Panics if `decimation` is zero (see [`SlidingDft::new`] for the
/// window/bin preconditions).
pub fn energy_signal_into(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
    out: &mut Vec<f64>,
) {
    assert!(decimation > 0, "decimation must be positive");
    let mut sdft = SlidingDft::new(window, bins);
    out.clear();
    sdft.process_into(samples, decimation, out);
}

/// Result of [`try_energy_signal`]: the energy samples plus how many
/// non-finite input samples had to be zeroed before analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySignal {
    /// The decimated Eq. (1) energy signal.
    pub samples: Vec<f64>,
    /// Number of NaN/infinite input samples replaced with zero.
    pub sanitized: usize,
}

/// Fallible variant of [`energy_signal`] for captures of unknown
/// provenance. Reports degenerate input as a typed [`CaptureError`]
/// instead of panicking or silently propagating NaN:
///
/// - an empty capture is [`CaptureError::Empty`],
/// - a capture shorter than one analysis window is
///   [`CaptureError::TooShort`],
/// - a capture where **more than half** the samples are NaN/infinite
///   is [`CaptureError::NonFinite`] (nothing useful survives),
/// - a minority of non-finite samples is *sanitized*: each is replaced
///   with zero (a dropout, exactly what a dongle glitch produces) and
///   counted in [`EnergySignal::sanitized`].
///
/// The energy itself is [`energy_signal`]'s: the kernel zeroes
/// non-finite samples as it reads them.
///
/// # Errors
///
/// See above; configuration violations (zero window/decimation, empty
/// or out-of-range bins) are [`CaptureError::InvalidConfig`].
pub fn try_energy_signal(
    samples: &[Complex],
    window: usize,
    bins: &[usize],
    decimation: usize,
) -> Result<EnergySignal, CaptureError> {
    if decimation == 0 {
        return Err(CaptureError::InvalidConfig("decimation must be positive"));
    }
    // Validate window/bins before looking at the data so config errors
    // win over capture errors (they are the caller's bug, not the
    // channel's).
    SlidingDft::try_new(window, bins)?;
    if samples.is_empty() {
        return Err(CaptureError::Empty);
    }
    if samples.len() < window {
        return Err(CaptureError::TooShort { needed: window, got: samples.len() });
    }
    let non_finite = samples.iter().filter(|&&x| sanitize(x).1).count();
    if non_finite * 2 > samples.len() {
        return Err(CaptureError::NonFinite { count: non_finite, total: samples.len() });
    }
    Ok(EnergySignal {
        samples: energy_signal(samples, window, bins, decimation),
        sanitized: non_finite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::plan_for;

    /// Direct windowed DFT of the window ending at sample `end`
    /// (inclusive), for cross-checking the recursion.
    fn direct_bin(samples: &[Complex], end: usize, window: usize, k: usize) -> Complex {
        let start = end + 1 - window;
        let mut acc = Complex::ZERO;
        for m in 0..window {
            acc += samples[start + m]
                * Complex::cis(-2.0 * std::f64::consts::PI * k as f64 * m as f64 / window as f64);
        }
        acc
    }

    /// The rotating recurrence the modulated kernel replaced, kept as
    /// its oracle: `F ← (F + x − old) · e^{+2πik/M}` per bin and
    /// sample, with every `M`-th push re-summing `F` exactly from the
    /// ring instead. Returns the Eq. (1) energy on the
    /// [`SlidingDft::process_into`] decimation grid, with non-finite
    /// samples zeroed as the streaming sanitiser does.
    fn rotating_energy(
        samples: &[Complex],
        window: usize,
        bins: &[usize],
        decimation: usize,
    ) -> Vec<f64> {
        let turn = |k: usize, m: usize| 2.0 * std::f64::consts::PI * (k * m) as f64 / window as f64;
        let rotators: Vec<Complex> = bins.iter().map(|&k| Complex::cis(turn(k, 1))).collect();
        let twiddles: Vec<Vec<Complex>> = bins
            .iter()
            .map(|&k| (0..window).map(|m| Complex::cis(-turn(k, m))).collect())
            .collect();
        let mut values = vec![Complex::ZERO; bins.len()];
        let mut ring = vec![Complex::ZERO; window];
        let mut out = Vec::new();
        for (n, &x) in samples.iter().enumerate() {
            let x = if x.re.is_finite() && x.im.is_finite() { x } else { Complex::ZERO };
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

    fn chirpy_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new(
                    (0.013 * t).sin() + 0.2 * (0.11 * t).cos(),
                    (0.007 * t * t * 1e-3).sin(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_direct_dft_everywhere() {
        let samples = chirpy_signal(700);
        let window = 128;
        let bins = [5usize, 31, 64];
        let mut sdft = SlidingDft::new(window, &bins);
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() {
                for (i, &k) in bins.iter().enumerate() {
                    let want = direct_bin(&samples, n, window, k);
                    let got = sdft.values()[i];
                    assert!((want - got).abs() < 1e-8, "bin {k} at n={n}: want {want}, got {got}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_full_fft_at_window_boundary() {
        let samples = chirpy_signal(256);
        let window = 256;
        let mut sdft = SlidingDft::new(window, &[3, 17]);
        for &x in &samples {
            sdft.push(x);
        }
        let mut spectrum = samples.clone();
        plan_for(spectrum.len()).forward(&mut spectrum);
        assert!((sdft.values()[0] - spectrum[3]).abs() < 1e-8);
        assert!((sdft.values()[1] - spectrum[17]).abs() < 1e-8);
    }

    #[test]
    fn drift_stays_bounded_over_long_runs() {
        // 50k samples, window 64: the periodic refresh must keep the
        // recursion glued to the direct computation.
        let samples = chirpy_signal(50_000);
        let window = 64;
        let k = 9;
        let mut sdft = SlidingDft::new(window, &[k]);
        let mut worst = 0.0f64;
        for (n, &x) in samples.iter().enumerate() {
            sdft.push(x);
            if sdft.is_primed() && n % 997 == 0 {
                let err = (sdft.values()[0] - direct_bin(&samples, n, window, k)).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst < 1e-7, "worst drift {worst}");
    }

    #[test]
    fn energy_signal_tracks_onoff_keying() {
        let fs = 2048.0;
        let f = 512.0;
        let mut samples: Vec<Complex> = (0..8192)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f * n as f64 / fs))
            .collect();
        for s in samples.iter_mut().skip(4096) {
            *s = Complex::ZERO;
        }
        let y = energy_signal(&samples, 256, &[frequency_bin(f, 256, fs)], 1);
        // Energy high in the "on" region, low in the "off" region.
        assert!(y[1000] > 250.0);
        assert!(y[y.len() - 100] < 1.0);
        // Transition is a ramp of exactly `window` samples.
        let hi = y[3500];
        let lo = y[4600];
        assert!(hi / (lo + 1e-12) > 1e3);
    }

    #[test]
    fn decimation_reduces_length() {
        let samples = chirpy_signal(4096);
        let full = energy_signal(&samples, 128, &[7], 1);
        let dec = energy_signal(&samples, 128, &[7], 8);
        assert_eq!(full.len(), 4096 - 128 + 1);
        assert_eq!(dec.len(), (4096 - 128) / 8 + 1);
        // Decimated values are a strict subsequence of the full ones.
        for (i, &v) in dec.iter().enumerate() {
            assert!((v - full[i * 8]).abs() < 1e-12);
        }
    }

    #[test]
    fn process_into_is_bit_identical_to_push_per_sample() {
        let samples = chirpy_signal(3001);
        for (window, decimation) in [(64usize, 1usize), (64, 7), (128, 24), (1, 1), (3, 2)] {
            let bins: Vec<usize> =
                [0usize, 5, 31].iter().copied().filter(|&k| k < window).collect();
            // Reference: the per-sample push loop.
            let mut reference_sdft = SlidingDft::new(window, &bins);
            let mut reference = Vec::new();
            for (n, &x) in samples.iter().enumerate() {
                reference_sdft.push(x);
                if reference_sdft.is_primed() && (n + 1 - window).is_multiple_of(decimation) {
                    reference.push(reference_sdft.magnitude_sum());
                }
            }
            // Blocked path at awkward chunk boundaries.
            for chunk in [1usize, 7, 63, 64, 65, 1000, usize::MAX] {
                let mut sdft = SlidingDft::new(window, &bins);
                let mut got = Vec::new();
                for c in samples.chunks(chunk.min(samples.len())) {
                    sdft.process_into(c, decimation, &mut got);
                }
                assert_eq!(got.len(), reference.len(), "w={window} d={decimation} c={chunk}");
                for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "w={window} d={decimation} c={chunk} out={i}"
                    );
                }
                for (a, b) in sdft.values().iter().zip(reference_sdft.values()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn for_frequencies_snaps_to_bins() {
        let sdft = SlidingDft::for_frequencies(1024, &[970e3, 1.94e6], 2.4e6);
        assert_eq!(sdft.bins()[0], frequency_bin(970e3, 1024, 2.4e6));
        assert_eq!(sdft.bins()[1], frequency_bin(1.94e6, 1024, 2.4e6));
    }

    #[test]
    #[should_panic(expected = "bin index")]
    fn bin_out_of_range_panics() {
        SlidingDft::new(64, &[64]);
    }

    #[test]
    fn try_new_reports_config_errors() {
        use crate::error::CaptureError;
        assert!(matches!(SlidingDft::try_new(0, &[1]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[]), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(SlidingDft::try_new(64, &[64]), Err(CaptureError::InvalidConfig(_))));
        assert!(SlidingDft::try_new(64, &[63]).is_ok());
    }

    #[test]
    fn try_energy_signal_matches_panicking_path_on_clean_input() {
        let samples = chirpy_signal(2048);
        let want = energy_signal(&samples, 128, &[7], 4);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.samples, want);
        assert_eq!(got.sanitized, 0);
    }

    #[test]
    fn try_energy_signal_classifies_degenerate_captures() {
        use crate::error::CaptureError;
        let samples = chirpy_signal(64);
        assert_eq!(try_energy_signal(&[], 128, &[7], 1), Err(CaptureError::Empty));
        assert_eq!(
            try_energy_signal(&samples, 128, &[7], 1),
            Err(CaptureError::TooShort { needed: 128, got: 64 })
        );
        assert!(matches!(
            try_energy_signal(&samples, 32, &[7], 0),
            Err(CaptureError::InvalidConfig(_))
        ));
        let all_nan = vec![Complex::new(f64::NAN, f64::NAN); 256];
        assert_eq!(
            try_energy_signal(&all_nan, 64, &[7], 1),
            Err(CaptureError::NonFinite { count: 256, total: 256 })
        );
    }

    #[test]
    fn try_energy_signal_sanitizes_a_minority_of_nans() {
        let mut samples = chirpy_signal(2048);
        samples[100] = Complex::new(f64::NAN, 0.0);
        samples[700] = Complex::new(f64::INFINITY, f64::NEG_INFINITY);
        let got = try_energy_signal(&samples, 128, &[7], 4).unwrap();
        assert_eq!(got.sanitized, 2);
        assert!(got.samples.iter().all(|v| v.is_finite()), "NaN leaked through");
        // Away from the zeroed samples the signal matches the clean path.
        let mut cleaned = samples.clone();
        cleaned[100] = Complex::ZERO;
        cleaned[700] = Complex::ZERO;
        assert_eq!(got.samples, energy_signal(&cleaned, 128, &[7], 4));
    }

    /// A deterministic xorshift stream in `[-0.5, 0.5)²`.
    fn xorshift(n: usize, mut state: u64) -> Vec<Complex> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let re = ((state & 0xFFFF) as f64 / 65535.0) - 0.5;
                let im = (((state >> 16) & 0xFFFF) as f64 / 65535.0) - 0.5;
                Complex::new(re, im)
            })
            .collect()
    }

    /// The shapes of the integration tests' torture corpus (same
    /// lengths, levels and non-finite lacing), plus a loud and a faint
    /// scaling of the keyed tone.
    fn torture_corpus() -> Vec<(&'static str, Vec<Complex>)> {
        let ook = |n: usize| -> Vec<Complex> {
            let noise = xorshift(n, 7);
            (0..n)
                .map(|i| {
                    let amp = if (i / 600).is_multiple_of(2) { 0.5 } else { 0.02 };
                    Complex::new(amp, 0.0) + noise[i].scale(0.05)
                })
                .collect()
        };
        let mut nan_laced = ook(60_000);
        for s in nan_laced.iter_mut().step_by(97) {
            *s = Complex::new(f64::NAN, f64::INFINITY);
        }
        let clipped = ook(60_000)
            .into_iter()
            .map(|s| Complex::new(s.re.clamp(-0.03, 0.03), s.im.clamp(-0.03, 0.03)))
            .collect();
        let mut truncated = ook(120_000);
        truncated.truncate(120_000 / 3 + 17);
        vec![
            ("dc-only", vec![Complex::new(0.3, 0.0); 50_000]),
            ("silence", vec![Complex::ZERO; 50_000]),
            ("pure-noise", xorshift(50_000, 42)),
            ("nan-laced", nan_laced),
            ("all-nan", vec![Complex::new(f64::NAN, f64::NAN); 20_000]),
            ("hard-clipped", clipped),
            ("truncated-mid-frame", truncated),
            ("loud", ook(60_000).into_iter().map(|s| s.scale(1e9)).collect()),
            ("faint", ook(60_000).into_iter().map(|s| s.scale(1e-9)).collect()),
        ]
    }

    #[test]
    fn kernel_matches_the_rotating_oracle_over_the_torture_corpus() {
        // The receiver's geometry at the corpus tuning: window 256,
        // carrier at DC and its harmonic 250 kHz up, decimation 24.
        for (label, samples) in torture_corpus() {
            for (window, bins, decimation) in
                [(256usize, &[0usize, 27][..], 24usize), (64, &[0, 7, 63], 1)]
            {
                let kernel = energy_signal(&samples, window, bins, decimation);
                let want = rotating_energy(&samples, window, bins, decimation);
                assert_eq!(kernel.len(), want.len(), "{label} w={window}");
                let peak = want.iter().fold(0.0f64, |m, v| m.max(*v));
                let err = kernel.iter().zip(&want).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                if peak == 0.0 {
                    assert_eq!(err, 0.0, "{label} w={window}: energy in silence");
                } else {
                    let db = 20.0 * (err / peak).log10();
                    assert!(db <= -120.0, "{label} w={window}: {db:.1} dB");
                }
            }
        }
    }

    #[test]
    fn magnitude_survives_extreme_scales() {
        for scale in [1.0, 1e-200, 1e200, 1e-310, 1e300] {
            let got = magnitude(Complex::new(3.0 * scale, 4.0 * scale));
            assert!((got - 5.0 * scale).abs() <= 1e-15 * 5.0 * scale, "scale {scale}: {got}");
        }
        assert_eq!(magnitude(Complex::ZERO), 0.0);
    }

    #[test]
    fn burst_then_silence_drift_stays_bounded() {
        // 10.5 M samples of 150 k-sample loud bursts, each followed by
        // 200 k samples of silence (the drift a sliding DFT must not
        // keep). Fed in 50 k-sample chunks and checked against the
        // direct DFT at the end of every chunk.
        let (window, bins) = (256usize, [0usize, 27, 100]);
        let amplitude = 1e3;
        let mut sdft = SlidingDft::new(window, &bins);
        let mut worst = 0.0f64;
        let mut out = Vec::new();
        let mut exact_silences = 0;
        let chunk = 50_000;
        for c in 0..210 {
            let burst = c % 7 < 3;
            let chunk_samples: Vec<Complex> = if burst {
                xorshift(chunk, c as u64 + 1).into_iter().map(|x| x.scale(amplitude)).collect()
            } else {
                vec![Complex::ZERO; chunk]
            };
            sdft.process_into(&chunk_samples, 24, &mut out);
            out.clear();
            for (got, &k) in sdft.values().iter().zip(&bins) {
                let want = direct_bin(&chunk_samples, chunk - 1, window, k);
                worst = worst.max((*got - want).abs());
                // Silence past an exact refresh reads exactly zero.
                if !burst && c % 7 > 3 {
                    assert_eq!(got.abs(), 0.0, "chunk {c}: residue after silence");
                    exact_silences += 1;
                }
            }
        }
        assert!(exact_silences > 0);
        let db = 20.0 * (worst / (amplitude * window as f64)).log10();
        assert!(db <= -240.0, "worst drift {worst:e} ({db:.1} dB of full scale)");
    }
}
