//! Real-valued DSP helpers: convolution, smoothing, peak detection.
//!
//! These are the building blocks of the paper's receiver: the edge
//! detector (§IV-B2) convolves the energy signal with a `[+1 … +1,
//! −1 … −1]` kernel to mimic a derivative, then takes local maxima of
//! the result as bit-start points.
//!
//! The convolution kernels here sit on **bit-pinned** paths (the
//! streaming `ConvolveStream` equivalence suite and the receiver's
//! edge chain), so their rewrites are restructure-only: the `_into`
//! variants reuse caller buffers and drop per-element bounds checks,
//! but every output accumulates its terms in the historical order and
//! is bit-identical to the original implementation (DESIGN.md §12).

use crate::scratch::{reset_f64, DspScratch};

/// Full linear convolution of `signal` with `kernel`
/// (output length `signal.len() + kernel.len() - 1`).
/// Allocating wrapper around [`convolve_full_into`].
pub fn convolve_full(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_full_into(signal, kernel, &mut out);
    out
}

/// [`convolve_full`] into a caller-owned buffer (cleared and
/// refilled; no allocation after a warm-up call at the largest size).
///
/// Scatter form: for each input sample the kernel is swept across a
/// contiguous output slice — an axpy the compiler vectorizes — and
/// each output still receives its `signal[i]·kernel[j]` terms in
/// ascending-`i` order, so results are bit-identical to the historical
/// nested-index loop.
pub fn convolve_full_into(signal: &[f64], kernel: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if signal.is_empty() || kernel.is_empty() {
        return;
    }
    let n = signal.len() + kernel.len() - 1;
    out.resize(n, 0.0);
    for (i, &s) in signal.iter().enumerate() {
        for (o, &r) in out[i..i + kernel.len()].iter_mut().zip(kernel) {
            *o += s * r;
        }
    }
}

/// "Same"-size convolution: the centre `signal.len()` samples of the
/// full convolution, so output index `i` aligns with input index `i`.
/// Allocating wrapper around [`convolve_same_into`].
///
/// Alignment convention for **even-length** kernels (which have no
/// centre tap): output index `i` is full-convolution index
/// `i + (k − 1)/2` with flooring division, i.e. the kernel's notional
/// centre sits half a sample *early* — the same convention as NumPy's
/// `convolve(…, 'same')`. This is deliberate, not an off-by-one: for
/// the always-even [`edge_kernel`] it places the response peak of a
/// rising step *exactly at the step index* (a step at sample `s`
/// peaks at full index `s + l/2 − 1`, and `start = l/2 − 1` maps that
/// back to `s`), so bit-start estimates are not biased late. Centring
/// on `k/2` instead would report every edge one sample early.
pub fn convolve_same(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_same_into(signal, kernel, &mut out, &mut DspScratch::new());
    out
}

/// [`convolve_same`] into a caller-owned buffer. The full convolution
/// is staged in `scratch.f0`; bit-identical to the allocating path.
pub fn convolve_same_into(
    signal: &[f64],
    kernel: &[f64],
    out: &mut Vec<f64>,
    scr: &mut DspScratch,
) {
    out.clear();
    if signal.is_empty() || kernel.is_empty() {
        out.resize(signal.len(), 0.0);
        return;
    }
    let mut full = std::mem::take(&mut scr.f0);
    convolve_full_into(signal, kernel, &mut full);
    let start = (kernel.len() - 1) / 2;
    out.extend_from_slice(&full[start..start + signal.len()]);
    scr.f0 = full;
}

/// The paper's derivative-mimicking kernel: `l/2` ones followed by
/// `l/2` minus-ones. Convolving with it produces a peak wherever the
/// signal steps upward (the start-of-bit edge).
///
/// Note on orientation: convolution flips the kernel, so to score
/// "recent samples high, older samples low" (a rising edge) the
/// *leading* half holds `+1`.
///
/// # Panics
///
/// Panics if `l` is zero or odd.
pub fn edge_kernel(l: usize) -> Vec<f64> {
    assert!(l > 0 && l.is_multiple_of(2), "edge kernel length must be positive and even");
    let mut k = vec![1.0; l];
    for v in k.iter_mut().take(l / 2) {
        *v = -1.0;
    }
    // After convolution's flip, the -1 half applies to newer samples'
    // past and +1 to the recent rise. We build [-1…,+1…] so that the
    // flipped kernel is [+1…,-1…] over (past → present).
    k.reverse();
    k
}

/// Simple moving average over a centred window of `width` samples
/// (edges use the available partial window). Allocating wrapper around
/// [`moving_average_into`].
pub fn moving_average(signal: &[f64], width: usize) -> Vec<f64> {
    let mut out = Vec::new();
    moving_average_into(signal, width, &mut out, &mut DspScratch::new());
    out
}

/// [`moving_average`] into a caller-owned buffer. The prefix-sum table
/// is staged in `scratch.f0`; bit-identical to the allocating path.
pub fn moving_average_into(signal: &[f64], width: usize, out: &mut Vec<f64>, scr: &mut DspScratch) {
    out.clear();
    if width <= 1 || signal.is_empty() {
        out.extend_from_slice(signal);
        return;
    }
    let half = width / 2;
    // prefix sums for O(n)
    reset_f64(&mut scr.f0, signal.len() + 1);
    let prefix = &mut scr.f0;
    let mut running = 0.0;
    for (slot, &v) in prefix[1..].iter_mut().zip(signal) {
        running += v;
        *slot = running;
    }
    out.reserve(signal.len());
    for i in 0..signal.len() {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(signal.len());
        out.push((prefix[hi] - prefix[lo]) / (hi - lo) as f64);
    }
}

/// A detected local maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the maximum.
    pub index: usize,
    /// Signal value at the maximum.
    pub value: f64,
}

/// Finds local maxima of `signal` that are at least `min_height` tall,
/// enforcing a minimum spacing of `min_distance` samples between
/// retained peaks (taller peaks win).
///
/// A flat-topped maximum (a plateau, e.g. `[1, 5, 5, 5, 1]`) is
/// reported once, at the **centre** of the plateau — reporting the
/// first or last plateau sample would bias bit-start estimates early
/// or late whenever quantisation flattens an edge-response peak.
pub fn find_peaks(signal: &[f64], min_height: f64, min_distance: usize) -> Vec<Peak> {
    let mut candidates = Vec::new();
    let n = signal.len();
    let mut i = 1;
    while i < n.saturating_sub(1) {
        // A candidate plateau starts where the signal stops falling:
        // signal[i] >= signal[i-1], and runs while values stay equal.
        if signal[i] >= min_height && signal[i] >= signal[i - 1] {
            let mut j = i;
            while j + 1 < n && signal[j + 1] == signal[i] {
                j += 1;
            }
            // Interior maximum only: the plateau must be followed by a
            // strict drop (a plateau running to the last sample is an
            // edge, not a peak — same as before).
            if j + 1 < n && signal[j + 1] < signal[i] {
                candidates.push(Peak { index: i + (j - i) / 2, value: signal[i] });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    if min_distance <= 1 {
        return candidates;
    }
    // Greedy suppression: keep taller peaks, drop neighbours within
    // min_distance of an already-kept peak.
    // `total_cmp` keeps the sort total even if a non-finite value ever
    // slips through the threshold test (NaN can't — `NaN >= h` is
    // false — but +inf can), matching the panic-free policy.
    let mut by_height: Vec<usize> = (0..candidates.len()).collect();
    by_height.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
    let mut keep = vec![true; candidates.len()];
    for &i in &by_height {
        if !keep[i] {
            continue;
        }
        // Candidates ascend by index, so the neighbours closer than
        // `min_distance` form one contiguous range around `i`.
        let Peak { index: at, value } = candidates[i];
        let lo = candidates.partition_point(|p| p.index.saturating_add(min_distance) <= at);
        let hi = candidates.partition_point(|p| p.index < at.saturating_add(min_distance));
        for (j, k) in (lo..hi).zip(&mut keep[lo..hi]) {
            if j != i && *k && candidates[j].value <= value {
                *k = false;
            }
        }
    }
    candidates.into_iter().zip(keep).filter_map(|(p, k)| k.then_some(p)).collect()
}

/// The quadratic suppression [`find_peaks`] used to run — every kept
/// peak scanning every candidate — kept as the windowed pass's oracle.
#[cfg(test)]
fn suppress_oracle(candidates: &[Peak], min_distance: usize) -> Vec<Peak> {
    if min_distance <= 1 {
        return candidates.to_vec();
    }
    let mut by_height: Vec<usize> = (0..candidates.len()).collect();
    by_height.sort_by(|&a, &b| candidates[b].value.total_cmp(&candidates[a].value));
    let mut keep = vec![true; candidates.len()];
    for &i in &by_height {
        if !keep[i] {
            continue;
        }
        for (j, k) in keep.iter_mut().enumerate() {
            if j != i
                && *k
                && candidates[j].index.abs_diff(candidates[i].index) < min_distance
                && candidates[j].value <= candidates[i].value
            {
                *k = false;
            }
        }
    }
    candidates.iter().zip(keep).filter_map(|(p, k)| k.then_some(*p)).collect()
}

/// Scales `signal` so its maximum absolute value is 1 (no-op for an
/// all-zero signal). Returns the scale factor applied.
pub fn normalize_peak(signal: &mut [f64]) -> f64 {
    let peak = signal.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if peak > 0.0 {
        for v in signal.iter_mut() {
            *v /= peak;
        }
        1.0 / peak
    } else {
        1.0
    }
}

/// Keeps every `factor`-th sample, starting with the first.
/// Allocating wrapper around [`decimate_into`].
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn decimate(signal: &[f64], factor: usize) -> Vec<f64> {
    let mut out = Vec::new();
    decimate_into(signal, factor, &mut out);
    out
}

/// The workspace's one stride-take kernel: keeps every `factor`-th
/// element, starting with the first, into a caller-owned buffer.
///
/// This is the single home of plain downsampling; the filtering
/// counterpart, `Fir::decimate_into`, no longer materialises and
/// stride-takes a full filtered signal — it computes only the kept
/// outputs directly — so the historical duplicate of this loop there
/// is gone.
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn decimate_into<T: Copy>(signal: &[T], factor: usize, out: &mut Vec<T>) {
    assert!(factor > 0, "decimation factor must be positive");
    out.clear();
    out.reserve(signal.len().div_ceil(factor));
    out.extend(signal.iter().step_by(factor).copied());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolution_with_identity_kernel() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(convolve_full(&x, &[1.0]), x.to_vec());
        assert_eq!(convolve_same(&x, &[1.0]), x.to_vec());
    }

    #[test]
    fn convolution_known_answer() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        assert_eq!(convolve_full(&[1.0, 2.0, 3.0], &[1.0, 1.0]), vec![1.0, 3.0, 5.0, 3.0]);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, -2.0, 0.5, 3.0];
        let b = [0.25, 4.0, -1.0];
        assert_eq!(convolve_full(&a, &b), convolve_full(&b, &a));
    }

    #[test]
    fn edge_kernel_peaks_on_rising_step() {
        // Step from 0 to 1 at index 50.
        let mut x = vec![0.0; 100];
        for v in x.iter_mut().skip(50) {
            *v = 1.0;
        }
        let response = convolve_same(&x, &edge_kernel(16));
        let peak = find_peaks(&response, 1.0, 4);
        assert_eq!(peak.len(), 1);
        assert!(peak[0].index.abs_diff(50) <= 8, "peak at {}", peak[0].index);
        assert!((peak[0].value - 8.0).abs() < 1e-9); // l/2 · step height
    }

    #[test]
    fn edge_kernel_ignores_falling_step() {
        let mut x = vec![1.0; 100];
        for v in x.iter_mut().skip(50) {
            *v = 0.0;
        }
        let response = convolve_same(&x, &edge_kernel(16));
        assert!(find_peaks(&response, 1.0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_edge_kernel_panics() {
        edge_kernel(7);
    }

    #[test]
    fn even_kernel_alignment_pins_step_response_at_step_index() {
        // Pin the documented convention: for every even edge-kernel
        // length, the 'same'-mode response to a clean step peaks at
        // exactly the step index — no late (or early) bias.
        for l in [2usize, 4, 8, 16, 32] {
            let step_at = 40;
            let mut x = vec![0.0; 100];
            for v in x.iter_mut().skip(step_at) {
                *v = 1.0;
            }
            let response = convolve_same(&x, &edge_kernel(l));
            let argmax = response
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(argmax, step_at, "kernel length {l}");
        }
    }

    #[test]
    fn find_peaks_is_nan_and_inf_safe() {
        // NaN samples can never clear the threshold; an +inf sample
        // may, and the suppression sort must stay total either way.
        let x = [0.0, 3.0, 0.0, f64::NAN, 0.0, f64::INFINITY, 0.0, 2.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 3);
        assert!(peaks.iter().all(|p| !p.value.is_nan()));
        assert!(peaks.iter().any(|p| p.index == 5));
    }

    #[test]
    fn plateau_peak_reports_centre() {
        // [0,1,5,5,5,1,0]: the plateau spans indices 2..=4 — the
        // reported peak must be the centre sample, index 3.
        let x = [0.0, 1.0, 5.0, 5.0, 5.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 3);
        assert_eq!(peaks[0].value, 5.0);
        // Even-length plateau: centre rounds down (index 2 of 2..=3).
        let y = [0.0, 5.0, 5.0, 0.0];
        let peaks = find_peaks(&y, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 1);
    }

    #[test]
    fn windowed_suppression_matches_the_quadratic_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A small value alphabet makes plateaus and equal-height
        // neighbours common; NaN and ±inf ride along.
        let alphabet =
            [0.0, -0.0, 1.0, 2.0, 2.0, 3.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(0x9ea5);
        for case in 0..400 {
            let n = rng.gen_range(0..160);
            let signal: Vec<f64> =
                (0..n).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
            let min_height = [f64::NEG_INFINITY, 0.0, 1.5, f64::NAN][case % 4];
            let all = find_peaks(&signal, min_height, 1);
            for min_distance in (1..n + 8).chain([usize::MAX]) {
                let want = suppress_oracle(&all, min_distance);
                let got = find_peaks(&signal, min_height, min_distance);
                assert_eq!(got.len(), want.len(), "case {case}, distance {min_distance}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.index, w.index, "case {case}, distance {min_distance}");
                    assert_eq!(g.value.to_bits(), w.value.to_bits());
                }
            }
        }
    }

    #[test]
    fn moving_average_smooths_noise() {
        let x: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let y = moving_average(&x, 10);
        assert!(y[100].abs() < 0.21);
    }

    #[test]
    fn moving_average_preserves_constant() {
        let x = vec![3.5; 64];
        for v in moving_average(&x, 9) {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn peaks_respect_min_distance() {
        // Two nearby bumps: only the taller survives.
        let mut x = vec![0.0; 64];
        x[20] = 2.0;
        x[24] = 5.0;
        x[50] = 3.0;
        let peaks = find_peaks(&x, 0.5, 10);
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![24, 50]);
    }

    #[test]
    fn peaks_respect_min_height() {
        let mut x = vec![0.0; 32];
        x[5] = 0.4;
        x[15] = 2.0;
        let peaks = find_peaks(&x, 1.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 15);
    }

    #[test]
    fn plateau_counts_once() {
        // Flat-topped bump: >= on the left, > on the right keeps the
        // first sample of the plateau only.
        let x = [0.0, 1.0, 1.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.5, 1);
        assert_eq!(peaks.len(), 1);
    }

    #[test]
    fn normalize_peak_scales_to_unit() {
        let mut x = vec![0.0, -4.0, 2.0];
        let k = normalize_peak(&mut x);
        assert_eq!(x, vec![0.0, -1.0, 0.5]);
        assert_eq!(k, 0.25);
        let mut zeros = vec![0.0; 3];
        assert_eq!(normalize_peak(&mut zeros), 1.0);
    }

    #[test]
    fn decimate_keeps_every_kth() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(decimate(&x, 3), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(decimate(&x, 1), x);
    }

    #[test]
    fn into_variants_are_bit_identical_and_reuse_buffers() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let k = edge_kernel(16);
        let mut out = Vec::new();
        let mut scr = DspScratch::new();
        convolve_full_into(&x, &k, &mut out);
        assert_eq!(out, convolve_full(&x, &k));
        convolve_same_into(&x, &k, &mut out, &mut scr);
        assert_eq!(out, convolve_same(&x, &k));
        moving_average_into(&x, 9, &mut out, &mut scr);
        assert_eq!(out, moving_average(&x, 9));
        let caps = (out.capacity(), scr.f0.capacity());
        convolve_same_into(&x, &k, &mut out, &mut scr);
        moving_average_into(&x, 9, &mut out, &mut scr);
        assert_eq!(caps, (out.capacity(), scr.f0.capacity()), "steady-state must not grow");
    }

    #[test]
    fn moving_average_handles_empty_and_single_sample_inputs() {
        assert!(moving_average(&[], 5).is_empty());
        assert!(moving_average(&[], 0).is_empty());
        // A single sample is its own centred average at any width.
        assert_eq!(moving_average(&[7.25], 1), vec![7.25]);
        assert_eq!(moving_average(&[7.25], 2), vec![7.25]);
        assert_eq!(moving_average(&[7.25], 99), vec![7.25]);
        // Width larger than the signal degrades to the global mean.
        assert_eq!(moving_average(&[1.0, 3.0], 100), vec![2.0, 2.0]);
    }

    #[test]
    fn normalize_peak_handles_empty_and_single_sample_inputs() {
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(normalize_peak(&mut empty), 1.0);
        assert!(empty.is_empty());
        let mut one = vec![-0.5];
        assert_eq!(normalize_peak(&mut one), 2.0);
        assert_eq!(one, vec![-1.0]);
        let mut zero = vec![0.0];
        assert_eq!(normalize_peak(&mut zero), 1.0);
        assert_eq!(zero, vec![0.0]);
    }

    #[test]
    fn convolve_same_empty_inputs_keep_signal_length() {
        assert!(convolve_same(&[], &[1.0, 2.0]).is_empty());
        assert_eq!(convolve_same(&[1.0, 2.0, 3.0], &[]), vec![0.0; 3]);
        assert!(convolve_full(&[], &[1.0]).is_empty());
        assert!(convolve_full(&[1.0], &[]).is_empty());
    }
}
