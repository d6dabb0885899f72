//! Incremental (chunk-fed) counterparts of the batch receive DSP.
//!
//! The paper's attack is inherently streaming: the SDR near the victim
//! produces I/Q continuously, and a practical receiver demodulates
//! while samples arrive instead of materialising a whole capture
//! first. This module provides resumable state machines that consume
//! arbitrary sample chunks and produce **bit-identical** output to the
//! batch functions they mirror:
//!
//! | Streaming type | Batch equivalent |
//! |---|---|
//! | [`EnergyStream`] | [`crate::sliding::try_energy_signal`] |
//! | [`SmoothStream`] | [`crate::dsp::moving_average`] |
//! | [`ConvolveSameStream`] | [`crate::dsp::convolve_same`] |
//! | [`StreamingFrontend`] | [`crate::record::read_rtl_u8`] + energy |
//!
//! Bit-identity is an invariant, not an aspiration: every accumulator
//! here performs the *same floating-point operations in the same
//! order* as its batch counterpart, so chunk boundaries can never
//! change a single output bit (the `emsc-tests` chunk-equivalence
//! suite pins this across chunk sizes 1, 7, 64 Ki and whole-capture).
//! That is what lets a long-running multi-sensor service reuse every
//! determinism guarantee the batch experiments already have.

use std::collections::VecDeque;
use std::io::{self, Read};

use crate::error::CaptureError;
use crate::iq::Complex;
use crate::record::RtlChunkReader;
use crate::sliding::SlidingDft;

/// Incremental Eq. (1) energy signal: feeds a [`SlidingDft`] sample by
/// sample and emits one decimated energy value whenever the batch
/// [`crate::sliding::energy_signal`] would, carrying the DFT window,
/// the decimation phase and the sanitisation counters across chunk
/// boundaries.
///
/// Non-finite samples are replaced with zero *inline* (the same value
/// the batch sanitiser substitutes) and counted; whether the whole
/// stream was usable is decided at the end via
/// [`EnergyStream::classify`], because "majority non-finite" is a
/// whole-capture property that cannot be known mid-stream.
#[derive(Debug, Clone)]
pub struct EnergyStream {
    sdft: SlidingDft,
    decimation: usize,
    seen: usize,
    sanitized: usize,
}

impl EnergyStream {
    /// Creates a stream tracking the given bins over `window`-sample
    /// sliding DFTs, emitting every `decimation`-th primed value.
    ///
    /// # Errors
    ///
    /// [`CaptureError::InvalidConfig`] for a zero window or
    /// decimation, an empty bin set, or an out-of-range bin — the same
    /// validation [`crate::sliding::try_energy_signal`] performs
    /// before touching data.
    pub fn new(window: usize, bins: &[usize], decimation: usize) -> Result<Self, CaptureError> {
        if decimation == 0 {
            return Err(CaptureError::InvalidConfig("decimation must be positive"));
        }
        let sdft = SlidingDft::try_new(window, bins)?;
        Ok(EnergyStream { sdft, decimation, seen: 0, sanitized: 0 })
    }

    /// Feeds one chunk, appending any newly-completed energy samples
    /// to `out`. Returns how many were appended. Alloc-free apart from
    /// `out`'s amortised growth: the blocked
    /// [`SlidingDft::process_into`] runs straight off the caller's
    /// slice and zeroes non-finite samples as it reads them.
    pub fn push_into(&mut self, chunk: &[Complex], out: &mut Vec<f64>) -> usize {
        let before = out.len();
        self.sanitized += self.sdft.process_into(chunk, self.decimation, out);
        self.seen += chunk.len();
        out.len() - before
    }

    /// Convenience wrapper over [`EnergyStream::push_into`] returning
    /// a fresh vector.
    pub fn push(&mut self, chunk: &[Complex]) -> Vec<f64> {
        let mut out = Vec::new();
        self.push_into(chunk, &mut out);
        out
    }

    /// Total input samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.seen
    }

    /// Non-finite input samples zeroed so far.
    pub fn sanitized(&self) -> usize {
        self.sanitized
    }

    /// End-of-stream classification, mirroring the error policy of
    /// [`crate::sliding::try_energy_signal`] exactly (and in the same
    /// precedence order): empty, shorter than one window, or
    /// majority-non-finite streams are errors; anything else is a
    /// legitimate (possibly silent) capture.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Empty`], [`CaptureError::TooShort`] or
    /// [`CaptureError::NonFinite`], as above.
    pub fn classify(&self) -> Result<(), CaptureError> {
        if self.seen == 0 {
            return Err(CaptureError::Empty);
        }
        if self.seen < self.sdft.window() {
            return Err(CaptureError::TooShort { needed: self.sdft.window(), got: self.seen });
        }
        if self.sanitized * 2 > self.seen {
            return Err(CaptureError::NonFinite { count: self.sanitized, total: self.seen });
        }
        Ok(())
    }
}

/// Incremental centred moving average, bit-identical to
/// [`crate::dsp::moving_average`].
///
/// The batch version computes prefix sums and divides windowed
/// differences; reproducing its results exactly means carrying the
/// *same running prefix accumulator* (not re-summing windows, which
/// would change floating-point rounding). Output `i` needs the prefix
/// value at `i + half + 1`, so the stream runs `half` samples behind
/// its input; [`SmoothStream::finish_into`] flushes the tail with the
/// end-of-signal clamp the batch version applies.
#[derive(Debug, Clone)]
pub struct SmoothStream {
    width: usize,
    half: usize,
    /// Running prefix value `p[seen]` and the retained tail of recent
    /// prefix values `p[seen + 1 - len ..= seen]`, enough to serve the
    /// widest window either emission path can request.
    prefix_last: f64,
    prefix_tail: VecDeque<f64>,
    seen: usize,
    emitted: usize,
}

impl SmoothStream {
    /// Creates a moving average over `width` samples. A width of zero
    /// or one is a pass-through, exactly like the batch function.
    pub fn new(width: usize) -> Self {
        let half = width / 2;
        let mut prefix_tail = VecDeque::with_capacity(2 * half + 2);
        prefix_tail.push_back(0.0);
        SmoothStream { width, half, prefix_last: 0.0, prefix_tail, seen: 0, emitted: 0 }
    }

    fn prefix_at(&self, j: usize) -> f64 {
        // prefix_tail holds p[seen + 1 - len ..= seen] back-to-front.
        let oldest = self.seen + 1 - self.prefix_tail.len();
        self.prefix_tail[j - oldest]
    }

    /// Feeds one chunk, appending completed outputs to `out`; returns
    /// how many were appended.
    pub fn push_into(&mut self, chunk: &[f64], out: &mut Vec<f64>) -> usize {
        if self.width <= 1 {
            out.extend_from_slice(chunk);
            return chunk.len();
        }
        let before = out.len();
        for &v in chunk {
            self.prefix_last += v;
            self.prefix_tail.push_back(self.prefix_last);
            if self.prefix_tail.len() > 2 * self.half + 2 {
                self.prefix_tail.pop_front();
            }
            self.seen += 1;
            // Sample j (= seen-1) completes output i = j - half: its
            // window tops out at prefix[i + half + 1] = prefix[j + 1].
            let j = self.seen - 1;
            if j >= self.half {
                let i = j - self.half;
                let lo = i.saturating_sub(self.half);
                let hi = i + self.half + 1;
                out.push((self.prefix_at(hi) - self.prefix_at(lo)) / (hi - lo) as f64);
                self.emitted += 1;
            }
        }
        out.len() - before
    }

    /// Flushes the `half` trailing outputs whose windows are clamped
    /// by the end of the signal, appending them to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) -> usize {
        if self.width <= 1 {
            return 0;
        }
        let n = self.seen;
        let before = out.len();
        for i in self.emitted..n {
            let lo = i.saturating_sub(self.half);
            let hi = (i + self.half + 1).min(n);
            out.push((self.prefix_at(hi) - self.prefix_at(lo)) / (hi - lo) as f64);
        }
        self.emitted = n;
        out.len() - before
    }
}

/// Incremental "same"-size convolution, bit-identical to
/// [`crate::dsp::convolve_same`].
///
/// The batch version accumulates `out[i + j] += s[i] * k[j]` with the
/// signal index ascending, so each full-convolution output is a fold
/// over signal samples in increasing order starting from `0.0`. This
/// stream reproduces that fold directly over a ring of the last
/// `kernel.len()` inputs. Output `i` aligns with full-convolution
/// index `i + (l − 1)/2`, so emission runs `(l − 1)/2` samples behind
/// the input; [`ConvolveSameStream::finish_into`] flushes the tail.
#[derive(Debug, Clone)]
pub struct ConvolveSameStream {
    kernel: Vec<f64>,
    ring: Vec<f64>,
    start: usize,
    seen: usize,
    emitted: usize,
}

impl ConvolveSameStream {
    /// Creates a stream convolving its input with `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty (the receiver's edge kernel is
    /// always at least 4 taps).
    pub fn new(kernel: &[f64]) -> Self {
        assert!(!kernel.is_empty(), "kernel must not be empty");
        ConvolveSameStream {
            kernel: kernel.to_vec(),
            ring: vec![0.0; kernel.len()],
            start: (kernel.len() - 1) / 2,
            seen: 0,
            emitted: 0,
        }
    }

    /// Full-convolution output `m`, folded over retained signal
    /// samples in ascending index order — the exact operation sequence
    /// of [`crate::dsp::convolve_full`].
    fn full_at(&self, m: usize) -> f64 {
        let l = self.kernel.len();
        let lo = m.saturating_sub(l - 1);
        let hi = m.min(self.seen - 1);
        // Sample i sits in ring slot i mod l, so ascending i walks the
        // ring as at most two contiguous runs, against the taps
        // m − lo down to m − hi.
        let first = lo % l;
        let count = hi + 1 - lo;
        let wrap = count.min(l - first);
        let samples = self.ring[first..first + wrap].iter().chain(&self.ring[..count - wrap]);
        let taps = self.kernel[m - hi..=m - lo].iter().rev();
        samples.zip(taps).fold(0.0, |acc, (x, k)| acc + x * k)
    }

    /// Feeds one chunk, appending completed outputs to `out`; returns
    /// how many were appended.
    pub fn push_into(&mut self, chunk: &[f64], out: &mut Vec<f64>) -> usize {
        let before = out.len();
        let l = self.kernel.len();
        for &v in chunk {
            self.ring[self.seen % l] = v;
            self.seen += 1;
            let j = self.seen - 1;
            if j >= self.start {
                out.push(self.full_at(j));
                self.emitted += 1;
            }
        }
        out.len() - before
    }

    /// Flushes the trailing outputs (full-convolution indices past the
    /// last input), appending them to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) -> usize {
        let n = self.seen;
        let before = out.len();
        for i in self.emitted..n {
            out.push(self.full_at(i + self.start));
        }
        self.emitted = n;
        out.len() - before
    }
}

/// Chunked RTL-u8 → decimated-energy front end: drives
/// [`RtlChunkReader`] and [`EnergyStream`] together so a raw
/// `rtl_sdr` byte stream of any length becomes energy samples without
/// ever materialising the capture.
#[derive(Debug)]
pub struct StreamingFrontend<R> {
    reader: RtlChunkReader<R>,
    energy: EnergyStream,
    scratch: Vec<Complex>,
}

impl<R: Read> StreamingFrontend<R> {
    /// Creates a front end over an RTL-u8 byte source.
    ///
    /// # Errors
    ///
    /// The same configuration errors as [`EnergyStream::new`].
    pub fn new(
        reader: R,
        window: usize,
        bins: &[usize],
        decimation: usize,
    ) -> Result<Self, CaptureError> {
        Ok(StreamingFrontend {
            reader: RtlChunkReader::new(reader),
            energy: EnergyStream::new(window, bins, decimation)?,
            scratch: Vec::new(),
        })
    }

    /// Reads one chunk from the source and appends the energy samples
    /// it completes to `out`. Returns `Ok(None)` at end of stream,
    /// `Ok(Some(n))` with the number of energy samples appended
    /// otherwise (possibly zero while the DFT window primes).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader, including
    /// failures after some samples were already consumed.
    pub fn next_energy(&mut self, out: &mut Vec<f64>) -> io::Result<Option<usize>> {
        self.scratch.clear();
        if self.reader.next_chunk(&mut self.scratch)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.energy.push_into(&self.scratch, out)))
    }

    /// The underlying energy stream (for counters and end-of-stream
    /// classification).
    pub fn energy_stream(&self) -> &EnergyStream {
        &self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::{convolve_same, edge_kernel, moving_average};
    use crate::record::write_rtl_u8;
    use crate::sliding::{energy_signal, try_energy_signal};
    use crate::Capture;

    fn chirpy(n: usize) -> Vec<Complex> {
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

    fn chunk_sizes() -> Vec<usize> {
        vec![1, 7, 64, 1000, usize::MAX]
    }

    #[test]
    fn energy_stream_is_bit_identical_to_batch_at_any_chunking() {
        let samples = chirpy(5000);
        let batch = energy_signal(&samples, 128, &[7, 31], 24);
        for chunk in chunk_sizes() {
            let mut stream = EnergyStream::new(128, &[7, 31], 24).unwrap();
            let mut got = Vec::new();
            for c in samples.chunks(chunk.min(samples.len())) {
                stream.push_into(c, &mut got);
            }
            assert_eq!(got.len(), batch.len(), "chunk {chunk}");
            for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk}, sample {i}");
            }
            assert!(stream.classify().is_ok());
        }
    }

    #[test]
    fn energy_stream_is_chunk_invariant_across_grid_segments() {
        // Long enough to cross the 256-sample window's exact
        // re-summation (every 64 windows); chunk sizes straddle the
        // decimation, ring and re-summation grid points.
        let clean = chirpy(20_011);
        let mut laced = clean.clone();
        for s in laced.iter_mut().skip(5).step_by(1013) {
            *s = Complex::new(f64::NAN, f64::INFINITY);
        }
        laced[20_000] = Complex::new(1.0, f64::NEG_INFINITY);
        for samples in [&clean, &laced] {
            for window in [1usize, 3, 64, 256] {
                let bins: Vec<usize> =
                    [0usize, 1, 5, 37].into_iter().filter(|&k| k < window).collect();
                for decimation in [1usize, 7, 24, 300] {
                    let mut whole = EnergyStream::new(window, &bins, decimation).unwrap();
                    let want = whole.push(samples);
                    for chunk in [1usize, 7, 23, 24, 25, 255, 256, 257, 1009, 9973] {
                        let mut stream = EnergyStream::new(window, &bins, decimation).unwrap();
                        let mut got = Vec::new();
                        for c in samples.chunks(chunk) {
                            stream.push_into(c, &mut got);
                        }
                        let case = format!("w={window} d={decimation} chunk={chunk}");
                        assert_eq!(stream.sanitized(), whole.sanitized(), "{case}");
                        assert_eq!(got.len(), want.len(), "{case}");
                        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{case}, out {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn energy_stream_sanitizes_like_the_batch_path() {
        let mut samples = chirpy(3000);
        samples[100] = Complex::new(f64::NAN, 0.0);
        samples[1700] = Complex::new(f64::INFINITY, f64::NEG_INFINITY);
        let batch = try_energy_signal(&samples, 128, &[7], 8).unwrap();
        let mut stream = EnergyStream::new(128, &[7], 8).unwrap();
        let mut got = Vec::new();
        for c in samples.chunks(17) {
            stream.push_into(c, &mut got);
        }
        assert_eq!(stream.sanitized(), batch.sanitized);
        assert_eq!(got.len(), batch.samples.len());
        for (a, b) in got.iter().zip(&batch.samples) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn energy_stream_classifies_like_the_batch_path() {
        let mut empty = EnergyStream::new(64, &[3], 1).unwrap();
        assert_eq!(empty.classify(), Err(CaptureError::Empty));
        empty.push(&chirpy(10));
        assert_eq!(empty.classify(), Err(CaptureError::TooShort { needed: 64, got: 10 }));
        let mut nan = EnergyStream::new(64, &[3], 1).unwrap();
        nan.push(&vec![Complex::new(f64::NAN, f64::NAN); 256]);
        assert_eq!(nan.classify(), Err(CaptureError::NonFinite { count: 256, total: 256 }));
        assert!(matches!(EnergyStream::new(64, &[3], 0), Err(CaptureError::InvalidConfig(_))));
        assert!(matches!(EnergyStream::new(64, &[], 1), Err(CaptureError::InvalidConfig(_))));
    }

    #[test]
    fn smooth_stream_is_bit_identical_to_batch_at_any_chunking() {
        let signal: Vec<f64> = (0..777).map(|i| ((i * 37) % 91) as f64 * 0.173 - 3.0).collect();
        for width in [0usize, 1, 2, 3, 5, 8, 900] {
            let batch = moving_average(&signal, width);
            for chunk in chunk_sizes() {
                let mut stream = SmoothStream::new(width);
                let mut got = Vec::new();
                for c in signal.chunks(chunk.min(signal.len())) {
                    stream.push_into(c, &mut got);
                }
                stream.finish_into(&mut got);
                assert_eq!(got.len(), batch.len(), "width {width}, chunk {chunk}");
                for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "width {width}, chunk {chunk}, out {i}");
                }
            }
        }
    }

    #[test]
    fn convolve_stream_is_bit_identical_to_batch_at_any_chunking() {
        let signal: Vec<f64> = (0..500).map(|i| ((i * 53) % 101) as f64 * 0.07 - 2.5).collect();
        for l in [2usize, 4, 16, 64] {
            let kernel = edge_kernel(l);
            let batch = convolve_same(&signal, &kernel);
            for chunk in chunk_sizes() {
                let mut stream = ConvolveSameStream::new(&kernel);
                let mut got = Vec::new();
                for c in signal.chunks(chunk.min(signal.len())) {
                    stream.push_into(c, &mut got);
                }
                stream.finish_into(&mut got);
                assert_eq!(got.len(), batch.len(), "l {l}, chunk {chunk}");
                for (i, (a, b)) in got.iter().zip(&batch).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "l {l}, chunk {chunk}, out {i}");
                }
            }
        }
    }

    #[test]
    fn convolve_stream_handles_signals_shorter_than_the_kernel() {
        let kernel = edge_kernel(16);
        for n in 0..12 {
            let signal: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let batch = convolve_same(&signal, &kernel);
            let mut stream = ConvolveSameStream::new(&kernel);
            let mut got = Vec::new();
            stream.push_into(&signal, &mut got);
            stream.finish_into(&mut got);
            assert_eq!(got.len(), batch.len(), "n {n}");
            for (a, b) in got.iter().zip(&batch) {
                assert_eq!(a.to_bits(), b.to_bits(), "n {n}");
            }
        }
    }

    #[test]
    fn streaming_frontend_matches_read_then_batch() {
        let samples = chirpy(4000);
        let cap = Capture { samples, sample_rate: 2.4e6, center_freq: 0.0 };
        let mut bytes = Vec::new();
        write_rtl_u8(&cap, &mut bytes).unwrap();
        // Batch path: read everything, then one energy_signal call.
        let read_back = crate::record::read_rtl_u8(&bytes[..], 2.4e6, 0.0).unwrap();
        let batch = energy_signal(&read_back.samples, 128, &[7], 4);
        // Streaming path: chunked byte reads feeding the energy stream.
        let mut fe = StreamingFrontend::new(&bytes[..], 128, &[7], 4).unwrap();
        let mut got = Vec::new();
        while fe.next_energy(&mut got).unwrap().is_some() {}
        assert_eq!(got.len(), batch.len());
        for (a, b) in got.iter().zip(&batch) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fe.energy_stream().samples_seen(), read_back.samples.len());
    }
}
