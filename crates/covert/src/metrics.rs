//! Channel-quality metrics: BER, insertion and deletion probabilities.
//!
//! The covert channel can *substitute* bits (power mislabeled),
//! *insert* bits (an interrupt splits one signalling period into two)
//! and *delete* bits (system activity suppresses a start edge) —
//! Fig. 8. Table II/III therefore report BER, IP and DP, which
//! requires aligning the transmitted and received sequences with an
//! edit-distance (Needleman–Wunsch) alignment, exactly as one compares
//! sequences with indels.
//!
//! The alignment DP runs bit-parallel (Myers, J. ACM 1999, in Hyyrö's
//! multi-word block form): the transmitted bits run down each column
//! in ⌈|tx|/64⌉ `u64` words of vertical deltas and every received bit
//! advances a whole column. All columns are kept, `2·(|rx|+1)·⌈|tx|/64⌉`
//! words, so the traceback can read any cell back by prefix popcount;
//! the result is exact, tie-breaks included, and equal to the textbook
//! `(|tx|+1)(|rx|+1)` table's.

/// Outcome of aligning a transmitted against a received bit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Alignment {
    /// Bits aligned and equal.
    pub matches: usize,
    /// Bits aligned but flipped (bit errors).
    pub substitutions: usize,
    /// Received bits with no transmitted counterpart.
    pub insertions: usize,
    /// Transmitted bits missing from the received sequence.
    pub deletions: usize,
}

impl Alignment {
    /// Bit-error rate: substitutions per transmitted bit.
    pub fn ber(&self) -> f64 {
        self.substitutions as f64 / self.tx_len().max(1) as f64
    }

    /// Insertion probability: insertions per transmitted bit.
    pub fn insertion_probability(&self) -> f64 {
        self.insertions as f64 / self.tx_len().max(1) as f64
    }

    /// Deletion probability: deletions per transmitted bit.
    pub fn deletion_probability(&self) -> f64 {
        self.deletions as f64 / self.tx_len().max(1) as f64
    }

    /// Length of the transmitted sequence implied by the alignment.
    pub fn tx_len(&self) -> usize {
        self.matches + self.substitutions + self.deletions
    }

    /// Length of the received sequence implied by the alignment.
    pub fn rx_len(&self) -> usize {
        self.matches + self.substitutions + self.insertions
    }
}

/// One step of an optimal alignment (see [`align_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `tx[i] == rx[j]`.
    Match,
    /// `tx[i] != rx[j]` (bit error).
    Substitute,
    /// `rx[j]` has no tx counterpart.
    Insert,
    /// `tx[i]` is missing from rx.
    Delete,
}

/// Globally aligns `tx` and `rx` with unit costs for substitution,
/// insertion and deletion, and returns the per-kind counts of the
/// minimal-cost alignment ([`align_trace`]'s operations, counted).
///
/// `O(|rx|·⌈|tx|/64⌉)` word operations and `2·(|rx|+1)·⌈|tx|/64⌉`
/// words of memory.
pub fn align(tx: &[u8], rx: &[u8]) -> Alignment {
    DeltaColumns::new(tx, rx, Ends::Global).tally(tx, rx)
}

/// The full operation sequence of an optimal alignment, in tx/rx
/// order. Useful for locating *where* errors happen, not just how
/// many (C-INTERMEDIATE). Where several alignments are optimal, the
/// traceback from the end prefers a diagonal step (match/substitute),
/// then a deletion, then an insertion.
///
/// `O(|rx|·⌈|tx|/64⌉)` word operations and `2·(|rx|+1)·⌈|tx|/64⌉`
/// words of memory.
pub fn align_trace(tx: &[u8], rx: &[u8]) -> Vec<AlignOp> {
    let mut ops = Vec::with_capacity(tx.len().max(rx.len()));
    DeltaColumns::new(tx, rx, Ends::Global).traceback(tx, rx, |op| ops.push(op));
    ops.reverse();
    ops
}

/// Semi-global alignment: like [`align`], but *leading and trailing*
/// received bits that precede/follow the transmission cost nothing
/// and are not counted as insertions. This matches how the channel is
/// actually scored: the receiver synchronises on the preamble, so
/// junk decoded from channel noise before the transmission started
/// (or after it ended) is not a channel error.
///
/// The alignment ends at the last received bit if that is optimal,
/// else at the first optimal one; ties in the traceback prefer a
/// diagonal step, then an insertion, then a deletion. Same cost as
/// [`align`].
pub fn align_semiglobal(tx: &[u8], rx: &[u8]) -> Alignment {
    DeltaColumns::new(tx, rx, Ends::SemiGlobal).tally(tx, rx)
}

/// Which received bits an alignment may leave unpaired for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ends {
    /// None: the top row is `D(0, j) = j`.
    Global,
    /// Leading and trailing ones: the top row is `D(0, j) = 0` and the
    /// alignment may end on any column of the last row.
    SemiGlobal,
}

/// Every column of the unit-cost edit-distance table `D(i, j)` (`i`
/// transmitted against `j` received bits), computed bit-parallel
/// (Myers, J. ACM 1999, in Hyyrö's multi-word block form) and held as
/// vertical deltas `D(i, j) − D(i−1, j)`: bit `i−1` of column `j` is
/// set in the `vp` word for +1 and in the `vn` word for −1.
struct DeltaColumns {
    /// `⌈n/64⌉` words per column.
    words: usize,
    ends: Ends,
    /// Column `j`, word `w` at `[j·words + w]` as `[vp, vn]`.
    delta: Vec<[u64; 2]>,
    /// The column the traceback starts from.
    j_end: usize,
}

impl DeltaColumns {
    fn new(tx: &[u8], rx: &[u8], ends: Ends) -> Self {
        let n = tx.len();
        let words = n.div_ceil(64);
        // peq[b]: bit k of word w set where tx[64w + k] carries bit value b.
        let mut peq = [vec![0u64; words], vec![0u64; words]];
        for (i, &t) in tx.iter().enumerate() {
            peq[usize::from(t & 1)][i / 64] |= 1 << (i % 64);
        }
        // Top-row step D(0, j) − D(0, j−1).
        let top = i64::from(ends == Ends::Global);
        // Row n's horizontal delta sits at this bit of the last word.
        let last_bit = (n + 63) % 64;
        let mut delta = vec![[0u64; 2]; (rx.len() + 1) * words];
        delta[..words].fill([!0, 0]); // D(i, 0) = i
        let mut score = n as i64; // D(n, j), column by column
        let (mut best, mut best_j) = (score, 0);
        for (j, &r) in rx.iter().enumerate() {
            let (prev, next) = delta[j * words..(j + 2) * words].split_at_mut(words);
            // Horizontal delta entering each word from the row above:
            // the top row's step for word 0, then the carry between
            // words, and finally row n's delta.
            let mut h = top;
            for (w, ((next, &[pv, mv]), &eq)) in
                next.iter_mut().zip(&*prev).zip(&peq[usize::from(r & 1)]).enumerate()
            {
                let out_bit = if w + 1 == words { last_bit } else { 63 };
                (*next, h) = advance(pv, mv, eq, h, out_bit);
            }
            score += h;
            if score < best {
                (best, best_j) = (score, j + 1);
            }
        }
        // Semi-global: end on column m if D(n, m) is a row minimum,
        // else on the first column that is.
        let m = rx.len();
        let j_end = match ends {
            Ends::Global => m,
            Ends::SemiGlobal if score == best => m,
            Ends::SemiGlobal => best_j,
        };
        DeltaColumns { words, ends, delta, j_end }
    }

    /// `D(i, j)`: the top-row value plus the prefix popcount of column
    /// `j`'s deltas.
    fn cell(&self, i: usize, j: usize) -> i64 {
        let column = &self.delta[j * self.words..];
        let mut d = if self.ends == Ends::Global { j as i64 } else { 0 };
        for &[vp, vn] in &column[..i / 64] {
            d += i64::from(vp.count_ones()) - i64::from(vn.count_ones());
        }
        if !i.is_multiple_of(64) {
            let mask = (1u64 << (i % 64)) - 1;
            let [vp, vn] = column[i / 64];
            d += i64::from((vp & mask).count_ones()) - i64::from((vn & mask).count_ones());
        }
        d
    }

    /// `D(i, j) − D(i−1, j)` for `i ≥ 1`.
    fn step_down(&self, i: usize, j: usize) -> i64 {
        let [vp, vn] = self.delta[j * self.words + (i - 1) / 64];
        let bit = (i - 1) % 64;
        ((vp >> bit) & 1) as i64 - ((vn >> bit) & 1) as i64
    }

    /// The traceback's operations, counted by kind.
    fn tally(&self, tx: &[u8], rx: &[u8]) -> Alignment {
        let mut out = Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
        self.traceback(tx, rx, |op| match op {
            AlignOp::Match => out.matches += 1,
            AlignOp::Substitute => out.substitutions += 1,
            AlignOp::Insert => out.insertions += 1,
            AlignOp::Delete => out.deletions += 1,
        });
        out
    }

    /// Walks an optimal alignment back from `(n, j_end)`, handing each
    /// operation to `emit` in reverse order. A diagonal step wins every
    /// tie; between the other two a global alignment prefers the
    /// deletion and a semi-global one the insertion.
    fn traceback(&self, tx: &[u8], rx: &[u8], mut emit: impl FnMut(AlignOp)) {
        let (mut i, mut j) = (tx.len(), self.j_end);
        let mut d = self.cell(i, j);
        // D(i, j−1), re-read by popcount whenever j moves.
        let left_of = |i: usize, j: usize| if j > 0 { self.cell(i, j - 1) } else { 0 };
        let mut left = left_of(i, j);
        while i > 0 || (self.ends == Ends::Global && j > 0) {
            if i > 0 && j > 0 {
                let diag = left - self.step_down(i, j - 1);
                let sub = (tx[i - 1] & 1) != (rx[j - 1] & 1);
                if d == diag + i64::from(sub) {
                    emit(if sub { AlignOp::Substitute } else { AlignOp::Match });
                    (i, j, d) = (i - 1, j - 1, diag);
                    left = left_of(i, j);
                    continue;
                }
            }
            let delete = match self.ends {
                Ends::Global => i > 0 && self.step_down(i, j) == 1,
                Ends::SemiGlobal => j == 0 || d != left + 1,
            };
            if delete {
                emit(AlignOp::Delete);
                d -= self.step_down(i, j);
                if j > 0 {
                    left -= self.step_down(i, j - 1);
                }
                i -= 1;
            } else {
                emit(AlignOp::Insert);
                (j, d) = (j - 1, left);
                left = left_of(i, j);
            }
        }
    }
}

/// Advances one 64-row word of a DP column by one received bit.
/// `pv`/`mv` are the word's vertical deltas in the previous column,
/// `eq` has a bit set where the tx bit equals the received bit, and
/// `h_in` is the horizontal delta of the row just above the word.
/// Returns the word's new vertical deltas and the horizontal delta at
/// `out_bit` (63 for the carry into the next word).
#[inline(always)]
fn advance(pv: u64, mv: u64, eq: u64, h_in: i64, out_bit: usize) -> ([u64; 2], i64) {
    let h_neg = u64::from(h_in < 0);
    let xv = eq | mv;
    let eq = eq | h_neg;
    let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    let h_out = ((ph >> out_bit) & 1) as i64 - ((mh >> out_bit) & 1) as i64;
    let ph = (ph << 1) | u64::from(h_in > 0);
    let mh = (mh << 1) | h_neg;
    ([mh | !(xv | ph), ph & xv], h_out)
}

/// Ground-truth accounting for the Hamming(7,4) decode of a coded
/// stream (see [`crate::coding::hamming74_decode`]'s caveat: a nonzero
/// syndrome conflates genuine corrections with silent double-error
/// *miscorrections* — only a comparison against the transmitted
/// codewords can tell them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CodewordAudit {
    /// Codeword pairs compared.
    pub codewords: usize,
    /// Received codewords with no channel errors.
    pub clean: usize,
    /// Codewords the decoder genuinely repaired (single-bit errors).
    pub corrected: usize,
    /// Codewords where the decoder's nonzero-syndrome "correction"
    /// produced the *wrong* data (≥2 channel errors) — the silent
    /// failure mode this audit exists to expose.
    pub miscorrected: usize,
    /// Codewords with channel errors but a zero syndrome (an error
    /// pattern that lands exactly on another codeword): the decoder
    /// saw nothing wrong and still emitted wrong data.
    pub undetected: usize,
}

impl CodewordAudit {
    /// Fraction of codewords that decoded to wrong data (miscorrected
    /// or undetected), or 0 for an empty stream.
    pub fn wrong_rate(&self) -> f64 {
        if self.codewords == 0 {
            0.0
        } else {
            (self.miscorrected + self.undetected) as f64 / self.codewords as f64
        }
    }
}

/// Audits a received coded stream against the transmitted one,
/// codeword by codeword, classifying each 7-bit pair as clean,
/// corrected, miscorrected or undetected. Both streams are walked on
/// the transmitted codeword grid (trailing partial codewords are
/// ignored), so this measures the *substitution* channel the coding
/// layer actually sees — run it on marker-recovered bits, where indels
/// have already been resampled onto the nominal grid.
pub fn codeword_audit(tx_coded: &[u8], rx_coded: &[u8]) -> CodewordAudit {
    let mut audit = CodewordAudit::default();
    for (tx_cw, rx_cw) in tx_coded.chunks_exact(7).zip(rx_coded.chunks_exact(7)) {
        audit.codewords += 1;
        let errors = tx_cw.iter().zip(rx_cw).filter(|(a, b)| (**a & 1) != (**b & 1)).count();
        let (tx_nibble, _) = crate::coding::hamming74_decode(tx_cw);
        let (rx_nibble, syndrome_fired) = crate::coding::hamming74_decode(rx_cw);
        match (errors, syndrome_fired, rx_nibble == tx_nibble) {
            (0, _, _) => audit.clean += 1,
            (_, true, true) => audit.corrected += 1,
            (_, true, false) => audit.miscorrected += 1,
            (_, false, _) => audit.undetected += 1,
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The textbook `(n+1)(m+1)` table [`align_trace`] replaced,
    /// kept verbatim as its bitwise oracle.
    fn oracle_align_trace(tx: &[u8], rx: &[u8]) -> Vec<AlignOp> {
        let n = tx.len();
        let m = rx.len();
        // dp[i][j]: min cost aligning tx[..i] with rx[..j]
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in 0..=n {
            dp[idx(i, 0)] = i as u32;
        }
        for j in 0..=m {
            dp[idx(0, j)] = j as u32;
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub = dp[idx(i - 1, j - 1)] + u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
                let del = dp[idx(i - 1, j)] + 1;
                let ins = dp[idx(i, j - 1)] + 1;
                dp[idx(i, j)] = sub.min(del).min(ins);
            }
        }
        // Traceback, preferring diagonal moves (match/substitute).
        let mut i = n;
        let mut j = m;
        let mut ops = Vec::with_capacity(n.max(m));
        while i > 0 || j > 0 {
            if i > 0 && j > 0 {
                let sub_cost = u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
                if dp[idx(i, j)] == dp[idx(i - 1, j - 1)] + sub_cost {
                    ops.push(if sub_cost == 0 { AlignOp::Match } else { AlignOp::Substitute });
                    i -= 1;
                    j -= 1;
                    continue;
                }
            }
            if i > 0 && dp[idx(i, j)] == dp[idx(i - 1, j)] + 1 {
                ops.push(AlignOp::Delete);
                i -= 1;
            } else {
                ops.push(AlignOp::Insert);
                j -= 1;
            }
        }
        ops.reverse();
        ops
    }

    /// The textbook `(n+1)(m+1)` table [`align_semiglobal`] replaced,
    /// kept verbatim as its bitwise oracle.
    fn oracle_align_semiglobal(tx: &[u8], rx: &[u8]) -> Alignment {
        let n = tx.len();
        let m = rx.len();
        if n == 0 {
            return Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
        }
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in 0..=n {
            dp[idx(i, 0)] = i as u32;
        }
        // dp[0][j] = 0: leading rx bits are free.
        for i in 1..=n {
            for j in 1..=m {
                let sub = dp[idx(i - 1, j - 1)] + u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
                let del = dp[idx(i - 1, j)] + 1;
                let ins = dp[idx(i, j - 1)] + 1;
                dp[idx(i, j)] = sub.min(del).min(ins);
            }
        }
        // Free trailing rx bits: finish anywhere on the last row.
        let mut j_end = m;
        for j in 0..=m {
            if dp[idx(n, j)] < dp[idx(n, j_end)] {
                j_end = j;
            }
        }
        let mut i = n;
        let mut j = j_end;
        let mut out = Alignment { matches: 0, substitutions: 0, insertions: 0, deletions: 0 };
        while i > 0 {
            if j > 0 {
                let sub_cost = u32::from((tx[i - 1] & 1) != (rx[j - 1] & 1));
                if dp[idx(i, j)] == dp[idx(i - 1, j - 1)] + sub_cost {
                    if sub_cost == 0 {
                        out.matches += 1;
                    } else {
                        out.substitutions += 1;
                    }
                    i -= 1;
                    j -= 1;
                    continue;
                }
                if dp[idx(i, j)] == dp[idx(i, j - 1)] + 1 {
                    out.insertions += 1;
                    j -= 1;
                    continue;
                }
            }
            out.deletions += 1;
            i -= 1;
        }
        out
    }

    fn tally(ops: &[AlignOp]) -> Alignment {
        let count = |kind| ops.iter().filter(|&&op| op == kind).count();
        Alignment {
            matches: count(AlignOp::Match),
            substitutions: count(AlignOp::Substitute),
            insertions: count(AlignOp::Insert),
            deletions: count(AlignOp::Delete),
        }
    }

    /// `tx` through a channel that flips each bit with probability
    /// `sub`, drops it or inserts a random bit before it with
    /// probability `indel` each, wrapped in `lead`/`trail` junk bits.
    /// With `dirty`, every byte also carries random high bits, which
    /// the alignment must ignore.
    fn impaired(
        rng: &mut StdRng,
        tx: &[u8],
        (sub, indel): (f64, f64),
        (lead, trail): (usize, usize),
        dirty: bool,
    ) -> Vec<u8> {
        let mut rx: Vec<u8> = (0..lead).map(|_| rng.gen_range(0..2)).collect();
        for &t in tx {
            if rng.gen_bool(indel) {
                rx.push(rng.gen_range(0..2));
            }
            if !rng.gen_bool(indel) {
                rx.push((t & 1) ^ u8::from(rng.gen_bool(sub)));
            }
        }
        rx.extend((0..trail).map(|_| rng.gen_range(0..2u8)));
        if dirty {
            for b in &mut rx {
                *b |= rng.gen::<u8>() & 0xFE;
            }
        }
        rx
    }

    #[test]
    fn bit_parallel_alignment_matches_the_table_oracle() {
        let mut rng = StdRng::seed_from_u64(0xA116);
        let mut cases: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 2339] {
            let reps = if n > 1000 { 1 } else { 6 };
            for _ in 0..reps {
                let tx: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2)).collect();
                cases.push((tx.clone(), Vec::new()));
                let junk = rng.gen_range(1..=n.max(2) + 8);
                cases.push((tx.clone(), (0..junk).map(|_| rng.gen_range(0..2)).collect()));
                for (r, rates) in
                    [(0.0, 0.0), (0.05, 0.02), (0.15, 0.1), (0.3, 0.3)].into_iter().enumerate()
                {
                    for dirty in [false, true] {
                        // The unoptimised table oracle is slow at frame
                        // length: keep two impairments there.
                        if n > 1000 && (r, dirty) != (1, false) && (r, dirty) != (3, true) {
                            continue;
                        }
                        let ends = (rng.gen_range(0..20), rng.gen_range(0..20));
                        let rx = impaired(&mut rng, &tx, rates, ends, dirty);
                        let tx = if dirty {
                            tx.iter().map(|&t| t | (rng.gen::<u8>() & 0xFE)).collect()
                        } else {
                            tx.clone()
                        };
                        cases.push((tx, rx));
                    }
                }
            }
        }
        // D(2, 2) = D(2, 4) = 0: the last column ties the row minimum,
        // so the semi-global traceback must start from j = m.
        cases.push((vec![1, 0], vec![1, 0, 1, 0]));
        // ... and here the minimum comes first: D(2, 2) = 0 < D(2, 4).
        cases.push((vec![1, 0], vec![1, 0, 0, 0]));
        for (k, (tx, rx)) in cases.iter().enumerate() {
            let trace = oracle_align_trace(tx, rx);
            assert_eq!(align_trace(tx, rx), trace, "case {k}: align_trace, n={}", tx.len());
            assert_eq!(align(tx, rx), tally(&trace), "case {k}: align, n={}", tx.len());
            assert_eq!(
                align_semiglobal(tx, rx),
                oracle_align_semiglobal(tx, rx),
                "case {k}: align_semiglobal, n={}",
                tx.len()
            );
        }
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let bits = [1u8, 0, 1, 1, 0, 1, 0, 0];
        let a = align(&bits, &bits);
        assert_eq!(a.matches, 8);
        assert_eq!(a.substitutions + a.insertions + a.deletions, 0);
        assert_eq!(a.ber(), 0.0);
    }

    #[test]
    fn counts_substitutions() {
        let tx = [1u8, 0, 1, 0, 1, 0, 1, 0];
        let rx = [1u8, 0, 0, 0, 1, 0, 0, 0];
        let a = align(&tx, &rx);
        assert_eq!(a.substitutions, 2);
        assert_eq!(a.insertions, 0);
        assert_eq!(a.deletions, 0);
        assert!((a.ber() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counts_a_deletion() {
        let tx = [1u8, 1, 0, 1, 0, 0, 1, 1];
        let rx = [1u8, 1, 0, 0, 0, 1, 1]; // 4th bit dropped
        let a = align(&tx, &rx);
        assert_eq!(a.deletions, 1);
        assert_eq!(a.insertions, 0);
        assert_eq!(a.substitutions, 0);
        assert_eq!(a.matches, 7);
        assert!((a.deletion_probability() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn counts_an_insertion() {
        let tx = [0u8, 1, 1, 0, 1];
        let rx = [0u8, 1, 0, 1, 0, 1]; // extra bit after index 1
        let a = align(&tx, &rx);
        assert_eq!(a.insertions, 1);
        assert_eq!(a.deletions, 0);
        assert_eq!(a.substitutions, 0);
    }

    #[test]
    fn mixed_errors() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1];
        // delete tx[2], flip tx[5], insert a bit at the end
        let rx = [1u8, 0, 1, 0, 1, 1, 0, 1, 1, 0];
        let a = align(&tx, &rx);
        assert_eq!(a.tx_len(), 10);
        assert_eq!(a.rx_len(), 10);
        // The minimal alignment cost is bounded by the constructed errors.
        assert!(a.substitutions + a.insertions + a.deletions <= 4);
    }

    #[test]
    fn empty_sequences() {
        let a = align(&[], &[]);
        assert_eq!(a.matches, 0);
        assert_eq!(a.ber(), 0.0);
        let b = align(&[1, 0, 1], &[]);
        assert_eq!(b.deletions, 3);
        let c = align(&[], &[1, 1]);
        assert_eq!(c.insertions, 2);
    }

    #[test]
    fn semiglobal_ignores_lead_and_trail_junk() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let mut rx = vec![0u8, 0, 1, 0, 1]; // lead junk
        rx.extend_from_slice(&tx);
        rx.extend_from_slice(&[0, 0, 1]); // trail junk
        let a = align_semiglobal(&tx, &rx);
        assert_eq!(a.matches, 8);
        assert_eq!(a.substitutions + a.insertions + a.deletions, 0);
        // The global alignment, by contrast, must pay for the junk.
        let g = align(&tx, &rx);
        assert!(g.insertions >= 8);
    }

    #[test]
    fn semiglobal_still_counts_internal_errors() {
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1];
        let mut rx = vec![1u8, 1]; // lead junk
        let mut body = tx.to_vec();
        body[5] ^= 1; // substitution
        body.insert(8, 1); // insertion
        rx.extend(body);
        let a = align_semiglobal(&tx, &rx);
        assert_eq!(a.substitutions, 1);
        assert_eq!(a.insertions, 1);
        assert_eq!(a.deletions, 0);
    }

    #[test]
    fn lengths_are_consistent() {
        let tx: Vec<u8> = (0..57).map(|i| (i % 2) as u8).collect();
        let rx: Vec<u8> = (0..49).map(|i| (i % 3 == 1) as u8).collect();
        let a = align(&tx, &rx);
        assert_eq!(a.tx_len(), tx.len());
        assert_eq!(a.rx_len(), rx.len());
    }

    #[test]
    fn codeword_audit_classifies_every_outcome() {
        use crate::coding::encode_bits;
        // 4 codewords: leave #0 clean, flip 1 bit in #1, 2 bits in #2,
        // and hit #3 with an error pattern equal to another codeword
        // (distance 3) so the syndrome stays silent.
        let data: Vec<u8> = vec![1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1];
        let tx = encode_bits(&data);
        let mut rx = tx.clone();
        rx[7] ^= 1; // single error in codeword 1
        rx[14] ^= 1; // double error in codeword 2
        rx[15] ^= 1;
        // Codeword-weight error pattern for #3: XOR with a nonzero
        // codeword (encode of [1,0,0,0] = [1,1,1,0,0,0,0]).
        for (i, bit) in [1u8, 1, 1, 0, 0, 0, 0].iter().enumerate() {
            rx[21 + i] ^= bit;
        }
        let audit = codeword_audit(&tx, &rx);
        assert_eq!(audit.codewords, 4);
        assert_eq!(audit.clean, 1);
        assert_eq!(audit.corrected, 1);
        assert_eq!(audit.miscorrected, 1);
        assert_eq!(audit.undetected, 1);
        assert!((audit.wrong_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn codeword_audit_exposes_what_coding_stats_conflates() {
        use crate::coding::{decode_bits_reported, encode_bits};
        let data: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let tx = encode_bits(&data);
        let mut rx = tx.clone();
        rx[0] ^= 1; // genuine single-bit correction in codeword 0
        rx[8] ^= 1; // double error in codeword 1 → miscorrection
        rx[9] ^= 1;
        let (_, stats) = decode_bits_reported(&rx);
        let audit = codeword_audit(&tx, &rx);
        // The decoder alone sees two "corrections"; only the audit can
        // tell that one of them silently produced wrong data.
        assert_eq!(stats.corrected, 2);
        assert_eq!(audit.corrected, 1);
        assert_eq!(audit.miscorrected, 1);
        assert_eq!(audit.undetected, 0);
    }

    #[test]
    fn codeword_audit_of_identical_streams_is_all_clean() {
        use crate::coding::encode_bits;
        let tx = encode_bits(&[1, 0, 0, 1, 1, 1, 0, 0]);
        let audit = codeword_audit(&tx, &tx);
        assert_eq!(audit.clean, audit.codewords);
        assert_eq!(audit.wrong_rate(), 0.0);
    }
}
