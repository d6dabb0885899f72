//! Property-based tests for coding, framing and alignment.

use emsc_covert::coding::{bits_to_bytes, bytes_to_bits, decode_bits, encode_bits};
use emsc_covert::frame::{deframe, frame_payload, FrameConfig};
use emsc_covert::interleave::Interleaver;
use emsc_covert::metrics::{align, align_semiglobal};
use proptest::prelude::*;

fn bits(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=1, 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_round_trips(data in bits(64)) {
        let coded = encode_bits(&data);
        let (decoded, corrections) = decode_bits(&coded);
        prop_assert_eq!(&decoded[..data.len()], &data[..]);
        prop_assert_eq!(corrections, 0);
    }

    #[test]
    fn hamming_corrects_one_error_per_codeword(
        data in bits(64),
        flip_positions in prop::collection::vec(0usize..7, 0..16),
    ) {
        let mut coded = encode_bits(&data);
        // Flip at most one bit in each distinct codeword.
        let codewords = coded.len() / 7;
        for (cw, &pos) in flip_positions.iter().enumerate() {
            if cw >= codewords {
                break;
            }
            coded[cw * 7 + pos] ^= 1;
        }
        let (decoded, _) = decode_bits(&coded);
        prop_assert_eq!(&decoded[..data.len()], &data[..]);
    }

    #[test]
    fn bytes_bits_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn framing_round_trips(payload in prop::collection::vec(any::<u8>(), 0..48)) {
        let cfg = FrameConfig::default();
        let on_air = frame_payload(&payload, cfg);
        let out = deframe(&on_air, cfg, 1).expect("clean frame must deframe");
        prop_assert_eq!(out.payload, payload);
    }

    #[test]
    fn framing_survives_one_error_per_codeword(
        payload in prop::collection::vec(any::<u8>(), 1..24),
        err_seed in any::<u64>(),
    ) {
        let cfg = FrameConfig::default();
        let mut on_air = frame_payload(&payload, cfg);
        let body_start = cfg.sync_len + cfg.zeros_len + 8;
        // One deterministic flip in each codeword of the body.
        let mut state = err_seed | 1;
        let mut cw = 0;
        while body_start + cw * 7 + 6 < on_air.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state % 7) as usize;
            on_air[body_start + cw * 7 + pos] ^= 1;
            cw += 1;
        }
        let out = deframe(&on_air, cfg, 1).expect("deframe");
        prop_assert_eq!(out.payload, payload);
    }

    #[test]
    fn alignment_counts_are_consistent(tx in bits(80), rx in bits(80)) {
        let a = align(&tx, &rx);
        prop_assert_eq!(a.tx_len(), tx.len());
        prop_assert_eq!(a.rx_len(), rx.len());
        // Total edits bounded by the larger length.
        prop_assert!(a.substitutions + a.insertions + a.deletions <= tx.len().max(rx.len()));
    }

    #[test]
    fn semiglobal_counts_are_consistent(tx in bits(80), rx in bits(100)) {
        let a = align_semiglobal(&tx, &rx);
        prop_assert_eq!(a.tx_len(), tx.len());
        // Lead and trail junk is dropped, never invented.
        prop_assert!(a.rx_len() <= rx.len());
        // Deleting every transmitted bit is always an alignment.
        prop_assert!(a.substitutions + a.insertions + a.deletions <= tx.len());
    }

    #[test]
    fn identical_streams_have_zero_errors(tx in bits(120)) {
        let a = align(&tx, &tx);
        prop_assert_eq!(a.substitutions, 0);
        prop_assert_eq!(a.insertions, 0);
        prop_assert_eq!(a.deletions, 0);
        prop_assert_eq!(a.matches, tx.len());
    }

    #[test]
    fn semiglobal_never_worse_than_global(tx in bits(60), rx in bits(80)) {
        let g = align(&tx, &rx);
        let s = align_semiglobal(&tx, &rx);
        let g_cost = g.substitutions + g.insertions + g.deletions;
        let s_cost = s.substitutions + s.insertions + s.deletions;
        prop_assert!(s_cost <= g_cost, "semiglobal {} vs global {}", s_cost, g_cost);
    }

    #[test]
    fn interleaver_round_trips(
        data in bits(140),
        cw in 1usize..12,
        depth in 1usize..12,
    ) {
        let il = Interleaver::new(cw, depth);
        let wire = il.interleave(&data);
        prop_assert_eq!(wire.len() % il.block_len(), 0);
        let back = il.deinterleave(&wire);
        prop_assert_eq!(&back[..data.len()], &data[..]);
        prop_assert!(back[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn interleaved_hamming_survives_any_short_burst(
        data in prop::collection::vec(0u8..=1, 28..=28),
        burst_start in 0usize..40,
    ) {
        // 7 codewords at depth 7: any ≤7-bit wire burst is correctable.
        let il = Interleaver::new(7, 7);
        let coded = encode_bits(&data);
        let mut wire = il.interleave(&coded);
        for i in burst_start..(burst_start + 7).min(wire.len()) {
            wire[i] ^= 1;
        }
        let received = il.deinterleave(&wire);
        let (decoded, _) = decode_bits(&received[..coded.len()]);
        prop_assert_eq!(&decoded[..28], &data[..]);
    }

    #[test]
    fn alignment_cost_is_symmetric(tx in bits(60), rx in bits(60)) {
        // Optimal-alignment *composition* is not unique (one deletion
        // can trade against substitutions at equal cost), but the
        // minimal edit cost itself is symmetric.
        let ab = align(&tx, &rx);
        let ba = align(&rx, &tx);
        let cost = |a: &emsc_covert::Alignment| a.substitutions + a.insertions + a.deletions;
        prop_assert_eq!(cost(&ab), cost(&ba));
    }
}
