//! Pieces shared by the two covert-channel workloads: the transfer
//! program, output checks, digests and frame counts.

use emsc_core::covert_run::{CovertScenario, LEAD_SILENCE_S, WARMUP_S};
use emsc_covert::frame::Deframed;
use emsc_covert::metrics::Alignment;
use emsc_covert::rx::{RxError, RxReport};
use emsc_covert::tx::Transmitter;
use emsc_pmu::workload::Program;

use crate::report::Digest;
use crate::trace::Tracer;

/// The program `CovertScenario::run_streamed` builds for a transfer:
/// lead silence, governor warm-up, the bits, trailing silence.
pub fn transfer_program(sc: &CovertScenario, tx_bits: &[u8]) -> Program {
    let transmitter = Transmitter::new(sc.tx);
    let mut program = Program::new();
    program.sleep(LEAD_SILENCE_S);
    program.busy(sc.chain.machine.iterations_for_duration(WARMUP_S));
    program.extend(transmitter.program_for_bits(tx_bits).ops().iter().copied());
    program.sleep(LEAD_SILENCE_S);
    program
}

/// The scored result of one transfer, whichever path produced it.
#[derive(Debug, Clone)]
pub struct Scored {
    pub report: RxReport,
    pub rx_error: Option<RxError>,
    pub alignment: Alignment,
    pub deframed: Option<Deframed>,
}

impl Scored {
    pub fn recovered(&self, payload: &[u8]) -> bool {
        self.deframed.as_ref().is_some_and(|d| d.payload == payload)
    }

    /// Checks that hold for any correct receive chain, whatever the
    /// channel did to the bits; a typed receiver error also fails.
    pub fn check(&self, tx_bits: &[u8]) -> Result<(), String> {
        if self.alignment.tx_len() != tx_bits.len() {
            return Err(format!(
                "alignment covers {} of {} transmitted bits",
                self.alignment.tx_len(),
                tx_bits.len()
            ));
        }
        if self.alignment.rx_len() > self.report.bits.len() {
            return Err("alignment uses more bits than were received".into());
        }
        if self.report.bits.iter().any(|&b| b > 1) {
            return Err("receiver emitted a non-binary bit".into());
        }
        match &self.rx_error {
            Some(e) => Err(format!("receiver error {e:?}")),
            None => Ok(()),
        }
    }

    /// Digests every field, floats by their bits.
    pub fn digest(&self, d: &mut Digest) {
        let r = &self.report;
        d.bytes(&r.bits);
        d.floats(&r.energy);
        d.float(r.energy_dt_s);
        d.floats(&r.edge_response);
        d.debug(&(&r.raw_starts, &r.starts));
        d.floats(&r.distances_s);
        d.float(r.bit_period_s);
        d.floats(&r.powers);
        d.float(r.threshold);
        let (lo, hi) = r.threshold_modes.unwrap_or((f64::NAN, f64::NAN));
        d.floats(&[lo, hi]);
        d.word(r.sanitized_samples as u64);
        d.debug(&self.rx_error);
        d.debug(&self.alignment);
        d.debug(&self.deframed);
    }

    /// Per-pass counts of the frame and alignment layers.
    pub fn count(&self, payload: &[u8], tr: &mut Tracer) {
        tr.count("covert.rx.finish.bits_out", self.report.bits.len() as u64);
        tr.count("covert.frame.frames_attempted", 1);
        let n = (self.alignment.tx_len() + 1) as u64;
        let m = (self.report.bits.len() + 1) as u64;
        tr.count("covert.metrics.align.dp_cells", n * m);
        let Some(d) = &self.deframed else { return };
        tr.count("covert.frame.frames_ok", 1);
        if let Some(m) = d.marker {
            tr.count("covert.frame.marker_resyncs", m.resyncs as u64);
            tr.count("covert.frame.markers_missed", m.markers_missed as u64);
        }
        tr.count("covert.frame.hamming_corrected", d.coding.corrected as u64);
        tr.count("covert.frame.hamming_miscorrected", wrong_nibbles(payload, &d.payload));
    }
}

/// A receiver's result as the production path records it: a failed
/// decode becomes the empty report plus its error.
pub fn split_report(r: Result<RxReport, RxError>) -> (RxReport, Option<RxError>) {
    match r {
        Ok(r) => (r, None),
        Err(e) => (RxReport::empty(0.0), Some(e)),
    }
}

/// Mean BER and exact recoveries over one pass of transfers.
#[derive(Debug, Default)]
pub struct Quality {
    ber_sum: f64,
    pub recovered: u64,
    transfers: u64,
}

impl Quality {
    pub fn add(&mut self, s: &Scored, payload: &[u8]) {
        self.ber_sum += s.alignment.ber();
        self.recovered += u64::from(s.recovered(payload));
        self.transfers += 1;
    }

    pub fn ber(&self) -> f64 {
        self.ber_sum / self.transfers.max(1) as f64
    }

    pub fn recovery_rate(&self) -> f64 {
        self.recovered as f64 / self.transfers.max(1) as f64
    }
}

/// Data nibbles of a deframed payload that differ from the sent one:
/// Hamming(7,4) codewords that decoded to wrong data. `Deframed` cannot
/// tell a miscorrection from a real correction (the code has distance
/// 3), so the count is taken against the sent payload. Bytes missing
/// from a short payload count as two wrong nibbles each.
fn wrong_nibbles(sent: &[u8], got: &[u8]) -> u64 {
    let mut wrong = 0;
    for (i, &s) in sent.iter().enumerate() {
        match got.get(i) {
            Some(&g) => wrong += u64::from((s ^ g) & 0x0f != 0) + u64::from((s ^ g) & 0xf0 != 0),
            None => wrong += 2,
        }
    }
    wrong
}
