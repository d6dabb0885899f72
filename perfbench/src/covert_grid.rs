//! `covert-grid`: the Table II grid — all six laptops × runs, near
//! field, one `CovertScenario::run_streamed` per cell, the path
//! `measure_channel_grid` takes. The TX chain does most of the work.

use std::time::Instant;

use emsc_core::covert_run::CovertScenario;
use emsc_core::{Chain, Laptop, Setup};
use emsc_covert::frame::try_deframe;
use emsc_covert::metrics::align_semiglobal;
use emsc_covert::stream::StreamingReceiver;
use emsc_covert::tx::Transmitter;
use emsc_emfield::synth::samples_for;
use emsc_pmu::workload::Program;
use emsc_runtime::seed_for;
use emsc_sdr::iq::Complex;
use emsc_vrm::buck::Buck;

use crate::chain::{self, Arena};
use crate::covert::{split_report, transfer_program, Quality, Scored};
use crate::report::{self, Digest, Metric, Outcome, PassCheck};
use crate::trace::{Tracer, ALIGN, FINISH, FRAME, PMU};
use crate::Args;

/// Payload bytes per transfer.
pub const PAYLOAD_BYTES: usize = 32;
/// Transfers per laptop in one pass over the grid.
pub const RUNS_PER_LAPTOP: usize = 4;
const CHANNEL_SALT: u64 = 0xC4A7_7E11;
/// Sanity floor on channel quality: the near-field grid's mean BER is
/// a few 1e-3, and a third of its payloads arrive exactly. A pass with
/// a mean BER above this, or no payload recovered, means the chain is
/// broken, not slow.
const MAX_BER: f64 = 0.05;

struct Cell {
    scenario: usize,
    payload: Vec<u8>,
    tx_bits: Vec<u8>,
    program: Program,
    seed: u64,
}

struct Deck {
    scenarios: Vec<CovertScenario>,
    cells: Vec<Cell>,
    /// Capture samples one pass carries.
    samples: u64,
}

/// Set-up: the six scenarios, the payloads and their programs, and the
/// capture length of each cell (PMU + buck, to count samples carried).
fn build(seed: u64) -> Deck {
    let mut scenarios = Vec::new();
    let mut cells = Vec::new();
    let mut samples = 0;
    for laptop in Laptop::all() {
        let sc = CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField));
        for run in 0..RUNS_PER_LAPTOP {
            let idx = (scenarios.len() * RUNS_PER_LAPTOP + run) as u64;
            let payload = report::payload(PAYLOAD_BYTES, seed_for(seed, idx));
            let cell_seed = seed_for(seed ^ CHANNEL_SALT, idx);
            let tx_bits = Transmitter::new(sc.tx).on_air_bits(&payload);
            let program = transfer_program(&sc, &tx_bits);
            let trace = sc.chain.machine.run(&program, cell_seed);
            let train = Buck::new(sc.chain.vrm.clone()).convert(&trace);
            samples += samples_for(&train, sc.chain.scene.synth) as u64;
            cells.push(Cell {
                scenario: scenarios.len(),
                payload,
                tx_bits,
                program,
                seed: cell_seed,
            });
        }
        scenarios.push(sc);
    }
    Deck { scenarios, cells, samples }
}

/// The production call.
fn production(sc: &CovertScenario, cell: &Cell) -> Result<Scored, String> {
    let o = sc.run_streamed(&cell.payload, cell.seed);
    if o.tx_bits != cell.tx_bits {
        return Err("run_streamed transmitted other bits than the transmitter frames".into());
    }
    Ok(Scored {
        report: o.report,
        rx_error: o.rx_error,
        alignment: o.alignment,
        deframed: o.deframed,
    })
}

/// The same transfer through the public stage functions, traced. When
/// `capture` is given, the digitised capture is collected into it.
fn decomposed(
    sc: &CovertScenario,
    cell: &Cell,
    tr: &mut Tracer,
    arena: &mut Arena,
    capture: &mut Option<Vec<Complex>>,
) -> Result<Scored, String> {
    let trace = tr.time(PMU, || sc.chain.machine.run(&cell.program, cell.seed));
    let cfg = &sc.chain.frontend;
    let mut rx = StreamingReceiver::new(sc.rx.clone(), cfg.sample_rate, cfg.center_freq);
    chain::render(&sc.chain, &trace, cell.seed, arena, tr, |block, tr| {
        if let Ok(rx) = rx.as_mut() {
            tr.push_chunk(block.len(), || rx.push(block));
        }
        if let Some(c) = capture.as_mut() {
            c.extend_from_slice(block);
        }
    })?;
    let finished = match rx {
        Ok(mut rx) => tr.time(FINISH, || rx.finish()),
        Err(e) => Err(e),
    };
    let (report, rx_error) = split_report(finished);
    let alignment = tr.time(ALIGN, || align_semiglobal(&cell.tx_bits, &report.bits));
    let deframed = tr.time(FRAME, || try_deframe(&report.bits, sc.tx.frame, 1).ok());
    Ok(Scored { report, rx_error, alignment, deframed })
}

/// The production capture of a cell, collected from `ChainStream`.
fn production_capture(sc: &CovertScenario, cell: &Cell) -> Vec<Complex> {
    let mut stream = sc.chain.stream_program(&cell.program, cell.seed);
    let mut out = Vec::with_capacity(stream.total_samples());
    while let Some(block) = stream.next_block() {
        out.extend_from_slice(block);
    }
    out
}

fn digest_of(s: &Scored) -> Digest {
    let mut d = Digest::default();
    s.digest(&mut d);
    d
}

/// Scores one production result into the pass digest and quality sums.
fn score(cell: &Cell, s: &Scored, pass: usize, q: &mut Quality, out: &mut Outcome, d: &mut Digest) {
    s.digest(d);
    if let Err(e) = s.check(&cell.tx_bits) {
        out.fail(format!("cell {}: {e}", cell.seed));
    }
    if pass == 0 {
        q.add(s, &cell.payload);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (deck, setup_s) = report::timed_setup(|| Ok(build(args.seed)))?;
    let mut out = Outcome {
        inputs: vec![
            ("laptops", deck.scenarios.len().to_string()),
            ("transfers_per_pass", deck.cells.len().to_string()),
            ("payload_bytes", PAYLOAD_BYTES.to_string()),
            ("samples_per_pass", deck.samples.to_string()),
            ("block_samples", emsc_core::FUSED_BLOCK.to_string()),
        ],
        ..Outcome::default()
    };
    let rss_reset = report::reset_peak_rss();
    let mut check = PassCheck::default();
    let mut q = Quality::default();
    let t0 = Instant::now();

    if args.trace {
        let mut tr = Tracer::new();
        let mut arena = Arena::default();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let mut op = 0u32;
        while check.passes < report::MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = check.passes;
            let mut digest = Digest::default();
            for (i, cell) in deck.cells.iter().enumerate() {
                let sc = &deck.scenarios[cell.scenario];
                out.attempted += 1;
                let t = Instant::now();
                let prod = production(sc, cell);
                untraced_s += t.elapsed().as_secs_f64();

                let mut capture = (pass == 0 && i == 0).then(Vec::new);
                let t = Instant::now();
                tr.begin_op(op);
                let dec = decomposed(sc, cell, &mut tr, &mut arena, &mut capture);
                tr.end_op();
                traced_s += t.elapsed().as_secs_f64();
                op += 1;

                match (prod, dec) {
                    (Ok(prod), Ok(dec)) => {
                        if digest_of(&prod) != digest_of(&dec) {
                            out.fail(format!(
                                "cell {}: stage decomposition != run_streamed",
                                cell.seed
                            ));
                        }
                        score(cell, &dec, pass, &mut q, &mut out, &mut digest);
                        dec.count(&cell.payload, &mut tr);
                    }
                    (Err(e), _) | (_, Err(e)) => out.fail(format!("cell {}: {e}", cell.seed)),
                }
                if let Some(c) = capture {
                    if !chain::same_samples(&c, &production_capture(sc, cell)) {
                        out.fail(format!("cell {}: capture differs from ChainStream", cell.seed));
                    }
                }
            }
            check.end_pass(digest, tr.take_pass_counts(), &mut out);
        }
        let path = crate::results_dir()?.join("covert-grid.spans.csv");
        tr.write_csv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.metrics =
            report::layer_metrics(&tr, &check.counts(), check.passes, traced_s, untraced_s);
    } else {
        let mut latencies = Vec::new();
        let mut pass_s = Vec::new();
        while check.passes < report::MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = check.passes;
            let pass_t = Instant::now();
            let mut digest = Digest::default();
            for cell in &deck.cells {
                out.attempted += 1;
                let t = Instant::now();
                let prod = production(&deck.scenarios[cell.scenario], cell);
                latencies.push(report::ms(t.elapsed()));
                match prod {
                    Ok(s) => score(cell, &s, pass, &mut q, &mut out, &mut digest),
                    Err(e) => out.fail(format!("cell {}: {e}", cell.seed)),
                }
            }
            pass_s.push(pass_t.elapsed().as_secs_f64());
            check.end_pass(digest, Default::default(), &mut out);
        }
        let peak = report::peak_rss_mb()?;
        out.extra.push(Metric::new("op_latency_samples", latencies.len() as f64, "count"));
        let [p50, p90] = report::latency_metrics("op_latency", &mut latencies);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("msamples_per_s", report::pass_rates(deck.samples, &pass_s), "Msamples/s"),
            p50,
            p90,
            Metric::new("peak_rss_mb", peak, "MiB"),
        ];
    }
    let ber = q.ber();
    if ber > MAX_BER || q.recovered == 0 {
        out.problems
            .push(format!("channel broken: mean BER {ber}, {} payloads recovered", q.recovered));
    }
    out.extra.push(Metric::new("rss_peak_reset", f64::from(u8::from(rss_reset)), "bool"));
    out.extra.push(Metric::new("ber", ber, "ratio"));
    out.extra.push(Metric::new("recovery_rate", q.recovery_rate(), "ratio"));
    Ok(out)
}
