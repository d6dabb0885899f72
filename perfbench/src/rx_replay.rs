//! `rx-replay`: receive only. Set-up renders marker-coded Dell
//! Inspiron transfers and impairs them; the timed phase replays them
//! through one `SessionRegistry` as concurrent tenants at mixed chunk
//! sizes with bounded buffers (`offer` → `pump` → `finish`), then
//! `try_deframe` and `align_semiglobal`. No TX layer runs while timed.

use std::time::Instant;

use emsc_core::covert_run::CovertScenario;
use emsc_core::{Chain, Laptop, SessionError, SessionOutput, SessionRegistry, Setup};
use emsc_covert::adapt::RateStep;
use emsc_covert::frame::try_deframe;
use emsc_covert::marker::MarkerConfig;
use emsc_covert::metrics::align_semiglobal;
use emsc_covert::stream::StreamingReceiver;
use emsc_covert::tx::Transmitter;
use emsc_runtime::seed_for;
use emsc_sdr::impair::{apply_all, severity_stack};
use emsc_sdr::iq::Complex;

use crate::covert::{split_report, transfer_program, Quality, Scored};
use crate::report::{self, Digest, Metric, Outcome, PassCheck};
use crate::trace::{self, Tracer, ALIGN, FINISH, FRAME, PUSH, SESSION};
use crate::Args;

/// Payload bytes per transfer.
pub const PAYLOAD_BYTES: usize = 128;
/// Impairment severities of the replayed transfers, two of each.
pub const SEVERITIES: [usize; 3] = [0, 2, 3];
/// Tenant chunk sizes, samples.
pub const CHUNKS: [usize; 3] = [4 << 10, 16 << 10, 64 << 10];
/// Per-session buffer limit, samples.
pub const BUFFER_LIMIT: usize = 128 << 10;
const TRANSFERS: usize = 6;
/// Sanity floor on channel quality: marker-coded transfers at these
/// severities see a mean BER of a few 1e-4; above this the receive
/// chain is broken, not slow. Exact recovery is not floored: residual
/// indels still defeat it on some seeds.
const MAX_BER: f64 = 0.05;
const CHANNEL_SALT: u64 = 0x5E55_1011;
const IMPAIR_SALT: u64 = 0x1A9A_1BED;

struct Transfer {
    payload: Vec<u8>,
    tx_bits: Vec<u8>,
    samples: Vec<Complex>,
    chunk: usize,
}

struct Deck {
    scenario: CovertScenario,
    transfers: Vec<Transfer>,
}

impl Deck {
    fn samples(&self) -> u64 {
        self.transfers.iter().map(|t| t.samples.len() as u64).sum()
    }
}

/// Set-up: the marker-coded scenario, and each transfer rendered and
/// impaired. Transfer `t` runs at severity `SEVERITIES[t % 3]` with
/// chunk size `CHUNKS[(t + t / 3) % 3]`, so every severity is replayed
/// at two chunk sizes.
fn build(seed: u64) -> Deck {
    let laptop = Laptop::dell_inspiron();
    let base = CovertScenario::for_laptop(&laptop, Chain::new(&laptop, Setup::NearField));
    let scenario = base.at_rate_step(&RateStep {
        label: "1.0x marker",
        stretch: 1.0,
        marker: Some(MarkerConfig::standard()),
        interleave_depth: None,
    });
    let transfers = (0..TRANSFERS)
        .map(|t| {
            let payload = report::payload(PAYLOAD_BYTES, seed_for(seed, t as u64));
            let tx_bits = Transmitter::new(scenario.tx).on_air_bits(&payload);
            let program = transfer_program(&scenario, &tx_bits);
            let mut run =
                scenario.chain.run_program(&program, seed_for(seed ^ CHANNEL_SALT, t as u64));
            let impairments = severity_stack(SEVERITIES[t % SEVERITIES.len()]);
            apply_all(&mut run.capture, &impairments, seed_for(seed ^ IMPAIR_SALT, t as u64));
            Transfer {
                payload,
                tx_bits,
                samples: run.capture.samples,
                chunk: CHUNKS[(t + t / 3) % 3],
            }
        })
        .collect();
    Deck { scenario, transfers }
}

/// What one replay of the deck measured.
struct Replay {
    scored: Vec<Option<Scored>>,
    /// Per tenant: open → scored result, ms.
    latency_ms: Vec<f64>,
    /// Per tenant: `finish` + `try_deframe` after its last sample was
    /// pumped into the receiver, ms.
    lag_ms: Vec<f64>,
}

/// Replays every transfer as a concurrent tenant of one registry:
/// round-robin offers, a pump when a buffer is full (then the offer is
/// retried) and when a tenant's stream ends. Spans, when traced, are
/// named after the layer each call drives: `offer` is the session
/// layer's own work (copy + backpressure), while `pump` and `finish`
/// run the tenants' receivers.
fn replay(deck: &Deck, seed: u64, mut tr: Option<&mut Tracer>, out: &mut Outcome) -> Replay {
    let op_start = Instant::now();
    let n = deck.transfers.len();
    let sc = &deck.scenario;
    let cfg = &sc.chain.frontend;
    let mut reg = SessionRegistry::new(seed, BUFFER_LIMIT);
    let mut replay = Replay { scored: vec![None; n], latency_ms: Vec::new(), lag_ms: Vec::new() };
    let mut ids = Vec::new();
    for t in 0..n {
        match trace::span(&mut tr, SESSION, || {
            reg.open_covert(sc.rx.clone(), cfg.sample_rate, cfg.center_freq)
        }) {
            Ok(id) => ids.push(Some(id)),
            Err(e) => {
                out.fail(format!("tenant {t}: open failed: {e:?}"));
                ids.push(None);
            }
        }
    }
    let mut cursor = vec![0usize; n];
    let mut active: Vec<bool> = ids.iter().map(Option::is_some).collect();
    while active.iter().any(|&a| a) {
        for t in 0..n {
            let Some(id) = ids[t].filter(|_| active[t]) else { continue };
            let tx = &deck.transfers[t];
            let end = (cursor[t] + tx.chunk).min(tx.samples.len());
            let chunk = &tx.samples[cursor[t]..end];
            let mut offered = trace::span(&mut tr, SESSION, || reg.offer(id, chunk));
            if let Err(SessionError::RejectedFull { .. }) = offered {
                let pumped = trace::span(&mut tr, PUSH, || reg.pump());
                trace::count(&mut tr, "covert.rx.push.samples", pumped as u64);
                offered = trace::span(&mut tr, SESSION, || reg.offer(id, chunk));
            }
            if let Err(e) = offered {
                out.fail(format!("tenant {t}: offer failed: {e}"));
                active[t] = false;
                continue;
            }
            trace::count(&mut tr, "core.session.bytes_copied", std::mem::size_of_val(chunk) as u64);
            cursor[t] = end;
            if end < tx.samples.len() {
                continue;
            }
            active[t] = false;
            let pumped = trace::span(&mut tr, PUSH, || reg.pump());
            trace::count(&mut tr, "covert.rx.push.samples", pumped as u64);
            let lag = Instant::now();
            let closed = trace::span(&mut tr, FINISH, || reg.finish(id));
            let closed = match closed {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("tenant {t}: finish failed: {e}"));
                    continue;
                }
            };
            let (report, rx_error) = match closed.output {
                SessionOutput::Covert(r) => split_report(r),
                SessionOutput::Keylog(_) => unreachable!("only covert sessions are opened"),
            };
            let deframed =
                trace::span(&mut tr, FRAME, || try_deframe(&report.bits, sc.tx.frame, 1).ok());
            replay.lag_ms.push(report::ms(lag.elapsed()));
            let alignment =
                trace::span(&mut tr, ALIGN, || align_semiglobal(&tx.tx_bits, &report.bits));
            replay.latency_ms.push(report::ms(op_start.elapsed()));
            trace::count(
                &mut tr,
                "core.session.chunks_accepted",
                closed.stats.chunks_accepted as u64,
            );
            trace::count(
                &mut tr,
                "core.session.chunks_rejected",
                closed.stats.chunks_rejected as u64,
            );
            replay.scored[t] = Some(Scored { report, rx_error, alignment, deframed });
        }
    }
    replay
}

/// The same transfers through `StreamingReceiver` directly, chunk by
/// chunk, then `try_deframe` and `align_semiglobal`: the stage
/// functions the registry path must agree with bit for bit.
fn direct(deck: &Deck, tr: &mut Tracer) -> Vec<Option<Scored>> {
    let sc = &deck.scenario;
    let cfg = &sc.chain.frontend;
    deck.transfers
        .iter()
        .map(|tx| {
            let mut rx =
                StreamingReceiver::new(sc.rx.clone(), cfg.sample_rate, cfg.center_freq).ok()?;
            for chunk in tx.samples.chunks(tx.chunk) {
                tr.count_push_allocs(|| rx.push(chunk));
            }
            let (report, rx_error) = split_report(rx.finish());
            let deframed = try_deframe(&report.bits, sc.tx.frame, 1).ok();
            let alignment = align_semiglobal(&tx.tx_bits, &report.bits);
            Some(Scored { report, rx_error, alignment, deframed })
        })
        .collect()
}

fn digest_all(scored: &[Option<Scored>]) -> Vec<Digest> {
    scored
        .iter()
        .map(|s| {
            let mut d = Digest::default();
            if let Some(s) = s {
                s.digest(&mut d);
            }
            d
        })
        .collect()
}

/// Checks and scores one replay; returns the pass digest.
fn score(deck: &Deck, replay: &Replay, pass: usize, q: &mut Quality, out: &mut Outcome) -> Digest {
    let mut digest = Digest::default();
    for (t, (tx, s)) in deck.transfers.iter().zip(&replay.scored).enumerate() {
        out.attempted += 1;
        let Some(s) = s else { continue };
        s.digest(&mut digest);
        if let Err(e) = s.check(&tx.tx_bits) {
            out.fail(format!("tenant {t}: {e}"));
        }
        if pass == 0 {
            q.add(s, &tx.payload);
        }
    }
    digest
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (deck, setup_s) = report::timed_setup(|| Ok(build(args.seed)))?;
    let mut out = Outcome {
        inputs: vec![
            ("transfers_per_pass", deck.transfers.len().to_string()),
            ("payload_bytes", PAYLOAD_BYTES.to_string()),
            ("on_air_bits", deck.transfers[0].tx_bits.len().to_string()),
            ("samples_per_pass", deck.samples().to_string()),
            ("chunk_samples", format!("{CHUNKS:?}")),
            ("buffer_limit_samples", BUFFER_LIMIT.to_string()),
            ("severities", format!("{SEVERITIES:?}")),
        ],
        ..Outcome::default()
    };
    let rss_reset = report::reset_peak_rss();
    let mut check = PassCheck::default();
    let mut q = Quality::default();
    let t0 = Instant::now();

    if args.trace {
        let mut tr = Tracer::new();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let mut op = 0u32;
        while check.passes < report::MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = check.passes;
            // The untraced replay's own failures show as a digest
            // mismatch below; only the traced replay's are counted.
            let t = Instant::now();
            let plain = replay(&deck, args.seed, None, &mut Outcome::default());
            untraced_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            tr.begin_op(op);
            let traced = replay(&deck, args.seed, Some(&mut tr), &mut out);
            tr.end_op();
            traced_s += t.elapsed().as_secs_f64();
            op += 1;
            for (tx, s) in deck.transfers.iter().zip(&traced.scored) {
                if let Some(s) = s {
                    s.count(&tx.payload, &mut tr);
                }
            }
            let traced_digests = digest_all(&traced.scored);
            if digest_all(&plain.scored) != traced_digests {
                out.fail("traced replay differs from the untraced replay".into());
            }
            if pass == 0 && digest_all(&direct(&deck, &mut tr)) != traced_digests {
                out.fail("StreamingReceiver stages differ from the SessionRegistry path".into());
            }
            let digest = score(&deck, &traced, pass, &mut q, &mut out);
            check.end_pass(digest, tr.take_pass_counts(), &mut out);
        }
        let path = crate::results_dir()?.join("rx-replay.spans.csv");
        tr.write_csv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.metrics =
            report::layer_metrics(&tr, &check.counts(), check.passes, traced_s, untraced_s);
    } else {
        let (mut latencies, mut lags) = (Vec::new(), Vec::new());
        let mut pass_s = Vec::new();
        while check.passes < report::MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = check.passes;
            let pass_t = Instant::now();
            let r = replay(&deck, args.seed, None, &mut out);
            latencies.extend_from_slice(&r.latency_ms);
            lags.extend_from_slice(&r.lag_ms);
            let digest = score(&deck, &r, pass, &mut q, &mut out);
            pass_s.push(pass_t.elapsed().as_secs_f64());
            check.end_pass(digest, Default::default(), &mut out);
        }
        let peak = report::peak_rss_mb()?;
        out.extra.push(Metric::new("op_latency_samples", latencies.len() as f64, "count"));
        out.extra.extend(report::latency_metrics("result_lag", &mut lags));
        let [p50, p90] = report::latency_metrics("op_latency", &mut latencies);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "msamples_per_s",
                report::pass_rates(deck.samples(), &pass_s),
                "Msamples/s",
            ),
            p50,
            p90,
            Metric::new("peak_rss_mb", peak, "MiB"),
        ];
    }
    let ber = q.ber();
    if ber > MAX_BER {
        out.problems.push(format!("channel broken: mean BER {ber}"));
    }
    out.extra.push(Metric::new("rss_peak_reset", f64::from(u8::from(rss_reset)), "bool"));
    out.extra.push(Metric::new("ber", ber, "ratio"));
    out.extra.push(Metric::new("recovery_rate", q.recovery_rate(), "ratio"));
    Ok(out)
}
