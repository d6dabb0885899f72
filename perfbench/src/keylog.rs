//! `keylog`: Table IV — the Dell Precision keystroke logger at 10 cm,
//! 2 m line of sight and 1.5 m through the wall, each row one
//! `KeylogScenario::run_chunked` at 2 s chunks (the path `table4_row`
//! takes at paper scale) on a seeded random text. The only workload
//! that reaches `emsc-keylog`, event-driven PMU idle and, on the wall
//! row, `emfield::interference`.

use std::time::Instant;

use emsc_core::keylog_run::{
    ChunkedKeylogOutcome, KeylogScenario, IDLE_MARGIN_S, MATCH_TOLERANCE_S, WORD_GAP_FACTOR,
};
use emsc_core::{Chain, Laptop, Setup};
use emsc_keylog::detect::{detected_times, score_detections, Detector};
use emsc_keylog::words::{group_words, score_words, word_lengths};
use emsc_pmu::sim::ExternalEvent;
use emsc_runtime::seed_for;
use emsc_sdr::Capture;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chain::{self, Arena};
use crate::report::{self, Digest, Metric, Outcome, PassCheck};
use crate::trace::{Tracer, DETECT, PMU};
use crate::Args;

/// Characters typed per row. Four letters with no space always end
/// inside one 2 s chunk (at most 3 × 0.25 s of typing between the
/// 0.5 s idle margins), so every row renders exactly one chunk.
pub const TEXT_CHARS: usize = 4;
/// `run_chunked` chunk length, seconds.
pub const CHUNK_S: f64 = 2.0;
/// Sanity floor on detection: Table IV detects most keystrokes at all
/// three distances; below this the detector is broken, not slow.
const MIN_TPR: f64 = 0.5;
const ROWS: [(Setup, &str); 3] = [
    (Setup::NearField, "10 cm"),
    (Setup::LineOfSight(2.0), "2 m"),
    (Setup::ThroughWall, "1.5 m (with wall)"),
];

struct Row {
    label: &'static str,
    scenario: KeylogScenario,
    seed: u64,
    /// Capture samples the detector sees for this row.
    samples: u64,
}

struct Deck {
    rows: Vec<Row>,
    text: String,
}

/// The row's chunk grid, exactly as `run_chunked` lays it out.
struct Chunking {
    chunk_samples: usize,
    chunk_dur: f64,
    chunks: u64,
}

fn chunking(sc: &KeylogScenario, end_s: f64) -> Chunking {
    let fs = sc.chain.scene.synth.sample_rate;
    let window = sc.detector.window_samples;
    let windows_per_chunk = ((CHUNK_S * fs / window as f64).ceil() as usize).max(1);
    let chunk_samples = windows_per_chunk * window;
    let chunk_dur = chunk_samples as f64 / fs;
    Chunking { chunk_samples, chunk_dur, chunks: (end_s / chunk_dur).ceil().max(1.0) as u64 }
}

/// Seeded lowercase text of [`TEXT_CHARS`] letters.
fn random_text(seed: u64) -> String {
    report::payload(TEXT_CHARS, seed).iter().map(|b| char::from(b'a' + b % 26)).collect()
}

/// Ground truth, the way `run_chunked` draws it: keystrokes, then
/// burst events, from one RNG seeded by the row seed.
fn typing(
    sc: &KeylogScenario,
    text: &str,
    seed: u64,
) -> (Vec<emsc_keylog::typist::Keystroke>, Vec<ExternalEvent>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keystrokes = sc.typist.type_text(text, IDLE_MARGIN_S, &mut rng);
    let end = keystrokes.last().map_or(IDLE_MARGIN_S, |k| k.release_s) + IDLE_MARGIN_S;
    let events = sc.bursts.events_for(&keystrokes, end, &mut rng);
    (keystrokes, events, end)
}

/// Set-up: the three scenarios, the text, each row's chunk grid, and
/// one priming run of the near-field row, which warms the thread-local
/// arenas and FFT plans that the timed rows reuse.
fn build(seed: u64) -> Deck {
    let text = random_text(seed);
    let rows: Vec<Row> = ROWS
        .iter()
        .enumerate()
        .map(|(i, &(setup, label))| {
            let laptop = Laptop::dell_precision();
            let scenario = KeylogScenario::standard(Chain::new(&laptop, setup));
            let seed = seed_for(seed, i as u64);
            let (_, _, end) = typing(&scenario, &text, seed);
            let c = chunking(&scenario, end);
            Row { label, scenario, seed, samples: c.chunks * c.chunk_samples as u64 }
        })
        .collect();
    std::hint::black_box(rows[0].scenario.run_chunked(&text, rows[0].seed, CHUNK_S));
    Deck { rows, text }
}

/// Digests a row's outputs, floats by their bits.
fn digest(o: &ChunkedKeylogOutcome, d: &mut Digest) {
    d.floats(&o.detection.window_energy);
    d.float(o.detection.window_s);
    d.float(o.detection.threshold);
    d.debug(&(&o.detection.bursts, &o.detection.rejected));
    d.debug(&(&o.keystrokes, &o.chars, &o.words));
}

fn digest_of(o: &ChunkedKeylogOutcome) -> Digest {
    let mut d = Digest::default();
    digest(o, &mut d);
    d
}

/// A row through the public stage functions, traced. With `parity`,
/// each chunk's capture is also checked against `Chain::run_events`.
fn decomposed(
    sc: &KeylogScenario,
    text: &str,
    seed: u64,
    tr: &mut Tracer,
    arena: &mut Arena,
    parity: bool,
) -> Result<ChunkedKeylogOutcome, String> {
    let (keystrokes, events, end) = typing(sc, text, seed);
    let c = chunking(sc, end);
    let cfg = &sc.chain.frontend;
    let mut energies = Vec::new();
    for chunk_idx in 0..c.chunks {
        let t0 = chunk_idx as f64 * c.chunk_dur;
        let t1 = (t0 + c.chunk_dur).min(end);
        let chunk_events: Vec<ExternalEvent> = events
            .iter()
            .filter(|e| e.t_s >= t0 && e.t_s < t1)
            .map(|e| ExternalEvent { t_s: e.t_s - t0, ..*e })
            .collect();
        let chunk_seed = seed ^ (chunk_idx << 17);
        let trace =
            tr.time(PMU, || sc.chain.machine.run_events(c.chunk_dur, &chunk_events, chunk_seed));
        let mut samples = Vec::new();
        chain::render(&sc.chain, &trace, chunk_seed, arena, tr, |block, _| {
            samples.extend_from_slice(block)
        })?;
        samples.truncate(c.chunk_samples);
        if parity {
            let mut reference =
                sc.chain.run_events(c.chunk_dur, &chunk_events, chunk_seed).capture.samples;
            reference.truncate(c.chunk_samples);
            if !chain::same_samples(&samples, &reference) {
                return Err(format!(
                    "row seed {seed}: chunk {chunk_idx} capture != Chain::run_events"
                ));
            }
        }
        tr.count("keylog.detect.samples", samples.len() as u64);
        let capture =
            Capture { samples, sample_rate: cfg.sample_rate, center_freq: cfg.center_freq };
        let e = tr.time(DETECT, || Detector::new(sc.detector.clone()).window_energies(&capture));
        tr.count("keylog.detect.windows", e.len() as u64);
        energies.extend(e);
    }
    let detector = Detector::new(sc.detector.clone());
    let window_s = sc.detector.window_samples as f64 / sc.chain.scene.synth.sample_rate;
    let detection = tr.time(DETECT, || detector.detect_from_energies(energies, window_s));
    tr.count("keylog.detect.bursts", detection.bursts.len() as u64);
    let truth: Vec<f64> = keystrokes.iter().map(|k| k.press_s).collect();
    let chars = score_detections(&detection.bursts, &truth, MATCH_TOLERANCE_S);
    let groups = group_words(&detected_times(&detection), WORD_GAP_FACTOR);
    let words = score_words(&word_lengths(&groups), text);
    Ok(ChunkedKeylogOutcome { keystrokes, detection, chars, words })
}

#[derive(Default)]
struct Quality {
    true_positives: u64,
    missed: u64,
    false_positives: u64,
}

/// Checks and scores one production row into the pass digest.
fn score(
    row: &Row,
    o: &ChunkedKeylogOutcome,
    pass: usize,
    q: &mut Quality,
    out: &mut Outcome,
    d: &mut Digest,
) {
    digest(o, d);
    if o.keystrokes.len() != TEXT_CHARS {
        out.fail(format!(
            "{}: {} keystrokes for {TEXT_CHARS} characters",
            row.label,
            o.keystrokes.len()
        ));
    }
    if o.chars.true_positives + o.chars.missed != o.keystrokes.len() {
        out.fail(format!("{}: character score misses keystrokes", row.label));
    }
    if pass == 0 {
        q.true_positives += o.chars.true_positives as u64;
        q.missed += o.chars.missed as u64;
        q.false_positives += o.chars.false_positives as u64;
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (deck, setup_s) = report::timed_setup(|| Ok(build(args.seed)))?;
    let samples_per_pass: u64 = deck.rows.iter().map(|r| r.samples).sum();
    let mut out = Outcome {
        inputs: vec![
            ("rows", deck.rows.len().to_string()),
            ("text_chars", TEXT_CHARS.to_string()),
            ("chunk_s", CHUNK_S.to_string()),
            ("samples_per_pass", samples_per_pass.to_string()),
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
            for row in &deck.rows {
                out.attempted += 1;
                let t = Instant::now();
                let prod = row.scenario.run_chunked(&deck.text, row.seed, CHUNK_S);
                untraced_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                tr.begin_op(op);
                let dec =
                    decomposed(&row.scenario, &deck.text, row.seed, &mut tr, &mut arena, false);
                tr.end_op();
                traced_s += t.elapsed().as_secs_f64();
                op += 1;
                match dec {
                    Ok(dec) if digest_of(&dec) == digest_of(&prod) => {
                        score(row, &dec, pass, &mut q, &mut out, &mut digest)
                    }
                    Ok(_) => out.fail(format!("{}: stage decomposition != run_chunked", row.label)),
                    Err(e) => out.fail(e),
                }
                if pass == 0 {
                    // Capture parity, untimed: the first pass re-renders
                    // each chunk through the production chain.
                    let mut scratch = Tracer::new();
                    if let Err(e) = decomposed(
                        &row.scenario,
                        &deck.text,
                        row.seed,
                        &mut scratch,
                        &mut arena,
                        true,
                    ) {
                        out.fail(e);
                    }
                }
            }
            check.end_pass(digest, tr.take_pass_counts(), &mut out);
        }
        let path = crate::results_dir()?.join("keylog.spans.csv");
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
            for row in &deck.rows {
                out.attempted += 1;
                let t = Instant::now();
                let prod = row.scenario.run_chunked(&deck.text, row.seed, CHUNK_S);
                latencies.push(report::ms(t.elapsed()));
                score(row, &prod, pass, &mut q, &mut out, &mut digest);
            }
            pass_s.push(pass_t.elapsed().as_secs_f64());
            check.end_pass(digest, Default::default(), &mut out);
        }
        let peak = report::peak_rss_mb()?;
        out.extra.push(Metric::new("op_latency_samples", latencies.len() as f64, "count"));
        let [p50, p90] = report::latency_metrics("op_latency", &mut latencies);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "msamples_per_s",
                report::pass_rates(samples_per_pass, &pass_s),
                "Msamples/s",
            ),
            p50,
            p90,
            Metric::new("peak_rss_mb", peak, "MiB"),
        ];
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let tpr = ratio(q.true_positives, q.true_positives + q.missed);
    if tpr < MIN_TPR {
        out.problems.push(format!("detector broken: keystroke TPR {tpr}"));
    }
    out.extra.push(Metric::new("rss_peak_reset", f64::from(u8::from(rss_reset)), "bool"));
    out.extra.push(Metric::new("keystroke_tpr", tpr, "ratio"));
    out.extra.push(Metric::new(
        "keystroke_fpr",
        ratio(q.false_positives, q.true_positives + q.false_positives),
        "ratio",
    ));
    Ok(out)
}
