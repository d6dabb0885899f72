//! Benchmark of the PMU EM side-channel pipeline, end to end and layer
//! by layer.
//!
//! ```text
//! perfbench --workload <covert-grid|rx-replay|keylog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up (several times; `setup_s` is the
//! median), then replays the workload's fixed deck of operations in a
//! closed loop on one worker thread until `--seconds` have passed,
//! always finishing the current pass and making at least two. Every
//! pass must reproduce the first pass's outputs exactly.
//!
//! With `--trace 0` the last stdout line reports the end-to-end
//! metrics; with `--trace 1` each operation also runs decomposed into
//! the library's public stage functions, with a span around each call,
//! and is checked bit for bit against the production call; the last
//! line then reports per-layer metrics. The line before it carries the
//! workload-specific metrics and the host record, which are also
//! written to `perfbench/results/`. See `LEDGER.md`.

mod alloc;
mod chain;
mod covert;
mod covert_grid;
mod keylog;
mod report;
mod rx_replay;
mod trace;

use std::path::PathBuf;

use report::{Metric, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Worker threads the `emsc-runtime` pool is pinned to.
const POOL_THREADS: usize = 1;
const WORKLOADS: [&str; 3] = ["covert-grid", "rx-replay", "keylog"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where result files and span dumps go: `results/` beside this
/// package's manifest.
pub fn results_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (`{}` prints the
/// shortest representation that reads back to the same `f64`).
fn json_num(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("non-finite measurement {x}"))
    }
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let fields = metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value)?,
                json_str(m.unit)
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn json_pairs(pairs: &[(&str, String)]) -> String {
    let fields: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", fields.join(", "))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let (mut outcome, pool) = emsc_runtime::with_threads(POOL_THREADS, || {
        let pool = emsc_runtime::current_threads();
        let outcome: Result<Outcome, String> = match args.workload.as_str() {
            "covert-grid" => covert_grid::run(&args),
            "rx-replay" => rx_replay::run(&args),
            _ => keylog::run(&args),
        };
        outcome.map(|o| (o, pool))
    })?;
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extra.push(Metric::new("error_rate", error_rate, "ratio"));
    let correct = outcome.problems.is_empty() && outcome.failed == 0;

    let host = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", report::nproc().map_or("unknown".into(), |n| n.to_string())),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("pool_threads", pool.to_string()),
    ];
    let record = format!(
        "{{\"host\": {}, \"inputs\": {}, \"correct\": {correct}, \"problems\": [{}], \"attempted\": {}, \"failed\": {}, \"workload_metrics\": {}, \"metrics\": {}}}",
        json_pairs(&host),
        json_pairs(&outcome.inputs),
        outcome.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.extra)?,
        json_metrics(&outcome.metrics)?,
    );
    let path = results_dir()?.join(format!("{}-trace{}.json", args.workload, u8::from(args.trace)));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
