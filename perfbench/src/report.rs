//! What a workload hands back, and the helpers that measure it:
//! percentiles, output digests, peak memory and the host record.

use std::time::Duration;

use crate::trace::{Counts, Tracer, LAYERS};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, over every pass.
    pub attempted: u64,
    /// Operations that ended in a typed error or failed a check.
    pub failed: u64,
    /// Correctness-check failures, described.
    pub problems: Vec<String>,
    /// The metrics the run reports: end-to-end when untraced,
    /// per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Measured but not compared between commits: workload-specific
    /// end-to-end metrics (see `LEDGER.md`).
    pub extra: Vec<Metric>,
    /// Input sizes, for the host record.
    pub inputs: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed operation and why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Passes over the deck a run makes at least, so that every count and
/// output can be checked against a repeat.
pub const MIN_PASSES: usize = 2;

/// Runs `build` [`SETUP_REPEATS`] times, returning the last result and
/// the median time.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first, so only one is ever resident.
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS is positive"), median(&mut times)))
}

/// Throughput of each pass, Msamples/s; the run reports the median, so
/// one pass slowed by another process does not move it.
pub fn pass_rates(samples_per_pass: u64, pass_seconds: &[f64]) -> f64 {
    let mut rates: Vec<f64> =
        pass_seconds.iter().map(|s| samples_per_pass as f64 / s / 1e6).collect();
    median(&mut rates)
}

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The p50 and p90 of `name` (milliseconds) as `<name>_p50_ms` and
/// `<name>_p90_ms`.
pub fn latency_metrics(name: &str, values: &mut [f64]) -> [Metric; 2] {
    [
        Metric::new(format!("{name}_p50_ms"), percentile(values, 0.5), "ms"),
        Metric::new(format!("{name}_p90_ms"), percentile(values, 0.9), "ms"),
    ]
}

/// FNV-1a over 64-bit words: a digest of an operation's outputs, so
/// passes can be compared without keeping the outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.float(x);
        }
    }

    /// Any value through its `Debug` form (for small structs).
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// Checks a pass's output digest and counts against the first pass's.
#[derive(Debug, Default)]
pub struct PassCheck {
    first: Option<(Digest, Counts)>,
    pub passes: usize,
}

impl PassCheck {
    pub fn end_pass(&mut self, digest: Digest, counts: Counts, out: &mut Outcome) {
        self.passes += 1;
        match &self.first {
            None => self.first = Some((digest, counts)),
            Some((d, c)) => {
                if *d != digest {
                    out.fail(format!("pass {} outputs differ from pass 1", self.passes));
                }
                if *c != counts {
                    out.fail(format!("pass {} counts differ from pass 1", self.passes));
                }
            }
        }
    }

    /// The first pass's counts (every pass has the same).
    pub fn counts(&self) -> Counts {
        self.first.as_ref().map(|(_, c)| c.clone()).unwrap_or_default()
    }
}

/// Resets the peak resident set (`VmHWM`) to the current one, after
/// handing the heap memory set-up freed back to the kernel, so the
/// baseline does not depend on how set-up's frees left the heap.
/// Returns whether the kernel allowed the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases
        // free pages of the C allocator's heap, which `System` (the
        // allocator behind `CountingAlloc`) uses.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB since the last reset.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPUs this process may run on (what `nproc` prints), from the
/// affinity list in `/proc/self/status`.
pub fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut n = 0;
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((a, b)) => n += b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                n += 1;
            }
        }
    }
    Some(n)
}

/// Pseudo-random payload bytes (xorshift64), a function of `seed` only.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// The per-layer metrics of a traced run: times over all `passes`,
/// counts per pass (`counts`, the first pass's), and each layer's
/// `ns_per_sample` from its busy time over the samples it processed.
pub fn layer_metrics(
    tracer: &Tracer,
    counts: &Counts,
    passes: usize,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) -> Vec<Metric> {
    let busy = tracer.self_seconds();
    let count = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    let share = |s: f64| if traced_wall_s > 0.0 { s / traced_wall_s } else { 0.0 };
    let per_sample = |layer: &str, key: &str| {
        let samples = count(key) * passes as f64;
        if samples > 0.0 {
            busy.get(layer).copied().unwrap_or(0.0) * 1e9 / samples
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut out = Vec::new();
    let mut attributed = 0.0;
    for layer in LAYERS {
        let b = busy.get(layer).copied().unwrap_or(0.0);
        attributed += b;
        out.push(Metric::new(format!("{layer}.busy_s"), b, "s"));
        out.push(Metric::new(format!("{layer}.share"), share(b), "ratio"));
        out.push(Metric::new(format!("{layer}.calls"), count(layer), "count"));
    }
    let unattributed = (traced_wall_s - attributed).max(0.0);
    let counted = [
        ("vrm.buck.pulses", "count"),
        ("emfield.synth.samples", "count"),
        ("emfield.interference.harmonic_samples", "count"),
        ("covert.rx.push.samples", "count"),
        ("covert.rx.finish.bits_out", "count"),
        ("covert.frame.frames_ok", "count"),
        ("covert.frame.frames_attempted", "count"),
        ("covert.frame.marker_resyncs", "count"),
        ("covert.frame.markers_missed", "count"),
        ("covert.frame.hamming_corrected", "count"),
        ("covert.frame.hamming_miscorrected", "count"),
        ("covert.metrics.align.dp_cells", "count"),
        ("core.session.chunks_accepted", "count"),
        ("core.session.chunks_rejected", "count"),
        ("core.session.bytes_copied", "bytes"),
        ("keylog.detect.windows", "count"),
        ("keylog.detect.bursts", "count"),
    ];
    for (key, unit) in counted {
        out.push(Metric::new(key, count(key), unit));
    }
    out.extend([
        Metric::new(
            "emfield.synth.ns_per_sample",
            per_sample("emfield.synth", "emfield.synth.samples"),
            "ns",
        ),
        Metric::new(
            "emfield.interference.ns_per_sample",
            per_sample("emfield.interference", "emfield.interference.samples"),
            "ns",
        ),
        Metric::new(
            "emfield.awgn.ns_per_sample",
            per_sample("emfield.awgn", "emfield.synth.samples"),
            "ns",
        ),
        Metric::new(
            "sdr.frontend.ns_per_sample",
            per_sample("sdr.frontend", "sdr.frontend.samples"),
            "ns",
        ),
        Metric::new(
            "covert.rx.push.ns_per_sample",
            per_sample("covert.rx.push", "covert.rx.push.samples"),
            "ns",
        ),
        Metric::new("covert.rx.push.allocs_per_chunk", tracer.allocs_per_chunk(), "allocs/chunk"),
        Metric::new(
            "covert.frame.frame_ok_ratio",
            ratio(count("covert.frame.frames_ok"), count("covert.frame.frames_attempted")),
            "ratio",
        ),
        Metric::new(
            "covert.metrics.align.table_bytes",
            count("covert.metrics.align.dp_cells") * 4.0,
            "bytes",
        ),
        Metric::new(
            "core.session.rejection_ratio",
            ratio(
                count("core.session.chunks_rejected"),
                count("core.session.chunks_accepted") + count("core.session.chunks_rejected"),
            ),
            "ratio",
        ),
        Metric::new(
            "keylog.detect.ns_per_sample",
            per_sample("keylog.detect", "keylog.detect.samples"),
            "ns",
        ),
        Metric::new("unattributed.busy_s", unattributed, "s"),
        Metric::new("unattributed.share", share(unattributed), "ratio"),
        Metric::new("trace.wall_s", traced_wall_s, "s"),
        Metric::new("trace.untraced_wall_s", untraced_wall_s, "s"),
        Metric::new("trace.overhead_s", traced_wall_s - untraced_wall_s, "s"),
        Metric::new("trace.passes", passes as f64, "count"),
    ]);
    out
}
