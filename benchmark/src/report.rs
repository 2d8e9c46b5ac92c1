//! Result assembly: metrics, checks, the host fingerprint, and the JSON
//! the benchmark prints and writes.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Observed values, for the report.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window (requests, plus
    /// ingest batches and publishes where the workload makes them).
    pub attempted: u64,
    /// Of those, failed or shed.
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Results that only this workload has (reported, not in the
    /// result line's metrics).
    pub workload_metrics: Vec<Metric>,
    /// Labels such as the resolved training engine.
    pub labels: Vec<(&'static str, String)>,
    /// Output checks; the run is correct only if every one passes.
    pub checks: Vec<Check>,
    /// Human-readable lines (ladder probes and the like).
    pub notes: Vec<String>,
    /// Peak resident set, MB, read right after the nominal window (the
    /// ladder's overload probes come later and would add their own
    /// backlog buffers).
    pub peak_rss_mb: f64,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        });
    }

    /// True when every check passed. Sheds count in `failed` but do not
    /// make a run incorrect; any other error fails a check.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Peak resident set of this process, MB (`VmHWM`, reported in KiB).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// The host fingerprint recorded with every result.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit", env!("BENCH_COMMIT").to_owned()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_owned()),
        ("seed", seed.to_string()),
    ]
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values in Rust's shortest round-trip form (every
/// digit kept); non-finite values become `null`, which the driver
/// rejects, so a broken measurement cannot pass as a number.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    )
}

/// The full record written beside the trace: fingerprint, labels,
/// checks, and every metric the run produced.
pub fn full_record(
    workload: &str,
    traced: bool,
    fingerprint: &[(&'static str, String)],
    outcome: &Outcome,
) -> String {
    let pairs = |kv: &[(&'static str, String)]| {
        let body: Vec<String> = kv
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"pass\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.pass,
                json_str(&c.detail)
            )
        })
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"schema\": \"sisg.repo-bench.v1\", \"workload\": {}, \"traced\": {}, \
         \"host\": {}, \"labels\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"checks\": [{}], \"end_to_end\": {}, \"per_layer\": {}, \"workload_metrics\": {}, \
         \"notes\": [{}]}}\n",
        json_str(workload),
        traced,
        pairs(fingerprint),
        pairs(&outcome.labels),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        checks.join(", "),
        metrics_json(&outcome.end_to_end),
        metrics_json(&outcome.per_layer),
        metrics_json(&outcome.workload_metrics),
        notes.join(", ")
    )
}
