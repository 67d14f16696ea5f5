//! # dce-e2ebench — the end-to-end benchmark
//!
//! Three seeded workloads drive the collaborative editor stack through
//! its public API and check their outputs (see `README.md` in this
//! directory for the workloads, metrics and reference figures):
//!
//! * `burst` — an in-process star of five replicas with bursty writers;
//! * `big-doc` — an in-process star on a 100k-element document;
//! * `server-durable` — `dce-server` on loopback with a data directory,
//!   driven by two closed-loop clients.
//!
//! [`measure`] turns a [`Run`] into the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run).

#![forbid(unsafe_code)]

pub mod bigdoc;
pub mod burst;
pub mod durable;
pub mod probe;
pub mod run;
pub mod star;
pub mod stats;
pub mod trace;

pub use run::{Config, Run, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["burst", "big-doc", "server-durable"];

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &Config) -> Option<Run> {
    match name {
        "burst" => Some(burst::run(cfg)),
        "big-doc" => Some(bigdoc::run(cfg)),
        "server-durable" => Some(durable::run(cfg)),
        _ => None,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a latency percentile (0 for other metrics).
    pub samples: usize,
}

/// Span names that belong to a layer of the program (as opposed to the
/// benchmark's own rounds and probes, and `os.socket`: the kernel's
/// socket calls).
fn is_layer(span: &str) -> bool {
    ["core.", "ot.", "policy.", "net.", "server.", "store."].iter().any(|p| span.starts_with(p))
}

/// The metrics of one run: every end-to-end metric (untraced run) or
/// every per-layer metric (traced run, [`Run::trace`] present).
pub fn measure(run: &Run) -> BTreeMap<&'static str, Metric> {
    match &run.trace {
        None => end_to_end(run),
        Some(trace) => per_layer(run, trace),
    }
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, Metric> {
    let series = run.series();
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = match name {
                "edits_s" => (run.edits as f64 / run.active_s.max(1e-9), 0),
                "setup_s" => (stats::median(&run.setup_s).unwrap_or(0.0), run.setup_s.len()),
                "rss_mb" => (stats::peak_rss_mb().unwrap_or(0.0), 0),
                _ => {
                    let (_, _, v) =
                        series.iter().find(|(s, _, _)| name.starts_with(s)).expect("a series");
                    let p = if name.contains("_p50_") { 50.0 } else { 95.0 };
                    (stats::percentile(v, p).unwrap_or(0.0), v.len())
                }
            };
            (name, Metric { value, unit, samples })
        })
        .collect()
}

fn per_layer(run: &Run, trace: &trace::Trace) -> BTreeMap<&'static str, Metric> {
    let agg = |name: &str| trace.aggs.get(name).cloned().unwrap_or_default();
    let busy = |name: &str| agg(name).self_ns as f64 / 1e9;
    let mean_ns = |name: &str| {
        let a = agg(name);
        a.total_ns as f64 / a.count.max(1) as f64
    };
    let p99_us = |name: &str| {
        let d: Vec<f64> = agg(name).durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::percentile(&d, 99.0).unwrap_or(0.0)
    };
    let layer_self: u64 =
        trace.aggs.iter().filter(|(name, _)| is_layer(name)).map(|(_, a)| a.self_ns).sum();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("core.generate.busy_s", busy("core.generate"));
    values.insert("core.generate.p99_us", p99_us("core.generate"));
    values.insert("core.receive_admin.busy_s", busy("core.receive_admin"));
    values.insert("core.receive_admin.p99_us", p99_us("core.receive_admin"));
    values.insert("core.receive_peer.busy_s", busy("core.receive_peer"));
    values.insert("core.receive_peer.p99_us", p99_us("core.receive_peer"));
    values.insert("core.drain_outbox.busy_s", busy("core.drain_outbox"));
    values.insert("core.document.busy_s", busy("core.document"));
    values.insert("net.wire.encode_ns", mean_ns("net.wire.encode"));
    values.insert("net.wire.decode_ns", mean_ns("net.wire.decode"));
    values.insert("net.frame.encode_ns", mean_ns("net.frame.encode"));
    values.insert("net.frame.decode_ns", mean_ns("net.frame.decode"));
    values.insert("net.reliable.busy_s", busy("net.reliable"));
    values.insert("os.socket.busy_s", busy("os.socket"));
    values.insert("unattributed_share", 1.0 - layer_self as f64 / trace.wall_ns.max(1) as f64);
    values.insert("traced.edits_s", run.edits as f64 / run.active_s.max(1e-9));
    for (name, v) in &run.layer {
        values.insert(name, *v);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (name, Metric { value, unit, samples: 0 })
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each `{"value": …, "unit": …}`).
pub fn result_json(run: &Run, metrics: &BTreeMap<&'static str, Metric>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty(),
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

/// Reads the metric values back out of a [`result_json`] line (the
/// steadiness mode parses its child runs with it). `None` when the line
/// is not a result.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("}, ").map(|p| p.trim_end_matches('}')) {
        let (name, rest) = part.split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.parse().ok()?;
        metrics.insert(name.trim_start_matches('"').to_string(), value);
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let run = Run {
            attempted: 12,
            edits: 10,
            active_s: 2.0,
            local_us: vec![1.0, 2.0, 3.0],
            setup_s: vec![0.5, 0.25, 0.75],
            ..Run::default()
        };
        let metrics = measure(&run);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["edits_s"].value, 5.0);
        assert_eq!(metrics["setup_s"].value, 0.5);
        assert_eq!(metrics["local_p50_us"].value, 2.0);
        let line = result_json(&run, &metrics);
        let (correct, attempted, failed, parsed) = parse_result(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (12, 0));
        assert_eq!(parsed.len(), END_TO_END.len());
        for (name, m) in &metrics {
            assert_eq!(parsed[*name], m.value, "{name}");
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        trace::enable();
        trace::span("core.generate", || trace::span("net.wire.encode", || ()));
        let run = Run { edits: 1, active_s: 1.0, trace: trace::finish(), ..Run::default() };
        let metrics = measure(&run);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let share = metrics["unattributed_share"].value;
        assert!((0.0..=1.0).contains(&share), "{share}");
    }
}
