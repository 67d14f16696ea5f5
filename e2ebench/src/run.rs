//! What one workload run hands back, and the metric catalogue.

use std::collections::BTreeMap;
use std::time::Instant;

/// A workload's knobs. [`Config::full`] is what the benchmark command
/// runs; [`Config::smoke`] shrinks inputs and repetitions so the self
/// tests finish in seconds.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every random choice the load makes.
    pub seed: u64,
    /// How long the load generates edits.
    pub seconds: f64,
    /// Whether this is a shrunken self-test run.
    pub smoke: bool,
    /// Trace mode: per-layer probes are taken.
    pub trace: bool,
}

impl Config {
    /// The benchmark's configuration.
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Config {
        Config { seed, seconds, smoke: false, trace }
    }

    /// A seconds-long self-test configuration.
    pub fn smoke(seed: u64, trace: bool) -> Config {
        Config { seed, seconds: 0.3, smoke: true, trace }
    }

    /// Latency samples each series must reach before the load stops, so
    /// that each 99th percentile has ten samples beyond it (none for a
    /// self-test run).
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            0
        } else {
            1000
        }
    }

    /// Hard stop for the load phase: a run that cannot reach its sample
    /// minimum in this time fails instead of running on.
    pub fn load_cap_s(&self) -> f64 {
        self.seconds * 2.0 + 20.0
    }

    /// Whether the load phase that began at `start` is over: the run
    /// length passed and every latency series has its sample minimum, or
    /// the hard cap passed, or an output check already failed.
    pub fn load_done(&self, run: &Run, start: Instant) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        (elapsed >= self.seconds && run.min_series() >= self.min_samples())
            || elapsed >= self.load_cap_s()
            || !run.problems.is_empty()
    }
}

/// Latency samples and counts one run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Failed output checks, empty when the run is correct.
    pub problems: Vec<String>,
    /// Operations the load submitted (edits, refused edits, proposals).
    pub attempted: u64,
    /// Operations that failed (an error where the method promises none).
    pub failed: u64,
    /// Edits generated and sent.
    pub edits: u64,
    /// Seconds from the first edit until the last one was resolved at
    /// its origin and integrated at every replica.
    pub active_s: f64,
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// `Engine::generate` of a typed character (an insertion) at the
    /// editing replica, µs: the keystroke latency.
    pub local_us: Vec<f64>,
    /// `Engine::receive` of a relayed edit at a collaborator replica, µs.
    pub integrate_us: Vec<f64>,
    /// Generation until the origin's flag settled, ms.
    pub valid_ms: Vec<f64>,
    /// Generation until another collaborator integrated the edit, ms.
    pub remote_ms: Vec<f64>,
    /// Per-layer values the workload measured itself (counters, gauges,
    /// ratios); span-derived ones are added from the trace.
    pub layer: BTreeMap<&'static str, f64>,
    /// The load phase's trace (trace mode only).
    pub trace: Option<crate::trace::Trace>,
}

impl Run {
    /// The latency series: name prefix, unit, samples in the order taken.
    pub fn series(&self) -> [(&'static str, &'static str, &[f64]); 4] {
        [
            ("local", "us", &self.local_us),
            ("integrate", "us", &self.integrate_us),
            ("valid", "ms", &self.valid_ms),
            ("remote", "ms", &self.remote_ms),
        ]
    }

    /// The smallest latency series, for the sample-minimum rule.
    pub fn min_series(&self) -> usize {
        self.series().iter().map(|(_, _, v)| v.len()).min().unwrap_or(0)
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.problems.len() < 32 {
            self.problems.push(what);
        }
    }
}

/// End-to-end metrics: name and unit. Each latency series is reported by
/// its median and 95th percentile: on a two-vCPU virtual machine the 99th
/// percentile of these series moved by up to 19% (IQR / median over ten
/// runs) with the number of host preemptions and write-ahead-log flush
/// stalls a run happened to meet, the 95th by under 10%. The highest
/// percentile with ten samples beyond it is printed beside them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("edits_s", "1/s"),
    ("local_p50_us", "us"),
    ("local_p95_us", "us"),
    ("integrate_p50_us", "us"),
    ("integrate_p95_us", "us"),
    ("valid_p50_ms", "ms"),
    ("valid_p95_ms", "ms"),
    ("remote_p50_ms", "ms"),
    ("remote_p95_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. A layer that does
/// no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.generate.busy_s", "s"),
    ("core.receive_admin.busy_s", "s"),
    ("core.receive_admin.p99_us", "us"),
    ("core.receive_peer.busy_s", "s"),
    ("core.drain_outbox.busy_s", "s"),
    ("core.document.busy_s", "s"),
    ("core.log_len.max", "entries"),
    ("core.log_len.end", "entries"),
    ("core.admin_log_len.end", "entries"),
    ("core.queued.max", "messages"),
    ("core.compactions", "count"),
    ("ot.includes_per_edit", "count"),
    ("ot.transposes_per_edit", "count"),
    ("ot.buffer_cells.end", "cells"),
    ("ot.visible_ratio.end", "ratio"),
    ("policy.auths.end", "count"),
    ("policy.memo_hit_ratio", "ratio"),
    ("policy.denied_local", "count"),
    ("policy.undone", "count"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.frame.encode_ns", "ns"),
    ("net.frame.decode_ns", "ns"),
    ("net.reliable.busy_s", "s"),
    ("net.bytes_per_edit", "bytes"),
    ("net.retransmit_ratio", "ratio"),
    ("server.read.busy_s", "s"),
    ("server.read.max_ms", "ms"),
    ("server.write.busy_s", "s"),
    ("server.timer.busy_s", "s"),
    ("server.drain.p99_us", "us"),
    ("server.log_len.end", "entries"),
    ("server.compactions", "count"),
    ("server.retransmits", "count"),
    ("store.append.p99_us", "us"),
    ("store.fsync.p99_ms", "ms"),
    ("store.fsyncs", "count"),
    ("store.snapshot.busy_ms", "ms"),
    ("store.disk_bytes.end", "bytes"),
    ("unattributed_share", "ratio"),
    ("traced.edits_s", "1/s"),
    ("core.generate.p99_us", "us"),
    ("core.receive_peer.p99_us", "us"),
    ("os.socket.busy_s", "s"),
];
