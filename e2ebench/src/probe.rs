//! Per-layer probes of the collaborator replicas, taken in trace mode:
//! running maxima sampled after each reception at one collaborator, and
//! end-of-run gauges and work counters.

use crate::star::DOC;
use crate::trace;
use dce_core::Engine;
use dce_document::Char;
use dce_obs::ObsHandle;
use std::collections::BTreeMap;

/// Running maxima of the probed collaborator's log and reception queue.
#[derive(Debug, Default)]
pub struct Probe {
    log_len_max: usize,
    queued_max: usize,
}

impl Probe {
    /// Samples the probed collaborator after one of its receptions.
    pub fn sample(&mut self, engine: &Engine<Char>) {
        let (log, queued) = trace::span("bench.probe", || {
            engine.with(DOC, |s| (s.engine().log().len(), s.queued())).expect("document hosted")
        });
        self.log_len_max = self.log_len_max.max(log);
        self.queued_max = self.queued_max.max(queued);
    }

    /// End-of-run gauges of the probed collaborator (logs, buffer,
    /// policy), OT work and undos summed over every collaborator (work
    /// per edit sent), and the compactions `obs` counted.
    pub fn finish(
        &self,
        probed: &Engine<Char>,
        collaborators: &[&Engine<Char>],
        edits: u64,
        obs: &ObsHandle,
        layer: &mut BTreeMap<&'static str, f64>,
    ) {
        let (log, admin_log, cells, visible, auths, hit_ratio) = probed
            .with(DOC, |s| {
                let buf = s.engine().buffer();
                let (hits, misses) = s.policy().memo_stats();
                (
                    s.engine().log().len(),
                    s.admin_log().len(),
                    buf.len(),
                    buf.visible_len(),
                    s.policy().auths().len(),
                    hits as f64 / (hits + misses).max(1) as f64,
                )
            })
            .expect("document hosted");
        let (mut includes, mut transposes, mut undone) = (0u64, 0u64, 0usize);
        for engine in collaborators {
            let (m, u) = engine
                .with(DOC, |s| (s.engine().metrics(), s.undone().len()))
                .expect("document hosted");
            includes += m.includes;
            transposes += m.partition_transposes + m.canonize_transposes;
            undone += u;
        }
        let edits = edits.max(1) as f64;
        let compactions = obs.snapshot().counters.get("engine.auto_compactions").copied();
        layer.insert("core.log_len.max", self.log_len_max.max(log) as f64);
        layer.insert("core.log_len.end", log as f64);
        layer.insert("core.admin_log_len.end", admin_log as f64);
        layer.insert("core.queued.max", self.queued_max as f64);
        layer.insert("core.compactions", compactions.unwrap_or(0) as f64);
        layer.insert("ot.includes_per_edit", includes as f64 / edits);
        layer.insert("ot.transposes_per_edit", transposes as f64 / edits);
        layer.insert("ot.buffer_cells.end", cells as f64);
        layer.insert("ot.visible_ratio.end", visible as f64 / cells.max(1) as f64);
        layer.insert("policy.auths.end", auths as f64);
        layer.insert("policy.memo_hit_ratio", hit_ratio);
        layer.insert("policy.undone", undone as f64);
    }
}
