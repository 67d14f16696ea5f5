//! A smoke-sized run of every workload, untraced and traced: each must
//! pass its own output checks and report every metric of its mode.

use dce_e2ebench::{measure, run_workload, Config, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool) {
    let run = run_workload(workload, &Config::smoke(7, trace)).expect("known workload");
    assert!(run.problems.is_empty(), "{workload}: {:?}", run.problems);
    assert_eq!(run.failed, 0, "{workload}");
    assert!(run.edits > 0 && run.attempted >= run.edits, "{workload}");
    let metrics = measure(&run);
    let expected = if trace { PER_LAYER.len() } else { END_TO_END.len() };
    assert_eq!(metrics.len(), expected, "{workload}");
    if !trace {
        for (name, m) in &metrics {
            assert!(m.value > 0.0, "{workload}: {name} reads {}", m.value);
        }
    } else {
        assert!(metrics["traced.edits_s"].value > 0.0, "{workload}");
        assert!(metrics["core.generate.busy_s"].value > 0.0, "{workload}");
    }
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in WORKLOADS {
        smoke(w, false);
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in WORKLOADS {
        smoke(w, true);
    }
}

#[test]
fn traced_server_run_scrapes_the_server_registry() {
    let run = run_workload("server-durable", &Config::smoke(3, true)).expect("known workload");
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    let m = measure(&run);
    assert!(m["server.read.busy_s"].value > 0.0);
    assert!(m["store.append.p99_us"].value > 0.0);
    assert!(m["store.disk_bytes.end"].value > 0.0);
    assert!(m["net.bytes_per_edit"].value > 0.0);
}
