//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this command reports, with the same units.

use dce_e2ebench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
}

/// The body of the JSON array under `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\": [")).expect("section present");
    let body = &json[start..];
    &body[..body.find(']').expect("array closes")]
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    let workloads = section(&json, "workloads");
    assert_eq!(workloads.matches("\"name\": ").count(), WORKLOADS.len());
    for w in WORKLOADS {
        assert!(workloads.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = section(&json, key);
        assert_eq!(listed.matches("\"name\": ").count(), catalogue.len(), "{key}");
        for (name, unit) in catalogue {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(listed.contains(&entry), "{key}: {name} [{unit}]");
        }
    }
    assert!(section(&json, "end_to_end")
        .contains("{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}
