//! The counts later changes may rest claims on repeat exactly across two
//! traced runs with the same seed, and the metric names and units match
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build runs the workloads many times slower).

use std::path::PathBuf;

use perfbench::{run, RunConfig, Workload, END_TO_END, PER_LAYER};

/// Counts that must not vary between runs of the same inputs.
const EXACT: [&str; 4] = [
    "storage.spill_bytes_per_query",
    "net.bytes_per_row",
    "core.fragments_run",
    "core.replans",
];

#[test]
fn exact_counts_repeat_across_runs_with_the_same_seed() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    std::fs::create_dir_all(&scratch).expect("create test scratch directory");
    for workload in Workload::ALL {
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: 1.0,
            scratch: scratch.clone(),
            worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        };
        let first = run(&cfg, true).expect("first traced run");
        let second = run(&cfg, true).expect("second traced run");
        assert!(
            first.correct && second.correct,
            "{}: wrong answers",
            workload.name()
        );
        for name in EXACT {
            assert_eq!(
                first.metrics.get(name),
                second.metrics.get(name),
                "{}: {name} differs between runs",
                workload.name()
            );
        }
    }
}

/// The string value of `key` in each object of one section of
/// `BENCHMARK.json`, in order.
fn declared(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|object| {
            let rest = &object[object.find(&format!("\"{key}\"")).expect("key present")..];
            let rest = &rest[rest.find(':').expect("key has a value") + 1..];
            let rest = &rest[rest.find('"').expect("string value") + 1..];
            rest[..rest.find('"').expect("value ends")].to_string()
        })
        .collect()
}

#[test]
fn metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for (section, spec) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<String> = spec.iter().map(|(n, _)| n.to_string()).collect();
        let units: Vec<String> = spec.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(declared(&json, section, "name"), names, "{section} names");
        assert_eq!(declared(&json, section, "unit"), units, "{section} units");
    }
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared(&json, "workloads", "name"), workloads);
}
