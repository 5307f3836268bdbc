//! Tiny-scale smoke tests: every workload runs end to end in both
//! binaries, prints every metric `BENCHMARK.json` declares, and fails
//! loudly when an answer is wrong.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::NAMES;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
    layers: BTreeMap<String, Metric>,
}

#[derive(Debug, Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

fn spec() -> Spec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Run one workload at tiny scale; the exit status and the report.
fn run(exe: &str, workload: &str, extra: &[&str]) -> (bool, Report) {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--scale", "tiny", "--scratch", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a report line");
    let report = serde_json::from_str(last).expect("the report parses");
    (out.status.success(), report)
}

fn assert_declared(got: &BTreeMap<String, Metric>, declared: &[(&str, &str)], what: &str) {
    let names: Vec<&str> = got.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = declared.iter().map(|m| m.0).collect();
    want.sort_unstable();
    assert_eq!(names, want, "{what}: metric names");
    for (name, unit) in declared {
        assert_eq!(got[*name].unit, *unit, "{what}: unit of {name}");
    }
}

#[test]
fn benchmark_json_declares_the_emitted_catalogues() {
    let spec = spec();
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, NAMES);
    let pairs = |v: &[Declared]| -> Vec<(String, String)> {
        v.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
    };
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&spec.end_to_end), owned(END_TO_END));
    assert_eq!(pairs(&spec.per_layer), owned(PER_LAYER));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in NAMES {
        let (ok, r) = run(env!("CARGO_BIN_EXE_perfbench"), workload, &[]);
        assert!(ok && r.correct, "{workload}: {r:?}");
        assert!(r.attempted >= 1 && r.failed == 0, "{workload}: {r:?}");
        assert_declared(&r.metrics, END_TO_END, workload);
        for (name, m) in &r.metrics {
            assert!(m.value > 0.0, "{workload}: {name} is {}", m.value);
        }
    }
}

#[test]
fn every_workload_emits_every_layer_metric_when_traced() {
    for workload in NAMES {
        let (ok, r) = run(env!("CARGO_BIN_EXE_perfbench-traced"), workload, &[]);
        assert!(ok && r.correct, "{workload}: {r:?}");
        assert_declared(&r.layers, PER_LAYER, workload);
        let coverage = r.layers["coverage"].value;
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{workload}: coverage {coverage}"
        );
        assert!(r.layers["alloc.prepare.allocs"].value > 0.0, "{workload}");
    }
}

#[test]
fn a_forced_mismatch_fails_every_workload() {
    for workload in NAMES {
        let (ok, r) = run(
            env!("CARGO_BIN_EXE_perfbench"),
            workload,
            &["--inject-mismatch"],
        );
        assert!(!ok, "{workload}: the command must fail");
        assert!(!r.correct && r.failed >= 1, "{workload}: {r:?}");
        assert!(r.layers["failed_frac"].value > 0.0, "{workload}");
    }
}
