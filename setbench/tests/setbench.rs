//! End-to-end checks of the benchmark binary on tiny (`--smoke`) inputs.

use setbench::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["ingest", "query_mix", "subscribe", "collect"];

/// Run the binary; return its last stdout line parsed.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_setbench"))
        .args(args)
        .output()
        .expect("setbench runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

/// Metric names listed under `section` of the repository's BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid");
    spec.get(section)
        .expect("section present")
        .as_array()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .expect("metrics")
        .as_object()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn smoke_runs_emit_every_listed_metric_without_failures() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = listed(section);
        want.sort();
        for workload in WORKLOADS {
            let args = [
                "--workload",
                workload,
                "--seed",
                "3",
                "--trace",
                trace,
                "--smoke",
            ];
            let result = run(&args);
            let mut got = metric_names(&result);
            got.sort();
            assert_eq!(got, want, "{workload} trace={trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
        }
    }
}

#[test]
fn a_sabotaged_reference_fails_the_collect_checks() {
    let result = run(&[
        "--workload",
        "collect",
        "--seed",
        "3",
        "--smoke",
        "--sabotage",
    ]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
}

#[test]
fn the_same_seed_gives_the_same_accuracy() {
    let accuracy = |seed: &str| {
        let result = run(&["--workload", "query_mix", "--seed", seed, "--smoke"]);
        result
            .get("metrics")
            .and_then(|m| m.get("error_vs_union_mean"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("error metric")
    };
    assert_eq!(accuracy("5"), accuracy("5"));
    assert_ne!(accuracy("5"), accuracy("6"));
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "ingest", "--trace", "2"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_setbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
