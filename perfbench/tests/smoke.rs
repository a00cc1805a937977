//! Smoke mode: every workload on tiny inputs, once untraced and once
//! traced. Each run must pass its output checks and emit every metric
//! `BENCHMARK.json` names, with its unit; a traced run must also write a
//! trace file that parses.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use modemerge_core::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_modemerge-perfbench"))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry of a metric list.
fn entries(list: &Json) -> Vec<(String, String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let out = bench().arg("--describe").output().expect("runs");
    assert!(out.status.success());
    let catalogue =
        Json::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("catalogue parses");
    let spec = benchmark_json();
    for key in ["end_to_end", "per_layer"] {
        assert_eq!(
            entries(spec.get(key).expect("key present")),
            entries(catalogue.get(key).expect("key present")),
            "{key} of BENCHMARK.json differs from the benchmark's catalogue"
        );
    }
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["merge_cold", "service_fleet", "lsp_edit"]);
}

fn smoke(workload: &str, trace: bool) {
    let dir: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = bench()
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&dir)
        .output()
        .expect("runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line parses");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics");
    let key = if trace { "per_layer" } else { "end_to_end" };
    let names = entries(benchmark_json().get(key).expect("metric list"));
    let Json::Obj(emitted) = metrics else {
        panic!("metrics is an object")
    };
    assert_eq!(
        emitted.len(),
        names.len(),
        "{workload}: exactly the {key} metrics"
    );
    for (name, unit, _) in names {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing\n{stdout}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
    if trace {
        let file = dir.join(format!("trace-{workload}-5.json"));
        let text = std::fs::read_to_string(&file).expect("trace file written");
        let parsed = Json::parse(&text).expect("trace file parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    }
}

#[test]
fn merge_cold_smoke() {
    smoke("merge_cold", false);
    smoke("merge_cold", true);
}

#[test]
fn service_fleet_smoke() {
    smoke("service_fleet", false);
    smoke("service_fleet", true);
}

#[test]
fn lsp_edit_smoke() {
    smoke("lsp_edit", false);
    smoke("lsp_edit", true);
}

#[test]
fn bad_arguments_print_no_result() {
    let out = bench().args(["--workload", "nope"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
