//! Smoke tests of the benchmark itself (`--smoke`: tiny graphs, a few
//! requests). Every workload must print every metric `BENCHMARK.json`
//! names, with its unit, and report a correct run; another `--seed` must
//! change the request stream but not the metric set.

use std::collections::BTreeMap;
use std::process::Command;

use saphyra_service::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    digest: String,
    metrics: BTreeMap<String, String>,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {stderr}"
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stream_digest "))
        .expect("stream digest line")
        .to_string();
    let last = stdout.lines().last().expect("result line");
    let result = Json::parse(last).expect("result line is JSON");
    let keys: Vec<&str> = match &result {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} seed {seed} trace {trace}: incorrect run: {stderr}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    Run { digest, metrics }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let workloads = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        let first = run(name, 1, 0);
        let second = run(name, 2, 0);
        assert_eq!(first.metrics, end_to_end, "{name}: end-to-end metric set");
        assert_eq!(
            second.metrics, first.metrics,
            "{name}: the seed changed the metric set"
        );
        assert_ne!(
            first.digest, second.digest,
            "{name}: the seed did not change the stream"
        );
        assert_eq!(
            run(name, 1, 0).digest,
            first.digest,
            "{name}: the stream is not seeded"
        );
        assert_eq!(
            run(name, 1, 1).metrics,
            per_layer,
            "{name}: per-layer metric set"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
