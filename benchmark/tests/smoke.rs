//! Drives the real binary at `--smoke` size and checks that what it reports
//! is what `BENCHMARK.json` declares, within the limits the benchmark
//! contract sets on that file.

use clugp_benchmark::json::{self, Value};
use clugp_benchmark::spec::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_clugp-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    json::parse(&text).unwrap()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.fields().iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn benchmark_json_stays_within_the_contract() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.num("run_seconds").unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(
        doc.get("paths").unwrap().items(),
        [Value::Str("benchmark".into())]
    );

    let workloads = doc.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    let declared: Vec<&str> = workloads
        .iter()
        .map(|w| w.string("name").unwrap())
        .collect();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.string("why").unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        let built = WORKLOADS
            .iter()
            .find(|b| b.name == w.string("name").unwrap())
            .unwrap_or_else(|| panic!("the harness has no workload {w:?}"));
        assert_eq!(
            why, built.why,
            "BENCHMARK.json and spec::WORKLOADS disagree"
        );
    }

    let end_to_end = doc.get("end_to_end").unwrap().items();
    let per_layer = doc.get("per_layer").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<&str> = declared.clone();
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.num("bound").unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(m.string("unit").unwrap()), "{m:?}");
        assert!(
            matches!(m.string("better").unwrap(), "lower" | "higher"),
            "{m:?}"
        );
        names.push(m.string("name").unwrap());
    }
    assert!(names.iter().all(|n| is_name(n)), "{names:?}");
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let setup = end_to_end
        .iter()
        .find(|m| m.string("name").unwrap() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.string("unit").unwrap(), "s");
    assert_eq!(setup.string("better").unwrap(), "lower");
}

/// Every declared metric of one pass has a finite median and its declared
/// unit in the results file.
fn assert_pass_complete(workload: &str, pass: &Value, decls: &[Value]) {
    assert_eq!(
        pass.num("failed").unwrap(),
        0.0,
        "{workload}: {:?}",
        pass.get("notes")
    );
    assert!(pass.num("attempted").unwrap() >= 1.0);
    for decl in decls {
        let name = decl.string("name").unwrap();
        let metric = pass
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: no {name} in the results"));
        assert!(
            metric.num("median").unwrap().is_finite(),
            "{workload} {name}"
        );
        assert_eq!(metric.string("unit").unwrap(), decl.string("unit").unwrap());
        assert!(!metric.get("samples").unwrap().items().is_empty());
    }
}

#[test]
fn smoke_run_reports_every_declared_metric_for_every_workload() {
    let doc = benchmark_json();
    let out = repo_root().join("benchmark/out/smoke-results.json");
    let status = Command::new(EXE)
        .current_dir(repo_root())
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success(), "run --smoke exited with {status}");

    let results = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(results.num("seed").unwrap(), 7.0);
    let host = results.get("host").unwrap();
    for key in ["cpu_model", "rustc", "git_commit"] {
        assert!(!host.string(key).unwrap().is_empty());
    }
    assert!(host.num("nproc").unwrap() >= 1.0);
    let reported = results.get("workloads").unwrap().items();
    for name in WORKLOADS.iter().map(|w| w.name) {
        let entry = reported
            .iter()
            .find(|w| w.string("name").unwrap() == name)
            .unwrap_or_else(|| panic!("{name} is missing from the results"));
        assert_pass_complete(
            name,
            entry.get("end_to_end").unwrap(),
            doc.get("end_to_end").unwrap().items(),
        );
        assert_pass_complete(
            name,
            entry.get("per_layer").unwrap(),
            doc.get("per_layer").unwrap().items(),
        );
        let trace = std::fs::read_to_string(entry.string("trace").unwrap()).unwrap();
        clugp_obs::json::validate(&trace).unwrap();
        assert!(
            trace.contains("bench:partition"),
            "{name}: harness spans missing"
        );
    }
    assert_contract_invocation(&doc);
}

/// The benchmark driver's invocation, once per pass. Called from the smoke
/// test rather than a test of its own: both write `out/trace-*.json`, and
/// tests run in parallel.
fn assert_contract_invocation(doc: &Value) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .current_dir(repo_root())
            .args(["--workload", "web-dbh", "--seed", "3", "--seconds", "0"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        let result = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.num("failed").unwrap(), 0.0);
        let declared: Vec<&str> = doc
            .get(section)
            .unwrap()
            .items()
            .iter()
            .map(|m| m.string("name").unwrap())
            .collect();
        assert_eq!(keys(result.get("metrics").unwrap()), declared);
        for (name, metric) in result.get("metrics").unwrap().fields() {
            assert_eq!(keys(metric), ["value", "unit"], "{name}");
            assert!(metric.num("value").unwrap().is_finite(), "{name}");
        }
    }
}
