//! A one-round run of every workload in both modes, through the binary so
//! that the process holds no threads but the benchmark's own: the result
//! line is correct and prints every metric `BENCHMARK.json` declares for
//! the mode, in order, with its unit and a finite value (a positive one
//! for the end-to-end metrics).

use commset_interp::bundle::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["compile", "run-threads", "fig6-sim", "check"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_commset-perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
                .args(["--trace", trace])
                .current_dir(root())
                .output()
                .expect("the benchmark starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace={trace}:\n{stderr}");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let line = stdout.lines().last().expect("a result line");
            let json = Json::parse(line).expect("the result line is JSON");
            assert_eq!(
                json.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload} trace={trace}:\n{stderr}"
            );
            assert!(json.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let list = declared(if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            });
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            for ((name, m), (_, unit)) in metrics.iter().zip(&list) {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v: f64 = match m.get("value") {
                    Some(Json::Num(raw)) => raw.parse().expect("a number"),
                    other => panic!("{workload} {name}: value {other:?}"),
                };
                assert!(v.is_finite(), "{workload} {name} reads {v}");
                if trace == "0" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}
