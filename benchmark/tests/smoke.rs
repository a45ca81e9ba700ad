//! `--scale smoke`: all five workloads on 20 k records in a few seconds,
//! untraced and traced, checked against the catalogue in `BENCHMARK.json`.
//!
//! One test function on purpose: the workloads share the process-wide
//! `quasii_obs` switch, so they must not run on parallel test threads.

use quasii_benchmark::json::Json;
use quasii_benchmark::report::{Manifest, Report};
use quasii_benchmark::selfcheck::EXACT;
use quasii_benchmark::{run_workload, RunArgs, Scale};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Span files of the traced runs go under the build directory.
fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traces")
}

fn run(workload: &str, seed: u64, trace: bool) -> Report {
    let report = run_workload(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.1,
        trace,
        scale: Scale::SMOKE,
        trace_dir: trace_dir(),
    })
    .unwrap_or_else(|e| panic!("{workload} could not run: {e}"));
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

#[test]
fn every_workload_prints_the_catalogue_and_repeats_its_counters() {
    let manifest = Manifest::load(&Manifest::locate()).unwrap();
    let names: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "cold_crack",
            "converged_read",
            "shift_mixed",
            "serve_http",
            "restart"
        ]
    );
    assert!(manifest
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(manifest
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));

    let mut measured = BTreeSet::new();
    let mut traced = BTreeMap::new();
    for workload in names {
        for trace in [false, true] {
            let report = run(workload, 1, trace);
            let printed = report.printed(&manifest, trace).unwrap();
            let line = Json::parse(&report.result_line(&printed)).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            // Every metric of the mode exactly once, in catalogue order, with its unit.
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            let want: Vec<&str> = manifest
                .printed(trace)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want, "{workload} trace {trace}");
            for ((name, m), def) in metrics.iter().zip(manifest.printed(trace)) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit.as_str()),
                    "{name}"
                );
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{workload} {name}");
                // End-to-end metrics are never 0: the driver divides by them.
                assert!(trace || v > 0.0, "{workload} {name} is {v}");
            }
            if trace {
                measured.extend(report.names().map(str::to_string));
                let spans =
                    std::fs::read_to_string(trace_dir().join(format!("{workload}.trace.jsonl")))
                        .unwrap();
                assert!(spans.lines().count() > 3, "{workload} wrote no spans");
                assert!(spans.lines().all(|l| Json::parse(l).is_ok()));
                assert!(
                    !report.recon.is_empty(),
                    "{workload} has no reconciliation table"
                );
                assert!(report.recon_table().contains("unexplained residue"));
                assert!(
                    report.get("obs.trace_overhead_frac").is_some(),
                    "{workload}"
                );

                // Exact counters: equal for equal seeds, different for another seed.
                let again = run(workload, 1, true);
                let other = run(workload, 2, true);
                for name in EXACT {
                    assert_eq!(
                        report.get(name),
                        again.get(name),
                        "{workload} {name} does not repeat"
                    );
                }
                assert_ne!(
                    report.get("check.result_ids_total"),
                    other.get("check.result_ids_total"),
                    "{workload}: another seed must give other inputs"
                );
                traced.insert(workload, report);
            }
        }
    }
    // No dead entries: every per-layer metric is measured by some workload.
    for def in &manifest.per_layer {
        assert!(
            measured.contains(&def.name),
            "no workload measures {}",
            def.name
        );
    }

    // The predictions the issue fixed, as measured at this scale.
    let converged = &traced["converged_read"];
    assert_eq!(converged.get("core.crack.cracks"), Some(0.0));
    assert!(converged.get("core.batch.fanout_us").is_some());
    let served = &traced["serve_http"];
    assert_eq!(served.get("core.crack.cracks"), Some(0.0));
    assert!(served.get("proc.sys_share").is_some());
    assert!(served.get("loadgen.late_ms_max").is_some());
    assert!(traced["shift_mixed"]
        .get("core.seal.seals_per_sealed_query")
        .is_some());
    assert!(traced["cold_crack"]
        .get("core.crack.cracks")
        .is_some_and(|c| c > 0.0));
}
