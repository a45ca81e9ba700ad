//! `selfcheck`: every workload on the same build from two sides (A/A, side
//! B in reverse order), untraced and traced. The bounds of `BENCHMARK.json`
//! are meant for medians of several runs, so each side makes
//! [`UNTRACED_RUNS`] untraced runs per workload, the two sides taking
//! turns, and the medians are compared: each end-to-end metric must agree
//! within its bound and each exact counter must be equal; the difference
//! of every metric is printed.

use crate::json::Json;
use crate::report::Manifest;
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Per-layer counts that depend on the seed alone, not on speed: they
/// come from one round of fixed work, so two runs must print the same.
pub const EXACT: [&str; 14] = [
    "check.result_ids_total",
    "core.crack.cracks",
    "core.crack.records_cracked",
    "core.engine.objects_tested",
    "core.engine.slices_created",
    "core.keys.records_rekeyed",
    "core.seal.seals",
    "core.seal.unseals",
    "common.fsx.store_ops",
    "common.fsx.syncs",
    "common.fsx.renames",
    "common.fsx.bytes_written",
    "shard.manifest_bytes",
    "core.persist.bytes_per_record",
];

/// Untraced runs per side and workload. Three is the fewest whose median
/// survives one run that fell into a spell of interference.
pub const UNTRACED_RUNS: usize = 3;

/// The metrics of the result line a run printed last.
pub fn parse_result_line(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("the last line is not a result: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the run reports wrong answers: {line}"));
    }
    doc.get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("a metric has no value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

fn run_once(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    scale: &str,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--scale", scale])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exits with {}",
            u8::from(trace),
            out.status
        ));
    }
    parse_result_line(&String::from_utf8_lossy(&out.stdout))
}

/// Whether two readings of one metric agree: exactly, or within `bound`
/// of the first. Returns the relative difference too.
pub fn agree(a: f64, b: f64, bound: Option<f64>) -> (bool, f64) {
    let rel = if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
    };
    (rel <= bound.unwrap_or(0.0), rel)
}

/// Runs the A/A comparison and prints it. `Ok(false)` means a metric
/// disagreed; `Err` means a run could not be made.
pub fn selfcheck(
    manifest: &Manifest,
    seed: u64,
    seconds: f64,
    scale: &str,
) -> Result<bool, String> {
    let mut all_ok = true;
    for trace in [false, true] {
        // Exact counters repeat, so one traced run a side is enough.
        let runs = if trace { 1 } else { UNTRACED_RUNS };
        // Per side, workload and metric: the value of every run.
        let mut sides: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
        for rep in 0..runs {
            for (side, seen) in sides.iter_mut().enumerate() {
                let mut order: Vec<&String> = manifest.workloads.iter().collect();
                if side == 1 {
                    order.reverse();
                }
                for w in order {
                    eprintln!(
                        "selfcheck: trace {} run {} of {runs} side {} {w}",
                        u8::from(trace),
                        rep + 1,
                        ["A", "B"][side]
                    );
                    let cell = seen.entry(w).or_default();
                    for (name, v) in run_once(w, trace, seed, seconds, scale)? {
                        cell.entry(name).or_default().push(v);
                    }
                }
            }
        }
        println!(
            "\n{} metrics, A/A:",
            if trace { "per-layer" } else { "end-to-end" }
        );
        println!(
            "{:<16} {:<36} {:>14} {:>14} {:>8} {:>7}",
            "workload", "metric", "A", "B", "diff", "bound"
        );
        for w in &manifest.workloads {
            for def in manifest.printed(trace) {
                let of = |side: usize| median(&sides[side][w.as_str()][&def.name]);
                let (a, b) = (of(0), of(1));
                let exact = EXACT.contains(&def.name.as_str());
                // Per-layer timings have no bound: their spread is shown, not judged.
                let judged = !trace || exact;
                let (ok, rel) = agree(a, b, if exact { None } else { def.bound });
                let verdict = match (judged, ok) {
                    (false, _) => "",
                    (true, true) => "ok",
                    (true, false) => "DIFFERS",
                };
                all_ok &= ok || !judged;
                let bound = match (exact, def.bound) {
                    (true, _) => "exact".to_string(),
                    (false, Some(b)) => format!("{:.0} %", 100.0 * b),
                    (false, None) => String::new(),
                };
                println!(
                    "{w:<16} {:<36} {a:>14.4} {b:>14.4} {:>6.1} % {bound:>7} {verdict}",
                    def.name,
                    100.0 * rel
                );
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_wrong_answers_are_refused() {
        let out = "header\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        assert_eq!(parse_result_line(out).unwrap()["setup_s"], 0.5);
        assert!(parse_result_line(&out.replace("true", "false")).is_err());
        assert!(parse_result_line("no result here").is_err());
        assert!(parse_result_line("").is_err());
    }

    #[test]
    fn agreement_is_relative_to_the_bound_or_exact() {
        assert_eq!(agree(100.0, 108.0, Some(0.1)), (true, 0.08));
        assert!(!agree(100.0, 111.0, Some(0.1)).0);
        assert!(agree(5971.0, 5971.0, None).0);
        assert!(!agree(5971.0, 5972.0, None).0);
        assert!(agree(0.0, 0.0, None).0);
    }
}
