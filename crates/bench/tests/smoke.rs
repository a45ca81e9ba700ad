//! Smoke test: drive the whole `repro` experiment harness — every figure —
//! on the tiny preset, so the bench crate cannot silently rot. Runs in
//! well under a second in debug mode.

use quasii_bench::experiments::{Harness, ALL_EXPERIMENTS};
use quasii_bench::scale::Scale;
use quasii_bench::OutputDir;

#[test]
fn repro_harness_runs_every_experiment_at_tiny_scale() {
    // The paper's evaluation and nothing else: what the reproduction adds on
    // top is measured by `benchmark/`.
    assert_eq!(
        ALL_EXPERIMENTS,
        [
            "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation",
            "summary"
        ]
    );

    let dir = std::env::temp_dir().join(format!("quasii-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = OutputDir::new(&dir).expect("create temp output dir");

    let mut harness = Harness::new(Scale::TINY, out);
    for exp in ALL_EXPERIMENTS {
        harness
            .run(exp)
            .unwrap_or_else(|e| panic!("experiment {exp} failed: {e}"));
    }

    // Exactly the paper's CSVs, each with a header plus data rows.
    let mut csvs = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("read output dir") {
        let path = entry.expect("dir entry").path();
        let content = std::fs::read_to_string(&path).expect("read csv");
        assert!(
            content.lines().count() >= 2,
            "{} has no data rows",
            path.display()
        );
        csvs.push(path.file_name().unwrap().to_string_lossy().into_owned());
    }
    csvs.sort();
    assert_eq!(
        csvs,
        [
            "ablation_assignment.csv",
            "ablation_cracking_1d.csv",
            "ablation_str_vs_insertion.csv",
            "ablation_tau.csv",
            "fig10_cumulative.csv",
            "fig10_per_query.csv",
            "fig11_scalability.csv",
            "fig12_selectivity.csv",
            "fig6a_per_query.csv",
            "fig6b_config_matrix.csv",
            "fig7_convergence.csv",
            "fig8_cumulative.csv",
            "fig9_cumulative.csv",
        ]
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_is_rejected() {
    let dir = std::env::temp_dir().join(format!("quasii-smoke-err-{}", std::process::id()));
    let out = OutputDir::new(&dir).expect("create temp output dir");
    let mut harness = Harness::new(Scale::TINY, out);
    assert!(harness.run("fig99").is_err());
    std::fs::remove_dir_all(&dir).ok();
}
