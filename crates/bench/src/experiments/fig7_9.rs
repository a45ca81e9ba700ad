//! Figures 7, 8 and 9 — the core incremental-vs-static story (§6.3, §6.4).
//! All three figures analyze the *same* execution: the clustered
//! neuroscience workload over every approach, cached in
//! [`super::Harness::neuro_run`].
//!
//! * Fig. 7 — per-query convergence, grouped (a) one-dimensional
//!   (SFC/SFCracker), (b) space-oriented (Grid/Mosaic), (c) data-oriented
//!   (R-Tree/QUASII), each with Scan;
//! * Fig. 8 — the same groups, cumulative time including build;
//! * Fig. 9 — the incremental approaches cross-compared (a: convergence
//!   vs R-Tree/Scan; b: cumulative vs Grid).

use super::{series, Harness};
use quasii_common::measure::{
    break_even_query, convergence_table, cumulative_table, to_csv, RunSeries,
};

fn stride_for(n: usize) -> usize {
    (n / 25).max(1)
}

/// Prints one figure panel.
fn panel(title: &str, series: &[&RunSeries], cumulative: bool) {
    println!("\n--- {title} ---");
    let n = series.iter().map(|s| s.query_secs.len()).max().unwrap_or(0);
    let table = if cumulative {
        cumulative_table(series, stride_for(n))
    } else {
        convergence_table(series, stride_for(n))
    };
    println!("{table}");
}

/// Runs Fig. 7 (convergence of each category).
pub(crate) fn run_fig7(h: &mut Harness) {
    h.ensure_neuro();
    let run = h.neuro();
    println!("\n=== Fig 7: convergence to the static counterpart (per-query seconds) ===");
    panel(
        "a) one-dimensional",
        &[
            series(run, "SFC"),
            series(run, "SFCracker"),
            series(run, "Scan"),
        ],
        false,
    );
    panel(
        "b) space-oriented",
        &[
            series(run, "Grid"),
            series(run, "Mosaic"),
            series(run, "Scan"),
        ],
        false,
    );
    panel(
        "c) data-oriented",
        &[
            series(run, "R-Tree"),
            series(run, "QUASII"),
            series(run, "Scan"),
        ],
        false,
    );
    let refs: Vec<&RunSeries> = run.series.iter().collect();
    let _ = h
        .out
        .write_csv("fig7_convergence.csv", &to_csv(&refs, "per_query"));

    // Convergence check: tail of each incremental ≈ its static counterpart.
    let tail = 25;
    for (inc, st) in [
        ("SFCracker", "SFC"),
        ("Mosaic", "Grid"),
        ("QUASII", "R-Tree"),
    ] {
        let a = series(run, inc).tail_mean_secs(tail);
        let b = series(run, st).tail_mean_secs(tail);
        println!(
            "converged tail ({tail} queries): {inc} {a:.6}s vs {st} {b:.6}s (ratio {:.2})",
            a / b.max(1e-12)
        );
    }
}

/// Runs Fig. 8 (cumulative time including build).
pub(crate) fn run_fig8(h: &mut Harness) {
    h.ensure_neuro();
    let run = h.neuro();
    println!("\n=== Fig 8: cumulative time, build included (seconds) ===");
    panel(
        "a) one-dimensional",
        &[
            series(run, "SFC"),
            series(run, "SFCracker"),
            series(run, "Scan"),
        ],
        true,
    );
    panel(
        "b) space-oriented",
        &[
            series(run, "Grid"),
            series(run, "Mosaic"),
            series(run, "Scan"),
        ],
        true,
    );
    panel(
        "c) data-oriented",
        &[
            series(run, "R-Tree"),
            series(run, "QUASII"),
            series(run, "Scan"),
        ],
        true,
    );
    let refs: Vec<&RunSeries> = run.series.iter().collect();
    let _ = h
        .out
        .write_csv("fig8_cumulative.csv", &to_csv(&refs, "cumulative"));

    // Break-even points (paper: SFCracker after 23 queries, Mosaic after
    // 100, QUASII never within the workload).
    for (inc, st) in [
        ("SFCracker", "SFC"),
        ("Mosaic", "Grid"),
        ("QUASII", "R-Tree"),
    ] {
        match break_even_query(series(run, inc), series(run, st)) {
            Some(q) => println!("break-even: {inc} exceeds {st} at query {q}"),
            None => println!(
                "break-even: {inc} never exceeds {st} within {} queries",
                series(run, inc).query_secs.len()
            ),
        }
    }
}

/// Runs Fig. 9 (incremental approaches cross-compared).
pub(crate) fn run_fig9(h: &mut Harness) {
    h.ensure_neuro();
    let run = h.neuro();
    println!("\n=== Fig 9a: incremental approaches, per-query seconds ===");
    panel(
        "incremental vs R-Tree/Scan",
        &[
            series(run, "Scan"),
            series(run, "R-Tree"),
            series(run, "QUASII"),
            series(run, "Mosaic"),
            series(run, "SFCracker"),
        ],
        false,
    );
    println!("\n=== Fig 9b: incremental approaches, cumulative seconds (vs Grid) ===");
    panel(
        "cumulative",
        &[
            series(run, "QUASII"),
            series(run, "Mosaic"),
            series(run, "SFCracker"),
            series(run, "Grid"),
        ],
        true,
    );

    // Headline metrics of §6.4.
    let scan1 = series(run, "Scan").query_secs[0];
    println!("\nfirst-query cost vs Scan (paper: SFCracker 13.7x, Mosaic 9.2x, QUASII 4.6x):");
    for name in ["SFCracker", "Mosaic", "QUASII"] {
        let q1 = series(run, name).query_secs[0];
        println!(
            "  {name:<10} {:.2}x slower than Scan",
            q1 / scan1.max(1e-12)
        );
    }
    let tail = 25;
    let quasii_tail = series(run, "QUASII").tail_mean_secs(tail);
    println!("converged speedup of QUASII (paper: 3.68x vs Mosaic, 4.9x vs SFCracker):");
    for name in ["Mosaic", "SFCracker"] {
        let t = series(run, name).tail_mean_secs(tail);
        println!("  vs {name:<10} {:.2}x", t / quasii_tail.max(1e-12));
    }
    println!("data-to-insight improvement of QUASII:");
    for name in ["Grid", "R-Tree"] {
        let d2i = series(run, name).data_to_insight_secs();
        let q = series(run, "QUASII").data_to_insight_secs();
        println!(
            "  vs {name:<8} {:.2}x (paper: 5.1x vs Grid, 11.4x vs R-Tree)",
            d2i / q.max(1e-12)
        );
    }
    let _ = h.out.write_csv(
        "fig9_cumulative.csv",
        &to_csv(
            &[
                series(run, "QUASII"),
                series(run, "Mosaic"),
                series(run, "SFCracker"),
                series(run, "Grid"),
            ],
            "cumulative",
        ),
    );
}
