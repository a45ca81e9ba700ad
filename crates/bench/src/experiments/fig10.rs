//! Figure 10 — uniform workload (§6.6): 10 000 uniformly distributed
//! queries of 0.1 % selectivity over the uniform dataset; convergence and
//! cumulative views of the first 500 and last 100 queries.
//!
//! Paper outcomes: queries on refined regions run within ~7.5 % of the
//! R-Tree; after the full workload QUASII sits at 75 % of the R-Tree's and
//! 63.8 % of the Grid's cumulative time, with 10.3× / 5.6× better
//! data-to-insight time.

use super::Harness;
use crate::runner::{run_all, Approach};
use quasii_common::geom::mbb_of;
use quasii_common::measure::{
    break_even_query, convergence_table, cumulative_table, to_csv, RunSeries,
};
use quasii_common::workload;

fn window(s: &RunSeries, range: std::ops::Range<usize>) -> RunSeries {
    let range = range.start.min(s.query_secs.len())..range.end.min(s.query_secs.len());
    RunSeries {
        name: s.name.clone(),
        build_secs: s.build_secs,
        query_secs: s.query_secs[range.clone()].to_vec(),
        result_counts: s.result_counts[range].to_vec(),
    }
}

/// Runs Fig. 10.
pub(crate) fn run(h: &mut Harness) {
    println!("\n=== Fig 10: uniform workload (0.1% selectivity) ===");
    let data = h.uniform_data();
    let universe = mbb_of(&data);
    let n_queries = h.scale.uniform_queries;
    let queries = workload::uniform(&universe, n_queries, 1e-3, 17).queries;
    let grid_parts = super::grid_parts_for(data.len(), false);
    let series = run_all(
        &[
            Approach::Scan,
            Approach::RTree,
            Approach::Grid(grid_parts),
            Approach::Quasii,
        ],
        &data,
        &queries,
    );
    super::verify_agreement(&series);
    let get = |name: &str| series.iter().find(|s| s.name == name).expect("present");
    let (scan, rtree, grid, quasii) = (get("Scan"), get("R-Tree"), get("Grid"), get("QUASII"));

    let first = 0..500.min(n_queries);
    let last = n_queries.saturating_sub(100)..n_queries;
    let w_first: Vec<RunSeries> = [rtree, quasii, scan]
        .iter()
        .map(|s| window(s, first.clone()))
        .collect();
    let w_last: Vec<RunSeries> = [rtree, quasii, scan]
        .iter()
        .map(|s| window(s, last.clone()))
        .collect();

    println!(
        "\n--- a) first {} queries, per-query seconds ---",
        first.end
    );
    println!(
        "{}",
        convergence_table(&w_first.iter().collect::<Vec<_>>(), 20)
    );
    println!("--- b) last {} queries, per-query seconds ---", last.len());
    println!(
        "{}",
        convergence_table(&w_last.iter().collect::<Vec<_>>(), 4)
    );
    println!("--- c/d) cumulative seconds (full workload, subsampled) ---");
    println!(
        "{}",
        cumulative_table(&[rtree, quasii, grid, scan], (n_queries / 25).max(1))
    );

    // Headline ratios.
    let tail = 100.min(n_queries);
    println!(
        "converged tail mean: QUASII {:.6}s vs R-Tree {:.6}s ({:+.1}% — paper: +7.5%)",
        quasii.tail_mean_secs(tail),
        rtree.tail_mean_secs(tail),
        100.0 * (quasii.tail_mean_secs(tail) / rtree.tail_mean_secs(tail).max(1e-12) - 1.0)
    );
    println!(
        "cumulative after {} queries: QUASII/R-Tree {:.1}% (paper 75%), QUASII/Grid {:.1}% (paper 63.8%)",
        n_queries,
        100.0 * quasii.total_secs() / rtree.total_secs().max(1e-12),
        100.0 * quasii.total_secs() / grid.total_secs().max(1e-12),
    );
    println!(
        "data-to-insight: QUASII {:.4}s, R-Tree {:.4}s ({:.1}x, paper 10.3x), Grid {:.4}s ({:.1}x, paper 5.6x)",
        quasii.data_to_insight_secs(),
        rtree.data_to_insight_secs(),
        rtree.data_to_insight_secs() / quasii.data_to_insight_secs().max(1e-12),
        grid.data_to_insight_secs(),
        grid.data_to_insight_secs() / quasii.data_to_insight_secs().max(1e-12),
    );
    match break_even_query(quasii, rtree) {
        Some(q) => println!("break-even vs R-Tree at query {q}"),
        None => println!("QUASII never exceeds the R-Tree cumulative within the workload"),
    }

    let refs: Vec<&RunSeries> = series.iter().collect();
    let _ = h
        .out
        .write_csv("fig10_per_query.csv", &to_csv(&refs, "per_query"));
    let _ = h
        .out
        .write_csv("fig10_cumulative.csv", &to_csv(&refs, "cumulative"));
}
