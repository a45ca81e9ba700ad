//! Headline summary: the handful of numbers the paper's abstract and
//! conclusions quote, derived from the shared neuro run, and the
//! **paper-shape check** over them: `repro summary` fails, naming the band,
//! when a headline leaves the shape the paper reports.

use super::{find_series, series, Harness, NeuroRun};
use crate::runner::{run_all, Approach};
use quasii::{Quasii, QuasiiConfig};
use quasii_common::index::SpatialIndex;
use quasii_common::measure::{break_even_query, RunSeries};

/// Least data-to-insight reduction against R-Tree and against Grid. Loose on
/// purpose (wall time on a shared host): `small` reads about 6× against both
/// here, the paper up to 11.4× and 5.1×.
const MIN_REDUCTION: f64 = 2.0;
/// Most QUASII may spend over the whole workload, as a share of the R-Tree's
/// build + queries (`small` reads 31–34 % here, the paper 39.4 %).
const MAX_CUMULATIVE_VS_RTREE: f64 = 0.70;
/// Most records the first query may crack, in units of the dataset: about one
/// partition pass per level of the D = 3 hierarchy (a scan, not a sort).
/// Deterministic: 1.61 at `tiny`, 2.06 at `small`, 2.41 at `medium`.
const MAX_FIRST_QUERY_CRACKED: f64 = 3.0;
/// A wall-time band is read as the best of this many passes of the neuro run.
const PASSES: usize = 3;
/// Below this many records a whole index build takes microseconds and the
/// wall-time ratios are timer noise (`tiny`, 3 000 records: 1.1–1.8× against
/// Grid), so only the counter band is read.
const MIN_TIMED_RECORDS: usize = 10_000;
/// The wall-time bands come first in [`bands_held`]'s order.
const WALL_TIME_BANDS: usize = 4;

/// The bands, in [`bands_held`] order.
fn band_names() -> [String; 5] {
    [
        format!("data-to-insight reduction vs R-Tree >= {MIN_REDUCTION}x"),
        format!("data-to-insight reduction vs Grid >= {MIN_REDUCTION}x"),
        format!(
            "QUASII cumulative / R-Tree cumulative <= {}%",
            100.0 * MAX_CUMULATIVE_VS_RTREE
        ),
        "break-even QUASII vs R-Tree: never".into(),
        format!("records cracked by the first query <= {MAX_FIRST_QUERY_CRACKED} n"),
    ]
}

/// Which of the five bands hold for one pass of the neuro run (`series` needs
/// the QUASII, R-Tree and Grid series), a dataset of `n` records and the
/// number of records QUASII's first query cracked.
pub(crate) fn bands_held(series: &[RunSeries], first_query_cracked: u64, n: usize) -> [bool; 5] {
    let quasii = find_series(series, "QUASII");
    let rtree = find_series(series, "R-Tree");
    let grid = find_series(series, "Grid");
    let insight = quasii.data_to_insight_secs();
    [
        rtree.data_to_insight_secs() >= MIN_REDUCTION * insight,
        grid.data_to_insight_secs() >= MIN_REDUCTION * insight,
        quasii.total_secs() <= MAX_CUMULATIVE_VS_RTREE * rtree.total_secs(),
        break_even_query(quasii, rtree).is_none(),
        first_query_cracked as f64 <= MAX_FIRST_QUERY_CRACKED * n as f64,
    ]
}

/// Records QUASII cracks for the first query and for the whole neuro
/// workload: one more pass, reading the engine's exact (cumulative) work
/// counter.
fn records_cracked(run: &NeuroRun) -> (u64, u64) {
    let mut index = Quasii::new(run.data.clone(), QuasiiConfig::default());
    let mut out = Vec::new();
    let mut first = 0;
    for (i, q) in run.queries.iter().enumerate() {
        out.clear();
        index.query(q, &mut out);
        if i == 0 {
            first = index.stats().records_cracked;
        }
    }
    (first, index.stats().records_cracked)
}

/// Prints the headline comparison table, then checks the paper's shape.
pub(crate) fn run(h: &mut Harness) -> Result<(), String> {
    h.ensure_neuro();
    let run = h.neuro();
    println!("\n=== Summary: headline numbers (clustered neuro workload) ===");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14}",
        "approach", "build (s)", "query1 (s)", "total (s)", "tail mean (s)"
    );
    for s in &run.series {
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>12.4} {:>14.6}",
            s.name,
            s.build_secs,
            s.query_secs.first().copied().unwrap_or(0.0),
            s.total_secs(),
            s.tail_mean_secs(25)
        );
    }

    let quasii = series(run, "QUASII");
    let rtree = series(run, "R-Tree");
    let grid = series(run, "Grid");
    println!("\nheadlines:");
    println!(
        "  data-to-insight reduction vs R-Tree: {:.1}x (paper: up to 11.4x)",
        rtree.data_to_insight_secs() / quasii.data_to_insight_secs().max(1e-12)
    );
    println!(
        "  data-to-insight reduction vs Grid:   {:.1}x (paper: 5.1x)",
        grid.data_to_insight_secs() / quasii.data_to_insight_secs().max(1e-12)
    );
    println!(
        "  QUASII cumulative / R-Tree cumulative: {:.1}% (paper: 39.4% after 500 queries)",
        100.0 * quasii.total_secs() / rtree.total_secs().max(1e-12)
    );
    println!(
        "  QUASII cumulative / Grid cumulative:   {:.1}% (paper: 84%)",
        100.0 * quasii.total_secs() / grid.total_secs().max(1e-12)
    );
    for (inc, st, paper) in [
        ("SFCracker", "SFC", "23"),
        ("Mosaic", "Grid", "100"),
        ("QUASII", "R-Tree", "never"),
    ] {
        let be = break_even_query(series(run, inc), series(run, st))
            .map(|q| q.to_string())
            .unwrap_or_else(|| "never".into());
        println!("  break-even {inc} vs {st}: {be} (paper: {paper})");
    }

    let (first, total) = records_cracked(run);
    let n = run.data.len();
    println!(
        "  QUASII records cracked / n: first query {:.2}, whole workload {:.2}",
        first as f64 / n as f64,
        total as f64 / n as f64
    );

    let mut held = bands_held(&run.series, first, n);
    let timed = n >= MIN_TIMED_RECORDS;
    if !timed {
        held[..WALL_TIME_BANDS].fill(true);
    }
    for _ in 1..PASSES {
        if held[..WALL_TIME_BANDS].iter().all(|&ok| ok) {
            break;
        }
        let approaches = [
            Approach::Grid(run.grid_parts),
            Approach::RTree,
            Approach::Quasii,
        ];
        let again = bands_held(&run_all(&approaches, &run.data, &run.queries), first, n);
        for (h, a) in held.iter_mut().zip(again) {
            *h |= a;
        }
    }
    let left: Vec<String> = (band_names().into_iter().zip(held))
        .filter(|(_, ok)| !ok)
        .map(|(band, _)| band)
        .collect();
    if !left.is_empty() {
        return Err(format!(
            "paper-shape check: left in each of {PASSES} passes: {}",
            left.join("; ")
        ));
    }
    if timed {
        println!("paper-shape check: all {} bands hold", held.len());
    } else {
        println!(
            "paper-shape check: the counter band holds; wall-time bands are read from \
             {MIN_TIMED_RECORDS} records up"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabricated(name: &str, build_secs: f64, query_secs: &[f64]) -> RunSeries {
        RunSeries {
            name: name.into(),
            build_secs,
            query_secs: query_secs.to_vec(),
            result_counts: vec![0; query_secs.len()],
        }
    }

    #[test]
    fn each_band_is_broken_by_the_series_that_leaves_it() {
        let quasii = fabricated("QUASII", 0.0, &[1.0, 0.1, 0.1, 0.1]);
        let rtree = fabricated("R-Tree", 10.0, &[0.1; 4]);
        let grid = fabricated("Grid", 8.0, &[0.2; 4]);
        let held = |q: &RunSeries, r: &RunSeries, g: &RunSeries, cracked: u64| {
            bands_held(&[q.clone(), r.clone(), g.clone()], cracked, 1_000)
        };
        assert_eq!(held(&quasii, &rtree, &grid, 3_000), [true; 5]);

        // A cheap R-Tree build: the first answer is no longer 2x sooner.
        let cheap_rtree = fabricated("R-Tree", 1.5, &[0.2; 4]);
        assert_eq!(
            held(&quasii, &cheap_rtree, &grid, 3_000),
            [false, true, true, true, true]
        );
        let cheap_grid = fabricated("Grid", 0.5, &[0.2; 4]);
        assert_eq!(
            held(&quasii, &rtree, &cheap_grid, 3_000),
            [true, false, true, true, true]
        );
        // Queries that never get cheap: 8.5 s of the R-Tree's 10.4 s.
        let flat = fabricated("QUASII", 0.0, &[1.0, 2.5, 2.5, 2.5]);
        assert_eq!(
            held(&flat, &rtree, &grid, 3_000),
            [true, true, false, true, true]
        );
        // Overtaken at the second query, ahead again by the end.
        let spike = fabricated("QUASII", 0.0, &[1.0, 10.0, 0.1, 0.1]);
        let slow_rtree = fabricated("R-Tree", 10.0, &[0.1, 0.1, 20.0, 20.0]);
        assert_eq!(
            held(&spike, &slow_rtree, &grid, 3_000),
            [true, true, true, false, true]
        );
        // A first query that cracks more than one pass per level.
        assert_eq!(
            held(&quasii, &rtree, &grid, 3_001),
            [true, true, true, true, false]
        );
    }
}
