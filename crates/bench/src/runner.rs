//! Uniform driver: build any of the paper's seven approaches and run a query
//! sequence against it, producing a [`RunSeries`] (build time + per-query
//! times) for the figure printers.

use quasii::{Quasii, QuasiiConfig};
use quasii_common::geom::{Aabb, Record};
use quasii_common::measure::{run_queries, timed, RunSeries};
use quasii_common::scan::Scan;
use quasii_grid::{Assignment, UniformGrid};
use quasii_mosaic::Mosaic;
use quasii_rtree::RTree;
use quasii_sfc::{SfCracker, SfcIndex};

/// The approaches of §6.1, with their paper configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Approach {
    /// Full scan per query.
    Scan,
    /// STR-bulkloaded R-Tree, capacity 60.
    RTree,
    /// Uniform grid, query-extension assignment, given partitions/dim.
    Grid(usize),
    /// Uniform grid with object replication, given partitions/dim.
    GridReplication(usize),
    /// Static Z-order index.
    Sfc,
    /// Incremental Z-order cracking.
    SfCracker,
    /// Incremental octree.
    Mosaic,
    /// The paper's contribution.
    Quasii,
}

impl Approach {
    /// Display name (matches each index's `SpatialIndex::name`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Approach::Scan => "Scan",
            Approach::RTree => "R-Tree",
            Approach::Grid(_) => "Grid",
            Approach::GridReplication(_) => "GridReplication",
            Approach::Sfc => "SFC",
            Approach::SfCracker => "SFCracker",
            Approach::Mosaic => "Mosaic",
            Approach::Quasii => "QUASII",
        }
    }
}

/// Builds the approach (timing the build) and executes `queries`.
///
/// The dataset is cloned per run so every approach starts from the identical
/// physical order — incremental indexes reorder their copy.
pub(crate) fn run<const D: usize>(
    approach: Approach,
    data: &[Record<D>],
    queries: &[Aabb<D>],
) -> RunSeries {
    // Clone *outside* the timed section: loading the raw data into memory is
    // common to every approach and not part of anyone's pre-processing.
    let copy = data.to_vec();
    match approach {
        Approach::Scan => {
            let (b, mut idx) = timed(|| Scan::new(copy));
            run_queries(&mut idx, b, queries)
        }
        Approach::RTree => {
            let (b, mut idx) = timed(|| RTree::bulk_load_default(copy));
            run_queries(&mut idx, b, queries)
        }
        Approach::Grid(parts) => {
            let (b, mut idx) =
                timed(|| UniformGrid::build(copy, parts, Assignment::QueryExtension));
            run_queries(&mut idx, b, queries)
        }
        Approach::GridReplication(parts) => {
            let (b, mut idx) = timed(|| UniformGrid::build(copy, parts, Assignment::Replication));
            run_queries(&mut idx, b, queries)
        }
        Approach::Sfc => {
            let (b, mut idx) = timed(|| SfcIndex::build_default(copy));
            run_queries(&mut idx, b, queries)
        }
        Approach::SfCracker => {
            let (b, mut idx) = timed(|| SfCracker::with_default_bits(copy));
            run_queries(&mut idx, b, queries)
        }
        Approach::Mosaic => {
            let (b, mut idx) = timed(|| Mosaic::with_defaults(copy));
            run_queries(&mut idx, b, queries)
        }
        Approach::Quasii => {
            let (b, mut idx) = timed(|| Quasii::new(copy, QuasiiConfig::default()));
            run_queries(&mut idx, b, queries)
        }
    }
}

/// Runs several approaches over the same workload.
pub(crate) fn run_all<const D: usize>(
    approaches: &[Approach],
    data: &[Record<D>],
    queries: &[Aabb<D>],
) -> Vec<RunSeries> {
    approaches
        .iter()
        .map(|&a| {
            eprintln!("  running {:>16} over {} queries…", a.name(), queries.len());
            run(a, data, queries)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::workload;

    #[test]
    fn every_approach_runs_and_agrees() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 1);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 10, 1e-3, 2).queries;
        let approaches = [
            Approach::Scan,
            Approach::RTree,
            Approach::Grid(10),
            Approach::GridReplication(10),
            Approach::Sfc,
            Approach::SfCracker,
            Approach::Mosaic,
            Approach::Quasii,
        ];
        let series = run_all(&approaches, &data, &queries);
        assert_eq!(series.len(), approaches.len());
        // All approaches must report identical result counts per query.
        let reference = &series[0].result_counts;
        for s in &series[1..] {
            assert_eq!(
                &s.result_counts, reference,
                "{} disagrees with Scan on result sizes",
                s.name
            );
        }
        // Static approaches have non-zero build (except Scan's trivial clone).
        for (a, s) in approaches.iter().zip(&series) {
            if matches!(
                a,
                Approach::RTree | Approach::Grid(_) | Approach::GridReplication(_) | Approach::Sfc
            ) {
                assert!(s.build_secs > 0.0, "{} should have build time", s.name);
            }
        }
    }
}
