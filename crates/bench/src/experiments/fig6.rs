//! Figure 6 — the costs of space-oriented partitioning (§6.2).
//!
//! * **6a** (data assignment): R-Tree vs GridQueryExt vs GridReplication on
//!   the neuro-like dataset, 500 clustered queries of qvol 0.01 %. The paper
//!   measures R-Tree 19.4× faster than replication and 3.7× faster than
//!   query extension, with GridQueryExt testing 3.1× more objects.
//! * **6b** (configuration): the best partitions/dim differs per dataset
//!   (100 uniform vs 220 neuro in the paper) and using the wrong one is
//!   costly — reproduced as a 2×2 cross-evaluation after a sweep.

use super::Harness;
use crate::runner::{run, Approach};
use quasii_common::geom::mbb_of;
use quasii_common::measure::to_csv;
use quasii_common::workload;
use quasii_grid::{sweep_partitions, Assignment, UniformGrid};
use quasii_rtree::RTree;

/// Runs Fig. 6a.
pub(crate) fn run_a(h: &mut Harness) {
    println!("\n=== Fig 6a: impact of the data-assignment strategy ===");
    let data = h.neuro_data();
    let universe = mbb_of(&data);
    let queries =
        workload::clustered(&universe, h.scale.clusters, h.scale.per_cluster, 1e-4, 7).queries;
    let parts = super::grid_parts_for(data.len(), true);

    let rtree = run(Approach::RTree, &data, &queries);
    let grid_ext = run(Approach::Grid(parts), &data, &queries);
    let grid_rep = run(Approach::GridReplication(parts), &data, &queries);
    super::verify_agreement(&[rtree.clone(), grid_ext.clone(), grid_rep.clone()]);

    let qt = |s: &quasii_common::measure::RunSeries| s.query_secs.iter().sum::<f64>();
    println!(
        "{:<20} {:>14} {:>14}",
        "approach", "query time (s)", "vs R-Tree"
    );
    let base = qt(&rtree);
    for s in [&rtree, &grid_ext, &grid_rep] {
        println!("{:<20} {:>14.4} {:>13.2}x", s.name, qt(s), qt(s) / base);
    }

    // Objects-considered analysis (paper: GridQueryExt tests 3.1× more
    // objects than the R-Tree).
    let tree = RTree::bulk_load_default(data.clone());
    let mut grid = UniformGrid::build(data.clone(), parts, Assignment::QueryExtension);
    let mut out = Vec::new();
    let (mut tested_tree, mut tested_grid) = (0usize, 0usize);
    for q in &queries {
        out.clear();
        tested_tree += tree.query_counting(q, &mut out);
        out.clear();
        tested_grid += grid.query_counting(q, &mut out);
    }
    println!(
        "objects tested  R-Tree: {tested_tree}  GridQueryExt: {tested_grid}  ratio: {:.2}x",
        tested_grid as f64 / tested_tree.max(1) as f64
    );
    let _ = h.out.write_csv(
        "fig6a_per_query.csv",
        &to_csv(&[&rtree, &grid_ext, &grid_rep], "per_query"),
    );
}

/// Runs Fig. 6b.
pub(crate) fn run_b(h: &mut Harness) {
    println!("\n=== Fig 6b: grid configuration sensitivity ===");
    let n = h.scale.neuro_n;
    let neuro = h.neuro_data();
    let uniform =
        quasii_common::dataset::uniform_boxes_in::<3>(n, mbb_of(&neuro).extent(0).max(1_000.0), 44);

    let candidates: Vec<usize> = {
        let base = super::grid_parts_for(n, false);
        vec![base / 2, base, base * 3 / 2, base * 2, base * 3]
            .into_iter()
            .map(|p| p.clamp(4, 256))
            .collect()
    };

    let mut best = Vec::new();
    for (name, data) in [("Uniform", &uniform), ("Neuro", &neuro)] {
        let u = mbb_of(data);
        let queries =
            workload::clustered(&u, h.scale.clusters, h.scale.per_cluster, 1e-4, 7).queries;
        let sweep = sweep_partitions(data, &queries, &candidates, Assignment::QueryExtension);
        let (best_parts, best_t) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty sweep");
        println!("{name}: sweep {sweep:?} -> best {best_parts} parts/dim ({best_t:.3}s)");
        best.push(best_parts);
    }

    // Cross-evaluation: each dataset under each dataset's best config.
    println!(
        "{:<10} {:>18} {:>18}",
        "dataset",
        format!("cfg {}", best[0]),
        format!("cfg {}", best[1])
    );
    let mut csv = String::from("dataset,config,partitions,seconds\n");
    for (name, data) in [("Uniform", &uniform), ("Neuro", &neuro)] {
        let u = mbb_of(data);
        let queries =
            workload::clustered(&u, h.scale.clusters, h.scale.per_cluster, 1e-4, 7).queries;
        let times: Vec<f64> = best
            .iter()
            .map(|&parts| {
                let series = run(Approach::Grid(parts), data, &queries);
                series.query_secs.iter().sum::<f64>()
            })
            .collect();
        println!("{:<10} {:>17.3}s {:>17.3}s", name, times[0], times[1]);
        for (cfg, (parts, t)) in best.iter().zip(times.iter()).enumerate() {
            csv.push_str(&format!("{name},{cfg},{parts},{t:.6}\n"));
        }
    }
    let _ = h.out.write_csv("fig6b_config_matrix.csv", &csv);
    println!(
        "(paper: best config is distribution-dependent — 100/dim uniform vs 220/dim neuro — \
         and the off-diagonal entries deteriorate)"
    );
}
