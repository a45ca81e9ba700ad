//! Figure 11 — scalability (§6.7): the same uniform workload over datasets
//! of n and 2n objects; cumulative time of QUASII vs the R-Tree with the
//! R-Tree's bar split into Building and Querying.
//!
//! Paper outcomes: QUASII ends at 75 % / 73.7 % of the R-Tree's cumulative
//! time at 500 M / 1 B objects, ~8 000 of 10 000 queries execute before the
//! R-Tree even finishes building, and data-to-insight improves 10.3× /
//! 10.6× — i.e. the trends are scale-independent.

use super::Harness;
use crate::runner::{run, Approach};
use quasii_common::dataset;
use quasii_common::geom::mbb_of;
use quasii_common::workload;

/// Runs Fig. 11.
pub(crate) fn run_exp(h: &mut Harness) {
    println!("\n=== Fig 11: scalability (n and 2n objects) ===");
    let n = h.scale.uniform_n;
    let n_queries = h.scale.uniform_queries;
    let mut csv = String::from("n,approach,build_secs,query_secs,total_secs\n");
    for (label, size) in [("n", n), ("2n", n * 2)] {
        eprintln!("[setup] uniform dataset: {size} objects");
        let data = dataset::uniform_boxes::<3>(size, 43);
        let universe = mbb_of(&data);
        let queries = workload::uniform(&universe, n_queries, 1e-3, 19).queries;
        let rtree = run(Approach::RTree, &data, &queries);
        let quasii = run(Approach::Quasii, &data, &queries);
        super::verify_agreement(&[rtree.clone(), quasii.clone()]);

        let rq: f64 = rtree.query_secs.iter().sum();
        let qq: f64 = quasii.query_secs.iter().sum();
        println!("dataset {label} ({size} objects), {n_queries} queries:");
        println!(
            "  R-Tree  build {:>8.3}s + query {:>8.3}s = {:>8.3}s",
            rtree.build_secs,
            rq,
            rtree.total_secs()
        );
        println!(
            "  QUASII  build {:>8.3}s + query {:>8.3}s = {:>8.3}s",
            0.0,
            qq,
            quasii.total_secs()
        );
        println!(
            "  QUASII/R-Tree cumulative: {:.1}% (paper: 75% at 500M, 73.7% at 1B)",
            100.0 * quasii.total_secs() / rtree.total_secs().max(1e-12)
        );
        // How many QUASII queries fit inside the R-Tree build time?
        let inside = quasii
            .cumulative()
            .iter()
            .take_while(|&&c| c < rtree.build_secs)
            .count();
        println!(
            "  queries QUASII answers before the R-Tree finishes building: {inside} (paper: ~8000/10000)"
        );
        println!(
            "  data-to-insight improvement: {:.1}x (paper: 10.3x / 10.6x)",
            rtree.data_to_insight_secs() / quasii.data_to_insight_secs().max(1e-12)
        );
        csv.push_str(&format!(
            "{size},R-Tree,{:.6},{rq:.6},{:.6}\n",
            rtree.build_secs,
            rtree.total_secs()
        ));
        csv.push_str(&format!(
            "{size},QUASII,0.0,{qq:.6},{:.6}\n",
            quasii.total_secs()
        ));
    }
    let _ = h.out.write_csv("fig11_scalability.csv", &csv);
}
