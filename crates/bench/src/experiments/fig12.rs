//! Figure 12 — impact of query selectivity (§6.8): uniform workloads of
//! 0.001 %, 1 % and 10 % selectivity over the uniform dataset; cumulative
//! time of QUASII vs the R-Tree.
//!
//! Paper outcome: the lower the selectivity of the workload's queries, the
//! longer the R-Tree needs to amortize its build — QUASII ends at 68.8 %,
//! 79.8 % and 85.6 % of the R-Tree's cumulative time for 0.001 %, 1 % and
//! 10 % queries respectively (large queries reorganize more per query,
//! reaching break-even sooner).

use super::Harness;
use crate::runner::{run, Approach};
use quasii_common::geom::mbb_of;
use quasii_common::workload;

/// Runs Fig. 12.
pub(crate) fn run_exp(h: &mut Harness) {
    println!("\n=== Fig 12: impact of query selectivity ===");
    let data = h.uniform_data();
    let universe = mbb_of(&data);
    // Paper: 5 000 queries; scaled to half the uniform budget per
    // selectivity to keep the 10 % runs tractable.
    let n_queries = (h.scale.uniform_queries / 2).max(100);
    let selectivities: [(f64, &str); 3] = [(1e-5, "0.001%"), (1e-2, "1%"), (1e-1, "10%")];
    let mut csv = String::from("selectivity,approach,build_secs,query_secs,total_secs,ratio\n");
    for (frac, label) in selectivities {
        eprintln!("[fig12] selectivity {label}: {n_queries} queries");
        let queries = workload::uniform(&universe, n_queries, frac, 23).queries;
        let rtree = run(Approach::RTree, &data, &queries);
        let quasii = run(Approach::Quasii, &data, &queries);
        super::verify_agreement(&[rtree.clone(), quasii.clone()]);
        let ratio = quasii.total_secs() / rtree.total_secs().max(1e-12);
        println!(
            "selectivity {label:>7}: QUASII {:>9.3}s vs R-Tree {:>9.3}s (build {:>7.3}s) -> {:.1}%",
            quasii.total_secs(),
            rtree.total_secs(),
            rtree.build_secs,
            100.0 * ratio
        );
        for s in [&rtree, &quasii] {
            csv.push_str(&format!(
                "{label},{},{:.6},{:.6},{:.6},{ratio:.4}\n",
                s.name,
                s.build_secs,
                s.query_secs.iter().sum::<f64>(),
                s.total_secs()
            ));
        }
    }
    println!("(paper: 68.8% / 79.8% / 85.6% — the ratio grows with selectivity)");
    let _ = h.out.write_csv("fig12_selectivity.csv", &csv);
}
