//! Cracks run one query at a time on the calling thread: a batch of crack
//! queries on a fresh engine answers without the process-wide pool ever
//! being started, whatever `threads` says (the knob caps only the read
//! phase over sealed queries, and a fresh engine has none). This file holds
//! a single test on purpose — the pool is started once per process, by
//! whichever test first runs two jobs on more than one thread.

#![cfg(target_os = "linux")]

use quasii::{Quasii, QuasiiConfig};
use quasii_common::dataset::uniform_boxes_in;
use quasii_common::geom::Aabb;
use quasii_common::index::assert_matches_brute_force;
use quasii_common::workload;

/// Names of this process's threads (`/proc/self/task/*/comm`).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .map(|task| {
            let comm = task.expect("task entry").path().join("comm");
            std::fs::read_to_string(comm).unwrap_or_default()
        })
        .collect()
}

#[test]
fn a_crack_batch_runs_inline_at_four_threads() {
    let data = uniform_boxes_in::<3>(4_000, 800.0, 61);
    let universe = Aabb::new([0.0; 3], [800.0; 3]);
    // A first query across the middle of dimension 0 splits the root list
    // into runs of similar size, which an engine cracking partitions in
    // parallel would hand to the pool; the rest are spread over the space.
    let mut queries = vec![Aabb::new([380.0, 0.0, 0.0], [420.0, 800.0, 800.0])];
    queries.extend(workload::uniform(&universe, 40, 1e-3, 62).queries);
    let mut index = Quasii::new(data.clone(), QuasiiConfig::with_tau(16).with_threads(4));
    let got = index.execute_batch(&queries);
    assert!(index.stats().cracks > 0, "the batch cracked");

    for (q, hits) in queries.iter().zip(&got) {
        assert_matches_brute_force(&data, q, hits);
    }
    let pool_threads: Vec<String> = thread_names()
        .into_iter()
        .filter(|name| name.starts_with("quasii-pool"))
        .collect();
    assert!(
        pool_threads.is_empty(),
        "the pool was started: {pool_threads:?}"
    );
}
