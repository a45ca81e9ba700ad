//! An engine batch runs on its calling thread: cracking a fresh engine,
//! finalizing it, and reading a batch of converged queries all answer
//! without the process-wide pool ever being started. Parallelism belongs
//! to a `quasii-shard` deployment, which runs one job per shard. This file
//! holds a single test on purpose — the pool is started once per process,
//! by whichever test first runs two jobs on more than one thread.

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
fn an_engine_never_starts_the_pool() {
    let data = uniform_boxes_in::<3>(4_000, 800.0, 61);
    let universe = Aabb::new([0.0; 3], [800.0; 3]);
    // A first query across the middle of dimension 0 splits the root list
    // into runs of similar size; the rest are spread over the space.
    let mut cracks = vec![Aabb::new([380.0, 0.0, 0.0], [420.0, 800.0, 800.0])];
    cracks.extend(workload::uniform(&universe, 40, 1e-3, 62).queries);
    let mut index = Quasii::new(data.clone(), QuasiiConfig::default());
    let got = index.execute_batch(&cracks);
    assert!(index.stats().cracks > 0, "the batch cracked");

    // Converged and sealed: every query of the next batch is a read.
    index.finalize();
    let reads = workload::uniform(&universe, 32, 1e-3, 63).queries;
    assert!(reads.iter().all(|q| index.can_read(q)), "every query reads");
    let before = index.seal_stats().sealed_queries;
    let read = index.execute_batch(&reads);
    let sealed = index.seal_stats().sealed_queries - before;
    assert_eq!(sealed, reads.len() as u64, "the batch read every query");

    for (q, hits) in cracks.iter().zip(&got).chain(reads.iter().zip(&read)) {
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
