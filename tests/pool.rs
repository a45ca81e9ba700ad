//! No thread is created per batch: every parallel phase runs its jobs on
//! the process-wide parked-worker pool (`quasii_common::pool`), which is
//! started once. This file holds a single test on purpose — the thread
//! count of the process is only stable when no sibling test runs beside it.

#![cfg(target_os = "linux")]

use quasii_common::dataset::uniform_boxes_in;
use quasii_common::workload;
use quasii_suite::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// `Threads:` of `/proc/self/status`.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads line");
    line.trim().parse().expect("Threads is a number")
}

#[test]
fn a_thousand_sharded_batches_create_no_thread() {
    let data = uniform_boxes_in::<3>(6_000, 1_000.0, 41);
    let universe = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::uniform(&universe, 16 * 1_000, 1e-3, 42).queries;
    // Default thread knobs, two shards: a fresh deployment, so the batches
    // go through the shard writer jobs first and the sealed read phase
    // once the shards have converged.
    let mut index = ShardedQuasii::new(data, ShardConfig::default().with_shards(2));
    // The first parallel batch may start the pool; that is not per batch.
    index.execute_batch(&queries[..16]);

    let stop = AtomicBool::new(false);
    let (before, after, peak) = std::thread::scope(|s| {
        // Watches the count while the batches run: a thread that lives
        // only inside a batch is gone again before and after it.
        let watcher = s.spawn(|| {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(threads_now());
            }
            peak
        });
        let before = threads_now();
        for batch in queries.chunks(16) {
            index.execute_batch(batch);
        }
        let after = threads_now();
        stop.store(true, Ordering::Relaxed);
        (before, after, watcher.join().expect("watcher panicked"))
    });
    assert_eq!(after, before, "threads before and after 1 000 batches");
    assert!(
        peak <= before,
        "{peak} threads seen during the batches, {before} before them"
    );
}
