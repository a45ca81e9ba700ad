//! `shard_threads = 1` means the calling thread does everything: a
//! deployment saved with it writes its parts and loads them again without
//! the process-wide pool ever being started. This file holds a single test
//! on purpose — the pool is started once per process, by whichever test
//! first runs two jobs on more than one thread.

#![cfg(target_os = "linux")]

use quasii::QuasiiConfig;
use quasii_common::dataset::uniform_boxes_in;
use quasii_common::geom::Aabb;
use quasii_common::workload;
use quasii_shard::{ShardConfig, ShardedQuasii};

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
fn one_shard_thread_writes_and_loads_without_the_pool() {
    let data = uniform_boxes_in::<3>(3_000, 600.0, 51);
    let universe = Aabb::new([0.0; 3], [600.0; 3]);
    let queries = workload::uniform(&universe, 32, 1e-3, 52).queries;
    let cfg = ShardConfig::default()
        .with_shards(3)
        .with_shard_threads(1)
        .with_inner(QuasiiConfig::with_tau(16));
    let mut writer = ShardedQuasii::new(data, cfg);
    let expected = writer.execute_batch(&queries);

    let (manifest, parts) = writer.write_snapshot_parts().expect("write parts");
    let mut loaded = ShardedQuasii::<3>::from_snapshot_parts(&manifest, parts).expect("load parts");
    assert_eq!(loaded.config().shard_threads, 1, "the knob is restored");

    let pool_threads: Vec<String> = thread_names()
        .into_iter()
        .filter(|name| name.starts_with("quasii-pool"))
        .collect();
    assert!(
        pool_threads.is_empty(),
        "the pool was started: {pool_threads:?}"
    );
    assert_eq!(loaded.execute_batch(&queries), expected);
}
