//! Property-based coverage for the sharded router: for arbitrary datasets
//! and query batches, `ShardedQuasii` must return each query's hits in
//! canonical (ascending id) order, byte-identical to the brute-force ground
//! truth and to the canonicalized single-instance engine, for every shard
//! count — and byte-identical *including stats and per-shard data
//! permutations* across every (shard-thread, batch size) combination at a
//! fixed shard count.

use proptest::prelude::*;
use quasii_common::index::{brute_force, canonical_results};
use quasii_suite::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..15.0f64,
        0.0..15.0f64,
        0.0..15.0f64,
    )
        .prop_map(|(x, y, z, a, b, c)| Aabb::new([x, y, z], [x + a, y + b, z + c]))
}

fn dataset3(max: usize) -> impl Strategy<Value = Vec<Record<3>>> {
    prop::collection::vec(arb_box3(), 1..max).prop_map(|boxes| {
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, b)| Record::new(i as u64, b))
            .collect()
    })
}

/// Canonical per-query reference: the sequential single-instance engine
/// with hits sorted by id (== the brute-force vector).
fn canonical_reference(data: &[Record<3>], queries: &[Aabb<3>], tau: usize) -> Vec<Vec<u64>> {
    let mut seq = Quasii::new(data.to_vec(), QuasiiConfig::with_tau(tau));
    canonical_results(&mut seq, queries)
}

fn sharded(data: &[Record<3>], shards: usize, tau: usize) -> ShardedQuasii<3> {
    ShardedQuasii::new(
        data.to_vec(),
        ShardConfig::default()
            .with_shards(shards)
            .with_inner(QuasiiConfig::with_tau(tau)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_equals_sequential_equals_brute_force(
        data in dataset3(120),
        queries in prop::collection::vec(arb_box3(), 1..20),
    ) {
        let reference = canonical_reference(&data, &queries, 6);
        for shards in SHARD_COUNTS {
            let mut idx = sharded(&data, shards, 6);
            let got = idx.execute_batch(&queries);
            prop_assert_eq!(&got, &reference, "shards = {}", shards);
            for (q, hits) in queries.iter().zip(&got) {
                // Sharded hits are canonical, so vector equality is exact.
                prop_assert_eq!(hits, &brute_force(&data, q));
            }
            idx.validate().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn two_level_parallelism_never_changes_anything(
        data in dataset3(100),
        queries in prop::collection::vec(arb_box3(), 2..14),
        split in 1usize..6,
    ) {
        // Fixed shard count; sweep shard workers x batch splits: results,
        // folded stats, router stats and the per-shard data permutations
        // must all be byte-identical.
        let cut = split.min(queries.len() - 1);
        let (first, second) = queries.split_at(cut);
        let mut runs = Vec::new();
        for shard_threads in [1usize, 2, 3] {
            let cfg = ShardConfig::default()
                .with_shards(3)
                .with_shard_threads(shard_threads)
                .with_inner(QuasiiConfig::with_tau(5));
            let mut idx = ShardedQuasii::new(data.clone(), cfg);
            let mut results = idx.execute_batch(first);
            results.extend(idx.execute_batch(second));
            idx.validate().map_err(TestCaseError::fail)?;
            let orders: Vec<Vec<u64>> = idx
                .engines()
                .iter()
                .map(|s| s.records().iter().map(|r| r.id).collect())
                .collect();
            runs.push((results, orders, idx.stats(), idx.router_stats()));
        }
        for run in &runs[1..] {
            prop_assert_eq!(&run.0, &runs[0].0, "results depend on parallelism");
            prop_assert_eq!(&run.1, &runs[0].1, "permutations depend on parallelism");
            prop_assert_eq!(&run.2, &runs[0].2, "stats depend on parallelism");
            prop_assert_eq!(&run.3, &runs[0].3, "routing depends on parallelism");
        }
    }

    #[test]
    fn batching_is_invisible(
        data in dataset3(90),
        queries in prop::collection::vec(arb_box3(), 1..16),
        batch in 1usize..9,
    ) {
        // One big batch, arbitrary chunks, and one-by-one queries must
        // produce identical results and identical final state.
        let mut whole = sharded(&data, 2, 6);
        let expect = whole.execute_batch(&queries);

        let mut chunked = sharded(&data, 2, 6);
        let mut got = Vec::new();
        for chunk in queries.chunks(batch) {
            got.extend(chunked.execute_batch(chunk));
        }
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(chunked.stats(), whole.stats());

        let mut singles = sharded(&data, 2, 6);
        let one_by_one: Vec<Vec<u64>> =
            queries.iter().map(|q| singles.query_collect(q)).collect();
        prop_assert_eq!(&one_by_one, &expect);
        prop_assert_eq!(singles.stats(), whole.stats());
    }
}

#[test]
fn fixed_workload_full_sweep_is_byte_identical() {
    // The deterministic end-to-end sweep: every (shards, shard-threads,
    // batch) cell must reproduce the canonical reference byte-for-byte.
    let data = dataset::uniform_boxes_in::<3>(4_000, 1_000.0, 113);
    let u = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::skewed(&u, 4, 60, 1e-3, 1.1, 114).queries;
    let reference = canonical_reference(&data, &queries, 24);
    for shards in SHARD_COUNTS {
        let mut per_shard_state: Option<(Vec<Vec<u64>>, quasii::QuasiiStats)> = None;
        for shard_threads in [1usize, 2, 4] {
            for batch in [1usize, 7, 60] {
                let cfg = ShardConfig::default()
                    .with_shards(shards)
                    .with_shard_threads(shard_threads)
                    .with_inner(QuasiiConfig::with_tau(24));
                let mut idx = ShardedQuasii::new(data.clone(), cfg);
                let mut got = Vec::new();
                for chunk in queries.chunks(batch) {
                    got.extend(idx.execute_batch(chunk));
                }
                assert_eq!(
                    got, reference,
                    "diverged at shards={shards} threads={shard_threads} batch={batch}"
                );
                idx.validate()
                    .unwrap_or_else(|e| panic!("shards={shards} threads={shard_threads}: {e}"));
                let orders: Vec<Vec<u64>> = idx
                    .engines()
                    .iter()
                    .map(|s| s.records().iter().map(|r| r.id).collect())
                    .collect();
                match &per_shard_state {
                    None => per_shard_state = Some((orders, idx.stats())),
                    Some((o, st)) => {
                        assert_eq!(&orders, o, "permutation diverged at shards={shards}");
                        assert_eq!(
                            idx.stats(),
                            *st,
                            "stats diverged at shards={shards} \
                             threads={shard_threads} batch={batch}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_single_shard_ownership() {
    // All-identical assignment keys: the equi-depth plan collapses every
    // record into one shard, empty shards answer nothing, and results stay
    // correct at every shard count.
    let data = dataset::degenerate::identical::<3>(500);
    let queries = [
        Aabb::new([0.0; 3], [700.0; 3]),
        Aabb::new([5.0; 3], [6.0; 3]),
        Aabb::new([900.0; 3], [901.0; 3]),
    ];
    let reference = canonical_reference(&data, &queries, 8);
    for shards in SHARD_COUNTS {
        let cfg = ShardConfig::default()
            .with_shards(shards)
            .with_inner(QuasiiConfig::with_tau(8));
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        let populated: Vec<usize> = idx
            .snapshots()
            .iter()
            .filter(|s| s.records > 0)
            .map(|s| s.records)
            .collect();
        assert_eq!(populated, vec![500], "shards = {shards}");
        assert_eq!(idx.execute_batch(&queries), reference, "shards = {shards}");
        idx.validate().unwrap();
    }
}

#[test]
fn sharded_index_works_through_the_trait() {
    // `ShardedQuasii` behind `dyn`-style generic harness code (the measure
    // runners use exactly this entry point).
    fn run<I: SpatialIndex<3>>(idx: &mut I, queries: &[Aabb<3>]) -> Vec<Vec<u64>> {
        idx.query_batch(queries)
    }
    let data = dataset::uniform_boxes_in::<3>(2_000, 500.0, 115);
    let u = Aabb::new([0.0; 3], [500.0; 3]);
    let queries = workload::uniform(&u, 24, 1e-3, 116).queries;
    let mut idx = ShardedQuasii::new(data.clone(), ShardConfig::default().with_shards(3));
    let got = run(&mut idx, &queries);
    for (q, hits) in queries.iter().zip(&got) {
        assert_eq!(hits, &brute_force(&data, q));
    }
    assert_eq!(idx.len(), 2_000);
    assert_eq!(idx.name(), "QUASII-sharded");
}
