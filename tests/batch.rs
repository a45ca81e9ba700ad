//! Property-based coverage for batch execution: for arbitrary datasets and
//! query batches, `execute_batch` must agree with brute force, reproduce
//! the sequential `query_collect` loop bit-for-bit however the queries are
//! split into batches, and leave the hierarchy in a valid state.

use proptest::prelude::*;
use quasii_common::index::brute_force;
use quasii_suite::prelude::*;

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

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn execute_batch_agrees_with_brute_force_and_sequential(
        data in dataset3(120),
        queries in prop::collection::vec(arb_box3(), 1..24),
    ) {
        // Sequential reference: a fresh index answering one query at a time.
        let mut seq = Quasii::new(data.clone(), QuasiiConfig::with_tau(6));
        let reference: Vec<Vec<u64>> =
            queries.iter().map(|q| seq.query_collect(q)).collect();
        seq.validate().map_err(TestCaseError::fail)?;

        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(6));
        let got = idx.execute_batch(&queries);
        // Bit-for-bit: same ids in the same order.
        prop_assert_eq!(&got, &reference);
        for (q, hits) in queries.iter().zip(&got) {
            prop_assert_eq!(sorted(hits.clone()), brute_force(&data, q));
        }
        idx.validate().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn thread_count_never_changes_state_or_results(
        data in dataset3(100),
        queries in prop::collection::vec(arb_box3(), 2..16),
        split in 1usize..8,
    ) {
        // Run the same workload as two consecutive batches (the split point
        // is arbitrary) and one query at a time: results, final data
        // permutation, work counters and hierarchy invariants must all be
        // independent of how the queries are batched.
        let cut = split.min(queries.len() - 1);
        let (first, second) = queries.split_at(cut);
        let mut batched = Quasii::new(data.clone(), QuasiiConfig::with_tau(5));
        let mut got = batched.execute_batch(first);
        got.extend(batched.execute_batch(second));
        batched.validate().map_err(TestCaseError::fail)?;
        let mut single = Quasii::new(data.clone(), QuasiiConfig::with_tau(5));
        let expect: Vec<Vec<u64>> = queries.iter().map(|q| single.query_collect(q)).collect();
        let order = |idx: &Quasii<3>| -> Vec<u64> { idx.records().iter().map(|r| r.id).collect() };
        prop_assert_eq!(got, expect, "results depend on batching");
        prop_assert_eq!(order(&batched), order(&single), "data permutation depends on batching");
        prop_assert_eq!(batched.stats(), single.stats(), "stats depend on batching");
    }
}

#[test]
fn larger_fixed_workload_is_deterministic_across_thread_counts() {
    let data = dataset::uniform_boxes_in::<3>(5_000, 1_000.0, 97);
    let u = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::uniform(&u, 80, 1e-3, 98).queries;
    let mut seq = Quasii::new(data.clone(), QuasiiConfig::with_tau(24));
    let reference: Vec<Vec<u64>> = queries.iter().map(|q| seq.query_collect(q)).collect();
    let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(24));
    let got = idx.execute_batch(&queries);
    assert_eq!(got, reference);
    assert_eq!(idx.stats(), seq.stats());
    idx.validate().unwrap();
}
