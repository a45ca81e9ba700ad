//! Property-based coverage for batch-parallel execution: for arbitrary
//! datasets and query batches, `execute_batch` must agree with brute force,
//! reproduce the sequential `query_collect` loop bit-for-bit at every
//! thread count, and leave the hierarchy in a valid state.

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
        let mut seq = Quasii::new(data.clone(), QuasiiConfig::with_tau(6).with_threads(1));
        let reference: Vec<Vec<u64>> =
            queries.iter().map(|q| seq.query_collect(q)).collect();
        seq.validate().map_err(TestCaseError::fail)?;

        for threads in [1usize, 2, 4] {
            let mut idx =
                Quasii::new(data.clone(), QuasiiConfig::with_tau(6).with_threads(threads));
            let got = idx.execute_batch(&queries);
            // Bit-for-bit: same ids in the same order, every thread count.
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
            for (q, hits) in queries.iter().zip(&got) {
                prop_assert_eq!(sorted(hits.clone()), brute_force(&data, q));
            }
            idx.validate().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn thread_count_never_changes_state_or_results(
        data in dataset3(100),
        queries in prop::collection::vec(arb_box3(), 2..16),
        split in 1usize..8,
    ) {
        // Run the same workload as two consecutive batches (the split point
        // is arbitrary) under different thread counts: results, final data
        // permutation, work counters and hierarchy invariants must all be
        // independent of the parallelism.
        let cut = split.min(queries.len() - 1);
        let (first, second) = queries.split_at(cut);
        let mut runs = Vec::new();
        for threads in [1usize, 3] {
            let mut idx =
                Quasii::new(data.clone(), QuasiiConfig::with_tau(5).with_threads(threads));
            let mut results = idx.execute_batch(first);
            results.extend(idx.execute_batch(second));
            idx.validate().map_err(TestCaseError::fail)?;
            let order: Vec<u64> = idx.records().iter().map(|r| r.id).collect();
            runs.push((results, order, idx.stats()));
        }
        let (r1, o1, s1) = &runs[0];
        let (r3, o3, s3) = &runs[1];
        prop_assert_eq!(r1, r3, "results depend on thread count");
        prop_assert_eq!(o1, o3, "data permutation depends on thread count");
        prop_assert_eq!(s1, s3, "stats depend on thread count");
    }
}

#[test]
fn larger_fixed_workload_is_deterministic_across_thread_counts() {
    let data = dataset::uniform_boxes_in::<3>(5_000, 1_000.0, 97);
    let u = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::uniform(&u, 80, 1e-3, 98).queries;
    let mut seq = Quasii::new(data.clone(), QuasiiConfig::with_tau(24).with_threads(1));
    let reference: Vec<Vec<u64>> = queries.iter().map(|q| seq.query_collect(q)).collect();
    for threads in [1usize, 2, 4, 8] {
        let mut idx = Quasii::new(
            data.clone(),
            QuasiiConfig::with_tau(24).with_threads(threads),
        );
        let got = idx.execute_batch(&queries);
        assert_eq!(got, reference, "threads = {threads}");
        assert_eq!(idx.stats(), seq.stats(), "threads = {threads}");
        idx.validate()
            .unwrap_or_else(|e| panic!("threads = {threads}: {e}"));
    }
}

/// Where an engine snapshot records `QuasiiConfig::threads`: the fourth
/// word after the frame (`n`, tau, assign_by, threads; see
/// `quasii::snapshot`).
const THREADS_WORD: usize = quasii_common::snapshot::FRAME_LEN + 3 * 8;

/// Runs `first` then `second` on a fresh engine at `threads` and returns
/// its snapshot with the two words that name the thread count blanked: the
/// config word itself and the header checksum (bytes 16..24) that covers
/// it. Everything else an engine is (slice-tree coordinates, permutation,
/// key columns, sealed arenas, counters) stays in the buffer.
fn snapshot_after_two_batches(
    data: &[Record<3>],
    first: &[Aabb<3>],
    second: &[Aabb<3>],
    tau: usize,
    threads: usize,
) -> Vec<u8> {
    let mut idx = Quasii::new(
        data.to_vec(),
        QuasiiConfig::with_tau(tau).with_threads(threads),
    );
    idx.execute_batch(first);
    idx.execute_batch(second);
    idx.validate()
        .unwrap_or_else(|e| panic!("threads = {threads}: {e}"));
    let mut buf = idx.write_snapshot().expect("little-endian host");
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    assert_eq!(
        word(THREADS_WORD),
        threads as u64,
        "the threads word moved: update THREADS_WORD"
    );
    buf[THREADS_WORD..THREADS_WORD + 8].fill(0);
    buf[16..24].fill(0);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_bytes_never_depend_on_thread_count(
        data in dataset3(100),
        queries in prop::collection::vec(arb_box3(), 2..16),
        split in 1usize..8,
    ) {
        let cut = split.min(queries.len() - 1);
        let (first, second) = queries.split_at(cut);
        let one = snapshot_after_two_batches(&data, first, second, 5, 1);
        let three = snapshot_after_two_batches(&data, first, second, 5, 3);
        prop_assert!(one == three, "snapshot bytes depend on thread count");
    }
}

#[test]
fn cracks_confined_to_windows_past_the_first_leave_identical_snapshots() {
    // Every query lies in the last quarter of the dimension-0 key range, so
    // once the top level has cracked open the partition based at index 0
    // holds the untouched front of the array and every crack happens in a
    // window whose first element is not element 0 of the data array.
    let data = dataset::uniform_boxes_in::<3>(5_000, 1_000.0, 97);
    let tail = Aabb::new([750.0, 0.0, 0.0], [1_000.0; 3]);
    let queries = workload::uniform(&tail, 80, 1e-3, 98).queries;
    assert!(queries.iter().all(|q| q.lo[0] >= 750.0));
    let (first, second) = queries.split_at(30);
    let one = snapshot_after_two_batches(&data, first, second, 24, 1);
    let three = snapshot_after_two_batches(&data, first, second, 24, 3);
    assert!(one == three, "snapshot bytes depend on thread count");
}
