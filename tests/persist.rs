//! Property-based coverage for **single-buffer snapshots** (the `persist`
//! module): for arbitrary datasets, query histories, thread counts and
//! batch shapes, a reloaded engine must be byte-identical to its writer —
//! same ids in the same order, same record permutation, same deterministic
//! work counters, same sealed regions — and `from_snapshot` must be total:
//! any corruption (bit flips, truncation, wrong version/dimensionality,
//! swapped shard buffers) yields `Err`, never a panic and never a silently
//! wrong engine. A writer's records, and so its reload's, are the
//! permutation the reference QUASII of `tests/reference` leaves. Deep CI
//! runs widen the case budget via `PROPTEST_CASES`.

mod reference;

use proptest::prelude::*;
use quasii::snapshot::SnapshotError;
use quasii::{Quasii, QuasiiConfig};
use quasii_shard::{ShardConfig, ShardedQuasii};
use quasii_suite::prelude::*;
use reference::Reference;

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..12.0f64,
        0.0..12.0f64,
        0.0..12.0f64,
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

/// Query mix spanning tiny (leaves regions unconverged) through huge
/// (converges whole subtrees, so seals actually form before the snapshot).
fn queries3(max: usize) -> impl Strategy<Value = Vec<Aabb<3>>> {
    let q = (0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64, 0.5..80.0f64)
        .prop_map(|(x, y, z, side)| Aabb::new([x, y, z], [x + side, y + side, z + side]));
    prop::collection::vec(q, 1..max)
}

fn ids(data: &[Record<3>]) -> Vec<u64> {
    data.iter().map(|r| r.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The warm-start contract: after an arbitrary cracked history, the
    /// reloaded engine answers the remaining queries byte-identically to
    /// the writer and keeps its work counters in lockstep.
    #[test]
    fn snapshot_roundtrip_is_byte_identical(
        data in dataset3(700),
        queries in queries3(24),
        tau in 2usize..24,
        threads in 1usize..4,
        batch in 1usize..9,
        finalize in (0u8..2).prop_map(|v| v == 1),
    ) {
        let cfg = QuasiiConfig::with_tau(tau).with_threads(threads);
        let mut writer = Quasii::new(data.clone(), cfg);
        let (history, steady) = queries.split_at(queries.len() / 2);
        for chunk in history.chunks(batch) {
            let _ = writer.execute_batch(chunk);
        }
        if finalize {
            writer.finalize();
        }
        writer.seal();
        let snap = writer.write_snapshot().map_err(|e| {
            TestCaseError::fail(format!("write_snapshot: {e}"))
        })?;

        let mut reloaded = Quasii::<3>::from_snapshot(snap.clone()).map_err(|e| {
            TestCaseError::fail(format!("from_snapshot: {e}"))
        })?;
        prop_assert_eq!(ids(&reloaded.records()), ids(&writer.records()), "permutation");
        prop_assert_eq!(reloaded.stats(), writer.stats(), "work counters");
        prop_assert_eq!(reloaded.seal_stats(), writer.seal_stats(), "seal counters");
        prop_assert_eq!(
            reloaded.sealed_records(), writer.sealed_records(), "sealed records"
        );
        reloaded
            .validate()
            .map_err(|e| TestCaseError::fail(format!("reloaded invariants: {e}")))?;

        // Same future ⇒ same answers, in the same order, with the same
        // counter movement — on both the batch and single-query paths.
        for chunk in steady.chunks(batch) {
            prop_assert_eq!(
                reloaded.execute_batch(chunk),
                writer.execute_batch(chunk),
                "steady batch diverged"
            );
        }
        for q in steady {
            prop_assert_eq!(reloaded.query_collect(q), writer.query_collect(q));
        }
        prop_assert_eq!(reloaded.stats(), writer.stats(), "counters after steady");

        // Snapshots are deterministic: re-snapshotting the reloaded engine
        // after the same history reproduces the writer's bytes exactly.
        let again_w = writer.write_snapshot().map_err(|e| {
            TestCaseError::fail(format!("re-write (writer): {e}"))
        })?;
        let again_r = reloaded.write_snapshot().map_err(|e| {
            TestCaseError::fail(format!("re-write (reloaded): {e}"))
        })?;
        prop_assert_eq!(again_w, again_r, "snapshot bytes diverged");
    }

    /// A reload holds the writer's records, boxes bit for bit, in the
    /// writer's order, whether its arenas hold some records (rows stored
    /// beside them) or all of them (no rows stored or rebuilt); both equal
    /// the records of the reference run through the same history.
    #[test]
    fn a_reload_holds_the_writers_records(
        data in dataset3(700),
        queries in queries3(12),
        tau in 2usize..24,
        finalize in (0u8..2).prop_map(|v| v == 1),
    ) {
        let cfg = QuasiiConfig::with_tau(tau);
        let mut rows = Reference::new(data.clone(), &cfg);
        let mut writer = Quasii::new(data, cfg);
        let _ = writer.execute_batch(&queries);
        for q in &queries {
            rows.query(q);
        }
        if finalize {
            writer.finalize();
            rows.finalize();
            prop_assert_eq!(writer.sealed_fraction(), 1.0);
        }
        let snap = writer.write_snapshot().map_err(|e| {
            TestCaseError::fail(format!("write_snapshot: {e}"))
        })?;
        let reloaded = Quasii::<3>::from_snapshot(snap).map_err(|e| {
            TestCaseError::fail(format!("from_snapshot: {e}"))
        })?;
        prop_assert_eq!(reloaded.records(), writer.records(), "reload");
        prop_assert_eq!(writer.records(), rows.records(), "the reference");
    }

    /// Totality: arbitrary single-byte corruption and arbitrary truncation
    /// of a valid snapshot are always rejected with `Err` — never a panic,
    /// and never a successfully-loaded wrong engine.
    #[test]
    fn corrupted_snapshots_always_err(
        data in dataset3(250),
        queries in queries3(10),
        flip_at in 0.0..1.0f64,
        flip_bit in 0u8..8,
        cut_at in 0.0..1.0f64,
    ) {
        let mut writer = Quasii::new(
            data,
            QuasiiConfig::with_tau(8).with_threads(1),
        );
        let _ = writer.execute_batch(&queries);
        writer.seal();
        let snap = writer.write_snapshot().unwrap();

        // Any one-bit flip breaks either a guarded prefix field or the
        // checksum over everything after it.
        let mut bad = snap.clone();
        let at = ((flip_at * bad.len() as f64) as usize).min(bad.len() - 1);
        bad[at] ^= 1 << flip_bit;
        prop_assert!(
            Quasii::<3>::from_snapshot(bad).is_err(),
            "bit flip at byte {} accepted", at
        );

        // Any strict prefix is truncated (length word or checksum trips).
        let cut = ((cut_at * snap.len() as f64) as usize).min(snap.len() - 1);
        prop_assert!(
            Quasii::<3>::from_snapshot(snap[..cut].to_vec()).is_err(),
            "truncation to {} bytes accepted", cut
        );

        // Version and dimensionality gates answer before the checksum.
        let mut wrong_version = snap.clone();
        wrong_version[8] = wrong_version[8].wrapping_add(1);
        let version_err = matches!(
            Quasii::<3>::from_snapshot(wrong_version),
            Err(SnapshotError::WrongVersion { .. })
        );
        prop_assert!(version_err, "foreign version accepted");
        let dims_err = matches!(
            Quasii::<2>::from_snapshot(snap),
            Err(SnapshotError::WrongDims { found: 3, expected: 2 })
        );
        prop_assert!(dims_err, "wrong dimensionality accepted");
    }

    /// Sharded deployments roundtrip through the manifest + per-shard
    /// buffers transport, and the manifest's per-buffer checksums catch
    /// shard buffers arriving out of order.
    #[test]
    fn sharded_snapshot_roundtrips_and_rejects_swaps(
        data in dataset3(600),
        queries in queries3(16),
        shards in 2usize..5,
    ) {
        let cfg = ShardConfig::default()
            .with_shards(shards)
            .with_shard_threads(2)
            .with_inner(QuasiiConfig::with_tau(8).with_threads(1));
        let mut writer = ShardedQuasii::new(data, cfg);
        let (history, steady) = queries.split_at(queries.len() / 2);
        let _ = writer.execute_batch(history);
        writer.seal();
        let reference = writer.execute_batch(steady);

        let (manifest, bufs) = writer.write_snapshot_parts().map_err(|e| {
            TestCaseError::fail(format!("write parts: {e}"))
        })?;
        let mut parts = ShardedQuasii::<3>::from_snapshot_parts(&manifest, bufs.clone())
            .map_err(|e| TestCaseError::fail(format!("load parts: {e}")))?;
        prop_assert_eq!(parts.execute_batch(steady), reference, "parts reload");
        parts
            .validate()
            .map_err(|e| TestCaseError::fail(format!("parts invariants: {e}")))?;

        // Buffers must arrive in manifest order: each entry pins its
        // shard's record count and checksum, so a swap cannot slip through
        // even when both buffers are individually valid snapshots.
        if writer.shard_count() >= 2 {
            let mut swapped = bufs;
            swapped.swap(0, 1);
            prop_assert!(
                ShardedQuasii::<3>::from_snapshot_parts(&manifest, swapped).is_err(),
                "swapped shard buffers accepted"
            );
        }
    }
}
