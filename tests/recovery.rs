//! Crash, fault and panic recovery properties, end to end:
//!
//! * **Crash-point matrix** — a snapshot commit interrupted at *every*
//!   store operation (with seeded torn writes and adversarial rename/sync
//!   outcomes at remount) leaves either the old state or the new state —
//!   loadable, validating, answering correctly — never a torn mix, a
//!   panic, or a silently wrong engine. Single-file engine snapshots and
//!   multi-file sharded commits (parts first, manifest rename as the
//!   single commit point) are both covered.
//! * **Quarantine and rebuild** — corrupting any one shard part
//!   (truncation, bit flip, deletion) quarantines exactly that shard;
//!   rebuilding it from source records restores answers byte-identical to
//!   a cold-cracked deployment.
//! * **Transient errors** — bounded retry absorbs short transient bursts
//!   and surfaces exhaustion as a clean error with the old state intact.
//! * **Worker panics** — a panic inside a shard's batch worker poisons
//!   the deployment (structured error, never a partial result) and
//!   `repair()` restores byte-identical answers; a fully sealed engine
//!   that no longer validates is rebuilt from its arenas' records.
//!
//! Deep CI runs widen the case budget via `PROPTEST_CASES`.

use proptest::prelude::*;
use quasii::{Quasii, QuasiiConfig};
use quasii_common::index::{assert_matches_brute_force, brute_force};
use quasii_shard::{part_path, ShardConfig, ShardedQuasii};
use quasii_suite::prelude::*;
use std::path::{Path, PathBuf};

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

fn queries3(max: usize) -> impl Strategy<Value = Vec<Aabb<3>>> {
    let q = (0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64, 0.5..80.0f64)
        .prop_map(|(x, y, z, side)| Aabb::new([x, y, z], [x + side, y + side, z + side]));
    prop::collection::vec(q, 2..max)
}

/// Everything that distinguishes one committed deployment state from
/// another: generation, router counters, and the per-shard record
/// permutations (query *results* are canonical and thus identical across
/// crack states by design — they cannot tell old from new).
fn fingerprint(idx: &ShardedQuasii<3>) -> (u64, quasii_shard::RouterStats, Vec<Vec<u64>>) {
    (
        idx.generation(),
        idx.router_stats(),
        idx.engines()
            .iter()
            .map(|e| e.records().iter().map(|r| r.id).collect())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-point matrix over the single-file atomic-replace protocol:
    /// whatever operation the crash lands on, and whatever the seeded
    /// remount adversary decides about unsynced state, the file holds the
    /// old bytes or the new bytes — and the engine loaded from them
    /// validates and answers correctly.
    #[test]
    fn engine_snapshot_crash_matrix_leaves_old_or_new(
        data in dataset3(400),
        queries in queries3(12),
        crash_at in 0u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let path = Path::new("/snaps/engine.qsnap");
        let mut writer = Quasii::new(data.clone(), QuasiiConfig::with_tau(8));
        let split = queries.len() / 2;
        for q in &queries[..split] {
            writer.query_collect(q);
        }
        let old = writer.write_snapshot().expect("write old");
        for q in &queries[split..] {
            writer.query_collect(q);
        }
        let new = writer.write_snapshot().expect("write new");

        let mem = MemStore::new();
        fsx::write_atomic(&mem, path, &old).expect("commit old");
        let store = FaultStore::new(mem, FaultPlan {
            crash_at_op: Some(crash_at),
            seed,
            transient_ops: 0,
        });
        let res = fsx::write_atomic_with(&store, path, &new, RetryPolicy::NONE);
        let mem = store.into_inner();
        mem.crash(seed ^ 0x9e37_79b9_7f4a_7c15);

        let back = mem
            .files()
            .remove(&PathBuf::from(path))
            .expect("a committed snapshot never vanishes");
        prop_assert!(
            back == old || back == new,
            "crash at op {crash_at} left a torn mix ({} bytes)",
            back.len()
        );
        if res.is_ok() {
            prop_assert_eq!(&back, &new, "successful commit must be durable");
        }
        let mut loaded = Quasii::<3>::from_snapshot(back).expect("old/new state loads");
        loaded.validate().expect("loaded engine validates");
        let got = loaded.query_collect(&queries[0]);
        assert_matches_brute_force(&data, &queries[0], &got);
    }

    /// Crash-point matrix over the multi-file sharded commit: parts are
    /// written (atomically, under new generation-stamped names) first, the
    /// manifest last, so its rename is the single commit point. A crash at
    /// any operation leaves a deployment that loads as exactly the old
    /// committed state or exactly the new one.
    #[test]
    fn sharded_commit_crash_matrix_is_atomic(
        data in dataset3(600),
        queries in queries3(16),
        crash_at in 0u64..24,
        seed in 0u64..u64::MAX,
    ) {
        let path = Path::new("/snaps/deploy");
        let cfg = ShardConfig::default()
            .with_shards(3)
            .with_inner(QuasiiConfig::with_tau(8));
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        let split = queries.len() / 2;
        idx.execute_batch(&queries[..split]);

        let mem = MemStore::new();
        idx.write_snapshot_files(&mem, path).expect("commit generation 1");
        let old_fp = fingerprint(
            &ShardedQuasii::<3>::from_snapshot_files(&mem, path).expect("old loads"),
        );

        idx.execute_batch(&queries[split..]);
        let store = FaultStore::new(mem, FaultPlan {
            crash_at_op: Some(crash_at),
            seed,
            transient_ops: 0,
        });
        let res = idx.write_snapshot_files(&store, path);
        let new_fp = fingerprint(&idx);
        let mem = store.into_inner();
        mem.crash(seed ^ 0x9e37_79b9_7f4a_7c15);

        let mut re = ShardedQuasii::<3>::from_snapshot_files(&mem, path)
            .expect("old or new generation always loads after a crash");
        let fp = fingerprint(&re);
        prop_assert!(
            fp == old_fp || fp == new_fp,
            "crash at op {crash_at} left neither the old nor the new deployment"
        );
        if res.is_ok() {
            prop_assert_eq!(fp, new_fp, "successful commit must be durable");
        }
        let got = re.execute_batch(&queries[..1]);
        prop_assert_eq!(&got[0], &brute_force(&data, &queries[0]));
    }

    /// Quarantine → rebuild: corrupting any single part (truncation, bit
    /// flip, deletion) quarantines exactly that shard; rebuilding from the
    /// source records restores answers byte-identical to a cold-cracked
    /// deployment.
    #[test]
    fn quarantine_rebuild_restores_byte_identity(
        data in dataset3(500),
        queries in queries3(12),
        victim in 0usize..3,
        kind in 0u8..3,
        flip_seed in 0u64..u64::MAX,
    ) {
        let path = Path::new("/snaps/deploy");
        let cfg = ShardConfig::default()
            .with_shards(3)
            .with_inner(QuasiiConfig::with_tau(8));
        let mut idx = ShardedQuasii::new(data.clone(), cfg.clone());
        let split = queries.len() / 2;
        idx.execute_batch(&queries[..split]);
        let mem = MemStore::new();
        idx.write_snapshot_files(&mem, path).expect("commit");

        let victim = victim % idx.shard_count();
        let part = part_path(path, idx.generation(), victim);
        let bytes = mem.files().remove(&part).expect("part exists");
        match kind {
            0 => mem.write_file(&part, &bytes[..bytes.len() / 2]).unwrap(),
            1 => {
                let mut b = bytes.clone();
                let at = (flip_seed as usize) % b.len();
                b[at] ^= 0x01;
                mem.write_file(&part, &b).unwrap();
            }
            _ => mem.remove_file(&part).unwrap(),
        }

        prop_assert!(
            ShardedQuasii::<3>::from_snapshot_files(&mem, path).is_err(),
            "the strict loader must refuse a corrupt part"
        );
        let mut rec = Recovery::<3>::load(&mem, path).expect("manifest intact");
        prop_assert_eq!(rec.report().quarantined(), vec![victim]);

        // The full rebuild: byte-identical to a cold-cracked oracle.
        prop_assert_eq!(rec.rebuild(&data).expect("rebuild"), 1);
        let mut full = rec.into_full().expect("complete after rebuild");
        let mut oracle = ShardedQuasii::new(data.clone(), cfg);
        prop_assert_eq!(full.execute_batch(&queries), oracle.execute_batch(&queries));
    }
}

#[test]
fn transient_errors_are_absorbed_then_exhausted() {
    let path = Path::new("/snaps/x");
    let mem = MemStore::new();
    fsx::write_atomic(&mem, path, b"old").unwrap();

    // A short transient burst is absorbed by the bounded retry.
    let store = FaultStore::new(
        mem,
        FaultPlan {
            transient_ops: 2,
            ..FaultPlan::default()
        },
    );
    fsx::write_atomic_with(&store, path, b"new", RetryPolicy::FAST).expect("retry absorbs");
    let mem = store.into_inner();
    assert_eq!(mem.files().get(&PathBuf::from(path)).unwrap(), b"new");

    // A burst longer than the attempt budget surfaces as a clean error
    // with the committed state untouched.
    let store = FaultStore::new(
        mem,
        FaultPlan {
            transient_ops: 100,
            ..FaultPlan::default()
        },
    );
    let err = fsx::write_atomic_with(&store, path, b"newer", RetryPolicy::FAST)
        .expect_err("retry budget exhausted");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    let mem = store.into_inner();
    assert_eq!(
        mem.files().get(&PathBuf::from(path)).unwrap(),
        b"new",
        "failed replacement leaves the old state"
    );

    // RetryPolicy::NONE gives up on the first transient.
    let store = FaultStore::new(
        mem,
        FaultPlan {
            transient_ops: 1,
            ..FaultPlan::default()
        },
    );
    assert!(fsx::write_atomic_with(&store, path, b"nope", RetryPolicy::NONE).is_err());
}

#[test]
fn worker_panics_poison_then_repair_restores_byte_identity() {
    let data: Vec<Record<3>> = (0..3_000)
        .map(|i| {
            let v = (i % 701) as f64 / 2.0;
            Record::new(i, Aabb::new([v; 3], [v + 3.0; 3]))
        })
        .collect();
    let queries: Vec<Aabb<3>> = (0..24)
        .map(|i| {
            let v = (i * 13 % 300) as f64;
            Aabb::new([v; 3], [v + 20.0; 3])
        })
        .collect();
    let cfg = ShardConfig::default()
        .with_shards(3)
        .with_inner(QuasiiConfig::with_tau(16));
    let mut oracle = ShardedQuasii::new(data.clone(), cfg.clone());
    let expect = oracle.execute_batch(&queries);

    for (shard, query_index) in [(0, 0), (1, 2), (2, 5)] {
        let mut idx = ShardedQuasii::new(data.clone(), cfg.clone());
        // A short warm-up: every write seals what it converged, and a trap
        // in a converged shard waits (see `inject_panic_at`), so each
        // trapped shard must still have crack work past `query_index`.
        idx.execute_batch(&queries[..6]);
        let engine = &idx.engines()[shard];
        assert!(engine.sealed_fraction() < 1.0, "shard {shard} converged");
        let unreadable = queries.iter().filter(|q| !engine.can_read(q)).count();
        assert!(
            unreadable > query_index,
            "shard {shard}: {unreadable} crack queries"
        );
        idx.inject_panic_at(shard, query_index);
        let err = idx
            .try_execute_batch(&queries)
            .expect_err("injected panic must poison");
        assert!(
            err.detail.contains(&format!("shard {shard}")),
            "detail: {}",
            err.detail
        );
        assert!(idx.is_poisoned());
        assert_ne!(idx.repair(), RepairOutcome::Clean);
        idx.validate().expect("repaired deployment validates");
        assert_eq!(
            idx.execute_batch(&queries),
            expect,
            "injection at shard {shard} query {query_index}"
        );
    }
}

/// A fully sealed engine keeps no rows, so a repair that must rebuild it
/// takes the record multiset from its arenas. The engine is a reload of a
/// part whose arena moves one record's lower x below its slices' boxes:
/// the loader holds the arena's nodes to their partition rules, not its
/// records to the nodes' boxes, so `validate` is the first check to see it.
#[test]
fn a_poisoned_fully_sealed_engine_is_rebuilt_from_its_arenas() {
    let data: Vec<Record<3>> = (0..2_000u64)
        .map(|i| {
            let v = (i * 7_919 % 2_000) as f64 / 8.0 + 0.37;
            let w = (i * 104_729 % 2_000) as f64 / 8.0 + 0.11;
            let z = (v + w) / 2.0 + 0.013;
            Record::new(i, Aabb::new([v, w, z], [v + 2.5, w + 1.5, z + 3.0]))
        })
        .collect();
    let queries: Vec<Aabb<3>> = (0..16)
        .map(|i| {
            let v = (i * 17 % 240) as f64;
            Aabb::new([v - 60.0, v, v], [v + 25.0; 3])
        })
        .collect();
    let cfg = QuasiiConfig::with_tau(16);
    let mut writer = Quasii::new(data, cfg.clone());
    writer.finalize();
    assert_eq!(writer.sealed_fraction(), 1.0);
    let mut snap = writer.write_snapshot().expect("write");

    // A record's lower x whose bits occur once in the part: in its arena's
    // column, and in no box of a root slice or an arena node.
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let at = writer
        .records()
        .iter()
        .find_map(|r| {
            let bits = r.mbb.lo[0].to_bits();
            let mut hits = (0..snap.len() / 8)
                .map(|k| 8 * k)
                .filter(|&at| word(&snap, at) == bits);
            match (hits.next(), hits.next()) {
                (Some(at), None) => Some(at),
                _ => None,
            }
        })
        .expect("some lower x is not a box edge");
    snap[at..at + 8].copy_from_slice(&(-50.0f64).to_le_bytes());
    // Each region blob is covered by the sum in its (length, sum) table
    // entry, and the header word covers bytes 24 up to the end of that
    // table. A fully sealed part's header is the scalars, no stored rows,
    // the root slices and the table: re-sum the blob that holds the byte,
    // then the header.
    let sum_of = quasii_common::snapshot::checksum64;
    let tree = 32 + (14 + 4 * 3) * 8 + 8;
    let table = tree + 8 + word(&snap, tree) as usize * (8 + 2 * 3) * 8 + 8;
    let header_end = table + 16 * word(&snap, table - 8) as usize;
    let mut blob = header_end;
    for entry in (table..header_end).step_by(16) {
        let len = word(&snap, entry) as usize;
        if (blob..blob + len).contains(&at) {
            let sum = sum_of(&snap[blob..blob + len]);
            snap[entry + 8..entry + 16].copy_from_slice(&sum.to_le_bytes());
        }
        blob += len;
    }
    assert_eq!(blob, snap.len(), "the blobs end the part");
    let sum = sum_of(&snap[24..header_end]);
    snap[16..24].copy_from_slice(&sum.to_le_bytes());

    let mut idx = Quasii::<3>::from_snapshot(snap).expect("the loader checks nodes, not records");
    assert_eq!(idx.sealed_fraction(), 1.0);
    assert!(idx.validate().is_err(), "a record leaves its slices' boxes");
    let held = idx.records();
    assert!(held.iter().any(|r| r.mbb.lo[0] == -50.0));

    idx.inject_panic_at(0);
    assert!(
        idx.try_execute_batch(&queries).is_err(),
        "the read phase panics"
    );
    assert_eq!(idx.repair(), RepairOutcome::Rebuilt);
    idx.validate().expect("the rebuilt engine validates");

    let sorted = |mut v: Vec<Record<3>>| {
        v.sort_by_key(|r| r.id);
        v
    };
    assert_eq!(sorted(idx.records()), sorted(held.clone()), "the multiset");
    let mut fresh = Quasii::new(held.clone(), cfg);
    let got = idx.execute_batch(&queries);
    assert_eq!(
        got,
        fresh.execute_batch(&queries),
        "a fresh build's answers"
    );
    for (q, hits) in queries.iter().zip(&got) {
        assert_matches_brute_force(&held, q, hits);
    }
    assert_eq!(sorted(idx.records()), sorted(fresh.records()));
}
