//! Property-based coverage for the **sealed read path**: for arbitrary
//! datasets and query mixes, the sealing engine must agree with the
//! reference QUASII of `tests/reference` (the paper's algorithm with no
//! arena, as the oracle) — same ids in the same order, same algorithmic
//! work counters, same data permutation — across single queries, batches,
//! thread counts and the trait-object path, while regions seal underneath
//! — each exactly once: a seal is permanent, and a crack-path query that
//! spans a sealed region reads it from its arena — and the index is
//! validated after every step.

mod reference;

use proptest::prelude::*;
use quasii::{QuasiiConfig, SealStats};
use quasii_common::dataset::degenerate;
use quasii_common::index::{assert_matches_brute_force, brute_force};
use quasii_suite::prelude::*;
use reference::{algorithmic, ids, Reference, Shards};

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

/// Query mix stressing the seal lifecycle: some tiny (leave regions
/// unconverged), some huge (converge and later re-visit sealed regions).
fn queries3(max: usize) -> impl Strategy<Value = Vec<Aabb<3>>> {
    let q = (0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64, 0.5..80.0f64)
        .prop_map(|(x, y, z, side)| Aabb::new([x, y, z], [x + side, y + side, z + side]));
    prop::collection::vec(q, 1..max)
}

/// The oracle: the reference engine, one query at a time.
fn oracle(data: &[Record<3>], queries: &[Aabb<3>], tau: usize) -> (Vec<Vec<u64>>, Reference<3>) {
    let mut orc = Reference::new(data.to_vec(), &QuasiiConfig::with_tau(tau));
    let results = queries.iter().map(|q| orc.query(q)).collect();
    (results, orc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-query histories: the sealing engine must be indistinguishable
    /// from the oracle at every step, while seals come and go underneath —
    /// through `query`, and through `read` with `query` as the fallback
    /// when the read needs the writer.
    #[test]
    fn sealed_equals_unsealed_query_by_query(
        data in dataset3(900),
        queries in queries3(24),
        tau in 2usize..24,
    ) {
        let (expect, orc) = oracle(&data, &queries, tau);
        for read_first in [false, true] {
            let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(tau));
            for (q, want) in queries.iter().zip(&expect) {
                let mut got = Vec::new();
                if !(read_first && idx.read(q, &mut got)) {
                    idx.query(q, &mut got);
                }
                prop_assert_eq!(
                    &got, want,
                    "ids diverged at query {:?}, read first: {}", q, read_first
                );
                // `validate` also checks that the seals are disjoint, each
                // one root slice's range: no region is sealed more than once.
                idx.validate().map_err(|e| {
                    TestCaseError::fail(format!("invariants: {e}"))
                })?;
            }
            prop_assert_eq!(
                algorithmic(idx.stats()), orc.stats(),
                "work counters diverged, read first: {}", read_first
            );
            prop_assert_eq!(ids(&idx.records()), ids(orc.records()), "permutation diverged");
        }
    }

    /// Batched histories: phase-split execution (reads first, then the
    /// crack path) must reproduce the oracle byte-for-byte for every batch
    /// size.
    #[test]
    fn sealed_batches_equal_unsealed_across_threads(
        data in dataset3(700),
        queries in queries3(20),
        tau in 2usize..20,
        chunk in 1usize..8,
    ) {
        let (expect, orc) = oracle(&data, &queries, tau);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(tau));
        let mut got: Vec<Vec<u64>> = Vec::new();
        for batch in queries.chunks(chunk) {
            got.extend(idx.execute_batch(batch));
            // Also: the seals are disjoint, each one root slice's range.
            idx.validate().map_err(|e| {
                TestCaseError::fail(format!("invariants: {e}"))
            })?;
        }
        prop_assert_eq!(&got, &expect, "ids diverged");
        prop_assert_eq!(algorithmic(idx.stats()), orc.stats(), "stats diverged");
        prop_assert_eq!(ids(&idx.records()), ids(orc.records()), "permutation diverged");
    }

    /// Once fully converged and sealed, every query is a pure read: no
    /// cracks, no new slices, sealed fraction 1, brute-force agreement.
    #[test]
    fn finalized_index_seals_fully_and_reads_only(
        data in dataset3(600),
        queries in queries3(12),
        tau in 2usize..16,
    ) {
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(tau));
        idx.finalize();
        idx.seal();
        prop_assert!((idx.sealed_fraction() - 1.0).abs() < 1e-12);
        idx.validate().map_err(|e| {
            TestCaseError::fail(format!("invariants: {e}"))
        })?;
        let stats = idx.stats();
        for q in &queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        let after = idx.stats();
        prop_assert_eq!(after.cracks, stats.cracks, "no cracking after seal");
        prop_assert_eq!(after.slices_created, stats.slices_created);
        prop_assert_eq!(
            idx.seal_stats().sealed_queries,
            queries.len() as u64,
            "every steady-state query runs sealed"
        );
        idx.validate().map_err(|e| {
            TestCaseError::fail(format!("invariants: {e}"))
        })?;
    }
}

/// A seal survives a crack-path query that spans it: converge the low-key
/// slab of the key space, seal it, then span sealed + unsealed ranges with
/// one query (which cracks the unsealed part and reads the sealed part
/// from its arenas), and converge the rest. (A top-level slice only
/// converges when its *whole* subtree is refined, so the warm-up covers the
/// full extent of dimensions 1–2 and narrows only dimension 0 — tiny
/// corner queries leave deep-dimension tails coarse forever, by design.)
#[test]
fn a_spanning_crack_query_keeps_its_seals() {
    let data = dataset::uniform_boxes_in::<3>(6_000, 1_000.0, 211);
    let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(8));

    // Converge the low-key slab with repeated dimension-0 range queries.
    let corner = Aabb::new([0.0; 3], [250.0, 1_001.0, 1_001.0]);
    for _ in 0..4 {
        assert_matches_brute_force(&data, &corner, &idx.query_collect(&corner));
    }
    // An explicit sweep seals whatever converged.
    idx.seal();
    let after_warmup: SealStats = idx.seal_stats();
    assert!(after_warmup.seals > 0, "warm-up must seal converged slices");
    assert!(idx.sealed_fraction() > 0.0);
    idx.validate().unwrap();

    // A query spanning sealed and unsealed key ranges takes the crack path;
    // the seals it spans stay as they are.
    let sealed = idx.sealed_records();
    let spanning = Aabb::new([0.0; 3], [900.0, 400.0, 400.0]);
    assert_matches_brute_force(&data, &spanning, &idx.query_collect(&spanning));
    let after_span = idx.seal_stats();
    assert_eq!(idx.sealed_records(), sealed, "no region unsealed");
    assert_eq!(after_span.seals, after_warmup.seals);
    assert_eq!(after_span.unseals, 0);
    idx.validate().unwrap();

    // Convergence completes; the next sweep seals the rest, each region
    // once, and steady-state queries are pure sealed reads.
    idx.finalize();
    idx.seal();
    idx.validate().unwrap();
    assert_eq!(idx.sealed_fraction(), 1.0);
    let sealed_before = idx.seal_stats().sealed_queries;
    assert_matches_brute_force(&data, &corner, &idx.query_collect(&corner));
    assert_eq!(idx.seal_stats().sealed_queries, sealed_before + 1);
    idx.validate().unwrap();
}

/// Every write leaves the seals current: right after a batch that
/// converges slices, a single query and `finalize`, an explicit `seal()`
/// finds nothing new, and a read inside a converged region needs no write
/// in between.
#[test]
fn seals_are_current_after_every_write() {
    let data = dataset::uniform_boxes_in::<3>(6_000, 1_000.0, 211);
    let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(8));
    let seal_finds_nothing = |idx: &mut Quasii<3>, after: &str| {
        let (seals, fraction) = (idx.seal_stats().seals, idx.sealed_fraction());
        idx.seal();
        assert_eq!(idx.seal_stats().seals, seals, "seal() after {after}");
        assert_eq!(idx.sealed_fraction(), fraction, "seal() after {after}");
        idx.validate().unwrap();
    };

    // A batch of slabs over the low keys, across the whole y, z extent.
    let slab = Aabb::new([0.0; 3], [250.0, 1_001.0, 1_001.0]);
    for (q, hits) in [slab; 4].iter().zip(idx.execute_batch(&[slab; 4])) {
        assert_matches_brute_force(&data, q, &hits);
    }
    seal_finds_nothing(&mut idx, "a converging batch");
    assert!(idx.seal_stats().seals > 0, "the batch converged slices");
    let inside = Aabb::new([60.0; 3], [120.0; 3]);
    let mut out = Vec::new();
    assert!(
        idx.read(&inside, &mut out),
        "the batch sealed what it converged"
    );
    assert_matches_brute_force(&data, &inside, &out);

    // A single query spanning sealed and unsealed key ranges.
    let spanning = Aabb::new([0.0; 3], [900.0, 400.0, 400.0]);
    assert_matches_brute_force(&data, &spanning, &idx.query_collect(&spanning));
    seal_finds_nothing(&mut idx, "a single query");

    idx.finalize();
    assert_eq!(idx.sealed_fraction(), 1.0, "finalize seals everything");
    seal_finds_nothing(&mut idx, "finalize");
}

/// Degenerate: a dataset at or below τ₀ refines at the root immediately;
/// the first query materializes the default-child chain, after which the
/// whole index seals as a single region.
#[test]
fn all_refined_at_root_seals_after_first_query() {
    let data = dataset::uniform_boxes_in::<3>(40, 100.0, 212);
    let mut idx = Quasii::new(data.clone(), QuasiiConfig::default());
    let q = Aabb::new([0.0; 3], [100.0; 3]);
    assert_matches_brute_force(&data, &q, &idx.query_collect(&q));
    idx.seal();
    assert_eq!(idx.seal_stats().seals, 1, "one root slice, one region");
    assert_eq!(idx.sealed_fraction(), 1.0);
    // Steady state: sealed reads, still correct.
    let probe = Aabb::new([10.0; 3], [60.0; 3]);
    assert_matches_brute_force(&data, &probe, &idx.query_collect(&probe));
    assert!(idx.seal_stats().sealed_queries >= 1);
    idx.validate().unwrap();
}

/// Degenerate: value-indivisible keys can never be cracked to τ — slices
/// are force-refined *above* τ. The structure still converges (forced
/// refinement is terminal), so it must seal, with results and stats equal
/// to the reference's.
#[test]
fn forced_refine_datasets_seal_above_tau() {
    let data = degenerate::identical::<3>(1_200);
    let queries = [
        Aabb::new([5.0; 3], [6.0; 3]),
        Aabb::new([0.0; 3], [700.0; 3]),
        Aabb::new([5.5; 3], [5.6; 3]),
    ];
    let cfg = QuasiiConfig::with_tau(10);

    let mut orc = Reference::new(data.clone(), &cfg);
    let expect: Vec<Vec<u64>> = queries.iter().map(|q| orc.query(q)).collect();

    let mut idx = Quasii::new(data.clone(), cfg);
    let got: Vec<Vec<u64>> = queries.iter().map(|q| idx.query_collect(q)).collect();
    assert_eq!(got, expect);
    assert_eq!(algorithmic(idx.stats()), orc.stats());
    assert_eq!(ids(&idx.records()), ids(orc.records()));
    assert!(idx.stats().forced_refinements > 0, "guard must have fired");

    idx.seal();
    assert_eq!(idx.sealed_fraction(), 1.0, "forced refinement still seals");
    assert_matches_brute_force(&data, &queries[1], &idx.query_collect(&queries[1]));
    idx.validate().unwrap();
}

/// The sealed lifecycle is reachable through the `SpatialIndex` trait
/// object, and the default no-op `seal` holds for static indexes. The
/// sealed fraction is read on the concrete type, where it is defined.
#[test]
fn trait_object_path_exposes_sealing() {
    let data = dataset::uniform_boxes_in::<3>(2_000, 500.0, 213);
    let queries = [
        Aabb::new([0.0; 3], [500.0; 3]),
        Aabb::new([100.0; 3], [180.0; 3]),
    ];

    let mut engine = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
    assert_eq!(engine.sealed_fraction(), 0.0);
    let boxed: &mut dyn SpatialIndex<3> = &mut engine;
    let first = boxed.query_collect(&queries[0]);
    assert_matches_brute_force(&data, &queries[0], &first);
    boxed.seal();
    assert_eq!(
        engine.sealed_fraction(),
        1.0,
        "universe query converges all"
    );
    let boxed: &mut dyn SpatialIndex<3> = &mut engine;
    for q in &queries {
        assert_matches_brute_force(&data, q, &boxed.query_collect(q));
    }
    let batched = boxed.query_batch(&queries);
    for (q, hits) in queries.iter().zip(&batched) {
        assert_matches_brute_force(&data, q, hits);
    }

    // Sharded deployments expose the same seam.
    let mut deployment = ShardedQuasii::new(data.clone(), ShardConfig::default().with_shards(3));
    let sharded: &mut dyn SpatialIndex<3> = &mut deployment;
    sharded.seal();
    assert_eq!(deployment.sealed_fraction(), 0.0, "nothing converged yet");
    let sharded: &mut dyn SpatialIndex<3> = &mut deployment;
    let got = sharded.query_collect(&queries[0]);
    assert_eq!(got, brute_force(&data, &queries[0]));

    // Static indexes keep the no-op default.
    let mut rt: Box<dyn SpatialIndex<3>> = Box::new(RTree::bulk_load_default(data.clone()));
    rt.seal();
    assert_matches_brute_force(&data, &queries[1], &rt.query_collect(&queries[1]));
}

/// `read` is the `&self` seam: on a finalized, sealed engine four threads
/// share one `&engine`, every read answers, the answers are the reference
/// engine's query by query and in order, and the atomic booking sums to the
/// stats of the same queries answered one by one.
#[test]
fn concurrent_reads_equal_the_sequential_engine() {
    let data = dataset::uniform_boxes_in::<3>(5_000, 800.0, 216);
    let universe = Aabb::new([0.0; 3], [800.0; 3]);
    let queries = workload::uniform(&universe, 64, 1e-3, 217).queries;
    let cfg = QuasiiConfig::with_tau(12);
    let sealed = || {
        let mut idx = Quasii::new(data.clone(), cfg.clone());
        idx.finalize();
        idx.seal();
        idx
    };

    let mut orc = Reference::new(data.clone(), &cfg);
    orc.finalize();
    let expect: Vec<Vec<u64>> = queries.iter().map(|q| orc.query(q)).collect();
    let mut sequential = sealed();
    for q in &queries {
        sequential.query_collect(q);
    }

    const READERS: usize = 4;
    let engine = sealed();
    let start = std::sync::Barrier::new(READERS);
    let answers: Vec<Vec<(usize, Vec<u64>)>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (engine, queries, start) = (&engine, &queries, &start);
                s.spawn(move || {
                    start.wait();
                    (t..queries.len())
                        .step_by(READERS)
                        .map(|j| {
                            let mut out = Vec::new();
                            assert!(
                                engine.read(&queries[j], &mut out),
                                "query {j} needs no writer"
                            );
                            (j, out)
                        })
                        .collect()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let mut got = vec![Vec::new(); queries.len()];
    for (j, out) in answers.into_iter().flatten() {
        got[j] = out;
    }
    assert_eq!(got, expect);
    assert_eq!(engine.stats(), sequential.stats());
    assert_eq!(algorithmic(engine.stats()), orc.stats());
    assert_eq!(engine.seal_stats(), sequential.seal_stats());
}

/// `read` answers nothing and books nothing where the writer must run: on
/// a fresh engine (nothing sealed yet) and on a poisoned one.
#[test]
fn read_refuses_fresh_and_poisoned_engines() {
    let data = dataset::uniform_boxes_in::<3>(2_000, 500.0, 218);
    let q = Aabb::new([100.0; 3], [160.0; 3]);
    let refuses = |idx: &Quasii<3>| {
        let (stats, seal_stats) = (idx.stats(), idx.seal_stats());
        let mut out = Vec::new();
        assert!(!idx.read(&q, &mut out));
        assert!(out.is_empty());
        assert_eq!((idx.stats(), idx.seal_stats()), (stats, seal_stats));
    };

    let fresh = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
    refuses(&fresh);

    let mut idx = Quasii::new(data, QuasiiConfig::with_tau(12));
    idx.finalize();
    idx.seal();
    idx.inject_panic_at(0);
    assert!(idx.try_execute_batch(&[q]).is_err());
    assert!(idx.is_poisoned());
    refuses(&idx);
}

/// Sealing must be invisible to the sharded router: each shard of a
/// deployment answers, permutes and counts as a reference fed the queries
/// its router sends it, while cracking and once fully sealed, so the
/// canonical results are the references'.
#[test]
fn sharded_sealed_equals_sharded_unsealed() {
    let data = dataset::uniform_boxes_in::<3>(4_000, 800.0, 214);
    let universe = Aabb::new([0.0; 3], [800.0; 3]);
    let queries = workload::uniform(&universe, 60, 1e-3, 215).queries;
    let cfg = ShardConfig::default()
        .with_shards(3)
        .with_shard_threads(2)
        .with_inner(QuasiiConfig::with_tau(12));
    let mut sealed = ShardedQuasii::new(data.clone(), cfg);
    let mut plain = Shards::of(&sealed);
    let agree = |sealed: &mut ShardedQuasii<3>, plain: &mut Shards<3>| {
        for batch in queries.chunks(16) {
            let want: Vec<Vec<u64>> = batch.iter().map(|q| plain.query(q)).collect();
            assert_eq!(sealed.execute_batch(batch), want);
        }
        assert_eq!(algorithmic(sealed.stats()), plain.stats());
        let permutations: Vec<Vec<u64>> =
            sealed.engines().iter().map(|e| ids(&e.records())).collect();
        assert_eq!(permutations, plain.ids());
    };
    agree(&mut sealed, &mut plain);

    // Converged regime: every shard fully seals, batches keep matching.
    sealed.finalize();
    plain.finalize();
    sealed.seal();
    assert_eq!(sealed.sealed_fraction(), 1.0);
    agree(&mut sealed, &mut plain);
    sealed.validate().unwrap();
}

/// An arena narrows ids to `u32`, so a root slice that holds an id of 2³²
/// or more is never sealed: it keeps its live rows, which keep the id
/// whole. Records in the slab `x < 150` carry such ids. An engine and a
/// 2-shard deployment answer as brute force before and after `finalize` +
/// `seal`, the slab's root slices stay unsealed while the others seal, and
/// a snapshot round trip answers byte-identically.
#[test]
fn ids_above_u32_keep_their_root_slices_unsealed() {
    let mut data = dataset::uniform_boxes_in::<3>(3_000, 1_000.0, 216);
    for r in data.iter_mut().filter(|r| r.mbb.lo[0] < 150.0) {
        r.id += 1 << 32;
    }
    let wide = data.iter().filter(|r| r.id > u64::from(u32::MAX)).count();
    assert!(wide > 0 && wide < data.len());
    let universe = Aabb::new([0.0; 3], [1_000.0; 3]);
    let mut queries = workload::uniform(&universe, 30, 1e-2, 217).queries;
    queries.push(Aabb::new([0.0; 3], [200.0, 1_000.0, 1_000.0]));
    let check = |got: &[Vec<u64>]| {
        for (q, hits) in queries.iter().zip(got) {
            assert_matches_brute_force(&data, q, hits);
        }
        assert!(got.iter().flatten().any(|&id| id > u64::from(u32::MAX)));
    };

    let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
    check(&idx.execute_batch(&queries));
    idx.finalize();
    idx.seal();
    assert!(idx.sealed_fraction() > 0.0 && idx.sealed_fraction() < 1.0);
    assert!(idx.sealed_records() <= data.len() - wide);
    let answers = idx.execute_batch(&queries);
    check(&answers);
    idx.validate().unwrap();
    let mut re = Quasii::<3>::from_snapshot(idx.write_snapshot().unwrap()).unwrap();
    assert_eq!(re.execute_batch(&queries), answers);
    assert_eq!(ids(&re.records()), ids(&idx.records()));
    re.validate().unwrap();

    let cfg = ShardConfig::default()
        .with_shards(2)
        .with_inner(QuasiiConfig::with_tau(12));
    let mut dep = ShardedQuasii::new(data.clone(), cfg);
    check(&dep.execute_batch(&queries));
    dep.finalize();
    dep.seal();
    assert!(dep.sealed_fraction() > 0.0 && dep.sealed_fraction() < 1.0);
    let answers = dep.execute_batch(&queries);
    check(&answers);
    dep.validate().unwrap();
    let (manifest, parts) = dep.write_snapshot_parts().unwrap();
    let mut re = ShardedQuasii::<3>::from_snapshot_parts(&manifest, parts).unwrap();
    assert_eq!(re.execute_batch(&queries), answers);
    re.validate().unwrap();
}
