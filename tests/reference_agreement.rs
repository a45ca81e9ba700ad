//! The engine is the paper's algorithm: for random datasets (identical
//! boxes, heavy key ties and artificial splits down to the depth cap
//! included), every assignment coordinate, τ from
//! 2 to 23 and mixed query sizes, the engine agrees with the reference
//! QUASII of `tests/reference` after every step — the same ids in the same
//! order, the same record permutation, the same algorithmic work
//! counters and the same slices per level (a sealed slice's arena nodes
//! counted, since the reference keeps every node as a slice). The engine is driven four ways: query by query, in batches of
//! 16, read-then-write as the service does (`read` when `can_read`
//! approves, else `query`), and as a 2-shard deployment, where each shard
//! is checked against a reference of its own fed the queries its router
//! sends it. A finalize, then the same queries once more over the
//! converged (fully sealed) engine, ends each history.

mod reference;

use proptest::prelude::*;
use quasii::AssignBy;
use quasii_common::dataset::degenerate;
use quasii_suite::prelude::*;
use reference::{algorithmic, ids, Reference, Shards};

/// Boxes on a coarse integer lattice when `lattice`, so many keys tie and
/// the median fallback and forced refinement run; otherwise continuous.
fn arb_box3(lattice: bool) -> impl Strategy<Value = Aabb<3>> {
    (
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..12.0f64,
        0.0..12.0f64,
        0.0..12.0f64,
    )
        .prop_map(move |(x, y, z, a, b, c)| {
            let v = |t: f64| {
                if lattice {
                    (t / 10.0).floor() * 10.0
                } else {
                    t
                }
            };
            Aabb::new([v(x), v(y), v(z)], [v(x) + v(a), v(y) + v(b), v(z) + v(c)])
        })
}

/// A dataset of one of four kinds: continuous boxes, lattice boxes,
/// `degenerate::identical` (every box the same), or boxes whose
/// dimension-0 corners halve from one record to the next, so that
/// artificial refinement splits one record off per level down to its
/// depth cap.
fn dataset3(max: usize) -> impl Strategy<Value = Vec<Record<3>>> {
    (
        0u8..4,
        prop::collection::vec(arb_box3(false), 1..max),
        prop::collection::vec(arb_box3(true), 1..max),
    )
        .prop_map(|(kind, boxes, lattice)| match kind {
            0 => degenerate::identical::<3>(boxes.len()),
            1 => with_ids(lattice),
            2 => with_ids(
                boxes
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut b)| {
                        let x = 100.0 * 0.5f64.powi(i as i32);
                        (b.lo[0], b.hi[0]) = (x, x);
                        b
                    })
                    .collect(),
            ),
            _ => with_ids(boxes),
        })
}

fn with_ids(boxes: Vec<Aabb<3>>) -> Vec<Record<3>> {
    boxes
        .into_iter()
        .enumerate()
        .map(|(i, b)| Record::new(i as u64, b))
        .collect()
}

/// Tiny through huge queries, so some leave regions coarse and some
/// converge whole subtrees.
fn queries3(max: usize) -> impl Strategy<Value = Vec<Aabb<3>>> {
    let q = (0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64, 0.5..80.0f64)
        .prop_map(|(x, y, z, side)| Aabb::new([x, y, z], [x + side, y + side, z + side]));
    prop::collection::vec(q, 1..max)
}

fn arb_mode() -> impl Strategy<Value = AssignBy> {
    (0u8..3).prop_map(|m| match m {
        0 => AssignBy::Lower,
        1 => AssignBy::Center,
        _ => AssignBy::Upper,
    })
}

/// The engine is driven one of these ways.
#[derive(Clone, Copy, Debug)]
enum Drive {
    QueryByQuery,
    Batches,
    ReadThenWrite,
}

/// Checks one engine step's answers, permutation, counters and slices per
/// level against the reference's.
fn agree(
    what: &str,
    got: (&[Vec<u64>], &Quasii<3>),
    want: (&[Vec<u64>], &Reference<3>),
) -> Result<(), TestCaseError> {
    let (idx, orc) = (got.1, want.1);
    prop_assert_eq!(got.0, want.0, "{}: answers", what);
    prop_assert_eq!(
        ids(&idx.records()),
        ids(orc.records()),
        "{}: permutation",
        what
    );
    prop_assert_eq!(
        algorithmic(idx.stats()),
        orc.stats(),
        "{}: work counters",
        what
    );
    prop_assert_eq!(
        idx.level_profile(),
        orc.level_profile(),
        "{}: level profile",
        what
    );
    prop_assert_eq!(
        idx.slice_count(),
        orc.level_profile().iter().sum::<usize>(),
        "{}: slice count",
        what
    );
    Ok(())
}

/// Checks each shard's slices per level against its reference's.
fn agree_shapes(what: &str, idx: &ShardedQuasii<3>, orc: &Shards<3>) -> Result<(), TestCaseError> {
    let snaps = idx.snapshots();
    let want = orc.level_profiles();
    let profiles: Vec<[usize; 3]> = snaps.iter().map(|s| s.level_profile).collect();
    prop_assert_eq!(&profiles, &want, "{}: level profiles", what);
    let slices: Vec<usize> = snaps.iter().map(|s| s.slices).collect();
    let want_slices: Vec<usize> = want.iter().map(|p| p.iter().sum()).collect();
    prop_assert_eq!(slices, want_slices, "{}: slice counts", what);
    Ok(())
}

/// Runs `queries` through `idx` the `drive` way and through `orc` one by
/// one, checking agreement after every step (a batch is one step).
fn run_single(
    idx: &mut Quasii<3>,
    orc: &mut Reference<3>,
    queries: &[Aabb<3>],
    drive: Drive,
    what: &str,
) -> Result<(), TestCaseError> {
    let step = match drive {
        Drive::Batches => 16,
        _ => 1,
    };
    for (k, chunk) in queries.chunks(step).enumerate() {
        let got: Vec<Vec<u64>> = match drive {
            Drive::Batches => idx.execute_batch(chunk),
            Drive::QueryByQuery => chunk.iter().map(|q| idx.query_collect(q)).collect(),
            Drive::ReadThenWrite => chunk
                .iter()
                .map(|q| {
                    let mut out = Vec::new();
                    if idx.can_read(q) {
                        assert!(idx.read(q, &mut out), "can_read approved it");
                    } else {
                        idx.query(q, &mut out);
                    }
                    out
                })
                .collect(),
        };
        let want: Vec<Vec<u64>> = chunk.iter().map(|q| orc.query(q)).collect();
        agree(
            &format!("{what}, {drive:?}, step {k}"),
            (&got, idx),
            (&want, orc),
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One engine, three drives: the history, a finalize, the history
    /// again over the converged engine. The drives also agree with each
    /// other on the key-column counters the reference does not keep.
    #[test]
    fn the_engine_runs_the_reference_algorithm(
        data in dataset3(600),
        queries in queries3(40),
        tau in 2usize..24,
        mode in arb_mode(),
    ) {
        let cfg = QuasiiConfig::with_tau(tau).with_assign_by(mode).with_threads(2);
        let what = format!("n {}, tau {tau}, {mode:?}", data.len());
        let mut stats = Vec::new();
        for drive in [Drive::QueryByQuery, Drive::Batches, Drive::ReadThenWrite] {
            let mut idx = Quasii::new(data.clone(), cfg.clone());
            let mut orc = Reference::new(data.clone(), &cfg);
            run_single(&mut idx, &mut orc, &queries, drive, &what)?;
            idx.finalize();
            orc.finalize();
            agree(
                &format!("{what}, {drive:?}, finalize"),
                (&[], &idx),
                (&[], &orc),
            )?;
            prop_assert_eq!(idx.sealed_fraction(), 1.0);
            run_single(&mut idx, &mut orc, &queries, drive, &format!("{what}, converged"))?;
            idx.validate().map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
            stats.push(idx.stats());
        }
        prop_assert!(stats.windows(2).all(|w| w[0] == w[1]), "{}: {:?}", what, stats);
    }

    /// A 2-shard deployment in batches of 16: each shard agrees with a
    /// reference over the records it started from, fed the queries the
    /// router sends it; the answers are the references' ids, sorted.
    #[test]
    fn each_shard_runs_the_reference_algorithm(
        data in dataset3(600),
        queries in queries3(40),
        tau in 2usize..24,
        mode in arb_mode(),
    ) {
        let inner = QuasiiConfig::with_tau(tau).with_assign_by(mode).with_threads(1);
        let cfg = ShardConfig::default().with_shards(2).with_shard_threads(2).with_inner(inner);
        let what = format!("n {}, tau {tau}, {mode:?}", data.len());
        let mut idx = ShardedQuasii::new(data, cfg);
        let mut orc = Shards::of(&idx);
        let shard_ids = |idx: &ShardedQuasii<3>| -> Vec<Vec<u64>> {
            idx.engines().iter().map(|e| ids(&e.records())).collect()
        };
        for round in ["cracking", "converged"] {
            for (k, batch) in queries.chunks(16).enumerate() {
                let got = idx.execute_batch(batch);
                let want: Vec<Vec<u64>> = batch.iter().map(|q| orc.query(q)).collect();
                prop_assert_eq!(&got, &want, "{}, {}, batch {}: answers", what, round, k);
                prop_assert_eq!(shard_ids(&idx), orc.ids(), "{}, {}, batch {}: permutations", what, round, k);
                prop_assert_eq!(
                    algorithmic(idx.stats()), orc.stats(),
                    "{}, {}, batch {}: work counters", what, round, k
                );
                agree_shapes(&format!("{what}, {round}, batch {k}"), &idx, &orc)?;
            }
            idx.finalize();
            orc.finalize();
            prop_assert_eq!(shard_ids(&idx), orc.ids(), "{}: permutations after finalize", what);
            prop_assert_eq!(algorithmic(idx.stats()), orc.stats(), "{}: counters after finalize", what);
            agree_shapes(&format!("{what}, {round}, finalize"), &idx, &orc)?;
        }
        idx.validate().map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
    }
}
