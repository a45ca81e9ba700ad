//! Property-based equivalence of the engine's crack kernels (scans over the
//! record lanes) against the record-streaming kernels they replaced, which
//! are kept in `tests/reference/crack.rs` as the oracle (with its own
//! assignment key, so the oracle shares no code with the engine), and
//! deterministic checks of the oracle's own partitions.
//!
//! For arbitrary segments (including heavy key ties), arbitrary pivots and
//! every [`AssignBy`] mode, the lane kernels must reproduce the oracle's
//! **split points and physical record order bit-for-bit** in every lane
//! (the records gathered back from the lanes equal the oracle's), and
//! measure each output segment as [`DimBounds::of`] does. The engine-level
//! consequences (identical results, permutations and stats across
//! threads/batches/shards) are covered by the existing suites in
//! `tests/{batch,shard}.rs` — the kernels proven equivalent here are the
//! only reorganization primitives the engine calls.

#[path = "reference/crack.rs"]
mod reference;

use proptest::prelude::*;
use quasii::crack::{self, DimBounds};
use quasii::AssignBy;
use quasii_suite::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{crack_median, crack_three, crack_two, key_of, Lanes};

/// Segments with deliberately coarse coordinates so duplicate assignment
/// keys (the Dutch-flag middle class, degenerate splits) appear often.
fn arb_segment() -> impl Strategy<Value = Vec<Record<3>>> {
    prop::collection::vec(
        (0u32..40, 0u32..40, 0u32..40, 0u32..10, 0u32..10, 0u32..10),
        0..250,
    )
    .prop_map(|boxes| {
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, z, a, b, c))| {
                let lo = [x as f64, y as f64, z as f64];
                let hi = [lo[0] + a as f64, lo[1] + b as f64, lo[2] + c as f64];
                Record::new(i as u64, Aabb::new(lo, hi))
            })
            .collect()
    })
}

fn arb_mode() -> impl Strategy<Value = AssignBy> {
    (0usize..3).prop_map(|i| match i {
        0 => AssignBy::Lower,
        1 => AssignBy::Center,
        _ => AssignBy::Upper,
    })
}

/// The exact MBB the engine lazily computes for an at-most-τ crack output
/// (`Slice::measure_exact` folds in index order).
fn exact_mbb(seg: &[Record<3>]) -> Aabb<3> {
    let mut mbb = Aabb::empty();
    for r in seg {
        mbb.expand(&r.mbb);
    }
    mbb
}

/// Asserts a kernel's in-pass measurement of one output segment equals the
/// oracle's, `DimBounds::of` over the segment, and spans the crack
/// dimension of the segment's exact MBB.
fn assert_measured(
    got: DimBounds,
    seg: &[Record<3>],
    dim: usize,
    mode: AssignBy,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, DimBounds::of(seg, dim, mode));
    let mbb = exact_mbb(seg);
    prop_assert_eq!((got.min_lo, got.max_hi), (mbb.lo[dim], mbb.hi[dim]));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two-way: keyed ≡ record-streaming for split point, permutation,
    /// measurements and column lockstep — on the input, and again on the
    /// partitioned output (the sorted edge case).
    #[test]
    fn two_way_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
        pivot_idx in 0u32..40,
    ) {
        let pivot = pivot_idx as f64 + 0.5;
        let mut keyed = seg.clone();
        let mut plain = seg;
        for _ in 0..2 {
            let mut lanes = Lanes::of(&keyed);
            let (p, l, r) = crack::crack_two_keyed_measured(lanes.view(), dim, mode, pivot);
            keyed = lanes.records();
            let p_ref = crack_two(&mut plain, dim, mode, pivot);
            prop_assert_eq!(p, p_ref, "split point diverged");
            prop_assert_eq!(&keyed, &plain, "physical order diverged");
            assert_measured(l, &keyed[..p], dim, mode)?;
            assert_measured(r, &keyed[p..], dim, mode)?;
        }
    }

    /// Three-way (Dutch flag): keyed ≡ record-streaming, same contract.
    #[test]
    fn three_way_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
        a in 0u32..40,
        width in 0u32..20,
    ) {
        let low = a as f64;
        let high = low + width as f64;
        let mut keyed = seg.clone();
        let mut plain = seg;
        for _ in 0..2 {
            let mut lanes = Lanes::of(&keyed);
            let (p1, p2, m) =
                crack::crack_three_keyed_measured(lanes.view(), dim, mode, low, high);
            keyed = lanes.records();
            let (r1, r2) = crack_three(&mut plain, dim, mode, low, high);
            prop_assert_eq!((p1, p2), (r1, r2), "split points diverged");
            prop_assert_eq!(&keyed, &plain, "physical order diverged");
            for (got, seg) in m.into_iter().zip([&keyed[..p1], &keyed[p1..p2], &keyed[p2..]]) {
                assert_measured(got, seg, dim, mode)?;
            }
        }
    }

    /// Rank-based fallback, the kernel `artificial()` calls: keyed ≡
    /// record-streaming (same `select_nth` comparator, then equivalent
    /// partitions) for split point and permutation, including the
    /// degenerate all-equal-keys outcome (split 0); both sides'
    /// measurements whenever the split is interior (the only case the
    /// engine reads them).
    #[test]
    fn median_keyed_equals_reference(
        seg in arb_segment(),
        mode in arb_mode(),
        dim in 0usize..3,
    ) {
        let mut lanes = Lanes::of(&seg);
        let mut plain = seg;
        let (p, l, r) = crack::crack_median_keyed_measured(lanes.view(), dim, mode);
        let keyed = lanes.records();
        let p_ref = crack_median(&mut plain, dim, mode);
        prop_assert_eq!(p, p_ref);
        prop_assert_eq!(&keyed, &plain);
        if 0 < p && p < keyed.len() {
            assert_measured(l, &keyed[..p], dim, mode)?;
            assert_measured(r, &keyed[p..], dim, mode)?;
        }
    }

    /// Engine level: with the lane kernels on the hot path, arbitrary
    /// query sequences still agree with brute force in every assignment
    /// mode, and the full hierarchy validates after every query.
    #[test]
    fn engine_stays_correct_in_every_mode(
        seed in 0u64..1_000,
        n in 20usize..400,
        tau in 2usize..24,
        mode in arb_mode(),
        queries in prop::collection::vec(
            (0.0..90.0f64, 0.0..90.0f64, 0.0..90.0f64, 1.0..40.0f64),
            1..8,
        ),
    ) {
        let data = dataset::uniform_boxes_in::<3>(n, 100.0, seed);
        let mut cfg = QuasiiConfig::with_tau(tau);
        cfg.assign_by = mode;
        let mut idx = Quasii::new(data.clone(), cfg);
        for &(x, y, z, w) in &queries {
            let q = Aabb::new([x, y, z], [x + w, y + w, z + w]);
            let got = idx.query_collect(&q);
            quasii_common::index::assert_matches_brute_force(&data, &q, &got);
            idx.validate().map_err(TestCaseError::fail)?;
        }
    }
}

#[test]
fn degenerate_all_equal_keys_segment() {
    // Every record identical: two-way puts everything right of any pivot
    // at-or-below the key, three-way's middle swallows everything when the
    // range contains the key, and the median fallback reports
    // value-indivisibility (split 0) — all exactly like the oracle.
    let seg: Vec<Record<3>> = (0..50)
        .map(|i| Record::new(i, Aabb::new([7.0; 3], [9.0; 3])))
        .collect();
    for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
        for pivot in [6.0, key_of(&seg[0], 0, mode), 100.0] {
            let mut lanes = Lanes::of(&seg);
            let mut plain = seg.clone();
            let (p, l, r) = crack::crack_two_keyed_measured(lanes.view(), 0, mode, pivot);
            let keyed = lanes.records();
            let p_ref = crack_two(&mut plain, 0, mode, pivot);
            assert_eq!(p, p_ref);
            assert_eq!(keyed, plain);
            assert_measured(l, &keyed[..p], 0, mode).unwrap();
            assert_measured(r, &keyed[p..], 0, mode).unwrap();
        }
        let k = key_of(&seg[0], 0, mode);
        let mut lanes = Lanes::of(&seg);
        let (p1, p2, _) = crack::crack_three_keyed_measured(lanes.view(), 0, mode, k, k);
        assert_eq!((p1, p2), (0, 50), "middle swallows the identical keys");
        let (p, _, _) = crack::crack_median_keyed_measured(lanes.view(), 0, mode);
        assert_eq!(p, 0, "value-indivisible segment");
    }
}

#[test]
fn empty_segments_are_no_ops() {
    let mut lanes = Lanes::of(&[]);
    let (p, l, r) = crack::crack_two_keyed_measured(lanes.view(), 0, AssignBy::Lower, 1.0);
    assert_eq!(p, 0);
    assert_eq!((l, r), (DimBounds::empty(), DimBounds::empty()));
    let (p1, p2, m) = crack::crack_three_keyed_measured(lanes.view(), 0, AssignBy::Lower, 0.0, 1.0);
    assert_eq!((p1, p2), (0, 0));
    assert!(m.iter().all(|b| *b == DimBounds::empty()));
    let (p, l, r) = crack::crack_median_keyed_measured(lanes.view(), 0, AssignBy::Lower);
    assert_eq!((p, l, r), (0, DimBounds::empty(), DimBounds::empty()));
}

// -- the oracle's own partitions, and keyed ≡ oracle spot checks -------

const LOWER: AssignBy = AssignBy::Lower;

fn rec1(lo: f64, hi: f64) -> Record<1> {
    Record::new(0, Aabb::new([lo], [hi]))
}

fn keys(seg: &[Record<1>]) -> Vec<f64> {
    seg.iter().map(|r| r.mbb.lo[0]).collect()
}

fn random_segment(n: usize, seed: u64) -> Vec<Record<1>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let lo: f64 = rng.random_range(0.0..100.0);
            Record::new(
                id as u64,
                Aabb::new([lo], [lo + rng.random_range(0.0..5.0)]),
            )
        })
        .collect()
}

#[test]
fn two_way_partitions_correctly() {
    let mut seg = random_segment(500, 1);
    let before: Vec<u64> = {
        let mut ids: Vec<u64> = seg.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids
    };
    let p = crack_two(&mut seg, 0, LOWER, 50.0);
    assert!(seg[..p].iter().all(|r| r.mbb.lo[0] < 50.0));
    assert!(seg[p..].iter().all(|r| r.mbb.lo[0] >= 50.0));
    // Permutation check: no record lost or duplicated.
    let mut after: Vec<u64> = seg.iter().map(|r| r.id).collect();
    after.sort_unstable();
    assert_eq!(before, after);
}

#[test]
fn two_way_respects_assignment_mode() {
    let mut seg = vec![rec1(0.0, 10.0), rec1(4.0, 6.0), rec1(9.0, 9.5)];
    // Centers: 5.0, 5.0, 9.25. Pivot 5.5 → two centers below.
    let p = crack_two(&mut seg, 0, AssignBy::Center, 5.5);
    assert_eq!(p, 2);
    // Uppers: 10.0, 6.0, 9.5. Pivot 9.6 → one upper below (6.0), plus 9.5.
    let mut seg = vec![rec1(0.0, 10.0), rec1(4.0, 6.0), rec1(9.0, 9.5)];
    let p = crack_two(&mut seg, 0, AssignBy::Upper, 9.6);
    assert_eq!(p, 2);
}

#[test]
fn two_way_extremes() {
    let mut seg = random_segment(50, 2);
    assert_eq!(crack_two(&mut seg, 0, LOWER, -1.0), 0);
    assert_eq!(crack_two(&mut seg, 0, LOWER, 1000.0), 50);
    let mut empty: Vec<Record<1>> = vec![];
    assert_eq!(crack_two(&mut empty, 0, LOWER, 0.0), 0);
    let mut one = vec![rec1(5.0, 6.0)];
    assert_eq!(
        crack_two(&mut one, 0, LOWER, 5.0),
        0,
        "pivot == key goes right"
    );
    assert_eq!(crack_two(&mut one, 0, LOWER, 5.1), 1);
}

#[test]
fn two_way_all_equal_keys() {
    let mut seg: Vec<Record<1>> = (0..10).map(|_| rec1(7.0, 8.0)).collect();
    assert_eq!(crack_two(&mut seg, 0, LOWER, 7.0), 0);
    assert_eq!(crack_two(&mut seg, 0, LOWER, 7.5), 10);
}

#[test]
fn three_way_partitions_correctly() {
    let mut seg = random_segment(1000, 3);
    let (p1, p2) = crack_three(&mut seg, 0, LOWER, 25.0, 75.0);
    assert!(seg[..p1].iter().all(|r| r.mbb.lo[0] < 25.0));
    assert!(seg[p1..p2]
        .iter()
        .all(|r| (25.0..=75.0).contains(&r.mbb.lo[0])));
    assert!(seg[p2..].iter().all(|r| r.mbb.lo[0] > 75.0));
    // All three parts non-empty at this size with uniform keys.
    assert!(p1 > 0 && p2 > p1 && p2 < seg.len());
}

#[test]
fn three_way_boundary_values_go_to_middle() {
    let mut seg = vec![rec1(25.0, 26.0), rec1(75.0, 76.0), rec1(24.999, 25.0)];
    let (p1, p2) = crack_three(&mut seg, 0, LOWER, 25.0, 75.0);
    assert_eq!((p1, p2), (1, 3));
    assert_eq!(keys(&seg)[0], 24.999);
}

#[test]
fn three_way_degenerate_ranges() {
    let mut seg = random_segment(100, 4);
    // low == high: middle contains exactly the records with that key.
    let (p1, p2) = crack_three(&mut seg, 0, LOWER, 50.0, 50.0);
    assert!(seg[p1..p2].iter().all(|r| r.mbb.lo[0] == 50.0));
    // Range outside the data: everything in one side.
    let (p1, p2) = crack_three(&mut seg, 0, LOWER, -10.0, -5.0);
    assert_eq!((p1, p2), (0, 0));
    let (p1, p2) = crack_three(&mut seg, 0, LOWER, 1e6, 2e6);
    assert_eq!((p1, p2), (100, 100));
}

#[test]
fn three_way_preserves_multiset() {
    let mut seg = random_segment(777, 5);
    let mut before = keys(&seg);
    before.sort_by(f64::total_cmp);
    crack_three(&mut seg, 0, LOWER, 30.0, 60.0);
    let mut after = keys(&seg);
    after.sort_by(f64::total_cmp);
    assert_eq!(before, after);
}

#[test]
fn median_splits_non_degenerate_data() {
    let mut seg = random_segment(101, 6);
    let p = crack_median(&mut seg, 0, LOWER);
    assert!(p > 0 && p < seg.len(), "median split must be interior");
    let max_left = seg[..p]
        .iter()
        .map(|r| r.mbb.lo[0])
        .fold(f64::NEG_INFINITY, f64::max);
    let min_right = seg[p..]
        .iter()
        .map(|r| r.mbb.lo[0])
        .fold(f64::INFINITY, f64::min);
    assert!(max_left < min_right);
    // Roughly balanced.
    assert!(p >= seg.len() / 4 && p <= 3 * seg.len() / 4);
}

#[test]
fn median_on_all_equal_returns_degenerate_zero() {
    let mut seg: Vec<Record<1>> = (0..9).map(|_| rec1(3.0, 4.0)).collect();
    assert_eq!(crack_median(&mut seg, 0, LOWER), 0);
}

fn random_segment3(n: usize, seed: u64) -> Vec<Record<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let mut lo = [0.0; 3];
            let mut hi = [0.0; 3];
            for k in 0..3 {
                lo[k] = rng.random_range(0.0..100.0);
                hi[k] = lo[k] + rng.random_range(0.0..8.0);
            }
            Record::new(id as u64, Aabb::new(lo, hi))
        })
        .collect()
}

#[test]
fn cracks_work_on_higher_dims() {
    let mut seg: Vec<Record<3>> = (0..200)
        .map(|i| {
            let v = (i as f64 * 7.3) % 50.0;
            Record::new(i as u64, Aabb::new([0.0, v, 0.0], [1.0, v + 1.0, 1.0]))
        })
        .collect();
    let p = crack_two(&mut seg, 1, LOWER, 25.0);
    assert!(seg[..p].iter().all(|r| r.mbb.lo[1] < 25.0));
    assert!(seg[p..].iter().all(|r| r.mbb.lo[1] >= 25.0));
}

#[test]
fn keyed_two_way_matches_reference() {
    for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
        for (seed, pivot) in [(31, 50.0), (32, 0.0), (33, 200.0), (34, 97.5)] {
            for dim in [0usize, 2] {
                let mut keyed = random_segment3(501, seed);
                let mut plain = keyed.clone();
                // The second pass re-runs both on the partitioned input
                // to exercise the sorted edge case.
                for pass in 0..2 {
                    let mut lanes = Lanes::of(&keyed);
                    let (p, l, r) = crack::crack_two_keyed_measured(lanes.view(), dim, mode, pivot);
                    keyed = lanes.records();
                    let p_ref = crack_two(&mut plain, dim, mode, pivot);
                    let at = format!("mode {mode:?}, dim {dim}, pass {pass}");
                    assert_eq!(p, p_ref, "split ({at})");
                    assert_eq!(keyed, plain, "permutation ({at})");
                    assert_eq!(l, DimBounds::of(&plain[..p], dim, mode), "left ({at})");
                    assert_eq!(r, DimBounds::of(&plain[p..], dim, mode), "right ({at})");
                }
            }
        }
    }
}

#[test]
fn keyed_three_way_matches_reference() {
    for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
        for (seed, lo, hi) in [(41, 25.0, 75.0), (42, 50.0, 50.0), (43, -5.0, -1.0)] {
            let mut keyed = random_segment3(700, seed);
            let mut plain = keyed.clone();
            for pass in 0..2 {
                let mut lanes = Lanes::of(&keyed);
                let (p1, p2, m) = crack::crack_three_keyed_measured(lanes.view(), 1, mode, lo, hi);
                keyed = lanes.records();
                let (r1, r2) = crack_three(&mut plain, 1, mode, lo, hi);
                assert_eq!((p1, p2), (r1, r2), "split ({mode:?}, pass {pass})");
                assert_eq!(keyed, plain, "permutation ({mode:?}, pass {pass})");
                for (got, seg) in m.iter().zip([&plain[..r1], &plain[r1..r2], &plain[r2..]]) {
                    assert_eq!(*got, DimBounds::of(seg, 1, mode), "bounds ({mode:?})");
                }
            }
        }
    }
}

#[test]
fn keyed_median_matches_reference() {
    for (mode, dim, n, seed) in [
        (AssignBy::Lower, 0, 101, 51),
        (AssignBy::Center, 0, 101, 51),
        (AssignBy::Lower, 0, 137, 61),
        (AssignBy::Center, 1, 137, 62),
        (AssignBy::Upper, 2, 137, 63),
    ] {
        let mut plain = random_segment3(n, seed);
        let mut lanes = Lanes::of(&plain);
        let (p, l, r) = crack::crack_median_keyed_measured(lanes.view(), dim, mode);
        let keyed = lanes.records();
        let p_ref = crack_median(&mut plain, dim, mode);
        assert_eq!(p, p_ref, "{mode:?}");
        assert_eq!(keyed, plain, "{mode:?}: permutation diverged");
        assert!(0 < p && p < keyed.len(), "non-degenerate by construction");
        assert_eq!(l, DimBounds::of(&keyed[..p], dim, mode), "{mode:?}");
        assert_eq!(r, DimBounds::of(&keyed[p..], dim, mode), "{mode:?}");
    }
    // Degenerate: all equal → 0; tiny segments return their length
    // (measurements are unspecified there and unread by the caller).
    let same: Vec<Record<3>> = (0..9)
        .map(|i| Record::new(i, Aabb::new([3.0; 3], [4.0; 3])))
        .collect();
    let (p, _, _) = crack::crack_median_keyed_measured(Lanes::of(&same).view(), 0, LOWER);
    assert_eq!(p, 0);
    let one = vec![Record::new(0, Aabb::new([1.0; 3], [2.0; 3]))];
    let (p, _, _) = crack::crack_median_keyed_measured(Lanes::of(&one).view(), 0, LOWER);
    assert_eq!(p, 1);
}
