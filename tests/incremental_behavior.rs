//! Behavioural tests of the *incremental* indexes: refinement must converge
//! (work stops once a region is organized), must never corrupt structure,
//! and must leave results identical no matter the query order.

use quasii_common::geom::mbb_of;
use quasii_common::index::brute_force;
use quasii_suite::prelude::*;

#[test]
fn quasii_work_is_monotone_decreasing_within_a_cluster() {
    let data = dataset::neuro_like::<3>(50_000, 1);
    let u = mbb_of(&data);
    let w = workload::clustered(&u, 1, 50, 1e-4, 2);
    let mut idx = Quasii::with_default_config(data);
    let mut moved = Vec::new();
    let mut prev = 0u64;
    for q in &w.queries {
        idx.query_collect(q);
        let s = idx.stats();
        moved.push(s.records_cracked - prev);
        prev = s.records_cracked;
    }
    // The first queries shoulder the bulk of the reorganization; later
    // queries in the (spatially tight) cluster mostly reuse earlier slices.
    let head: u64 = moved[..5].iter().sum();
    let tail: u64 = moved[moved.len() - 5..].iter().sum();
    assert!(
        head > tail * 2,
        "refinement must front-load: head {head} vs tail {tail}"
    );
    let max = *moved.iter().max().expect("non-empty");
    assert_eq!(
        moved[0], max,
        "the very first query does the single largest reorganization"
    );
    idx.validate().unwrap();
}

#[test]
fn quasii_converges_then_stops_cracking_entirely() {
    let data = dataset::uniform_boxes_in::<3>(20_000, 1_000.0, 3);
    let mut idx = Quasii::with_default_config(data);
    let q = Aabb::new([100.0; 3], [300.0; 3]);
    for _ in 0..4 {
        idx.query_collect(&q);
    }
    let settled = idx.stats();
    for _ in 0..10 {
        idx.query_collect(&q);
    }
    let after = idx.stats();
    assert_eq!(settled.cracks, after.cracks);
    assert_eq!(settled.slices_created, after.slices_created);
    assert_eq!(settled.default_children, after.default_children);
}

#[test]
fn query_order_does_not_change_results() {
    let data = dataset::uniform_boxes_in::<3>(10_000, 1_000.0, 5);
    let u = mbb_of(&data);
    let queries = workload::uniform(&u, 40, 1e-3, 6).queries;

    // Forward order.
    let mut a = Quasii::with_default_config(data.clone());
    let mut fwd: Vec<Vec<u64>> = queries.iter().map(|q| a.query_collect(q)).collect();
    // Reverse order.
    let mut b = Quasii::with_default_config(data.clone());
    let mut rev: Vec<Vec<u64>> = queries.iter().rev().map(|q| b.query_collect(q)).collect();
    rev.reverse();

    for (f, r) in fwd.iter_mut().zip(rev.iter_mut()) {
        f.sort_unstable();
        r.sort_unstable();
        assert_eq!(f, r, "results depend on query order");
    }
    a.validate().unwrap();
    b.validate().unwrap();
}

#[test]
fn quasii_physical_reorg_preserves_the_record_multiset() {
    let data = dataset::neuro_like::<3>(8_000, 7);
    let mut ids: Vec<u64> = data.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let u = mbb_of(&data);
    let mut idx = Quasii::with_default_config(data);
    for q in &workload::clustered(&u, 3, 15, 1e-3, 8).queries {
        idx.query_collect(q);
    }
    let mut after: Vec<u64> = idx.records().iter().map(|r| r.id).collect();
    after.sort_unstable();
    assert_eq!(ids, after);
}

#[test]
fn sfcracker_piece_sizes_shrink_toward_sortedness() {
    let data = dataset::uniform_boxes_in::<3>(10_000, 1_000.0, 9);
    let u = mbb_of(&data);
    let mut idx = SfCracker::with_default_bits(data);
    let mut crack_counts = Vec::new();
    for q in &workload::uniform(&u, 100, 1e-3, 10).queries {
        idx.query_collect(q);
        crack_counts.push(idx.crack_count());
    }
    idx.validate().unwrap();
    assert!(crack_counts.windows(2).all(|w| w[0] <= w[1]));
    assert!(*crack_counts.last().unwrap() > 100);
}

#[test]
fn mosaic_refinement_is_query_local() {
    let data = dataset::uniform_boxes_in::<2>(30_000, 1_000.0, 11);
    let mut m = Mosaic::new(data, 30, 8);
    let corner = Aabb::new([0.0; 2], [60.0; 2]);
    for _ in 0..10 {
        m.query_collect(&corner);
    }
    m.validate().unwrap();
    let after_corner = m.stats().splits;
    // A far-away query must not have been pre-split.
    let far = Aabb::new([900.0; 2], [960.0; 2]);
    m.query_collect(&far);
    assert!(
        m.stats().splits > after_corner,
        "the far region was still coarse and must split now"
    );
}

#[test]
fn interleaving_two_regions_converges_both() {
    let data = dataset::uniform_boxes_in::<3>(20_000, 1_000.0, 13);
    let qa = Aabb::new([50.0; 3], [150.0; 3]);
    let qb = Aabb::new([700.0; 3], [800.0; 3]);
    let expect_a = brute_force(&data, &qa);
    let expect_b = brute_force(&data, &qb);
    let mut idx = Quasii::with_default_config(data);
    for i in 0..20 {
        let (q, expect) = if i % 2 == 0 {
            (&qa, &expect_a)
        } else {
            (&qb, &expect_b)
        };
        let mut got = idx.query_collect(q);
        got.sort_unstable();
        assert_eq!(&got, expect, "iteration {i}");
        idx.validate().unwrap();
    }
    let settled = idx.stats().cracks;
    idx.query_collect(&qa);
    idx.query_collect(&qb);
    assert_eq!(idx.stats().cracks, settled, "both regions converged");
}

#[test]
fn quasii_tau_levels_are_respected_after_convergence() {
    let data = dataset::uniform_boxes_in::<3>(30_000, 1_000.0, 15);
    let mut idx = Quasii::new(data, QuasiiConfig::with_tau(40));
    let u = Aabb::new([0.0; 3], [1_000.0; 3]);
    for q in &workload::uniform(&u, 150, 1e-3, 16).queries {
        idx.query_collect(q);
    }
    // validate() checks per-level τ compliance (unrefined slices must exceed
    // τ; refined slices carry exact MBBs).
    idx.validate().unwrap();
    assert_eq!(idx.tau_levels()[2], 40);
    assert!(idx.stats().slices_refined > 0);
}

#[test]
fn mosaic_and_sfcracker_agree_with_quasii_along_a_long_session() {
    let data = dataset::neuro_like::<3>(15_000, 17);
    let u = mbb_of(&data);
    let queries = workload::clustered(&u, 4, 25, 1e-3, 18).queries;
    let mut quasii = Quasii::with_default_config(data.clone());
    let mut mosaic = Mosaic::with_defaults(data.clone());
    let mut cracker = SfCracker::with_default_bits(data);
    for q in &queries {
        let mut a = quasii.query_collect(q);
        let mut b = mosaic.query_collect(q);
        let mut c = cracker.query_collect(q);
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, b, "Mosaic diverged");
        assert_eq!(a, c, "SFCracker diverged");
    }
}
