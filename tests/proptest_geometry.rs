//! Algebraic laws of the geometry substrate — the layer every index trusts
//! implicitly. If any of these fail, all bets are off, so they get their own
//! property suite.

use proptest::prelude::*;
use quasii_suite::prelude::*;

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        -50.0..50.0f64,
        -50.0..50.0f64,
        -50.0..50.0f64,
        0.0..30.0f64,
        0.0..30.0f64,
        0.0..30.0f64,
    )
        .prop_map(|(x, y, z, a, b, c)| Aabb::new([x, y, z], [x + a, y + b, z + c]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn intersection_is_commutative_and_consistent(a in arb_box3(), b in arb_box3()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        // intersects <=> intersection() is Some
        prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
        // per-dimension decomposition (closed intervals)
        let per_dim = (0..3).all(|k| a.lo[k] <= b.hi[k] && a.hi[k] >= b.lo[k]);
        prop_assert_eq!(a.intersects(&b), per_dim);
    }

    #[test]
    fn intersection_result_is_contained_in_both(a in arb_box3(), b in arb_box3()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(i.is_valid());
            // The overlap intersects both inputs.
            prop_assert!(i.intersects(&a) && i.intersects(&b));
        }
    }

    #[test]
    fn union_contains_both_and_is_minimal_on_corners(a in arb_box3(), b in arb_box3()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        for k in 0..3 {
            prop_assert_eq!(u.lo[k], a.lo[k].min(b.lo[k]));
            prop_assert_eq!(u.hi[k], a.hi[k].max(b.hi[k]));
        }
    }

    #[test]
    fn containment_implies_intersection_and_volume_order(a in arb_box3(), b in arb_box3()) {
        if a.contains(&b) {
            prop_assert!(a.intersects(&b));
            prop_assert!(a.volume() >= b.volume());
        }
    }

    #[test]
    fn expand_is_idempotent_union(a in arb_box3(), b in arb_box3()) {
        let mut e = a;
        e.expand(&b);
        prop_assert_eq!(e, a.union(&b));
        let mut again = e;
        again.expand(&b);
        prop_assert_eq!(again, e, "expand is idempotent");
    }

    #[test]
    fn center_is_inside_and_extent_nonnegative(a in arb_box3()) {
        prop_assert!(a.contains(&Aabb::point(a.center())));
        for k in 0..3 {
            prop_assert!(a.extent(k) >= 0.0);
        }
        prop_assert!(a.volume() >= 0.0);
    }

    #[test]
    fn inflated_contains_original(a in arb_box3(), dx in 0.0..5.0f64, dy in 0.0..5.0f64, dz in 0.0..5.0f64) {
        let inflated = a.inflated(&[dx, dy, dz]);
        prop_assert!(inflated.contains(&a));
    }
}
