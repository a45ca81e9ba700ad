//! Engine-level byte-identity of the vectorized kernels (PR 9) against the
//! forced-scalar oracle.
//!
//! The kernel-level equivalence proofs live next to the kernels
//! (`quasii::simd` unit tests); this suite closes the loop at the
//! **engine** level: two engines that differ *only* in their
//! [`SimdPolicy`] — one forced to the scalar oracle, one forced to the best
//! level the host detects — must produce byte-identical query results,
//! byte-identical cumulative [`Quasii::stats`], and byte-identical
//! snapshots (the snapshot serializes the physical record permutation,
//! every slice boundary and every sealed column).
//!
//! On a host without SSE2/AVX2 the "vector" side clamps to scalar and the
//! suite degenerates to scalar-vs-scalar — still a valid (if trivial) run,
//! which is exactly the fallback behavior the dispatch layer promises.
//!
//! The generators use coarse integer-derived coordinates, so segments hit
//! heavy key ties, odd (non-lane-multiple) lengths, and unaligned chunk
//! remainders; `-0.0` appears in `snapshots_cross_isa_boundaries`, where a
//! tie between the two zeros must not move a snapshot byte.

use proptest::prelude::*;
use quasii::{AssignBy, SimdLevel, SimdPolicy};
use quasii_suite::prelude::*;

/// The forced-vector policy under test: the best level the host detects,
/// pinned as an explicit force so neither `QUASII_SIMD` nor the CI scalar
/// matrix can silently turn this suite into scalar-vs-scalar.
fn vector_policy() -> SimdPolicy {
    match SimdLevel::detect() {
        SimdLevel::Scalar => SimdPolicy::Scalar,
        SimdLevel::Sse2 => SimdPolicy::Sse2,
        SimdLevel::Avx2 => SimdPolicy::Avx2,
    }
}

fn arb_mode() -> impl Strategy<Value = AssignBy> {
    (0usize..3).prop_map(|i| match i {
        0 => AssignBy::Lower,
        1 => AssignBy::Center,
        _ => AssignBy::Upper,
    })
}

/// One engine per policy, identical in every other respect.
fn pair(data: &[Record<3>], tau: usize, mode: AssignBy) -> (Quasii<3>, Quasii<3>) {
    let cfg = |simd: SimdPolicy| {
        QuasiiConfig::with_tau(tau)
            .with_assign_by(mode)
            .with_simd(simd)
    };
    (
        Quasii::new(data.to_vec(), cfg(SimdPolicy::Scalar)),
        Quasii::new(data.to_vec(), cfg(vector_policy())),
    )
}

/// Drives both engines through the same batched query sequence and asserts
/// the full byte-identity contract after every batch.
fn assert_lockstep(
    scalar: &mut Quasii<3>,
    vector: &mut Quasii<3>,
    queries: &[Aabb<3>],
    batch: usize,
) -> Result<(), TestCaseError> {
    for chunk in queries.chunks(batch.max(1)) {
        let a = scalar.execute_batch(chunk);
        let b = vector.execute_batch(chunk);
        prop_assert_eq!(a, b, "query results diverged");
        prop_assert_eq!(scalar.stats(), vector.stats(), "work counters diverged");
        scalar.validate().map_err(TestCaseError::fail)?;
        vector.validate().map_err(TestCaseError::fail)?;
    }
    // Snapshot bytes serialize the physical permutation, every slice
    // boundary and every sealed column: equality proves the two engines
    // hold the same state, not only the same answers.
    let a = scalar
        .write_snapshot()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let b = vector
        .write_snapshot()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(a, b, "snapshot (permutation) bytes diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The main lattice: assign mode × batch shape ×
    /// segment size (including non-lane-multiple sizes and τ small enough
    /// to force deep refinement).
    #[test]
    fn vector_engine_is_byte_identical(
        seed in 0u64..1_000,
        n in 1usize..600,
        tau in 2usize..24,
        mode in arb_mode(),
        batch in 1usize..9,
        queries in prop::collection::vec(
            (0.0..90.0f64, 0.0..90.0f64, 0.0..90.0f64, 1.0..40.0f64),
            1..10,
        ),
    ) {
        let data = dataset::uniform_boxes_in::<3>(n, 100.0, seed);
        let qs: Vec<Aabb<3>> = queries
            .iter()
            .map(|&(x, y, z, w)| Aabb::new([x, y, z], [x + w, y + w, z + w]))
            .collect();
        let (mut scalar, mut vector) = pair(&data, tau, mode);
        assert_lockstep(&mut scalar, &mut vector, &qs, batch)?;
    }

    /// Fully converged + sealed: `finalize()` exercises the median-fallback
    /// refinement sweep, `seal()` freezes the arena, and the remaining
    /// queries run the vectorized sealed lane tests against the scalar
    /// oracle.
    #[test]
    fn sealed_read_path_is_byte_identical(
        seed in 0u64..1_000,
        n in 1usize..400,
        mode in arb_mode(),
        queries in prop::collection::vec(
            (0.0..90.0f64, 0.0..90.0f64, 0.0..90.0f64, 1.0..40.0f64),
            1..10,
        ),
    ) {
        let data = dataset::uniform_boxes_in::<3>(n, 100.0, seed);
        let qs: Vec<Aabb<3>> = queries
            .iter()
            .map(|&(x, y, z, w)| Aabb::new([x, y, z], [x + w, y + w, z + w]))
            .collect();
        let (mut scalar, mut vector) = pair(&data, 8, mode);
        for idx in [&mut scalar, &mut vector] {
            idx.finalize();
            idx.seal();
        }
        prop_assert_eq!(scalar.sealed_fraction(), 1.0);
        prop_assert_eq!(vector.sealed_fraction(), 1.0);
        assert_lockstep(&mut scalar, &mut vector, &qs, qs.len())?;
        // Ground truth on top of equivalence: both agree with brute force.
        for q in &qs {
            let got = vector.query_collect(q);
            quasii_common::index::assert_matches_brute_force(&data, q, &got);
        }
    }
}

/// Degenerate all-equal keys: every record identical, so every crack pass
/// hits the value-indivisible guard and three-way middles swallow whole
/// segments — the nastiest tie-handling path.
#[test]
fn degenerate_all_equal_records_stay_identical() {
    let data: Vec<Record<3>> = (0..257)
        .map(|i| Record::new(i, Aabb::new([7.0; 3], [9.0; 3])))
        .collect();
    let qs = [
        Aabb::new([0.0; 3], [5.0; 3]),   // miss below
        Aabb::new([8.0; 3], [8.5; 3]),   // hit inside
        Aabb::new([10.0; 3], [20.0; 3]), // miss above
    ];
    for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
        let (mut scalar, mut vector) = pair(&data, 4, mode);
        for q in &qs {
            assert_eq!(scalar.query_collect(q), vector.query_collect(q));
        }
        assert_eq!(scalar.stats(), vector.stats());
        scalar.validate().unwrap();
        vector.validate().unwrap();
    }
}

/// Boxes whose coordinates tie as `-0.0 == +0.0` in every dimension, in
/// mixed order and beside ordinary values: a kernel that kept "the other
/// zero" of a tie would answer identically and still change the bytes of
/// every bound it folded.
fn signed_zero_boxes() -> Vec<Record<3>> {
    (0..400u64)
        .map(|i| {
            let zero = |k: u64| if (i / k).is_multiple_of(2) { -0.0 } else { 0.0 };
            let coord = |k: u64| match (i / k) % 3 {
                0 => zero(k + 1),
                _ => ((i * k) % 89) as f64,
            };
            let lo = [coord(1), coord(2), coord(5)];
            // Degenerate extents keep the zero's sign in the upper corner.
            let hi = if i.is_multiple_of(4) {
                lo
            } else {
                lo.map(|v| v + 3.0)
            };
            Record::new(i, Aabb::new(lo, hi))
        })
        .collect()
}

/// A snapshot written by a forced-vector engine revives and keeps answering
/// identically under a forced-scalar revival (and vice versa): the SIMD
/// policy is a host property, never index state. Snapshot bytes are equal
/// across levels mid-crack and converged, signed zeros included.
#[test]
fn snapshots_cross_isa_boundaries() {
    let qs: Vec<Aabb<3>> = (0..16)
        .map(|i| {
            let v = 6.0 * i as f64;
            Aabb::new([v; 3], [v + 9.0; 3])
        })
        .collect();
    for data in [
        dataset::uniform_boxes_in::<3>(500, 100.0, 11),
        signed_zero_boxes(),
    ] {
        let (mut scalar, mut vector) = pair(&data, 8, AssignBy::Lower);
        for idx in [&mut scalar, &mut vector] {
            let _ = idx.execute_batch(&qs);
        }
        assert_eq!(
            scalar.write_snapshot().unwrap(),
            vector.write_snapshot().unwrap(),
            "mid-crack snapshot bytes"
        );
        for idx in [&mut scalar, &mut vector] {
            idx.finalize();
            idx.seal();
        }
        let from_vector = vector.write_snapshot().unwrap();
        assert_eq!(scalar.write_snapshot().unwrap(), from_vector);
        // Revive the vector-written snapshot; the loader re-resolves dispatch
        // from the default policy on *this* host, and the results must match
        // the still-live forced-scalar engine.
        let mut revived = Quasii::<3>::from_snapshot(from_vector).unwrap();
        for q in &qs {
            assert_eq!(revived.query_collect(q), scalar.query_collect(q));
        }
    }
}
