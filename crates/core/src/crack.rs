//! Cracking kernels: the in-place partition primitives QUASII uses to
//! reorganize the data array (paper §5.2, the "incremental quick sort
//! strategy introduced in database cracking").
//!
//! All partitions key on one *representative coordinate* of the object in
//! one dimension — the lower corner by default (§5.1 "Data-oriented
//! Slicing": each object belongs to exactly one slice, no replication), or
//! the center/upper corner per the paper's footnote 1 (see
//! [`crate::AssignBy`]).
//!
//! # One kernel per crack shape
//!
//! The engine cracks with three keyed kernels, one per crack shape — the
//! partition primitives of Idreos et al.'s cracker column: two-way
//! ([`crack_two_keyed_measured`]), three-way
//! ([`crack_three_keyed_measured`]) and the rank-based fallback
//! ([`crack_median_keyed_measured`]). Each scans two narrow,
//! cache-resident columns maintained by `KeyColumn` — the
//! **assignment-key column** (`keys[i] == key_of(&recs[i], dim, mode)`) it
//! compares against the pivot, and the companion upper-bound column
//! (`his[i] == recs[i].mbb.hi[dim]`) it folds bounding information from —
//! and touches the wide records **only to swap misplaced pairs**. During
//! the pass it measures exactly what the engine consumes per output
//! segment: a [`DimBounds`] on the crack dimension (the engine lazily
//! computes an exact MBB only for the at-most-τ-sized segments that become
//! refined slices, where the scan is cache-resident). Cf. Pirk et al.'s
//! predicated "fancy scan" kernels.
//!
//! The oracle is [`reference`](mod@reference): record-streaming
//! compare-and-swap kernels over the wide `Record<D>` array, recomputing
//! [`key_of`] on every probe, followed by [`DimBounds::of`] on each output
//! segment. Every keyed kernel produces **the same permutation and split
//! points** as its counterpart there bit for bit, and value-equal
//! measurements (min/max folds); `tests/keyed_kernels.rs` proves it
//! property-based.

use crate::config::AssignBy;
use quasii_common::geom::Record;

/// The representative (assignment) coordinate of `r` on `dim`.
#[inline(always)]
pub fn key_of<const D: usize>(r: &Record<D>, dim: usize, mode: AssignBy) -> f64 {
    match mode {
        AssignBy::Lower => r.mbb.lo[dim],
        AssignBy::Center => 0.5 * (r.mbb.lo[dim] + r.mbb.hi[dim]),
        AssignBy::Upper => r.mbb.hi[dim],
    }
}

/// Per-dimension measurements of a record segment: the assignment-key
/// minimum (drives the sorted slice lists) and the actual spatial interval
/// (drives slice MBBs). This is exactly what the engine needs per crack
/// output segment that stays *unrefined* — the keyed kernels measure it
/// from the narrow columns during the partition pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DimBounds {
    /// Minimum assignment key over the segment (`+inf` when empty).
    pub min_key: f64,
    /// Minimum `lo[dim]` over the segment (`+inf` when empty).
    pub min_lo: f64,
    /// Maximum `hi[dim]` over the segment (`-inf` when empty).
    pub max_hi: f64,
}

impl DimBounds {
    /// Identity bounds of an empty segment.
    pub fn empty() -> Self {
        Self {
            min_key: f64::INFINITY,
            min_lo: f64::INFINITY,
            max_hi: f64::NEG_INFINITY,
        }
    }

    /// Folds one element's assignment key and upper bound in. Kept
    /// `inline(always)` and only ever called on fixed named locals so the
    /// accumulator stays in registers (an index-selected destination would
    /// force it into memory).
    #[inline(always)]
    fn fold_key_hi(&mut self, k: f64, h: f64) {
        if k < self.min_key {
            self.min_key = k;
        }
        if h > self.max_hi {
            self.max_hi = h;
        }
    }

    /// Folds one element's lower bound in (only needed by `Center`/`Upper`
    /// assignment, where the key is not the lower bound).
    #[inline(always)]
    fn fold_lo(&mut self, lo: f64) {
        if lo < self.min_lo {
            self.min_lo = lo;
        }
    }

    /// Measures a segment with a record-streaming scan: the oracle for the
    /// keyed kernels' in-pass measurements.
    pub fn of<const D: usize>(seg: &[Record<D>], dim: usize, mode: AssignBy) -> Self {
        let mut b = Self::empty();
        for r in seg {
            let k = key_of(r, dim, mode);
            if k < b.min_key {
                b.min_key = k;
            }
            if r.mbb.lo[dim] < b.min_lo {
                b.min_lo = r.mbb.lo[dim];
            }
            if r.mbb.hi[dim] > b.max_hi {
                b.max_hi = r.mbb.hi[dim];
            }
        }
        b
    }
}

// ---------------------------------------------------------------------------
// Keyed kernels — the engine's hot path. All of them operate on a
// `(keys, his, recs)` triple in lockstep: on entry `keys[i]` must equal
// `key_of(&recs[i], dim, mode)` and `his[i]` must equal
// `recs[i].mbb.hi[dim]` for the dimension being cracked, and the kernels
// preserve that correspondence (every record swap swaps the matching
// column entries).
// ---------------------------------------------------------------------------

/// Whether `min lo[dim]` must be folded from the records: in `Lower` mode
/// the assignment key *is* `lo[dim]`, so the minimum key doubles as the
/// minimum lower bound and untouched records are never read at all.
#[inline(always)]
fn folds_lo(mode: AssignBy) -> bool {
    mode != AssignBy::Lower
}

/// The one place a measuring kernel touches a record's MBB: folds
/// `recs[idx].mbb.lo[dim]` into `b` when the assignment mode requires it
/// (`Center`/`Upper`, where the key is not the lower bound). Compiles to
/// nothing when `!FOLD_LO`.
#[inline(always)]
fn fold_lo_at<const D: usize, const FOLD_LO: bool>(
    b: &mut DimBounds,
    recs: &[Record<D>],
    idx: usize,
    dim: usize,
) {
    if FOLD_LO {
        b.fold_lo(recs[idx].mbb.lo[dim]);
    }
}

/// The body of [`crack_two_keyed_measured`]: min key and max upper bound
/// come straight from the narrow columns (`FOLD_LO` additionally folds
/// `lo[dim]` from the records, needed for `Center`/`Upper` assignment
/// where the key is not the lower bound).
fn crack_two_keyed_measured_impl<const D: usize, const FOLD_LO: bool>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    pivot: f64,
) -> (usize, DimBounds, DimBounds) {
    let mut left = DimBounds::empty();
    let mut right = DimBounds::empty();
    let mut i = 0usize;
    let mut j = keys.len();
    loop {
        // Scans run over zipped subslice iterators so the narrow-column
        // loads carry no per-element bounds check.
        for (&k, &h) in keys[i..j].iter().zip(his[i..j].iter()) {
            if k >= pivot {
                break;
            }
            left.fold_key_hi(k, h);
            fold_lo_at::<D, FOLD_LO>(&mut left, recs, i, dim);
            i += 1;
        }
        for (&k, &h) in keys[i..j].iter().zip(his[i..j].iter()).rev() {
            if k < pivot {
                break;
            }
            right.fold_key_hi(k, h);
            fold_lo_at::<D, FOLD_LO>(&mut right, recs, j - 1, dim);
            j -= 1;
        }
        if i + 1 >= j {
            break;
        }
        // Misplaced pair: recs[i] ends right, recs[j-1] ends left — fold
        // each into its final side, then swap the triple.
        right.fold_key_hi(keys[i], his[i]);
        left.fold_key_hi(keys[j - 1], his[j - 1]);
        fold_lo_at::<D, FOLD_LO>(&mut right, recs, i, dim);
        fold_lo_at::<D, FOLD_LO>(&mut left, recs, j - 1, dim);
        keys.swap(i, j - 1);
        his.swap(i, j - 1);
        recs.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
    if !FOLD_LO {
        // Lower assignment: the key is the lower bound.
        left.min_lo = left.min_key;
        right.min_lo = right.min_key;
    }
    (i, left, right)
}

/// Two-way keyed crack: reorders the `(keys, his, recs)` triple in lockstep
/// so entries with `key < pivot` precede the rest; returns the split point
/// (first index of the `>= pivot` part) and both output segments'
/// [`DimBounds`], measured from the narrow columns during the pass.
///
/// The scan compares only the 8-byte key column (a `Record<3>` is 56
/// bytes); the wide records are touched only when a misplaced pair must
/// swap. Produces bit-for-bit the same permutation and split point as
/// [`reference::crack_two`]; the measurements equal [`DimBounds::of`] on
/// each side.
pub fn crack_two_keyed_measured<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
    pivot: f64,
) -> (usize, DimBounds, DimBounds) {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    if folds_lo(mode) {
        crack_two_keyed_measured_impl::<D, true>(keys, his, recs, dim, pivot)
    } else {
        crack_two_keyed_measured_impl::<D, false>(keys, his, recs, dim, pivot)
    }
}

/// The body of [`crack_three_keyed_measured`].
fn crack_three_keyed_measured_impl<const D: usize, const FOLD_LO: bool>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    low: f64,
    high: f64,
) -> (usize, usize, [DimBounds; 3]) {
    // Three scalar accumulator sets with a fixed destination per branch arm
    // (an index-selected `m[region]` fold would force the accumulators into
    // memory instead of registers).
    let mut m0 = DimBounds::empty();
    let mut m1 = DimBounds::empty();
    let mut m2 = DimBounds::empty();
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = keys.len();
    while i < gt {
        // Fast-forward over a run of middle-class elements (no swap, fixed
        // fold destination) — the dominant class once a segment converges.
        // The zipped subslice iterators carry no per-element bounds check
        // on the narrow-column loads.
        for (&k, &h) in keys[i..gt].iter().zip(his[i..gt].iter()) {
            if k < low || k > high {
                break;
            }
            m1.fold_key_hi(k, h);
            fold_lo_at::<D, FOLD_LO>(&mut m1, recs, i, dim);
            i += 1;
        }
        if i >= gt {
            break;
        }
        let v = keys[i];
        if v < low {
            m0.fold_key_hi(v, his[i]);
            fold_lo_at::<D, FOLD_LO>(&mut m0, recs, i, dim);
            // Self-swaps (lt == i: no mid/high element seen yet) are no-ops
            // in the reference kernel too; skipping them saves the record
            // traffic on already-ordered prefixes without changing the
            // permutation.
            if lt != i {
                keys.swap(lt, i);
                his.swap(lt, i);
                recs.swap(lt, i);
            }
            lt += 1;
            i += 1;
        } else {
            // The fast-forward loop stopped on a non-middle element, so
            // here v > high.
            debug_assert!(v > high);
            m2.fold_key_hi(v, his[i]);
            fold_lo_at::<D, FOLD_LO>(&mut m2, recs, i, dim);
            gt -= 1;
            keys.swap(i, gt);
            his.swap(i, gt);
            recs.swap(i, gt);
        }
    }
    let mut m = [m0, m1, m2];
    if !FOLD_LO {
        for b in &mut m {
            b.min_lo = b.min_key;
        }
    }
    (lt, gt, m)
}

/// Three-way keyed crack (Dutch national flag): partitions the
/// `(keys, his, recs)` triple into `key < low` | `low <= key <= high` |
/// `key > high`; returns the two split points `(p1, p2)` so the middle part
/// is `p1..p2`, and the three output segments' [`DimBounds`], measured from
/// the narrow columns during the pass. Identical permutation and split
/// points to [`reference::crack_three`]; the measurements equal
/// [`DimBounds::of`] on each segment.
pub fn crack_three_keyed_measured<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
    low: f64,
    high: f64,
) -> (usize, usize, [DimBounds; 3]) {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
    if folds_lo(mode) {
        crack_three_keyed_measured_impl::<D, true>(keys, his, recs, dim, low, high)
    } else {
        crack_three_keyed_measured_impl::<D, false>(keys, his, recs, dim, low, high)
    }
}

/// Rank-based fallback split used when midpoint (value) splits cannot
/// separate a degenerate distribution: moves the median-by-key record into
/// place, rebuilds both columns for the permuted segment, and partitions
/// around the median key, measuring both output segments' [`DimBounds`]
/// during the partition pass. Returns the split point, which may be `0` or
/// `recs.len()` when all keys are equal (caller must handle).
///
/// The record selection runs the exact comparator of
/// [`reference::crack_median`], so the permutation (and therefore the whole
/// engine state) stays bit-for-bit identical to the record-streaming
/// oracle. This path is rare (degenerate value distributions only), so the
/// extra re-keying scan does not matter.
///
/// The measurements are only meaningful when `0 < split < recs.len()`; on a
/// degenerate (value-indivisible or sub-2-element) segment the caller
/// force-refines and never reads them.
pub fn crack_median_keyed_measured<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
) -> (usize, DimBounds, DimBounds) {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    if recs.len() < 2 {
        return (recs.len(), DimBounds::empty(), DimBounds::empty());
    }
    let mid = recs.len() / 2;
    recs.select_nth_unstable_by(mid, |a, b| {
        key_of(a, dim, mode)
            .partial_cmp(&key_of(b, dim, mode))
            .expect("coordinates are never NaN")
    });
    // The selection permuted the records without the columns: re-key.
    crate::keys::rekey(keys, his, recs, dim, mode);
    let pivot = keys[mid];
    // Partition strictly below the median value; if everything is equal to
    // the pivot this yields 0 and the caller treats the slice as
    // value-indivisible.
    crack_two_keyed_measured(keys, his, recs, dim, mode, pivot)
}

/// The record-streaming kernels (pre-key-column), kept as the bit-for-bit
/// oracle for the keyed kernels — with [`DimBounds::of`] on each output
/// segment — and as the baseline side of the `benches/kernels.rs`
/// keyed-vs-split-passes comparison. Not used on the engine's query path.
pub mod reference {
    use super::key_of;
    use crate::config::AssignBy;
    use quasii_common::geom::Record;

    /// Two-way crack: reorders `seg` so records with `key < pivot` precede
    /// the rest; returns the split point (first index of the `>= pivot`
    /// part).
    ///
    /// Hoare-style two-pointer pass — the classic database-cracking kernel,
    /// recomputing `key_of` on every probe.
    pub fn crack_two<const D: usize>(
        seg: &mut [Record<D>],
        dim: usize,
        mode: AssignBy,
        pivot: f64,
    ) -> usize {
        let mut i = 0usize;
        let mut j = seg.len();
        loop {
            while i < j && key_of(&seg[i], dim, mode) < pivot {
                i += 1;
            }
            while i < j && key_of(&seg[j - 1], dim, mode) >= pivot {
                j -= 1;
            }
            if i + 1 >= j {
                break;
            }
            seg.swap(i, j - 1);
            i += 1;
            j -= 1;
        }
        i
    }

    /// Three-way crack (Dutch national flag): partitions `seg` into
    /// `key < low` | `low <= key <= high` | `key > high`; returns the two
    /// split points `(p1, p2)` so the middle part is `p1..p2`.
    pub fn crack_three<const D: usize>(
        seg: &mut [Record<D>],
        dim: usize,
        mode: AssignBy,
        low: f64,
        high: f64,
    ) -> (usize, usize) {
        debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
        let mut lt = 0usize;
        let mut i = 0usize;
        let mut gt = seg.len();
        while i < gt {
            let v = key_of(&seg[i], dim, mode);
            if v < low {
                seg.swap(lt, i);
                lt += 1;
                i += 1;
            } else if v > high {
                gt -= 1;
                seg.swap(i, gt);
            } else {
                i += 1;
            }
        }
        (lt, gt)
    }

    /// Rank-based fallback split used when midpoint (value) splits cannot
    /// separate a degenerate distribution: moves the median-by-key value
    /// into place and partitions around it. Returns the split point, which
    /// may be `0` or `seg.len()` when all keys are equal (caller must
    /// handle).
    pub fn crack_median<const D: usize>(
        seg: &mut [Record<D>],
        dim: usize,
        mode: AssignBy,
    ) -> usize {
        if seg.len() < 2 {
            return seg.len();
        }
        let mid = seg.len() / 2;
        seg.select_nth_unstable_by(mid, |a, b| {
            key_of(a, dim, mode)
                .partial_cmp(&key_of(b, dim, mode))
                .expect("coordinates are never NaN")
        });
        let pivot = key_of(&seg[mid], dim, mode);
        // Partition strictly below the median value; if everything is equal
        // to the pivot this yields 0 and the caller treats the slice as
        // value-indivisible.
        crack_two(seg, dim, mode, pivot)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{crack_median, crack_three, crack_two};
    use super::*;
    use crate::keys::rekey;
    use quasii_common::geom::Aabb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Builds the column pair of a segment.
    fn columns_of<const D: usize>(
        seg: &[Record<D>],
        dim: usize,
        mode: AssignBy,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut k = vec![0.0; seg.len()];
        let mut h = vec![0.0; seg.len()];
        rekey(&mut k, &mut h, seg, dim, mode);
        (k, h)
    }

    #[test]
    fn key_of_each_mode() {
        let r = rec1(2.0, 6.0);
        assert_eq!(key_of(&r, 0, AssignBy::Lower), 2.0);
        assert_eq!(key_of(&r, 0, AssignBy::Center), 4.0);
        assert_eq!(key_of(&r, 0, AssignBy::Upper), 6.0);
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

    #[test]
    fn dim_bounds_measures_interval_and_key() {
        let seg = vec![rec1(1.0, 9.0), rec1(4.0, 5.0), rec1(0.5, 2.0)];
        let b = DimBounds::of(&seg, 0, LOWER);
        assert_eq!(b.min_lo, 0.5);
        assert_eq!(b.max_hi, 9.0);
        assert_eq!(b.min_key, 0.5);
        // Centers: 5.0, 4.5, 1.25 → min key 1.25.
        let c = DimBounds::of(&seg, 0, AssignBy::Center);
        assert_eq!(c.min_key, 1.25);
        let e = DimBounds::of::<1>(&[], 0, LOWER);
        assert!(e.min_lo.is_infinite() && e.max_hi.is_infinite());
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

    // -- keyed kernels ≡ record-streaming oracle (spot checks; the deep
    //    property suite lives in tests/keyed_kernels.rs) ------------------

    /// Asserts the `(keys, his, recs)` triple is still in lockstep.
    fn assert_columns_consistent<const D: usize>(
        keys: &[f64],
        his: &[f64],
        recs: &[Record<D>],
        dim: usize,
        mode: AssignBy,
    ) {
        for ((k, h), r) in keys.iter().zip(his).zip(recs) {
            assert_eq!(*k, key_of(r, dim, mode), "key column out of lockstep");
            assert_eq!(*h, r.mbb.hi[dim], "upper-bound column out of lockstep");
        }
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
                        let (mut ck, mut ch) = columns_of(&keyed, dim, mode);
                        let (p, l, r) = crack_two_keyed_measured(
                            &mut ck, &mut ch, &mut keyed, dim, mode, pivot,
                        );
                        let p_ref = crack_two(&mut plain, dim, mode, pivot);
                        let at = format!("mode {mode:?}, dim {dim}, pass {pass}");
                        assert_eq!(p, p_ref, "split ({at})");
                        assert_eq!(keyed, plain, "permutation ({at})");
                        assert_eq!(l, DimBounds::of(&plain[..p], dim, mode), "left ({at})");
                        assert_eq!(r, DimBounds::of(&plain[p..], dim, mode), "right ({at})");
                        assert_columns_consistent(&ck, &ch, &keyed, dim, mode);
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
                    let (mut ck, mut ch) = columns_of(&keyed, 1, mode);
                    let (p1, p2, m) =
                        crack_three_keyed_measured(&mut ck, &mut ch, &mut keyed, 1, mode, lo, hi);
                    let (r1, r2) = crack_three(&mut plain, 1, mode, lo, hi);
                    assert_eq!((p1, p2), (r1, r2), "split ({mode:?}, pass {pass})");
                    assert_eq!(keyed, plain, "permutation ({mode:?}, pass {pass})");
                    for (got, seg) in m.iter().zip([&plain[..r1], &plain[r1..r2], &plain[r2..]]) {
                        assert_eq!(*got, DimBounds::of(seg, 1, mode), "bounds ({mode:?})");
                    }
                    assert_columns_consistent(&ck, &ch, &keyed, 1, mode);
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
            let mut keyed = random_segment3(n, seed);
            let (mut ck, mut ch) = columns_of(&keyed, dim, mode);
            let mut plain = keyed.clone();
            let (p, l, r) = crack_median_keyed_measured(&mut ck, &mut ch, &mut keyed, dim, mode);
            let p_ref = crack_median(&mut plain, dim, mode);
            assert_eq!(p, p_ref, "{mode:?}");
            assert_eq!(keyed, plain, "{mode:?}: permutation diverged");
            assert_columns_consistent(&ck, &ch, &keyed, dim, mode);
            assert!(0 < p && p < keyed.len(), "non-degenerate by construction");
            assert_eq!(l, DimBounds::of(&keyed[..p], dim, mode), "{mode:?}");
            assert_eq!(r, DimBounds::of(&keyed[p..], dim, mode), "{mode:?}");
        }
        // Degenerate: all equal → 0; tiny segments return their length
        // (measurements are unspecified there and unread by the caller).
        let mut same: Vec<Record<3>> = (0..9)
            .map(|i| Record::new(i, Aabb::new([3.0; 3], [4.0; 3])))
            .collect();
        let (mut ck, mut ch) = columns_of(&same, 0, LOWER);
        let (p, _, _) = crack_median_keyed_measured(&mut ck, &mut ch, &mut same, 0, LOWER);
        assert_eq!(p, 0);
        let mut one = vec![Record::new(0, Aabb::new([1.0; 3], [2.0; 3]))];
        let (mut ck1, mut ch1) = columns_of(&one, 0, LOWER);
        let (p, _, _) = crack_median_keyed_measured(&mut ck1, &mut ch1, &mut one, 0, LOWER);
        assert_eq!(p, 1);
    }

    #[test]
    fn keyed_kernels_handle_empty_segments() {
        let mut keys: Vec<f64> = vec![];
        let mut his: Vec<f64> = vec![];
        let mut recs: Vec<Record<3>> = vec![];
        let (p, l, r) = crack_two_keyed_measured(&mut keys, &mut his, &mut recs, 0, LOWER, 1.0);
        assert_eq!(p, 0);
        assert_eq!((l, r), (DimBounds::empty(), DimBounds::empty()));
        let (p1, p2, m) =
            crack_three_keyed_measured(&mut keys, &mut his, &mut recs, 0, LOWER, 0.0, 1.0);
        assert_eq!((p1, p2), (0, 0));
        assert!(m.iter().all(|x| *x == DimBounds::empty()));
        let (p, l, r) = crack_median_keyed_measured(&mut keys, &mut his, &mut recs, 0, LOWER);
        assert_eq!((p, l, r), (0, DimBounds::empty(), DimBounds::empty()));
    }
}
