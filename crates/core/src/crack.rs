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
//! The oracle lives outside this crate, in `tests/reference/crack.rs`:
//! record-streaming compare-and-swap kernels over the wide `Record<D>`
//! array, recomputing the assignment key on every probe, followed by
//! [`DimBounds::of`] on each output segment. Every keyed kernel produces
//! **the same permutation and split points** as its counterpart there bit
//! for bit, and value-equal measurements (min/max folds);
//! `tests/keyed_kernels.rs` proves it property-based.

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
/// swap. Produces bit-for-bit the same permutation and split point as the
/// record-streaming oracle's `crack_two`; the measurements equal
/// [`DimBounds::of`] on each side.
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
/// points to the record-streaming oracle's `crack_three`; the measurements
/// equal [`DimBounds::of`] on each segment.
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
/// The record selection runs the exact comparator of the record-streaming
/// oracle's `crack_median` (`tests/reference/crack.rs`), so the permutation
/// (and therefore the whole engine state) stays bit-for-bit identical to
/// it. This path is rare (degenerate value distributions only), so the
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

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::geom::Aabb;

    const LOWER: AssignBy = AssignBy::Lower;

    fn rec1(lo: f64, hi: f64) -> Record<1> {
        Record::new(0, Aabb::new([lo], [hi]))
    }

    #[test]
    fn key_of_each_mode() {
        let r = rec1(2.0, 6.0);
        assert_eq!(key_of(&r, 0, AssignBy::Lower), 2.0);
        assert_eq!(key_of(&r, 0, AssignBy::Center), 4.0);
        assert_eq!(key_of(&r, 0, AssignBy::Upper), 6.0);
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
