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
//! # Kernel generations
//!
//! The engine has gone through three kernel generations:
//!
//! 1. **record-streaming** — compare-and-swap over the wide `Record<D>`
//!    array, recomputing [`key_of`] on every probe, then separate measuring
//!    passes per output segment (kept in [`reference`] as the oracle);
//! 2. **fused** — same record-streaming comparison loop, but each record is
//!    folded into its output segment's full [`SegMeasure`] during the
//!    partition pass (also in [`reference`]);
//! 3. **keyed** — the current generation (this module's `*_keyed*`
//!    functions): the partition scans two narrow, cache-resident columns
//!    maintained by [`crate::keys::KeyColumn`] — the **assignment-key
//!    column** (`keys[i] == key_of(&recs[i], dim, mode)`) it compares
//!    against the pivot, and the companion upper-bound column
//!    (`his[i] == recs[i].mbb.hi[dim]`) it folds bounding information from
//!    — and touches the wide records **only to swap misplaced pairs**.
//!    Instead of the full multi-dimensional [`SegMeasure`], the keyed
//!    kernels measure exactly what the engine consumes per output segment:
//!    a [`DimBounds`] on the crack dimension (the engine lazily computes an
//!    exact MBB only for the at-most-τ-sized segments that become refined
//!    slices, where the scan is cache-resident). Cf. Idreos et al.'s
//!    database cracking and Pirk et al.'s predicated "fancy scan" kernels.
//!
//! Every keyed kernel produces **the same permutation, split points and
//! measurements** as its record-streaming counterpart in [`reference`]
//! (permutations and split points bit-for-bit; measurements value-equal
//! min/max folds); `tests/keyed_kernels.rs` proves it property-based.

use crate::config::AssignBy;
use quasii_common::geom::{Aabb, Record};

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

    /// Measures a segment with a record-streaming scan (the oracle for the
    /// keyed kernels' in-pass measurements; also used by the rare rank-based
    /// fallback path).
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

/// Full measurements of one crack output segment: the assignment-key
/// minimum plus the exact MBB over **all** dimensions. The fused
/// [`reference`] kernels accumulate this during their partition pass; the
/// current keyed engine instead measures [`DimBounds`] in-pass and derives
/// the exact MBB lazily (only for segments small enough to become refined).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegMeasure<const D: usize> {
    /// Minimum assignment key over the segment (`+inf` when empty).
    pub min_key: f64,
    /// Exact MBB of the segment ([`Aabb::empty`] when empty).
    pub mbb: Aabb<D>,
}

impl<const D: usize> SegMeasure<D> {
    /// Identity measurement of an empty segment.
    pub fn empty() -> Self {
        Self {
            min_key: f64::INFINITY,
            mbb: Aabb::empty(),
        }
    }

    /// Folds one record in; `key` is its precomputed assignment key.
    #[inline(always)]
    fn add(&mut self, r: &Record<D>, key: f64) {
        if key < self.min_key {
            self.min_key = key;
        }
        self.mbb.expand(&r.mbb);
    }

    /// Measures a segment with a plain record scan.
    pub fn of(seg: &[Record<D>], dim: usize, mode: AssignBy) -> Self {
        let mut m = Self::empty();
        for r in seg {
            m.add(r, key_of(r, dim, mode));
        }
        m
    }

    /// The per-dimension view of this measurement.
    pub fn dim_bounds(&self, dim: usize) -> DimBounds {
        DimBounds {
            min_key: self.min_key,
            min_lo: self.mbb.lo[dim],
            max_hi: self.mbb.hi[dim],
        }
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

/// Two-way keyed crack: reorders the `(keys, his, recs)` triple in lockstep
/// so entries with `key < pivot` precede the rest; returns the split point
/// (first index of the `>= pivot` part).
///
/// The scan compares only the 8-byte key column (a `Record<3>` is 56
/// bytes); the wide records are touched only when a misplaced pair must
/// swap. Produces bit-for-bit the same permutation and split point as
/// [`reference::crack_two`].
pub fn crack_two_keyed<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    pivot: f64,
) -> usize {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    let mut i = 0usize;
    let mut j = keys.len();
    loop {
        while i < j && keys[i] < pivot {
            i += 1;
        }
        while i < j && keys[j - 1] >= pivot {
            j -= 1;
        }
        if i + 1 >= j {
            break;
        }
        keys.swap(i, j - 1);
        his.swap(i, j - 1);
        recs.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
    i
}

/// Measuring two-way keyed crack: same partition (and identical split
/// point) as [`crack_two_keyed`], additionally measuring both output
/// segments' [`DimBounds`] during the pass — min key and max upper bound
/// straight from the narrow columns (`FOLD_LO` additionally folds
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

/// Measuring two-way keyed crack (see
/// [`crack_two_keyed`] for the partition contract): returns the split point
/// and both output segments' [`DimBounds`], measured from the narrow
/// columns during the pass. Identical permutation and split point to
/// [`reference::crack_two_measured`]; the measurements equal that kernel's
/// [`SegMeasure::dim_bounds`] view.
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

/// Three-way keyed crack (Dutch national flag): partitions the
/// `(keys, his, recs)` triple into `key < low` | `low <= key <= high` |
/// `key > high`; returns the two split points `(p1, p2)` so the middle part
/// is `p1..p2`. Identical permutation to [`reference::crack_three`].
pub fn crack_three_keyed<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    low: f64,
    high: f64,
) -> (usize, usize) {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = keys.len();
    while i < gt {
        let v = keys[i];
        if v < low {
            // Self-swaps (lt == i) are no-ops in the reference kernel too;
            // skipping them saves record traffic on ordered prefixes
            // without changing the permutation.
            if lt != i {
                keys.swap(lt, i);
                his.swap(lt, i);
                recs.swap(lt, i);
            }
            lt += 1;
            i += 1;
        } else if v > high {
            gt -= 1;
            keys.swap(i, gt);
            his.swap(i, gt);
            recs.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Measuring three-way keyed crack: same partition (and identical split
/// points) as [`crack_three_keyed`], measuring the three output segments'
/// [`DimBounds`] during the pass from the narrow columns.
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

/// Measuring three-way keyed crack (see [`crack_three_keyed`] for the
/// partition contract): identical permutation and split points to
/// [`reference::crack_three_measured`]; the measurements equal that
/// kernel's [`SegMeasure::dim_bounds`] view.
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
/// around the median key. Returns the split point, which may be `0` or
/// `recs.len()` when all keys are equal (caller must handle).
///
/// The record selection runs the exact comparator of
/// [`reference::crack_median`], so the permutation (and therefore the whole
/// engine state) stays bit-for-bit identical to the record-streaming
/// oracle. This path is rare (degenerate value distributions only), so the
/// extra re-keying scan does not matter.
pub fn crack_median_keyed<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &mut [Record<D>],
    dim: usize,
    mode: AssignBy,
) -> usize {
    debug_assert!(keys.len() == recs.len() && his.len() == recs.len());
    if recs.len() < 2 {
        return recs.len();
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
    crack_two_keyed(keys, his, recs, pivot)
}

/// Measuring rank-based fallback split: same permutation and split point as
/// [`crack_median_keyed`], additionally measuring both output segments'
/// [`DimBounds`] during the final partition pass — so the engine's
/// artificial-refinement fallback no longer re-scans both halves with
/// [`DimBounds::of`] after the kernel already walked the columns.
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
    crack_two_keyed_measured(keys, his, recs, dim, mode, pivot)
}

/// The record-streaming kernel generations (pre-key-column), kept as the
/// bit-for-bit oracle for the keyed kernels and as the baseline side of the
/// `benches/kernels.rs` keyed-vs-record-streaming comparison. Not used on
/// the engine's query path.
pub mod reference {
    use super::{key_of, SegMeasure};
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

    /// Fused two-way crack: same partition (and identical split point) as
    /// [`crack_two`], but additionally measures both output segments
    /// *during* the pass. Every record is folded into its final side's
    /// [`SegMeasure`] exactly once, at the moment the partition decides
    /// where it lands.
    pub fn crack_two_measured<const D: usize>(
        seg: &mut [Record<D>],
        dim: usize,
        mode: AssignBy,
        pivot: f64,
    ) -> (usize, SegMeasure<D>, SegMeasure<D>) {
        let mut left = SegMeasure::empty();
        let mut right = SegMeasure::empty();
        let mut i = 0usize;
        let mut j = seg.len();
        loop {
            // `ki`/`kj` carry the key each scan stopped on, so the swap
            // branch below does not recompute them.
            let mut ki = f64::NAN;
            while i < j {
                let k = key_of(&seg[i], dim, mode);
                if k >= pivot {
                    ki = k;
                    break;
                }
                left.add(&seg[i], k);
                i += 1;
            }
            let mut kj = f64::NAN;
            while i < j {
                let k = key_of(&seg[j - 1], dim, mode);
                if k < pivot {
                    kj = k;
                    break;
                }
                right.add(&seg[j - 1], k);
                j -= 1;
            }
            if i + 1 >= j {
                break;
            }
            // Both scans stopped on a misplaced pair (i + 1 < j implies
            // neither exhausted the range, so ki/kj are set): seg[i] belongs
            // right, seg[j-1] belongs left. Measure both on their final
            // side, swap.
            debug_assert!(!ki.is_nan() && !kj.is_nan());
            right.add(&seg[i], ki);
            left.add(&seg[j - 1], kj);
            seg.swap(i, j - 1);
            i += 1;
            j -= 1;
        }
        (i, left, right)
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

    /// Fused three-way crack: same partition (and identical split points)
    /// as [`crack_three`], measuring the three output segments during the
    /// pass.
    pub fn crack_three_measured<const D: usize>(
        seg: &mut [Record<D>],
        dim: usize,
        mode: AssignBy,
        low: f64,
        high: f64,
    ) -> (usize, usize, [SegMeasure<D>; 3]) {
        debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
        let mut m = [SegMeasure::empty(); 3];
        let mut lt = 0usize;
        let mut i = 0usize;
        let mut gt = seg.len();
        while i < gt {
            let v = key_of(&seg[i], dim, mode);
            if v < low {
                m[0].add(&seg[i], v);
                seg.swap(lt, i);
                lt += 1;
                i += 1;
            } else if v > high {
                m[2].add(&seg[i], v);
                gt -= 1;
                seg.swap(i, gt);
            } else {
                m[1].add(&seg[i], v);
                i += 1;
            }
        }
        (lt, gt, m)
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
    use super::reference::{
        crack_median, crack_three, crack_three_measured, crack_two, crack_two_measured,
    };
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

    /// Reference measurement: plain scans over the already-partitioned data.
    fn measure_ref(seg: &[Record<3>], mode: AssignBy) -> SegMeasure<3> {
        SegMeasure::of(seg, 0, mode)
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
    fn fused_two_way_matches_split_passes() {
        for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
            for (seed, pivot) in [(11, 50.0), (12, 0.0), (13, 200.0), (14, 97.5)] {
                let mut fused = random_segment3(500, seed);
                let mut plain = fused.clone();
                let (p, left, right) = crack_two_measured(&mut fused, 0, mode, pivot);
                let p_ref = crack_two(&mut plain, 0, mode, pivot);
                assert_eq!(p, p_ref, "split point diverged (mode {mode:?})");
                let ids = |s: &[Record<3>]| s.iter().map(|r| r.id).collect::<Vec<_>>();
                // Same partition contents (the physical order inside each
                // side is identical: both kernels do the same swaps).
                assert_eq!(ids(&fused), ids(&plain));
                assert_eq!(left, measure_ref(&fused[..p], mode));
                assert_eq!(right, measure_ref(&fused[p..], mode));
                assert_eq!(
                    left.dim_bounds(0),
                    DimBounds::of(&fused[..p], 0, mode),
                    "DimBounds view must match the unfused measurement"
                );
            }
        }
    }

    #[test]
    fn fused_three_way_matches_split_passes() {
        for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
            for (seed, lo, hi) in [(21, 25.0, 75.0), (22, 50.0, 50.0), (23, -5.0, -1.0)] {
                let mut fused = random_segment3(700, seed);
                let mut plain = fused.clone();
                let (p1, p2, m) = crack_three_measured(&mut fused, 0, mode, lo, hi);
                let (r1, r2) = crack_three(&mut plain, 0, mode, lo, hi);
                assert_eq!((p1, p2), (r1, r2), "split points diverged");
                let ids = |s: &[Record<3>]| s.iter().map(|r| r.id).collect::<Vec<_>>();
                assert_eq!(ids(&fused), ids(&plain));
                assert_eq!(m[0], measure_ref(&fused[..p1], mode));
                assert_eq!(m[1], measure_ref(&fused[p1..p2], mode));
                assert_eq!(m[2], measure_ref(&fused[p2..], mode));
            }
        }
    }

    #[test]
    fn fused_kernels_handle_empty_and_degenerate_segments() {
        let mut empty: Vec<Record<3>> = vec![];
        let (p, l, r) = crack_two_measured(&mut empty, 0, AssignBy::Lower, 1.0);
        assert_eq!(p, 0);
        assert_eq!(l, SegMeasure::empty());
        assert_eq!(r, SegMeasure::empty());
        let (p1, p2, m) = crack_three_measured(&mut empty, 0, AssignBy::Lower, 0.0, 1.0);
        assert_eq!((p1, p2), (0, 0));
        assert!(m.iter().all(|x| *x == SegMeasure::empty()));

        // All keys equal: everything lands on one side, the other is empty.
        let mut same: Vec<Record<3>> = (0..10)
            .map(|i| Record::new(i, Aabb::new([7.0; 3], [8.0; 3])))
            .collect();
        let (p, l, r) = crack_two_measured(&mut same, 0, AssignBy::Lower, 7.0);
        assert_eq!(p, 0);
        assert_eq!(l, SegMeasure::empty());
        assert_eq!(r.min_key, 7.0);
        assert_eq!(r.mbb, Aabb::new([7.0; 3], [8.0; 3]));
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
                    let (mut ck, mut ch) = columns_of(&keyed, dim, mode);
                    let mut plain = keyed.clone();
                    let (p, l, r) =
                        crack_two_keyed_measured(&mut ck, &mut ch, &mut keyed, dim, mode, pivot);
                    let (p_ref, l_ref, r_ref) = crack_two_measured(&mut plain, dim, mode, pivot);
                    assert_eq!(p, p_ref, "split (mode {mode:?}, dim {dim})");
                    assert_eq!(keyed, plain, "permutation (mode {mode:?}, dim {dim})");
                    assert_eq!(l, l_ref.dim_bounds(dim), "left bounds ({mode:?})");
                    assert_eq!(r, r_ref.dim_bounds(dim), "right bounds ({mode:?})");
                    assert_columns_consistent(&ck, &ch, &keyed, dim, mode);

                    // Unmeasured variant: identical partition too.
                    let mut keyed2 = plain.clone();
                    let (mut ck2, mut ch2) = columns_of(&keyed2, dim, mode);
                    // plain is already partitioned; re-run both on the
                    // partitioned input to exercise the sorted edge case.
                    let p2 = crack_two_keyed(&mut ck2, &mut ch2, &mut keyed2, pivot);
                    let p2_ref = crack_two(&mut plain, dim, mode, pivot);
                    assert_eq!(p2, p2_ref);
                    assert_eq!(keyed2, plain);
                }
            }
        }
    }

    #[test]
    fn keyed_three_way_matches_reference() {
        for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
            for (seed, lo, hi) in [(41, 25.0, 75.0), (42, 50.0, 50.0), (43, -5.0, -1.0)] {
                let mut keyed = random_segment3(700, seed);
                let (mut ck, mut ch) = columns_of(&keyed, 1, mode);
                let mut plain = keyed.clone();
                let (p1, p2, m) =
                    crack_three_keyed_measured(&mut ck, &mut ch, &mut keyed, 1, mode, lo, hi);
                let (r1, r2, m_ref) = crack_three_measured(&mut plain, 1, mode, lo, hi);
                assert_eq!((p1, p2), (r1, r2));
                assert_eq!(keyed, plain);
                for (got, want) in m.iter().zip(&m_ref) {
                    assert_eq!(*got, want.dim_bounds(1), "bounds ({mode:?})");
                }
                assert_columns_consistent(&ck, &ch, &keyed, 1, mode);

                let mut keyed2 = plain.clone();
                let (mut ck2, mut ch2) = columns_of(&keyed2, 1, mode);
                let (q1, q2) = crack_three_keyed(&mut ck2, &mut ch2, &mut keyed2, lo, hi);
                let (s1, s2) = crack_three(&mut plain, 1, mode, lo, hi);
                assert_eq!((q1, q2), (s1, s2));
                assert_eq!(keyed2, plain);
            }
        }
    }

    #[test]
    fn keyed_median_matches_reference() {
        for mode in [AssignBy::Lower, AssignBy::Center] {
            let mut keyed = random_segment3(101, 51);
            let (mut ck, mut ch) = columns_of(&keyed, 0, mode);
            let mut plain = keyed.clone();
            let p = crack_median_keyed(&mut ck, &mut ch, &mut keyed, 0, mode);
            let p_ref = crack_median(&mut plain, 0, mode);
            assert_eq!(p, p_ref);
            assert_eq!(keyed, plain);
            assert_columns_consistent(&ck, &ch, &keyed, 0, mode);
        }
        // Degenerate: all equal → 0; tiny segments return their length.
        let mut same: Vec<Record<3>> = (0..9)
            .map(|i| Record::new(i, Aabb::new([3.0; 3], [4.0; 3])))
            .collect();
        let (mut ck, mut ch) = columns_of(&same, 0, LOWER);
        assert_eq!(crack_median_keyed(&mut ck, &mut ch, &mut same, 0, LOWER), 0);
        let mut one = vec![Record::new(0, Aabb::new([1.0; 3], [2.0; 3]))];
        let (mut ck1, mut ch1) = columns_of(&one, 0, LOWER);
        assert_eq!(
            crack_median_keyed(&mut ck1, &mut ch1, &mut one, 0, LOWER),
            1
        );
    }

    #[test]
    fn measured_median_matches_unmeasured_and_rescan_oracle() {
        // Same permutation and split point as the unmeasured kernel, and
        // the in-pass measurements value-equal a `DimBounds::of` re-scan of
        // each half — exactly what the engine's rank fallback consumed
        // before the kernel returned them.
        for (mode, dim, seed) in [
            (AssignBy::Lower, 0, 61),
            (AssignBy::Center, 1, 62),
            (AssignBy::Upper, 2, 63),
        ] {
            let mut measured = random_segment3(137, seed);
            let (mut mk, mut mh) = columns_of(&measured, dim, mode);
            let mut plain = measured.clone();
            let (mut pk, mut ph) = columns_of(&plain, dim, mode);

            let (p, lm, rm) =
                crack_median_keyed_measured(&mut mk, &mut mh, &mut measured, dim, mode);
            let p_ref = crack_median_keyed(&mut pk, &mut ph, &mut plain, dim, mode);
            assert_eq!(p, p_ref, "{mode:?}");
            assert_eq!(measured, plain, "{mode:?}: permutation diverged");
            assert_columns_consistent(&mk, &mh, &measured, dim, mode);
            assert!(
                0 < p && p < measured.len(),
                "non-degenerate by construction"
            );
            assert_eq!(lm, DimBounds::of(&measured[..p], dim, mode), "{mode:?}");
            assert_eq!(rm, DimBounds::of(&measured[p..], dim, mode), "{mode:?}");
        }
        // Degenerate inputs report their split like the unmeasured kernel
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
        let mut empty: Vec<Record<3>> = vec![];
        let (mut ck0, mut ch0) = columns_of(&empty, 0, LOWER);
        let (p, l, r) = crack_median_keyed_measured(&mut ck0, &mut ch0, &mut empty, 0, LOWER);
        assert_eq!((p, l, r), (0, DimBounds::empty(), DimBounds::empty()));
    }

    #[test]
    fn keyed_kernels_handle_empty_segments() {
        let mut keys: Vec<f64> = vec![];
        let mut his: Vec<f64> = vec![];
        let mut recs: Vec<Record<3>> = vec![];
        assert_eq!(crack_two_keyed(&mut keys, &mut his, &mut recs, 1.0), 0);
        let (p, l, r) = crack_two_keyed_measured(&mut keys, &mut his, &mut recs, 0, LOWER, 1.0);
        assert_eq!(p, 0);
        assert_eq!((l, r), (DimBounds::empty(), DimBounds::empty()));
        let (p1, p2, m) =
            crack_three_keyed_measured(&mut keys, &mut his, &mut recs, 0, LOWER, 0.0, 1.0);
        assert_eq!((p1, p2), (0, 0));
        assert!(m.iter().all(|x| *x == DimBounds::empty()));
        assert_eq!(
            crack_median_keyed(&mut keys, &mut his, &mut recs, 0, LOWER),
            0
        );
    }
}
