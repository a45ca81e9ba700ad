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
//! # One kernel per crack shape, over the record lanes
//!
//! The engine keeps its records as lanes in the sealed arena's
//! convention ([`LanesMut`]): an id lane, and per dimension a `lo` lane
//! and a negated-`hi` lane. It cracks them with three kernels, one per
//! crack shape — the partition primitives of Idreos et al.'s cracker
//! column: two-way ([`crack_two_keyed_measured`]), three-way
//! ([`crack_three_keyed_measured`]) and the rank-based fallback
//! ([`crack_median_keyed_measured`]). Each scans the crack dimension's two
//! lanes and reads the assignment key from them — `lo` for `Lower`,
//! `-nhi` for `Upper`, `0.5 * (lo - nhi)` for `Center`, bit for bit what
//! [`key_of`] gives, since negation is exact — and touches the other lanes
//! **only to swap misplaced records**. During the pass it measures exactly
//! what the engine consumes per output segment: a [`DimBounds`] on the
//! crack dimension (the engine computes an exact MBB only for the
//! at-most-τ-sized segments that become refined slices, where the scan is
//! cache-resident). Cf. Pirk et al.'s predicated "fancy scan" kernels.
//!
//! The oracle lives outside this crate, in `tests/reference/crack.rs`:
//! record-streaming compare-and-swap kernels over the wide `Record<D>`
//! array, recomputing the assignment key on every probe, followed by
//! [`DimBounds::of`] on each output segment. Every kernel here produces
//! **the same permutation and split points** as its counterpart there bit
//! for bit, and value-equal measurements (min/max folds);
//! `tests/keyed_kernels.rs` proves it property-based.

use crate::config::AssignBy;
use crate::simd::LaneView;
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

/// Calls `$kernel` with [`key_of`] as read from a record's `lo` and
/// negated `hi` on the crack dimension (`lo - nhi == lo + hi` and
/// `-nhi == hi` exactly): a closure per mode, so each mode compiles its
/// own loop and no record pays a branch on the mode.
macro_rules! with_key {
    ($mode:expr, $kernel:ident($($arg:expr),*)) => {
        match $mode {
            AssignBy::Lower => $kernel($($arg,)* |lo: f64, _: f64| lo),
            AssignBy::Center => $kernel($($arg,)* |lo: f64, nhi: f64| 0.5 * (lo - nhi)),
            AssignBy::Upper => $kernel($($arg,)* |_: f64, nhi: f64| -nhi),
        }
    };
}

/// A segment of records as mutable lanes in the sealed arena's
/// convention: `ids[i]` is record `i`'s id, `lo[d][i]` its lower corner
/// and `nhi[d][i]` its upper corner negated on dimension `d`. Every lane
/// holds the same number of records, and a crack permutes them in
/// lockstep.
pub struct LanesMut<'a, const D: usize> {
    /// Record ids.
    pub ids: &'a mut [u64],
    /// Lower corners, one lane per dimension.
    pub lo: [&'a mut [f64]; D],
    /// Upper corners negated, one lane per dimension.
    pub nhi: [&'a mut [f64]; D],
}

impl<const D: usize> LanesMut<'_, D> {
    /// Number of records.
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The same lanes, each cut to the id lane's length: a kernel's swaps
    /// then index lanes whose length the optimizer knows.
    fn trimmed(self) -> Self {
        let n = self.ids.len();
        Self {
            ids: self.ids,
            lo: self.lo.map(|l| &mut l[..n]),
            nhi: self.nhi.map(|l| &mut l[..n]),
        }
    }

    /// Swaps records `i` and `j` in every lane.
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        self.ids.swap(i, j);
        for d in 0..D {
            self.lo[d].swap(i, j);
            self.nhi[d].swap(i, j);
        }
    }

    /// The records, gathered from the lanes in one pass.
    fn records(&self) -> Vec<Record<D>> {
        let view = LaneView {
            ids: &*self.ids,
            lo: self.lo.each_ref().map(|l| &**l),
            nhi: self.nhi.each_ref().map(|l| &**l),
        };
        let mut recs = Vec::with_capacity(self.len());
        view.push_records(0..self.len(), &mut recs);
        recs
    }

    /// Writes `r` as record `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, r: &Record<D>) {
        self.ids[i] = r.id;
        for d in 0..D {
            self.lo[d][i] = r.mbb.lo[d];
            self.nhi[d][i] = -r.mbb.hi[d];
        }
    }
}

/// Per-dimension measurements of a record segment: the assignment-key
/// minimum (drives the sorted slice lists) and the actual spatial interval
/// (drives slice MBBs). This is exactly what the engine needs per crack
/// output segment that stays *unrefined* — the kernels measure it from the
/// crack dimension's lanes during the partition pass.
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

    /// Folds one record's key, lower corner and negated upper corner in.
    /// Kept `inline(always)` and only ever called on fixed named locals so
    /// the accumulator stays in registers (an index-selected destination
    /// would force it into memory).
    #[inline(always)]
    fn fold(&mut self, k: f64, lo: f64, nhi: f64) {
        if k < self.min_key {
            self.min_key = k;
        }
        if lo < self.min_lo {
            self.min_lo = lo;
        }
        if -nhi > self.max_hi {
            self.max_hi = -nhi;
        }
    }

    /// Measures a segment with a record-streaming scan: the oracle for the
    /// kernels' in-pass measurements.
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

/// Two-way crack: reorders the lanes so records with `key < pivot` precede
/// the rest; returns the split point (first index of the `>= pivot` part)
/// and both output segments' [`DimBounds`], measured from the crack
/// dimension's lanes during the pass.
///
/// The scan reads only the crack dimension's `lo` and `nhi` lanes; the
/// other lanes are touched only when a misplaced pair must swap. Produces
/// bit-for-bit the same permutation and split point as the
/// record-streaming oracle's `crack_two`; the measurements equal
/// [`DimBounds::of`] on each side.
pub fn crack_two_keyed_measured<const D: usize>(
    lanes: LanesMut<'_, D>,
    dim: usize,
    mode: AssignBy,
    pivot: f64,
) -> (usize, DimBounds, DimBounds) {
    with_key!(mode, crack_two(lanes.trimmed(), dim, pivot))
}

/// The body of [`crack_two_keyed_measured`], with the mode's key.
fn crack_two<const D: usize>(
    mut lanes: LanesMut<'_, D>,
    dim: usize,
    pivot: f64,
    key: impl Fn(f64, f64) -> f64,
) -> (usize, DimBounds, DimBounds) {
    let mut left = DimBounds::empty();
    let mut right = DimBounds::empty();
    let mut i = 0usize;
    let mut j = lanes.len();
    loop {
        // Scans run over zipped subslice iterators so the lane loads carry
        // no per-element bounds check.
        let (lo, nhi) = (&lanes.lo[dim][i..j], &lanes.nhi[dim][i..j]);
        for (&l, &nh) in lo.iter().zip(nhi) {
            let k = key(l, nh);
            if k >= pivot {
                break;
            }
            left.fold(k, l, nh);
            i += 1;
        }
        let (lo, nhi) = (&lanes.lo[dim][i..j], &lanes.nhi[dim][i..j]);
        for (&l, &nh) in lo.iter().zip(nhi).rev() {
            let k = key(l, nh);
            if k < pivot {
                break;
            }
            right.fold(k, l, nh);
            j -= 1;
        }
        if i + 1 >= j {
            break;
        }
        // Misplaced pair: record i ends right, record j-1 ends left — fold
        // each into its final side, then swap them.
        let (l, nh) = (lanes.lo[dim][i], lanes.nhi[dim][i]);
        right.fold(key(l, nh), l, nh);
        let (l, nh) = (lanes.lo[dim][j - 1], lanes.nhi[dim][j - 1]);
        left.fold(key(l, nh), l, nh);
        lanes.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
    (i, left, right)
}

/// Three-way crack (Dutch national flag): partitions the lanes into
/// `key < low` | `low <= key <= high` | `key > high`; returns the two
/// split points `(p1, p2)` so the middle part is `p1..p2`, and the three
/// output segments' [`DimBounds`], measured from the crack dimension's
/// lanes during the pass. Identical permutation and split points to the
/// record-streaming oracle's `crack_three`; the measurements equal
/// [`DimBounds::of`] on each segment.
pub fn crack_three_keyed_measured<const D: usize>(
    lanes: LanesMut<'_, D>,
    dim: usize,
    mode: AssignBy,
    low: f64,
    high: f64,
) -> (usize, usize, [DimBounds; 3]) {
    debug_assert!(low <= high, "crack_three bounds inverted: {low} > {high}");
    with_key!(mode, crack_three(lanes.trimmed(), dim, low, high))
}

/// The body of [`crack_three_keyed_measured`], with the mode's key.
fn crack_three<const D: usize>(
    mut lanes: LanesMut<'_, D>,
    dim: usize,
    low: f64,
    high: f64,
    key: impl Fn(f64, f64) -> f64,
) -> (usize, usize, [DimBounds; 3]) {
    // Three scalar accumulator sets with a fixed destination per branch arm
    // (an index-selected `m[region]` fold would force the accumulators into
    // memory instead of registers).
    let mut m0 = DimBounds::empty();
    let mut m1 = DimBounds::empty();
    let mut m2 = DimBounds::empty();
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = lanes.len();
    while i < gt {
        // Fast-forward over a run of middle-class records (no swap, fixed
        // fold destination) — the dominant class once a segment converges.
        // The zipped subslice iterators carry no per-element bounds check
        // on the lane loads.
        let (lo, nhi) = (&lanes.lo[dim][i..gt], &lanes.nhi[dim][i..gt]);
        for (&l, &nh) in lo.iter().zip(nhi) {
            let k = key(l, nh);
            if k < low || k > high {
                break;
            }
            m1.fold(k, l, nh);
            i += 1;
        }
        if i >= gt {
            break;
        }
        let (l, nh) = (lanes.lo[dim][i], lanes.nhi[dim][i]);
        let v = key(l, nh);
        if v < low {
            m0.fold(v, l, nh);
            // Self-swaps (lt == i: no mid/high record seen yet) are no-ops
            // in the reference kernel too; skipping them saves the lane
            // traffic on already-ordered prefixes without changing the
            // permutation.
            if lt != i {
                lanes.swap(lt, i);
            }
            lt += 1;
            i += 1;
        } else {
            // The fast-forward loop stopped on a non-middle record, so
            // here v > high.
            debug_assert!(v > high);
            m2.fold(v, l, nh);
            gt -= 1;
            lanes.swap(i, gt);
        }
    }
    (lt, gt, [m0, m1, m2])
}

/// Rank-based fallback split used when midpoint (value) splits cannot
/// separate a degenerate distribution: moves the median-by-key record into
/// place and partitions around the median key, measuring both output
/// segments' [`DimBounds`] during the partition pass. Returns the split
/// point, which may be `0` or the segment length when all keys are equal
/// (caller must handle).
///
/// The selection gathers the segment into records and runs the exact
/// `select_nth_unstable_by` comparator of the record-streaming oracle's
/// `crack_median` (`tests/reference/crack.rs`) on them, then scatters them
/// back, so the permutation (and therefore the whole engine state) stays
/// bit-for-bit identical to it. This path is rare (degenerate value
/// distributions only), so the round trip through records does not matter.
///
/// The measurements are only meaningful when `0 < split < len`; on a
/// degenerate (value-indivisible or sub-2-record) segment the caller
/// force-refines and never reads them.
pub fn crack_median_keyed_measured<const D: usize>(
    lanes: LanesMut<'_, D>,
    dim: usize,
    mode: AssignBy,
) -> (usize, DimBounds, DimBounds) {
    let n = lanes.len();
    if n < 2 {
        return (n, DimBounds::empty(), DimBounds::empty());
    }
    let mid = n / 2;
    let mut lanes = lanes.trimmed();
    let mut recs = lanes.records();
    recs.select_nth_unstable_by(mid, |a, b| {
        key_of(a, dim, mode)
            .partial_cmp(&key_of(b, dim, mode))
            .expect("coordinates are never NaN")
    });
    for (i, r) in recs.iter().enumerate() {
        lanes.set(i, r);
    }
    // Partition strictly below the median value; if everything is equal to
    // the pivot this yields 0 and the caller treats the slice as
    // value-indivisible.
    crack_two_keyed_measured(lanes, dim, mode, key_of(&recs[mid], dim, mode))
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
        let lanes = || LanesMut::<3> {
            ids: &mut [],
            lo: [&mut [], &mut [], &mut []],
            nhi: [&mut [], &mut [], &mut []],
        };
        let (p, l, r) = crack_two_keyed_measured(lanes(), 0, LOWER, 1.0);
        assert_eq!(p, 0);
        assert_eq!((l, r), (DimBounds::empty(), DimBounds::empty()));
        let (p1, p2, m) = crack_three_keyed_measured(lanes(), 0, LOWER, 0.0, 1.0);
        assert_eq!((p1, p2), (0, 0));
        assert!(m.iter().all(|x| *x == DimBounds::empty()));
        let (p, l, r) = crack_median_keyed_measured(lanes(), 0, LOWER);
        assert_eq!((p, l, r), (0, DimBounds::empty(), DimBounds::empty()));
    }
}
