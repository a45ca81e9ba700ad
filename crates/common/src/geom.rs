//! Axis-aligned geometry primitives shared by every index in the workspace.
//!
//! The paper (§2) models spatially extended objects by their minimum bounding
//! box (MBB). [`Aabb`] is that MBB, generic over the dimensionality `D`
//! (`D = 3` throughout the paper's evaluation, `D = 2` in its worked
//! example). Coordinates are `f64`.

use std::fmt;

/// An axis-aligned (minimum) bounding box in `D` dimensions.
///
/// Invariant for *valid* boxes: `lo[k] <= hi[k]` for every dimension `k`.
/// [`Aabb::empty`] deliberately violates the invariant (`+inf`/`-inf`) so it
/// can serve as the identity element for [`Aabb::expand`].
///
/// `#[repr(C)]` pins the layout to `2 × D` contiguous `f64`s (`lo` then
/// `hi`, no padding): the batched SIMD intersect kernels load corner
/// vectors straight out of the struct and rely on it.
#[derive(Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Aabb<const D: usize> {
    /// Lower corner, `lower(b)` in the paper.
    pub lo: [f64; D],
    /// Upper corner, `upper(b)` in the paper.
    pub hi: [f64; D],
}

impl<const D: usize> Aabb<D> {
    /// Creates a box from its two corners.
    ///
    /// # Panics
    /// Panics in debug builds if any `lo[k] > hi[k]` or a coordinate is NaN.
    #[inline]
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        debug_assert!(
            (0..D).all(|k| lo[k] <= hi[k]),
            "invalid Aabb: lo {lo:?} > hi {hi:?}"
        );
        Self { lo, hi }
    }

    /// A point (zero-extent box).
    #[inline]
    pub fn point(p: [f64; D]) -> Self {
        Self { lo: p, hi: p }
    }

    /// The "empty" box: identity for [`expand`](Self::expand)/[`union`](Self::union).
    #[inline]
    pub fn empty() -> Self {
        Self {
            lo: [f64::INFINITY; D],
            hi: [f64::NEG_INFINITY; D],
        }
    }

    /// The box covering all of space; identity for intersection tests.
    #[inline]
    pub fn universe() -> Self {
        Self {
            lo: [f64::NEG_INFINITY; D],
            hi: [f64::INFINITY; D],
        }
    }

    /// Whether this box holds no points (any inverted dimension).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|k| self.lo[k] > self.hi[k])
    }

    /// Whether `lo <= hi` holds on every dimension and no coordinate is NaN.
    #[inline]
    pub fn is_valid(&self) -> bool {
        (0..D).all(|k| self.lo[k] <= self.hi[k])
    }

    /// Closed-interval intersection test: `b ∩ q ≠ ∅` in the paper's sense.
    ///
    /// Boxes sharing only a face/edge/corner *do* intersect.
    #[inline(always)]
    pub fn intersects(&self, other: &Self) -> bool {
        for k in 0..D {
            if self.lo[k] > other.hi[k] || self.hi[k] < other.lo[k] {
                return false;
            }
        }
        true
    }

    /// Same truth table as [`intersects`](Self::intersects), computed as a
    /// short-circuit-free conjunction: all `2 × D` interval comparisons are
    /// evaluated and AND-folded, so the test compiles to straight-line
    /// flag arithmetic with no data-dependent branch. Used by predicated
    /// scan loops (QUASII's bottom-level collect) where the per-record
    /// early exit of `intersects` would be an unpredictable branch.
    #[inline(always)]
    pub fn intersects_branchless(&self, other: &Self) -> bool {
        let mut ok = true;
        for k in 0..D {
            ok &= self.lo[k] <= other.hi[k];
            ok &= self.hi[k] >= other.lo[k];
        }
        ok
    }

    /// Whether `self` fully contains `other` (closed intervals).
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        (0..D).all(|k| self.lo[k] <= other.lo[k] && self.hi[k] >= other.hi[k])
    }

    /// Grows `self` (in place) to cover `other`.
    #[inline(always)]
    pub fn expand(&mut self, other: &Self) {
        for k in 0..D {
            if other.lo[k] < self.lo[k] {
                self.lo[k] = other.lo[k];
            }
            if other.hi[k] > self.hi[k] {
                self.hi[k] = other.hi[k];
            }
        }
    }

    /// The smallest box covering both inputs.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        out.expand(other);
        out
    }

    /// The overlap region, or `None` when disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for k in 0..D {
            lo[k] = self.lo[k].max(other.lo[k]);
            hi[k] = self.hi[k].min(other.hi[k]);
            if lo[k] > hi[k] {
                return None;
            }
        }
        Some(Self { lo, hi })
    }

    /// The geometric center.
    #[inline]
    pub fn center(&self) -> [f64; D] {
        let mut c = [0.0; D];
        for k in 0..D {
            c[k] = (self.lo[k] + self.hi[k]) * 0.5;
        }
        c
    }

    /// Side length on dimension `k`.
    #[inline]
    pub fn extent(&self, k: usize) -> f64 {
        self.hi[k] - self.lo[k]
    }

    /// Product of all side lengths (area in 2-d, volume in 3-d).
    #[inline]
    pub fn volume(&self) -> f64 {
        (0..D).map(|k| self.extent(k)).product()
    }

    /// Enlarges the box by `delta[k]` on *both* sides of each dimension.
    pub fn inflated(&self, delta: &[f64; D]) -> Self {
        let mut out = *self;
        for k in 0..D {
            out.lo[k] -= delta[k];
            out.hi[k] += delta[k];
        }
        out
    }
}

impl<const D: usize> fmt::Debug for Aabb<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aabb[")?;
        for k in 0..D {
            if k > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{:.3}..{:.3}", self.lo[k], self.hi[k])?;
        }
        write!(f, "]")
    }
}

/// One dataset object: an MBB plus a stable identifier.
///
/// Incremental indexes physically reorder records, so query results are
/// reported as `id`s (positions in the *original* dataset), never as array
/// offsets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record<const D: usize> {
    /// Minimum bounding box of the object.
    pub mbb: Aabb<D>,
    /// Stable object identifier (index in the originally generated dataset).
    pub id: u64,
}

impl<const D: usize> Record<D> {
    /// Convenience constructor.
    #[inline]
    pub fn new(id: u64, mbb: Aabb<D>) -> Self {
        Self { mbb, id }
    }
}

/// Computes the exact MBB of a set of records (identity: [`Aabb::empty`]).
pub fn mbb_of<const D: usize>(records: &[Record<D>]) -> Aabb<D> {
    let mut out = Aabb::empty();
    for r in records {
        out.expand(&r.mbb);
    }
    out
}

/// Per-dimension maximum object extent over a dataset — the quantity QUASII,
/// the grids, and SFCracker use for query extension (§3.2, §5.2).
pub fn max_extents<const D: usize>(records: &[Record<D>]) -> [f64; D] {
    let mut ext = [0.0; D];
    for r in records {
        for k in 0..D {
            let e = r.mbb.extent(k);
            if e > ext[k] {
                ext[k] = e;
            }
        }
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b2(lo: [f64; 2], hi: [f64; 2]) -> Aabb<2> {
        Aabb::new(lo, hi)
    }

    #[test]
    fn intersects_basic() {
        let a = b2([0.0, 0.0], [2.0, 2.0]);
        let b = b2([1.0, 1.0], [3.0, 3.0]);
        let c = b2([2.5, 2.5], [4.0, 4.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c));
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = b2([0.0, 0.0], [1.0, 1.0]);
        let b = b2([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b), "shared face counts as intersection");
        let corner = b2([1.0, 1.0], [2.0, 2.0]);
        assert!(a.intersects(&corner), "shared corner counts");
    }

    #[test]
    fn intersects_branchless_matches_intersects() {
        // Exhaustive-ish cross product of overlap, touch, disjoint,
        // containment and empty-box cases on both operand orders.
        let boxes = [
            b2([0.0, 0.0], [2.0, 2.0]),
            b2([1.0, 1.0], [3.0, 3.0]),
            b2([2.0, 0.0], [4.0, 1.0]),
            b2([2.5, 2.5], [4.0, 4.0]),
            b2([0.5, 0.5], [1.5, 1.5]),
            Aabb::point([2.0, 2.0]),
            Aabb::empty(),
            Aabb::universe(),
        ];
        for a in &boxes {
            for b in &boxes {
                assert_eq!(
                    a.intersects_branchless(b),
                    a.intersects(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn contains_is_closed_and_reflexive() {
        let a = b2([0.0, 0.0], [4.0, 4.0]);
        let b = b2([1.0, 1.0], [2.0, 2.0]);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&a), "containment is reflexive");
    }

    #[test]
    fn empty_is_expand_identity() {
        let mut e = Aabb::<3>::empty();
        assert!(e.is_empty());
        let b = Aabb::new([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]);
        e.expand(&b);
        assert_eq!(e, b);
    }

    #[test]
    fn universe_intersects_everything() {
        let u = Aabb::<3>::universe();
        let b = Aabb::new([1.0; 3], [2.0; 3]);
        assert!(u.intersects(&b));
        assert!(u.contains(&b));
    }

    #[test]
    fn union_and_intersection() {
        let a = b2([0.0, 0.0], [2.0, 2.0]);
        let b = b2([1.0, -1.0], [3.0, 1.0]);
        let u = a.union(&b);
        assert_eq!(u, b2([0.0, -1.0], [3.0, 2.0]));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, b2([1.0, 0.0], [2.0, 1.0]));
        let far = b2([10.0, 10.0], [11.0, 11.0]);
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn volume_center_extent() {
        let a = Aabb::new([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert_eq!(a.volume(), 24.0);
        assert_eq!(a.center(), [1.0, 1.5, 2.0]);
        assert_eq!(a.extent(2), 4.0);
    }

    #[test]
    fn inflated_grows_both_sides() {
        let a = b2([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(a.inflated(&[0.5, 1.0]), b2([0.5, 0.0], [2.5, 3.0]));
    }

    #[test]
    fn zero_extent_box_is_valid_point() {
        let p = Aabb::point([1.0, 2.0]);
        assert!(p.is_valid());
        assert!(!p.is_empty());
        assert_eq!(p.volume(), 0.0);
        assert!(p.intersects(&b2([0.0, 0.0], [1.0, 2.0])));
    }

    #[test]
    fn helpers_over_records() {
        let rs = vec![
            Record::new(0, b2([0.0, 0.0], [1.0, 1.0])),
            Record::new(1, b2([2.0, -1.0], [3.0, 5.0])),
        ];
        assert_eq!(mbb_of(&rs), b2([0.0, -1.0], [3.0, 5.0]));
        assert_eq!(max_extents(&rs), [1.0, 6.0]);
        assert_eq!(mbb_of::<2>(&[]), Aabb::empty());
    }
}
