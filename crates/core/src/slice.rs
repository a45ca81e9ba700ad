//! The slice — QUASII's structural unit (paper §5.1, Fig. 3b/4).
//!
//! A slice at level `l` groups a contiguous range of the (physically
//! reorganized) data array whose objects were partitioned on dimension `l`
//! by their lower coordinate. Its four attributes from the paper map to
//! fields here: level (`level`), minimum bounding box (`bbox`), data-array
//! indices (`begin..end`), and sub-slice pointers (`children`), or, once
//! the slice is sealed, the arena that holds its subtree (`sealed`).

use crate::seal::SealedRegion;
use quasii_common::geom::Aabb;

/// One node of QUASII's d-level hierarchy.
#[derive(Clone, Debug)]
pub(crate) struct Slice<const D: usize> {
    /// Level = the dimension this slice was partitioned on (0-based). A
    /// `u32` beside the two flags, so that a `Slice<3>` stays 128 bytes
    /// (two cache lines) with the `sealed` pointer in it.
    pub level: u32,
    /// First index (inclusive) into the data array.
    pub begin: usize,
    /// Last index (exclusive) into the data array.
    pub end: usize,
    /// Bounding information. Exact full MBB once [`refined`](Self::refined);
    /// before that, "open-ended": only dimensions `<= level` carry real
    /// bounds (inherited from the refined parent plus this level's crack),
    /// the rest may be infinite (paper §5.1).
    pub bbox: Aabb<D>,
    /// The value interval of assignment keys this slice was cut to on its
    /// own dimension — used for artificial midpoint refinement.
    pub cut_lo: f64,
    /// Upper end of the cut interval.
    pub cut_hi: f64,
    /// Minimum assignment key inside the slice (`-inf` until measured by a
    /// crack). Sibling lists are sorted by this value, which is what the
    /// extended binary search of §5.2 probes.
    pub key_lo: f64,
    /// Whether the slice reached its level's τ (or was force-finalized on a
    /// value-indivisible distribution) and `bbox` is its exact MBB.
    pub refined: bool,
    /// Cached [`subtree_converged`](Self::subtree_converged): set when a
    /// refined bottom-level slice is created, and for a refined non-bottom
    /// slice by the query that converges its last child. Never cleared: a
    /// converged subtree never reorganizes.
    pub converged: bool,
    /// Sub-slices at `level + 1`, sorted by `begin`, partitioning
    /// `begin..end`. Only ever non-empty on refined slices.
    pub children: Vec<Slice<D>>,
    /// The arena that holds this slice's subtree once it is sealed (see
    /// [`crate::seal`]), in place of `children`: only a converged level-0
    /// slice is sealed, and a sealed slice has no children. The arena is
    /// the one copy of the nodes below it.
    pub sealed: Option<Box<SealedRegion<D>>>,
}

impl<const D: usize> Slice<D> {
    /// Number of objects in the slice.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.end - self.begin
    }

    /// The level as an index: the dimension the slice was partitioned on.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.level as usize
    }

    /// Whether the slice covers no objects.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// Builds the initial whole-dataset slice (the paper's `s0`): level 0,
    /// exact dataset MBB (measured by the caller), unrefined unless the
    /// dataset already fits τ.
    pub(crate) fn root(n: usize, data_bounds: Aabb<D>, tau0: usize) -> Self {
        Self {
            level: 0,
            begin: 0,
            end: n,
            bbox: data_bounds,
            cut_lo: data_bounds.lo[0],
            cut_hi: data_bounds.hi[0],
            key_lo: f64::NEG_INFINITY,
            refined: n <= tau0,
            converged: n <= tau0 && D == 1,
            children: Vec::new(),
            sealed: None,
        }
    }

    /// Creates the "default child" of a refined slice (paper Alg. 1 line 15):
    /// a single slice one level down spanning the same range. The parent is
    /// refined, so its `bbox` is exact and is inherited verbatim.
    pub(crate) fn default_child(&self, tau_child: usize) -> Self {
        debug_assert!(self.refined, "default children hang off refined slices");
        debug_assert!(self.dim() + 1 < D, "bottom level has no children");
        let l = self.dim() + 1;
        let refined = self.len() <= tau_child;
        Self {
            level: self.level + 1,
            begin: self.begin,
            end: self.end,
            bbox: self.bbox,
            cut_lo: self.bbox.lo[l],
            cut_hi: self.bbox.hi[l],
            key_lo: f64::NEG_INFINITY,
            refined,
            converged: refined && l + 1 == D,
            children: Vec::new(),
            sealed: None,
        }
    }

    /// Recursive count of the slices held as `Slice`s in this subtree
    /// (including `self`): the nodes a snapshot stores. A sealed slice's
    /// arena nodes are not among them (`Quasii::slice_count` counts them).
    pub(crate) fn count(&self) -> usize {
        1 + self.children.iter().map(Slice::count).sum::<usize>()
    }

    /// Whether this subtree has fully **converged**: every slice is refined
    /// down to the bottom level and every refined non-bottom slice has
    /// materialized children. A query through a converged subtree performs
    /// no reorganization and materializes nothing — it is a pure read,
    /// which is exactly the condition under which the subtree can be
    /// compacted into a sealed arena (see `crate::seal`), so a refined
    /// slice that holds an arena has converged. A refined non-bottom slice
    /// with neither children nor an arena has not: its first visit still
    /// creates the default child (and may crack it, e.g. after a
    /// force-refinement above τ).
    ///
    /// Walks the subtree; the engine reads the cached
    /// [`converged`](Self::converged) flag instead, and `validate` checks
    /// the two agree.
    pub(crate) fn subtree_converged(&self) -> bool {
        if !self.refined {
            return false;
        }
        if self.dim() + 1 == D || self.sealed.is_some() {
            return true;
        }
        !self.children.is_empty() && self.children.iter().all(Self::subtree_converged)
    }

    /// Approximate heap bytes of this subtree's slices (a sealed slice's
    /// arena is counted by `Quasii::seal_bytes`).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<Slice<D>>()
            + self.children.iter().map(Slice::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_slice_mirrors_dataset() {
        let b = Aabb::new([0.0, 0.0], [10.0, 20.0]);
        let s = Slice::<2>::root(100, b, 60);
        assert_eq!(s.len(), 100);
        assert!(!s.refined);
        assert_eq!((s.cut_lo, s.cut_hi), (0.0, 10.0));
        let tiny = Slice::<2>::root(10, b, 60);
        assert!(tiny.refined);
        assert!(
            !tiny.converged,
            "refined above the bottom level, no children yet"
        );
        assert!(Slice::<1>::root(10, Aabb::new([0.0], [1.0]), 60).converged);
    }

    #[test]
    fn default_child_inherits_exact_bbox() {
        let b = Aabb::new([0.0, 5.0], [10.0, 25.0]);
        let mut parent = Slice::<2>::root(50, b, 60);
        parent.refined = true;
        let child = parent.default_child(10);
        assert_eq!(child.level, 1);
        assert_eq!((child.begin, child.end), (0, 50));
        assert_eq!(child.bbox, b);
        assert_eq!((child.cut_lo, child.cut_hi), (5.0, 25.0));
        assert!(!child.refined, "50 > τ_child = 10");
        assert!(!child.converged);
        let small_child = parent.default_child(60);
        assert!(small_child.refined);
        assert!(small_child.converged, "a refined bottom-level slice");
        assert_eq!(small_child.converged, small_child.subtree_converged());
    }

    #[test]
    fn a_three_dimensional_slice_is_two_cache_lines() {
        assert_eq!(std::mem::size_of::<Slice<3>>(), 128);
    }

    #[test]
    fn count_and_bytes_recurse() {
        let b = Aabb::new([0.0], [1.0]);
        let mut s = Slice::<1>::root(4, b, 60);
        assert_eq!(s.count(), 1);
        s.children.push(Slice::root(2, b, 60));
        s.children.push(Slice::root(2, b, 60));
        assert_eq!(s.count(), 3);
        assert!(s.heap_bytes() >= 2 * std::mem::size_of::<Slice<1>>());
    }
}
