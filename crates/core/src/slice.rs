//! The slice — QUASII's structural unit (paper §5.1, Fig. 3b/4).
//!
//! A slice at level `l` groups a contiguous range of the (physically
//! reorganized) data array whose objects were partitioned on dimension `l`
//! by their lower coordinate. Its four attributes from the paper map to
//! fields here: level (`level`), minimum bounding box (`bbox`), data-array
//! indices (`begin..end`), and sub-slice pointers (`children`).

use quasii_common::geom::{Aabb, Record};

/// One node of QUASII's d-level hierarchy.
#[derive(Clone, Debug)]
pub(crate) struct Slice<const D: usize> {
    /// Level = the dimension this slice was partitioned on (0-based).
    pub level: usize,
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
    /// Whether the owning index's assignment-key column currently caches
    /// this slice's **own-level** keys over `begin..end`
    /// (`keys[i] == key_of(&data[i], level, mode)` — see [`crate::keys`]).
    /// Slices created by a crack are born fresh (the kernels keep the column
    /// in lockstep); default children span a range last keyed for their
    /// parent's level and are re-keyed lazily before their first crack.
    ///
    /// Only meaningful while the slice is unrefined (the only state
    /// `refine` cracks from): once refined, descendants re-key sub-ranges
    /// for deeper dimensions and this flag is never consulted again.
    pub keys_fresh: bool,
    /// Sub-slices at `level + 1`, sorted by `begin`, partitioning
    /// `begin..end`. Only ever non-empty on refined slices.
    pub children: Vec<Slice<D>>,
}

impl<const D: usize> Slice<D> {
    /// Number of objects in the slice.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.end - self.begin
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
            // First-query initialization builds the dimension-0 column in
            // the same pass that measures `data_bounds`.
            keys_fresh: true,
            children: Vec::new(),
        }
    }

    /// Creates the "default child" of a refined slice (paper Alg. 1 line 15):
    /// a single slice one level down spanning the same range. The parent is
    /// refined, so its `bbox` is exact and is inherited verbatim.
    pub(crate) fn default_child(&self, tau_child: usize) -> Self {
        debug_assert!(self.refined, "default children hang off refined slices");
        debug_assert!(self.level + 1 < D, "bottom level has no children");
        let l = self.level + 1;
        Self {
            level: l,
            begin: self.begin,
            end: self.end,
            bbox: self.bbox,
            cut_lo: self.bbox.lo[l],
            cut_hi: self.bbox.hi[l],
            key_lo: f64::NEG_INFINITY,
            refined: self.len() <= tau_child,
            // The range was last keyed for the parent's level; the child's
            // first crack re-keys it for level `l` (lazy per-level rebuild).
            keys_fresh: false,
            children: Vec::new(),
        }
    }

    /// Exact MBB of the slice's objects, `records` (the slice's own range
    /// of the data array, resolved by the caller's window); used when a
    /// slice becomes refined.
    pub(crate) fn measure_exact(&mut self, records: &[Record<D>]) {
        debug_assert_eq!(records.len(), self.len());
        let mut mbb = Aabb::empty();
        for r in records {
            mbb.expand(&r.mbb);
        }
        self.bbox = mbb;
    }

    /// Recursive count of slices in this subtree (including `self`).
    pub(crate) fn count(&self) -> usize {
        1 + self.children.iter().map(Slice::count).sum::<usize>()
    }

    /// Whether this subtree has fully **converged**: every slice is refined
    /// down to the bottom level and every refined non-bottom slice has
    /// materialized children. A query through a converged subtree performs
    /// no reorganization and materializes nothing — it is a pure read,
    /// which is exactly the condition under which the subtree can be
    /// compacted into a sealed arena (see `crate::seal`). A refined
    /// non-bottom slice *without* children is not converged: its first
    /// visit still creates the default child (and may crack it, e.g. after
    /// a force-refinement above τ).
    pub(crate) fn subtree_converged(&self) -> bool {
        if !self.refined {
            return false;
        }
        if self.level + 1 == D {
            return true;
        }
        !self.children.is_empty() && self.children.iter().all(Self::subtree_converged)
    }

    /// Approximate heap bytes of this subtree's structure.
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
        assert!(s.keys_fresh, "init builds the dim-0 column with the root");
        assert_eq!((s.cut_lo, s.cut_hi), (0.0, 10.0));
        let tiny = Slice::<2>::root(10, b, 60);
        assert!(tiny.refined);
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
        assert!(!child.keys_fresh, "range was keyed for the parent's level");
        let small_child = parent.default_child(60);
        assert!(small_child.refined);
    }

    #[test]
    fn measure_exact_shrinks_bbox() {
        let data = vec![
            Record::new(0, Aabb::new([2.0, 2.0], [3.0, 3.0])),
            Record::new(1, Aabb::new([4.0, 1.0], [5.0, 6.0])),
        ];
        let mut s = Slice::<2>::root(2, Aabb::new([0.0, 0.0], [100.0, 100.0]), 60);
        s.measure_exact(&data);
        assert_eq!(s.bbox, Aabb::new([2.0, 1.0], [5.0, 6.0]));
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
