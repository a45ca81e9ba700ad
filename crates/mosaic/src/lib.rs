//! # quasii-mosaic
//!
//! Mosaic (paper §3.2): Space Odyssey's incremental indexing idea adapted to
//! main memory. Mosaic incrementally builds an Octree (a `2^D`-ary
//! space-oriented hierarchy): **every query splits each overlapping leaf
//! partition one level deeper**, reassigning its objects to the `2^D` new
//! children. Frequently queried regions converge to a fine grid; untouched
//! regions stay coarse.
//!
//! Objects are assigned to partitions by their center and queries are
//! extended by the maximum object half-extent (query extension, §3.2 — the
//! paper measured replication to be far more expensive for volumetric
//! objects, see Fig. 6a).
//!
//! The paper leaves Mosaic's terminal granularity implicit; here a leaf
//! stops splitting once it holds at most `capacity` objects or reaches
//! `max_depth` (the octree-depth equivalent of the static Grid baseline's
//! partitions-per-dimension), so Mosaic converges to its static counterpart.

#![warn(missing_docs)]

use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;

/// Work counters for Mosaic — the repartitioning overhead §6.3 discusses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MosaicStats {
    /// Queries executed.
    pub queries: u64,
    /// Leaf splits performed.
    pub splits: u64,
    /// Object-to-partition reassignments (the repeated-repartitioning cost).
    pub reassignments: u64,
    /// Objects tested for intersection.
    pub objects_tested: u64,
}

#[derive(Clone, Debug)]
enum MKind {
    Leaf { entries: Vec<u32> },
    Inner { children: Vec<u32> },
}

#[derive(Clone, Debug)]
struct MNode<const D: usize> {
    region: Aabb<D>,
    depth: u32,
    kind: MKind,
}

/// The incremental octree.
pub struct Mosaic<const D: usize> {
    data: Vec<Record<D>>,
    nodes: Vec<MNode<D>>,
    root: Option<u32>,
    capacity: usize,
    max_depth: u32,
    half_extent: [f64; D],
    stats: MosaicStats,
}

impl<const D: usize> Mosaic<D> {
    /// Wraps the dataset; O(1). The root partition materializes on the
    /// first query (which therefore reassigns every object once — the
    /// expensive first query §6.4 describes).
    pub fn new(data: Vec<Record<D>>, capacity: usize, max_depth: u32) -> Self {
        Self {
            data,
            nodes: Vec::new(),
            root: None,
            capacity: capacity.max(1),
            max_depth,
            half_extent: [0.0; D],
            stats: MosaicStats::default(),
        }
    }

    /// Paper-aligned defaults: capacity 60 (the shared node size of §6.1)
    /// and depth 10 (up to 1024 partitions per dimension, comfortably
    /// covering the Grid baseline's 100–220).
    pub fn with_defaults(data: Vec<Record<D>>) -> Self {
        Self::new(data, 60, 10)
    }

    /// Work counters so far.
    pub fn stats(&self) -> MosaicStats {
        self.stats
    }

    fn ensure_init(&mut self) {
        if self.root.is_some() || self.data.is_empty() {
            return;
        }
        let universe = mbb_of(&self.data);
        for r in &self.data {
            for k in 0..D {
                let h = r.mbb.extent(k) * 0.5;
                if h > self.half_extent[k] {
                    self.half_extent[k] = h;
                }
            }
        }
        self.nodes.push(MNode {
            region: universe,
            depth: 0,
            kind: MKind::Leaf {
                entries: (0..self.data.len() as u32).collect(),
            },
        });
        self.root = Some(0);
    }

    /// Splits leaf `id` into `2^D` children, reassigning objects by center.
    fn split(&mut self, id: u32) {
        let region = self.nodes[id as usize].region;
        let depth = self.nodes[id as usize].depth;
        let entries = match &mut self.nodes[id as usize].kind {
            MKind::Leaf { entries } => std::mem::take(entries),
            MKind::Inner { .. } => unreachable!("only leaves split"),
        };
        let mid = region.center();
        let fan = 1usize << D;
        let base = self.nodes.len() as u32;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); fan];
        for pos in entries {
            let c = self.data[pos as usize].mbb.center();
            let mut idx = 0usize;
            for k in 0..D {
                if c[k] > mid[k] {
                    idx |= 1 << k;
                }
            }
            buckets[idx].push(pos);
            self.stats.reassignments += 1;
        }
        let mut children = Vec::with_capacity(fan);
        for (idx, bucket) in buckets.into_iter().enumerate() {
            let mut lo = region.lo;
            let mut hi = region.hi;
            for k in 0..D {
                if idx & (1 << k) != 0 {
                    lo[k] = mid[k];
                } else {
                    hi[k] = mid[k];
                }
            }
            self.nodes.push(MNode {
                region: Aabb::new(lo, hi),
                depth: depth + 1,
                kind: MKind::Leaf { entries: bucket },
            });
            children.push(base + idx as u32);
        }
        self.nodes[id as usize].kind = MKind::Inner { children };
        self.stats.splits += 1;
    }

    fn scan_leaf(&mut self, id: u32, query: &Aabb<D>, out: &mut Vec<u64>) {
        let MKind::Leaf { entries } = &self.nodes[id as usize].kind else {
            unreachable!()
        };
        let mut tested = 0u64;
        for &pos in entries {
            tested += 1;
            let r = &self.data[pos as usize];
            if r.mbb.intersects(query) {
                out.push(r.id);
            }
        }
        self.stats.objects_tested += tested;
    }

    /// Validates partition structure: every object in exactly one leaf,
    /// assigned by center, depths consistent.
    pub fn validate(&self) -> Result<(), String> {
        let Some(root) = self.root else {
            return Ok(());
        };
        let mut seen = vec![false; self.data.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            match &node.kind {
                MKind::Inner { children } => {
                    if children.len() != 1 << D {
                        return Err(format!("inner node {id} has wrong fan-out"));
                    }
                    for &c in children {
                        if self.nodes[c as usize].depth != node.depth + 1 {
                            return Err(format!("child {c} depth mismatch"));
                        }
                        stack.push(c);
                    }
                }
                MKind::Leaf { entries } => {
                    for &pos in entries {
                        if seen[pos as usize] {
                            return Err(format!("object {pos} in two partitions"));
                        }
                        seen[pos as usize] = true;
                        let c = self.data[pos as usize].mbb.center();
                        // Center must lie within the (closed) region.
                        for k in 0..D {
                            if c[k] < node.region.lo[k] - 1e-9 || c[k] > node.region.hi[k] + 1e-9 {
                                return Err(format!(
                                    "object {pos} center outside its partition on dim {k}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("object {missing} not assigned to any partition"));
        }
        Ok(())
    }
}

impl<const D: usize> SpatialIndex<D> for Mosaic<D> {
    fn name(&self) -> &'static str {
        "Mosaic"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        self.ensure_init();
        self.stats.queries += 1;
        let Some(root) = self.root else { return };
        let probe = query.inflated(&self.half_extent);

        // Phase 1 (paper Fig. 2): every overlapping leaf splits one level.
        let mut overlapping: Vec<u32> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !self.nodes[id as usize].region.intersects(&probe) {
                continue;
            }
            match &self.nodes[id as usize].kind {
                MKind::Inner { children } => stack.extend_from_slice(children),
                MKind::Leaf { entries } => {
                    if entries.len() > self.capacity
                        && self.nodes[id as usize].depth < self.max_depth
                    {
                        self.split(id);
                        if let MKind::Inner { children } = &self.nodes[id as usize].kind {
                            // New children are scanned but not split again
                            // this query (one level per query).
                            for &c in children {
                                if self.nodes[c as usize].region.intersects(&probe) {
                                    overlapping.push(c);
                                }
                            }
                        }
                    } else {
                        overlapping.push(id);
                    }
                }
            }
        }

        // Phase 2: scan the overlapping partitions with the original query.
        for id in overlapping {
            self.scan_leaf(id, query, out);
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<MNode<D>>()
            + self
                .nodes
                .iter()
                .map(|n| match &n.kind {
                    MKind::Leaf { entries } => entries.capacity() * 4,
                    MKind::Inner { children } => children.capacity() * 4,
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    /// Number of partitions (leaves) currently in the tree.
    fn leaf_count<const D: usize>(m: &Mosaic<D>) -> usize {
        m.nodes
            .iter()
            .filter(|n| matches!(n.kind, MKind::Leaf { .. }))
            .count()
    }

    #[test]
    fn correct_over_workload_with_validation() {
        let data = uniform_boxes_in::<3>(3_000, 1_000.0, 1);
        let mut m = Mosaic::new(data.clone(), 30, 8);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 40, 1e-3, 2).queries {
            let got = m.query_collect(q);
            assert_matches_brute_force(&data, q, &got);
            m.validate().unwrap();
        }
        assert!(m.stats().splits > 0);
    }

    #[test]
    fn splits_one_level_per_query() {
        let data = uniform_boxes_in::<2>(4_000, 1_000.0, 3);
        let mut m = Mosaic::new(data, 10, 12);
        let q = Aabb::new([100.0; 2], [200.0; 2]);
        m.query_collect(&q);
        // First query: root split exactly once, children not resplit.
        assert_eq!(m.stats().splits, 1, "one level per query");
        let after_first = leaf_count(&m);
        assert_eq!(after_first, 4, "2^D children");
        m.query_collect(&q);
        // Second query: only query-overlapping children split.
        assert!(m.stats().splits >= 2);
        m.validate().unwrap();
    }

    #[test]
    fn repeated_queries_converge_to_capacity_or_depth() {
        let data = uniform_boxes_in::<2>(2_000, 1_000.0, 5);
        let mut m = Mosaic::new(data.clone(), 20, 6);
        let q = Aabb::new([400.0; 2], [450.0; 2]);
        let mut prev_splits = u64::MAX;
        for _ in 0..12 {
            m.query_collect(&q);
            let s = m.stats().splits;
            if s == prev_splits {
                break; // converged: no further splitting
            }
            prev_splits = s;
        }
        let before = m.stats().splits;
        m.query_collect(&q);
        assert_eq!(m.stats().splits, before, "converged region stops splitting");
        assert_matches_brute_force(&data, &q, &m.query_collect(&q));
    }

    #[test]
    fn query_extension_finds_straddling_objects() {
        // An object whose center is left of the query but whose body
        // reaches into it must be found.
        let mut data = uniform_boxes_in::<2>(500, 1_000.0, 7);
        data.push(Record::new(500, Aabb::new([100.0, 100.0], [400.0, 120.0])));
        let mut m = Mosaic::with_defaults(data.clone());
        let q = Aabb::new([380.0, 100.0], [390.0, 110.0]);
        for _ in 0..6 {
            let got = m.query_collect(&q);
            assert!(got.contains(&500));
            assert_matches_brute_force(&data, &q, &got);
        }
    }

    #[test]
    fn unqueried_regions_stay_coarse() {
        let data = uniform_boxes_in::<2>(8_000, 1_000.0, 9);
        let mut m = Mosaic::new(data, 10, 10);
        let q = Aabb::new([0.0; 2], [80.0; 2]); // corner only
        for _ in 0..8 {
            m.query_collect(&q);
        }
        // The opposite corner was never touched: after the initial root
        // split cascade near the queried corner, leaf count stays far below
        // a full grid at depth 10 (which would be 4^10 leaves).
        assert!(
            leaf_count(&m) < 2_000,
            "leaves {} — refinement must stay local",
            leaf_count(&m)
        );
        m.validate().unwrap();
    }

    #[test]
    fn degenerate_and_empty() {
        let mut m = Mosaic::<3>::with_defaults(Vec::new());
        assert!(m.query_collect(&Aabb::new([0.0; 3], [1.0; 3])).is_empty());

        let data = degenerate::identical::<2>(300);
        let mut m = Mosaic::new(data.clone(), 10, 5);
        let q = Aabb::new([5.0; 2], [6.0; 2]);
        for _ in 0..8 {
            assert_eq!(m.query_collect(&q).len(), 300);
        }
        // All centers identical: splitting bottoms out at max_depth without
        // ever separating them — counts must stay correct regardless.
        m.validate().unwrap();
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = uniform_boxes_in::<2>(5_000, 1_000.0, 11);
        let mut m = Mosaic::new(data, 1, 3); // tiny capacity forces deep splits
        let q = Aabb::new([0.0; 2], [1_000.0; 2]);
        for _ in 0..10 {
            m.query_collect(&q);
        }
        assert!(
            m.nodes.iter().all(|n| n.depth <= 3),
            "max_depth must bound the tree"
        );
        assert_eq!(leaf_count(&m), 64, "full grid at depth 3 in 2-d");
    }
}
