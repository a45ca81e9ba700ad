//! # quasii-rtree
//!
//! R-Tree baselines for the QUASII reproduction:
//!
//! * [`RTree`] — **static**, bulk-loaded with Sort-Tile-Recursive packing
//!   exactly as the paper's strongest baseline (§6.1: STR, node capacity
//!   60); this is the index whose build cost QUASII's incremental strategy
//!   amortizes against in Figs. 7–12.
//! * [`DynamicRTree`] — insertion-built R-Tree with Guttman's quadratic
//!   split, provided as an extension: the paper notes one-at-a-time
//!   insertion produces worse trees than bulk loading, and the ablation
//!   bench quantifies that claim.

#![warn(missing_docs)]

pub(crate) mod dynamic;
pub mod str_pack;

pub use dynamic::DynamicRTree;

use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;
use str_pack::str_tile;

/// Arena-allocated R-Tree node.
#[derive(Clone, Debug)]
struct Node<const D: usize> {
    bbox: Aabb<D>,
    kind: NodeKind<D>,
}

#[derive(Clone, Debug)]
enum NodeKind<const D: usize> {
    /// Leaf node holding the objects of one STR tile.
    Leaf { records: Vec<Record<D>> },
    /// Inner node holding arena indices of its children.
    Inner { children: Vec<u32> },
}

/// Static R-Tree bulk-loaded with STR packing.
pub struct RTree<const D: usize> {
    nodes: Vec<Node<D>>,
    root: Option<u32>,
    len: usize,
}

impl<const D: usize> RTree<D> {
    /// The node capacity used throughout the paper's evaluation.
    pub(crate) const PAPER_CAPACITY: usize = 60;

    /// Bulk-loads the dataset with STR (full recursive sorts — this *is* the
    /// pre-processing step whose cost the incremental approaches avoid).
    pub fn bulk_load(mut data: Vec<Record<D>>, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let len = data.len();
        let mut nodes: Vec<Node<D>> = Vec::new();
        if len == 0 {
            return Self {
                nodes,
                root: None,
                len,
            };
        }

        // Leaf level: STR-tile the records by MBB center.
        let tiles = str_tile(&mut data, capacity, |r: &Record<D>| r.mbb.center());
        let mut level: Vec<u32> = Vec::with_capacity(tiles.len());
        for &(a, b) in &tiles {
            let records = data[a..b].to_vec();
            let mut bbox = Aabb::empty();
            for r in &records {
                bbox.expand(&r.mbb);
            }
            nodes.push(Node {
                bbox,
                kind: NodeKind::Leaf { records },
            });
            level.push((nodes.len() - 1) as u32);
        }

        // Upper levels: repeatedly STR-pack the node bounding boxes (by
        // center) until a single root remains.
        while level.len() > 1 {
            let mut entries: Vec<(u32, [f64; D])> = level
                .iter()
                .map(|&id| (id, nodes[id as usize].bbox.center()))
                .collect();
            let tiles = str_tile(&mut entries, capacity, |e: &(u32, [f64; D])| e.1);
            let mut next: Vec<u32> = Vec::with_capacity(tiles.len());
            for &(a, b) in &tiles {
                let children: Vec<u32> = entries[a..b].iter().map(|e| e.0).collect();
                let mut bbox = Aabb::empty();
                for &c in &children {
                    bbox.expand(&nodes[c as usize].bbox);
                }
                nodes.push(Node {
                    bbox,
                    kind: NodeKind::Inner { children },
                });
                next.push((nodes.len() - 1) as u32);
            }
            level = next;
        }

        let root = Some(level[0]);
        Self { nodes, root, len }
    }

    /// Bulk load with the paper's capacity (60).
    pub fn bulk_load_default(data: Vec<Record<D>>) -> Self {
        Self::bulk_load(data, Self::PAPER_CAPACITY)
    }

    /// Tree height (root = 1); 0 for an empty tree.
    #[cfg(test)]
    fn height(&self) -> usize {
        let mut h = 0;
        let mut cur = self.root;
        while let Some(id) = cur {
            h += 1;
            cur = match &self.nodes[id as usize].kind {
                NodeKind::Inner { children } => Some(children[0]),
                NodeKind::Leaf { .. } => None,
            };
        }
        h
    }

    /// Range query returning ids plus the number of objects *tested* for
    /// intersection (used to reproduce the paper's "3.1× more objects
    /// considered" style analysis, §6.2).
    pub fn query_counting(&self, query: &Aabb<D>, out: &mut Vec<u64>) -> usize {
        let mut tested = 0usize;
        let Some(root) = self.root else { return 0 };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            match &node.kind {
                NodeKind::Inner { children } => {
                    for &c in children {
                        if self.nodes[c as usize].bbox.intersects(query) {
                            stack.push(c);
                        }
                    }
                }
                NodeKind::Leaf { records } => {
                    for r in records {
                        tested += 1;
                        if r.mbb.intersects(query) {
                            out.push(r.id);
                        }
                    }
                }
            }
        }
        tested
    }

    /// Checks structural invariants: child boxes contained in parents, node
    /// sizes within `capacity`, record count preserved.
    #[cfg(test)]
    fn validate(&self, capacity: usize) -> Result<(), String> {
        let Some(root) = self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err("non-empty tree without root".into())
            };
        };
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            match &node.kind {
                NodeKind::Inner { children } => {
                    if children.is_empty() {
                        return Err(format!("inner node {id} has no children"));
                    }
                    if children.len() > capacity {
                        return Err(format!("inner node {id} over capacity"));
                    }
                    for &c in children {
                        if !node.bbox.contains(&self.nodes[c as usize].bbox) {
                            return Err(format!("child {c} escapes parent {id} bbox"));
                        }
                        stack.push(c);
                    }
                }
                NodeKind::Leaf { records } => {
                    if records.len() > capacity {
                        return Err(format!("leaf {id} over capacity"));
                    }
                    for r in records {
                        if !node.bbox.contains(&r.mbb) {
                            return Err(format!("record {} escapes leaf {id}", r.id));
                        }
                    }
                    count += records.len();
                }
            }
        }
        if count != self.len {
            return Err(format!("record count {count} != len {}", self.len));
        }
        Ok(())
    }
}

impl<const D: usize> SpatialIndex<D> for RTree<D> {
    fn name(&self) -> &'static str {
        "R-Tree"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        self.query_counting(query, out);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn index_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<D>>()
            + self
                .nodes
                .iter()
                .map(|n| match &n.kind {
                    NodeKind::Leaf { records } => {
                        records.capacity() * std::mem::size_of::<Record<D>>()
                    }
                    NodeKind::Inner { children } => children.capacity() * 4,
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

    #[test]
    fn str_tree_is_correct_on_random_queries() {
        let data = uniform_boxes_in::<3>(5_000, 1_000.0, 1);
        let mut t = RTree::bulk_load(data.clone(), 32);
        t.validate(32).unwrap();
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 50, 1e-3, 2).queries {
            let got = t.query_collect(q);
            assert_matches_brute_force(&data, q, &got);
        }
    }

    #[test]
    fn tree_shape_is_packed() {
        let data = uniform_boxes_in::<2>(4_096, 1_000.0, 3);
        let t = RTree::bulk_load(data, 16);
        // 4096/16 = 256 leaves; with 16-ary packing: 256 -> 16 -> 1: height 3.
        assert_eq!(t.height(), 3, "STR should pack tightly");
        let leaves = 4_096usize.div_ceil(16);
        assert!(t.nodes.len() <= leaves * 2, "nodes {}", t.nodes.len());
    }

    #[test]
    fn empty_and_tiny_trees() {
        let mut t = RTree::<3>::bulk_load(Vec::new(), 60);
        t.validate(60).unwrap();
        assert_eq!(t.height(), 0);
        assert!(t.query_collect(&Aabb::new([0.0; 3], [1.0; 3])).is_empty());

        let one = vec![Record::new(7, Aabb::new([1.0; 3], [2.0; 3]))];
        let mut t = RTree::bulk_load(one, 60);
        t.validate(60).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.query_collect(&Aabb::new([0.0; 3], [3.0; 3])), vec![7]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn query_counting_reports_tested_objects() {
        let data = uniform_boxes_in::<2>(2_000, 1_000.0, 5);
        let t = RTree::bulk_load(data.clone(), 20);
        let q = Aabb::new([100.0; 2], [150.0; 2]);
        let mut out = Vec::new();
        let tested = t.query_counting(&q, &mut out);
        assert!(tested >= out.len());
        assert!(
            tested < data.len() / 2,
            "R-Tree should prune most of the data: tested {tested}"
        );
    }

    #[test]
    fn handles_identical_boxes() {
        let data = degenerate::identical::<2>(500);
        let mut t = RTree::bulk_load(data.clone(), 10);
        t.validate(10).unwrap();
        let q = Aabb::new([5.5; 2], [5.6; 2]);
        assert_eq!(t.query_collect(&q).len(), 500);
        let miss = Aabb::new([10.0; 2], [11.0; 2]);
        assert!(t.query_collect(&miss).is_empty());
    }

    #[test]
    fn heavy_tail_objects_are_found() {
        // The 1 % large boxes must be retrievable from far-away queries that
        // only clip their edges.
        let data = uniform_boxes_in::<3>(20_000, 10_000.0, 8);
        let mut t = RTree::bulk_load_default(data.clone());
        let u = Aabb::new([0.0; 3], [10_000.0; 3]);
        for q in &workload::uniform(&u, 25, 1e-4, 9).queries {
            assert_matches_brute_force(&data, q, &t.query_collect(q));
        }
    }

    #[test]
    fn index_bytes_nonzero() {
        let data = uniform_boxes_in::<2>(1_000, 100.0, 10);
        let t = RTree::bulk_load(data, 16);
        assert!(t.index_bytes() > 1_000);
    }
}
