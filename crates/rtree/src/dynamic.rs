//! Insertion-built R-Tree (Guttman 1984) with the quadratic split heuristic.
//!
//! The paper's baseline uses STR bulk loading because "it reduces overlap
//! and decreases pre-processing time compared to the R-Tree built by
//! inserting one object at a time" (§6.1). This module implements that
//! rejected alternative so the claim can be measured (see the ablation
//! bench): same interface, same capacity, tuple-at-a-time construction.

use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;

#[derive(Clone, Debug)]
struct DNode<const D: usize> {
    bbox: Aabb<D>,
    parent: Option<u32>,
    kind: DKind<D>,
}

#[derive(Clone, Debug)]
enum DKind<const D: usize> {
    Leaf { records: Vec<Record<D>> },
    Inner { children: Vec<u32> },
}

/// Dynamic R-Tree supporting one-at-a-time insertion.
pub struct DynamicRTree<const D: usize> {
    nodes: Vec<DNode<D>>,
    root: u32,
    len: usize,
    capacity: usize,
    min_fill: usize,
}

impl<const D: usize> DynamicRTree<D> {
    /// Creates an empty tree with the given node capacity (min fill = 40 %).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let root = DNode {
            bbox: Aabb::empty(),
            parent: None,
            kind: DKind::Leaf {
                records: Vec::new(),
            },
        };
        Self {
            nodes: vec![root],
            root: 0,
            len: 0,
            capacity,
            min_fill: (capacity * 2 / 5).max(1),
        }
    }

    /// Builds a tree by inserting every record in order.
    pub fn from_records(data: Vec<Record<D>>, capacity: usize) -> Self {
        let mut t = Self::new(capacity);
        for r in data {
            t.insert(r);
        }
        t
    }

    /// Inserts one record.
    pub(crate) fn insert(&mut self, r: Record<D>) {
        self.len += 1;
        let leaf = self.choose_leaf(r.mbb);
        if let DKind::Leaf { records } = &mut self.nodes[leaf as usize].kind {
            records.push(r);
        } else {
            unreachable!("choose_leaf returns leaves");
        }
        self.nodes[leaf as usize].bbox.expand(&r.mbb);
        self.adjust_upwards(leaf);
        if self.node_len(leaf) > self.capacity {
            self.split(leaf);
        }
    }

    fn node_len(&self, id: u32) -> usize {
        match &self.nodes[id as usize].kind {
            DKind::Leaf { records } => records.len(),
            DKind::Inner { children } => children.len(),
        }
    }

    /// Descends by least area enlargement (ties: smaller area).
    fn choose_leaf(&self, mbb: Aabb<D>) -> u32 {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize].kind {
                DKind::Leaf { .. } => return cur,
                DKind::Inner { children } => {
                    let mut best = children[0];
                    let mut best_cost = (f64::INFINITY, f64::INFINITY);
                    for &c in children {
                        let b = &self.nodes[c as usize].bbox;
                        let grown = b.union(&mbb);
                        let cost = (grown.volume() - b.volume(), b.volume());
                        if cost < best_cost {
                            best_cost = cost;
                            best = c;
                        }
                    }
                    cur = best;
                }
            }
        }
    }

    /// Propagates bbox growth to the root.
    fn adjust_upwards(&mut self, mut id: u32) {
        while let Some(p) = self.nodes[id as usize].parent {
            let child_box = self.nodes[id as usize].bbox;
            self.nodes[p as usize].bbox.expand(&child_box);
            id = p;
        }
    }

    /// Splits an overflowing node with the quadratic heuristic, propagating
    /// splits (and possibly growing a new root) upwards.
    fn split(&mut self, id: u32) {
        let parent = self.nodes[id as usize].parent;
        let (bbox_a, bbox_b, new_kind_a, new_kind_b) = match &mut self.nodes[id as usize].kind {
            DKind::Leaf { records } => {
                let items = std::mem::take(records);
                let (ga, gb, ba, bb) = quadratic_split(items, |r| r.mbb, self.min_fill);
                (
                    ba,
                    bb,
                    DKind::Leaf { records: ga },
                    DKind::Leaf { records: gb },
                )
            }
            DKind::Inner { children } => {
                let items = std::mem::take(children);
                // Need the child bboxes; copy them out first.
                let boxed: Vec<(u32, Aabb<D>)> = items
                    .iter()
                    .map(|&c| (c, self.nodes[c as usize].bbox))
                    .collect();
                let (ga, gb, ba, bb) = quadratic_split(boxed, |e| e.1, self.min_fill);
                (
                    ba,
                    bb,
                    DKind::Inner {
                        children: ga.into_iter().map(|e| e.0).collect(),
                    },
                    DKind::Inner {
                        children: gb.into_iter().map(|e| e.0).collect(),
                    },
                )
            }
        };

        // Node `id` keeps group A; a fresh node holds group B.
        self.nodes[id as usize].kind = new_kind_a;
        self.nodes[id as usize].bbox = bbox_a;
        let sibling = self.nodes.len() as u32;
        self.nodes.push(DNode {
            bbox: bbox_b,
            parent,
            kind: new_kind_b,
        });
        if let DKind::Inner { children } = &self.nodes[sibling as usize].kind {
            for c in children.clone() {
                self.nodes[c as usize].parent = Some(sibling);
            }
        }

        match parent {
            Some(p) => {
                if let DKind::Inner { children } = &mut self.nodes[p as usize].kind {
                    children.push(sibling);
                }
                // Parent bbox still covers both halves (it covered the
                // original), but recompute to stay tight.
                self.recompute_bbox(p);
                self.adjust_upwards(p);
                if self.node_len(p) > self.capacity {
                    self.split(p);
                }
            }
            None => {
                // Root split: new root with the two halves.
                let new_root = self.nodes.len() as u32;
                let bbox = bbox_a.union(&bbox_b);
                self.nodes.push(DNode {
                    bbox,
                    parent: None,
                    kind: DKind::Inner {
                        children: vec![id, sibling],
                    },
                });
                self.nodes[id as usize].parent = Some(new_root);
                self.nodes[sibling as usize].parent = Some(new_root);
                self.root = new_root;
            }
        }
    }

    fn recompute_bbox(&mut self, id: u32) {
        let bbox = match &self.nodes[id as usize].kind {
            DKind::Leaf { records } => {
                let mut b = Aabb::empty();
                for r in records {
                    b.expand(&r.mbb);
                }
                b
            }
            DKind::Inner { children } => {
                let mut b = Aabb::empty();
                for &c in children {
                    b.expand(&self.nodes[c as usize].bbox);
                }
                b
            }
        };
        self.nodes[id as usize].bbox = bbox;
    }

    /// Tree height (root = 1).
    #[cfg(test)]
    fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize].kind {
                DKind::Inner { children } => {
                    h += 1;
                    cur = children[0];
                }
                DKind::Leaf { .. } => return h,
            }
        }
    }

    /// Structural validation (bbox containment, capacity, count).
    #[cfg(test)]
    fn validate(&self) -> Result<(), String> {
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            match &node.kind {
                DKind::Inner { children } => {
                    if children.is_empty() {
                        return Err(format!("inner node {id} empty"));
                    }
                    for &c in children {
                        if self.nodes[c as usize].parent != Some(id) {
                            return Err(format!("child {c} has wrong parent"));
                        }
                        if !node.bbox.contains(&self.nodes[c as usize].bbox) {
                            return Err(format!("child {c} escapes {id}"));
                        }
                        stack.push(c);
                    }
                }
                DKind::Leaf { records } => {
                    if records.len() > self.capacity {
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
            return Err(format!("count {count} != len {}", self.len));
        }
        Ok(())
    }

    /// Sum of inner-node child-box overlap volumes — the tree-quality metric
    /// STR bulk loading is supposed to minimize (used by the ablation bench).
    pub fn overlap_volume(&self) -> f64 {
        let mut total = 0.0;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let DKind::Inner { children } = &self.nodes[id as usize].kind {
                for (i, &a) in children.iter().enumerate() {
                    for &b in &children[i + 1..] {
                        if let Some(ov) = self.nodes[a as usize]
                            .bbox
                            .intersection(&self.nodes[b as usize].bbox)
                        {
                            total += ov.volume();
                        }
                    }
                    stack.push(a);
                }
                if let Some(&last) = children.last() {
                    stack.push(last);
                }
            }
        }
        total
    }
}

/// Guttman's quadratic split: pick the two seeds wasting the most area
/// together, then assign remaining items by strongest preference.
fn quadratic_split<T: Clone, const D: usize>(
    items: Vec<T>,
    bbox: impl Fn(&T) -> Aabb<D>,
    min_fill: usize,
) -> (Vec<T>, Vec<T>, Aabb<D>, Aabb<D>) {
    debug_assert!(items.len() >= 2);
    // Pick seeds.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in i + 1..items.len() {
            let bi = bbox(&items[i]);
            let bj = bbox(&items[j]);
            let dead = bi.union(&bj).volume() - bi.volume() - bj.volume();
            if dead > worst {
                worst = dead;
                s1 = i;
                s2 = j;
            }
        }
    }

    let mut group_a = vec![items[s1].clone()];
    let mut group_b = vec![items[s2].clone()];
    let mut box_a = bbox(&items[s1]);
    let mut box_b = bbox(&items[s2]);
    let mut rest: Vec<T> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != s1 && *i != s2)
        .map(|(_, t)| t)
        .collect();

    while let Some(item) = rest.pop() {
        // If one group must take everything remaining to reach min fill, do so.
        if group_a.len() + rest.len() + 1 <= min_fill {
            box_a.expand(&bbox(&item));
            group_a.push(item);
            continue;
        }
        if group_b.len() + rest.len() + 1 <= min_fill {
            box_b.expand(&bbox(&item));
            group_b.push(item);
            continue;
        }
        let b = bbox(&item);
        let grow_a = box_a.union(&b).volume() - box_a.volume();
        let grow_b = box_b.union(&b).volume() - box_b.volume();
        if grow_a < grow_b || (grow_a == grow_b && group_a.len() <= group_b.len()) {
            box_a.expand(&b);
            group_a.push(item);
        } else {
            box_b.expand(&b);
            group_b.push(item);
        }
    }
    (group_a, group_b, box_a, box_b)
}

impl<const D: usize> SpatialIndex<D> for DynamicRTree<D> {
    fn name(&self) -> &'static str {
        "DynR-Tree"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.bbox.intersects(query) {
                continue;
            }
            match &node.kind {
                DKind::Inner { children } => stack.extend_from_slice(children),
                DKind::Leaf { records } => {
                    for r in records {
                        if r.mbb.intersects(query) {
                            out.push(r.id);
                        }
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn index_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<DNode<D>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::uniform_boxes_in;
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    #[test]
    fn insertion_tree_is_correct() {
        let data = uniform_boxes_in::<2>(2_000, 1_000.0, 1);
        let mut t = DynamicRTree::from_records(data.clone(), 16);
        t.validate().unwrap();
        let u = Aabb::new([0.0; 2], [1_000.0; 2]);
        for q in &workload::uniform(&u, 40, 1e-3, 2).queries {
            assert_matches_brute_force(&data, q, &t.query_collect(q));
        }
    }

    #[test]
    fn empty_and_single() {
        let mut t = DynamicRTree::<3>::new(8);
        t.validate().unwrap();
        assert!(t.query_collect(&Aabb::new([0.0; 3], [1.0; 3])).is_empty());
        t.insert(Record::new(1, Aabb::new([0.5; 3], [0.6; 3])));
        t.validate().unwrap();
        assert_eq!(t.query_collect(&Aabb::new([0.0; 3], [1.0; 3])), vec![1]);
    }

    #[test]
    fn splits_grow_height_logarithmically() {
        let data = uniform_boxes_in::<2>(5_000, 1_000.0, 3);
        let t = DynamicRTree::from_records(data, 16);
        let h = t.height();
        assert!(h >= 3 && h <= 8, "height {h} out of expected range");
        t.validate().unwrap();
    }

    #[test]
    fn incremental_inserts_stay_queryable() {
        let data = uniform_boxes_in::<3>(1_000, 500.0, 4);
        let mut t = DynamicRTree::new(10);
        for (i, r) in data.iter().enumerate() {
            t.insert(*r);
            if i % 250 == 249 {
                t.validate().unwrap();
                let q = Aabb::new([0.0; 3], [500.0; 3]);
                assert_eq!(t.query_collect(&q).len(), i + 1);
            }
        }
    }

    #[test]
    fn str_beats_insertion_on_overlap() {
        // Quantifies the paper's §6.1 claim that bulk loading reduces
        // overlap: quadratic-split trees should have non-trivial overlap.
        let data = uniform_boxes_in::<2>(3_000, 1_000.0, 5);
        let dynamic = DynamicRTree::from_records(data, 16);
        assert!(
            dynamic.overlap_volume() > 0.0,
            "insertion trees have overlapping siblings"
        );
    }
}
