//! The `Scan` baseline (§6.1): answers every query with a full pass over the
//! data. No pre-processing, no adaptation — the floor every index must beat
//! after enough queries, and the reference for data-to-insight time.

use crate::geom::{Aabb, Record};
use crate::index::SpatialIndex;

/// Full-scan "index".
#[derive(Clone, Debug)]
pub struct Scan<const D: usize> {
    data: Vec<Record<D>>,
}

impl<const D: usize> Scan<D> {
    /// Wraps the dataset; O(1) — scan has no build phase.
    pub fn new(data: Vec<Record<D>>) -> Self {
        Self { data }
    }
}

impl<const D: usize> SpatialIndex<D> for Scan<D> {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        for r in &self.data {
            if r.mbb.intersects(query) {
                out.push(r.id);
            }
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        0 // no auxiliary structure at all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::uniform_boxes_in;
    use crate::index::assert_matches_brute_force;

    #[test]
    fn scan_matches_brute_force_by_construction() {
        let data = uniform_boxes_in::<3>(300, 100.0, 1);
        let mut scan = Scan::new(data.clone());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = scan.query_collect(&q);
        assert_matches_brute_force(&data, &q, &got);
        assert_eq!(scan.len(), 300);
        assert!(!scan.is_empty());
        assert_eq!(scan.name(), "Scan");
    }

    #[test]
    fn empty_dataset() {
        let mut scan = Scan::<2>::new(Vec::new());
        assert!(scan.is_empty());
        assert!(scan
            .query_collect(&Aabb::new([0.0; 2], [1.0; 2]))
            .is_empty());
    }
}
