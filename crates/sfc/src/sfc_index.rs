//! The static SFC index (paper §6.1): pre-processing transforms every object
//! to a Z-code and fully sorts; queries are decomposed into Z-intervals and
//! answered by binary search per interval, filtering false positives against
//! the actual MBBs.

use crate::zorder::{default_bits, ZGrid};
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;

/// Static, fully sorted one-dimensional (Z-order) spatial index.
pub struct SfcIndex<const D: usize> {
    data: Vec<Record<D>>,
    /// `(zcode, position in data)`, sorted by code.
    codes: Vec<(u64, u32)>,
    grid: ZGrid<D>,
    /// Query extension amounts — objects are mapped by center, so a query
    /// must grow by the max half-extent before cell decomposition.
    half_extent: [f64; D],
    /// Interval cap per query (0 = exact decomposition).
    max_ranges: usize,
}

impl<const D: usize> SfcIndex<D> {
    /// Builds the index: one pass to measure the universe and extents, one
    /// to compute Z-codes, then a full sort (the pre-processing step
    /// SFCracker spreads over queries).
    pub fn build(data: Vec<Record<D>>, bits: u32, max_ranges: usize) -> Self {
        let mut universe = mbb_of(&data);
        if universe.is_empty() {
            universe = Aabb::new([0.0; D], [1.0; D]);
        }
        let grid = ZGrid::new(universe, bits);
        let mut half_extent = [0.0; D];
        for r in &data {
            for k in 0..D {
                let h = r.mbb.extent(k) * 0.5;
                if h > half_extent[k] {
                    half_extent[k] = h;
                }
            }
        }
        let mut codes: Vec<(u64, u32)> = data
            .iter()
            .enumerate()
            .map(|(i, r)| (grid.code_of_point(&r.mbb.center()), i as u32))
            .collect();
        codes.sort_unstable();
        Self {
            data,
            codes,
            grid,
            half_extent,
            max_ranges,
        }
    }

    /// Paper configuration: 10 bits/dim in 3-d, interval cap 256 (matching
    /// `SfCracker::DEFAULT_MAX_RANGES`, so the static and the
    /// incremental variants answer queries with identical decompositions).
    pub fn build_default(data: Vec<Record<D>>) -> Self {
        Self::build(data, default_bits(D), 256)
    }

    /// Query returning the number of candidates tested (false-positive
    /// analysis for EXPERIMENTS.md).
    pub(crate) fn query_counting(&self, query: &Aabb<D>, out: &mut Vec<u64>) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        let probe = query.inflated(&self.half_extent);
        let qlo = self.grid.cell_of(&probe.lo);
        let qhi = self.grid.cell_of(&probe.hi);
        let ranges = self.grid.decompose(&qlo, &qhi, self.max_ranges);
        let mut tested = 0usize;
        for &(a, b) in &ranges {
            let start = self.codes.partition_point(|&(c, _)| c < a);
            for &(c, pos) in &self.codes[start..] {
                if c > b {
                    break;
                }
                tested += 1;
                let r = &self.data[pos as usize];
                if r.mbb.intersects(query) {
                    out.push(r.id);
                }
            }
        }
        tested
    }
}

impl<const D: usize> SpatialIndex<D> for SfcIndex<D> {
    fn name(&self) -> &'static str {
        "SFC"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        self.query_counting(query, out);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    #[test]
    fn sorted_codes_and_correct_queries() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 1);
        let mut idx = SfcIndex::build_default(data.clone());
        assert!(idx.codes.windows(2).all(|w| w[0].0 <= w[1].0));
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 40, 1e-3, 2).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
    }

    #[test]
    fn capped_ranges_stay_correct() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 3);
        let mut idx = SfcIndex::build(data.clone(), 8, 16);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 30, 1e-2, 4).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
    }

    #[test]
    fn false_positive_accounting() {
        let data = uniform_boxes_in::<3>(5_000, 1_000.0, 5);
        let idx = SfcIndex::build_default(data);
        let q = Aabb::new([200.0; 3], [300.0; 3]);
        let mut out = Vec::new();
        let tested = idx.query_counting(&q, &mut out);
        assert!(tested >= out.len());
        assert!(tested < 5_000, "decomposition must prune");
    }

    #[test]
    fn empty_dataset_and_degenerates() {
        let mut idx = SfcIndex::<2>::build_default(Vec::new());
        assert!(idx.query_collect(&Aabb::new([0.0; 2], [1.0; 2])).is_empty());

        let data = degenerate::identical::<2>(64);
        let mut idx = SfcIndex::build_default(data.clone());
        let q = Aabb::new([5.2; 2], [5.4; 2]);
        assert_eq!(idx.query_collect(&q).len(), 64);
        assert_matches_brute_force(&data, &q, &idx.query_collect(&q));
    }

    #[test]
    fn big_objects_found_despite_center_mapping() {
        // Center-based assignment + query extension: a query touching only
        // the far edge of a large object must still find it.
        let mut data = uniform_boxes_in::<2>(500, 1_000.0, 6);
        data.push(Record::new(500, Aabb::new([0.0, 0.0], [800.0, 10.0])));
        let mut idx = SfcIndex::build_default(data.clone());
        let q = Aabb::new([790.0, 0.0], [795.0, 5.0]); // far from the center
        let got = idx.query_collect(&q);
        assert!(
            got.contains(&500),
            "edge-touching query must see the big box"
        );
        assert_matches_brute_force(&data, &q, &got);
    }
}
