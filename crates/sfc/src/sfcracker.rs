//! SFCracker (paper §3.1): database cracking applied to spatial data via a
//! space-filling curve.
//!
//! The first query transforms every object to a Z-code (the expensive step
//! the paper highlights); subsequent queries decompose their range into
//! Z-intervals and crack the code array at each interval boundary,
//! incrementally converging to the fully sorted SFC index. The cracker index
//! (crack value → array position) is a `BTreeMap`, the in-memory analogue of
//! the AVL tree used by the original database-cracking work.

use crate::zorder::{default_bits, ZGrid};
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;
use std::collections::BTreeMap;

/// Work counters for SFCracker (mirrors `QuasiiStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SfCrackerStats {
    /// Queries executed.
    pub queries: u64,
    /// Crack operations (one per new interval boundary).
    pub cracks: u64,
    /// Code entries moved across all cracks.
    pub entries_cracked: u64,
    /// Z-intervals produced by query decomposition.
    pub intervals: u64,
}

/// Incremental (cracked) Z-order index.
pub struct SfCracker<const D: usize> {
    data: Vec<Record<D>>,
    /// `(zcode, position)` pairs, progressively cracked into sorted pieces.
    codes: Vec<(u64, u32)>,
    /// Crack boundaries: value `v` → array position `p` such that all codes
    /// `< v` lie left of `p` and all codes `>= v` lie right.
    cracks: BTreeMap<u64, usize>,
    grid: Option<ZGrid<D>>,
    half_extent: [f64; D],
    bits: u32,
    max_ranges: usize,
    stats: SfCrackerStats,
}

impl<const D: usize> SfCracker<D> {
    /// Wraps the dataset; O(1). The Z-transform happens inside the first
    /// query, exactly as the paper describes ("the data transformation takes
    /// place in the first query, which makes it the most expensive one").
    pub fn new(data: Vec<Record<D>>, bits: u32, max_ranges: usize) -> Self {
        Self {
            data,
            codes: Vec::new(),
            cracks: BTreeMap::new(),
            grid: None,
            half_extent: [0.0; D],
            bits,
            max_ranges,
            stats: SfCrackerStats::default(),
        }
    }

    /// Interval cap used by the default configuration. The paper reports an
    /// average of 197 tightly covering intervals per query; capping at 256
    /// bounds per-query crack work while the exact-intersection filter keeps
    /// results correct.
    pub(crate) const DEFAULT_MAX_RANGES: usize = 256;

    /// Paper configuration (10 bits/dim in 3-d, interval cap 256).
    pub fn with_default_bits(data: Vec<Record<D>>) -> Self {
        Self::new(data, default_bits(D), Self::DEFAULT_MAX_RANGES)
    }

    /// Work counters so far.
    #[cfg(test)]
    fn stats(&self) -> SfCrackerStats {
        self.stats
    }

    /// Number of crack boundaries established so far.
    pub fn crack_count(&self) -> usize {
        self.cracks.len()
    }

    fn ensure_init(&mut self) {
        if self.grid.is_some() || self.data.is_empty() {
            return;
        }
        let universe = mbb_of(&self.data);
        let grid = ZGrid::new(universe, self.bits);
        for r in &self.data {
            for k in 0..D {
                let h = r.mbb.extent(k) * 0.5;
                if h > self.half_extent[k] {
                    self.half_extent[k] = h;
                }
            }
        }
        self.codes = self
            .data
            .iter()
            .enumerate()
            .map(|(i, r)| (grid.code_of_point(&r.mbb.center()), i as u32))
            .collect();
        self.grid = Some(grid);
    }

    /// Cracks the code array at value `v`, returning the position of the
    /// first entry `>= v`. Reuses existing boundaries; new boundaries
    /// partition only the enclosing uncracked piece (incremental quicksort).
    fn crack_at(&mut self, v: u64) -> usize {
        if let Some(&p) = self.cracks.get(&v) {
            return p;
        }
        let lo = self
            .cracks
            .range(..v)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let hi = self
            .cracks
            .range(v..)
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.codes.len());
        let piece = &mut self.codes[lo..hi];
        // Hoare partition by code < v.
        let mut i = 0usize;
        let mut j = piece.len();
        loop {
            while i < j && piece[i].0 < v {
                i += 1;
            }
            while i < j && piece[j - 1].0 >= v {
                j -= 1;
            }
            if i + 1 >= j {
                break;
            }
            piece.swap(i, j - 1);
            i += 1;
            j -= 1;
        }
        let p = lo + i;
        self.stats.cracks += 1;
        self.stats.entries_cracked += (hi - lo) as u64;
        self.cracks.insert(v, p);
        p
    }

    /// Verifies the cracker-index invariant (tests only).
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_pos = 0usize;
        let mut prev_val = 0u64;
        for (&v, &p) in &self.cracks {
            if p < prev_pos {
                return Err(format!("crack positions not monotone at value {v}"));
            }
            // All codes in [prev_pos, p) must be < v (and >= previous value).
            for &(c, _) in &self.codes[prev_pos..p] {
                if c >= v {
                    return Err(format!("code {c} >= crack value {v} on the left"));
                }
                if c < prev_val {
                    return Err(format!("code {c} < previous crack {prev_val}"));
                }
            }
            prev_pos = p;
            prev_val = v;
        }
        for &(c, _) in &self.codes[prev_pos..] {
            if c < prev_val {
                return Err(format!("tail code {c} < last crack {prev_val}"));
            }
        }
        Ok(())
    }
}

impl<const D: usize> SpatialIndex<D> for SfCracker<D> {
    fn name(&self) -> &'static str {
        "SFCracker"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        self.ensure_init();
        self.stats.queries += 1;
        let Some(grid) = &self.grid else { return };
        let probe = query.inflated(&self.half_extent);
        let qlo = grid.cell_of(&probe.lo);
        let qhi = grid.cell_of(&probe.hi);
        let ranges = grid.decompose(&qlo, &qhi, self.max_ranges);
        self.stats.intervals += ranges.len() as u64;
        // The paper's strategy: every interval induces cracks at both ends;
        // the enclosed piece is then scanned with exact filtering.
        for (a, b) in ranges {
            let lo = self.crack_at(a);
            let hi = self.crack_at(b.saturating_add(1));
            for &(_, pos) in &self.codes[lo..hi] {
                let r = &self.data[pos as usize];
                if r.mbb.intersects(query) {
                    out.push(r.id);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.cracks.len() * (std::mem::size_of::<(u64, usize)>() + 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    #[test]
    fn matches_brute_force_over_a_workload() {
        let data = uniform_boxes_in::<3>(3_000, 1_000.0, 1);
        let mut idx = SfCracker::with_default_bits(data.clone());
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 40, 1e-3, 2).queries {
            let got = idx.query_collect(q);
            assert_matches_brute_force(&data, q, &got);
            idx.validate().unwrap();
        }
        assert!(idx.crack_count() > 0);
    }

    #[test]
    fn first_query_pays_the_transform() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 3);
        let mut idx = SfCracker::with_default_bits(data);
        assert!(idx.codes.is_empty(), "lazy before first query");
        idx.query_collect(&Aabb::new([0.0; 3], [50.0; 3]));
        assert_eq!(idx.codes.len(), 2_000, "transform happened in query 1");
    }

    #[test]
    fn repeated_queries_stop_cracking() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 5);
        let mut idx = SfCracker::with_default_bits(data);
        let q = Aabb::new([100.0; 3], [220.0; 3]);
        idx.query_collect(&q);
        let first = idx.stats();
        idx.query_collect(&q);
        let second = idx.stats();
        assert_eq!(first.cracks, second.cracks, "same query cracks nothing new");
        assert!(second.entries_cracked == first.entries_cracked);
    }

    #[test]
    fn converges_toward_sorted_order() {
        let data = uniform_boxes_in::<2>(1_000, 1_000.0, 7);
        let mut idx = SfCracker::new(data, 8, 0);
        let u = Aabb::new([0.0; 2], [1_000.0; 2]);
        for q in &workload::uniform(&u, 200, 1e-2, 8).queries {
            idx.query_collect(q);
        }
        idx.validate().unwrap();
        // Pieces between cracks shrink as the array approaches sortedness:
        // count inversions across crack boundaries (must be zero).
        let positions: Vec<usize> = idx.cracks.values().copied().collect();
        assert!(positions.windows(2).all(|w| w[0] <= w[1]));
        assert!(idx.crack_count() > 50);
    }

    #[test]
    fn degenerate_inputs() {
        let mut idx = SfCracker::<2>::with_default_bits(Vec::new());
        assert!(idx.query_collect(&Aabb::new([0.0; 2], [1.0; 2])).is_empty());

        let data = degenerate::identical::<2>(128);
        let mut idx = SfCracker::with_default_bits(data.clone());
        let q = Aabb::new([5.0; 2], [6.0; 2]);
        assert_eq!(idx.query_collect(&q).len(), 128);
        idx.validate().unwrap();
    }

    #[test]
    fn capped_decomposition_is_still_exact_in_results() {
        let data = uniform_boxes_in::<3>(1_500, 1_000.0, 9);
        let mut idx = SfCracker::new(data.clone(), 6, 8);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 25, 1e-2, 10).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
    }
}
