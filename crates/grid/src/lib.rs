//! # quasii-grid
//!
//! Uniform grid index — the paper's representative of *space-oriented*
//! partitioning (§3.2, §6.2) and the static counterpart of Mosaic.
//!
//! The grid supports both data-assignment strategies the paper contrasts in
//! Fig. 6a:
//!
//! * [`Assignment::Replication`] — an object is stored in **every** cell its
//!   MBB overlaps; queries must de-duplicate results (implemented with an
//!   epoch-stamp array, no sorting).
//! * [`Assignment::QueryExtension`] — an object is stored only in the cell
//!   containing its **center** (Stefanakis et al.); to stay correct, every
//!   query is extended by the maximum object half-extent per dimension
//!   before cell lookup, and candidates are filtered against the original
//!   query.
//!
//! The paper's configurations: 100 partitions/dimension for the uniform
//! dataset, 220 for the (skewed) neuroscience dataset — both found by a
//! parameter sweep, which Fig. 6b shows is workload-dependent; the
//! [`sweep_partitions`] helper reproduces that sweep.

#![warn(missing_docs)]

use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;

/// Data-assignment strategy (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Object in every overlapping cell + result de-duplication.
    Replication,
    /// Object in its center cell + query extension by max half-extent.
    QueryExtension,
}

/// Uniform grid over the dataset's bounding universe.
pub struct UniformGrid<const D: usize> {
    data: Vec<Record<D>>,
    /// Flattened `parts^D` cells holding record positions (u32).
    cells: Vec<Vec<u32>>,
    parts: usize,
    universe: Aabb<D>,
    inv_cell: [f64; D],
    assignment: Assignment,
    /// Max object half-extent per dimension (query-extension amount).
    half_extent: [f64; D],
    /// Epoch stamps for O(1) de-duplication under replication.
    stamps: Vec<u32>,
    epoch: u32,
}

impl<const D: usize> UniformGrid<D> {
    /// Builds the grid with `parts` partitions per dimension.
    ///
    /// This is the pre-processing step of the static baseline: one pass to
    /// measure the universe, one to assign objects to cells.
    pub fn build(data: Vec<Record<D>>, parts: usize, assignment: Assignment) -> Self {
        let parts = parts.max(1);
        let mut universe = mbb_of(&data);
        if universe.is_empty() {
            universe = Aabb::new([0.0; D], [1.0; D]);
        }
        let mut inv_cell = [0.0; D];
        for k in 0..D {
            let span = (universe.hi[k] - universe.lo[k]).max(f64::MIN_POSITIVE);
            inv_cell[k] = parts as f64 / span;
        }
        let mut half_extent = [0.0; D];
        for r in &data {
            for k in 0..D {
                let h = r.mbb.extent(k) * 0.5;
                if h > half_extent[k] {
                    half_extent[k] = h;
                }
            }
        }

        let n_cells = parts.pow(D as u32);
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); n_cells];
        for (pos, r) in data.iter().enumerate() {
            match assignment {
                Assignment::QueryExtension => {
                    let c = cell_of(&universe, &inv_cell, parts, &r.mbb.center());
                    cells[flatten::<D>(&c, parts)].push(pos as u32);
                }
                Assignment::Replication => {
                    let lo = cell_of(&universe, &inv_cell, parts, &r.mbb.lo);
                    let hi = cell_of(&universe, &inv_cell, parts, &r.mbb.hi);
                    for_each_cell::<D>(&lo, &hi, |c| {
                        cells[flatten::<D>(c, parts)].push(pos as u32);
                    });
                }
            }
        }
        let stamps = vec![0u32; data.len()];
        Self {
            data,
            cells,
            parts,
            universe,
            inv_cell,
            assignment,
            half_extent,
            stamps,
            epoch: 0,
        }
    }

    /// Total stored entries (> `len()` under replication).
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Range query that also reports how many candidate objects were tested
    /// for intersection (Fig. 6a analysis).
    pub fn query_counting(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        let mut tested = 0usize;
        match self.assignment {
            Assignment::QueryExtension => {
                // Extend by max half-extent: a center within the extended
                // range is necessary for intersection with the original.
                let probe = query.inflated(&self.half_extent);
                let lo = cell_of(&self.universe, &self.inv_cell, self.parts, &probe.lo);
                let hi = cell_of(&self.universe, &self.inv_cell, self.parts, &probe.hi);
                let data = &self.data;
                let cells = &self.cells;
                for_each_cell::<D>(&lo, &hi, |c| {
                    for &pos in &cells[flatten::<D>(c, self.parts)] {
                        tested += 1;
                        let r = &data[pos as usize];
                        if r.mbb.intersects(query) {
                            out.push(r.id);
                        }
                    }
                });
            }
            Assignment::Replication => {
                self.epoch = self.epoch.wrapping_add(1);
                if self.epoch == 0 {
                    self.stamps.fill(0);
                    self.epoch = 1;
                }
                let epoch = self.epoch;
                let lo = cell_of(&self.universe, &self.inv_cell, self.parts, &query.lo);
                let hi = cell_of(&self.universe, &self.inv_cell, self.parts, &query.hi);
                let data = &self.data;
                let cells = &self.cells;
                let stamps = &mut self.stamps;
                for_each_cell::<D>(&lo, &hi, |c| {
                    for &pos in &cells[flatten::<D>(c, self.parts)] {
                        // De-duplication: each object contributes once.
                        if stamps[pos as usize] == epoch {
                            continue;
                        }
                        stamps[pos as usize] = epoch;
                        tested += 1;
                        let r = &data[pos as usize];
                        if r.mbb.intersects(query) {
                            out.push(r.id);
                        }
                    }
                });
            }
        }
        tested
    }

    /// Checks that every object is retrievable and cell assignment is sound.
    #[cfg(test)]
    fn validate(&self) -> Result<(), String> {
        let stored = self.stored_entries();
        match self.assignment {
            Assignment::QueryExtension => {
                if stored != self.data.len() {
                    return Err(format!(
                        "query-extension grid stores {stored} entries for {} objects",
                        self.data.len()
                    ));
                }
            }
            Assignment::Replication => {
                if stored < self.data.len() {
                    return Err(format!(
                        "replication grid lost entries: {stored} < {}",
                        self.data.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Grid coordinate of a point (clamped into the grid).
fn cell_of<const D: usize>(
    universe: &Aabb<D>,
    inv_cell: &[f64; D],
    parts: usize,
    p: &[f64; D],
) -> [usize; D] {
    let mut c = [0usize; D];
    for k in 0..D {
        let x = ((p[k] - universe.lo[k]) * inv_cell[k]).floor();
        c[k] = (x.max(0.0) as usize).min(parts - 1);
    }
    c
}

/// Row-major flattening of a cell coordinate.
fn flatten<const D: usize>(c: &[usize; D], parts: usize) -> usize {
    let mut idx = 0usize;
    for k in 0..D {
        idx = idx * parts + c[k];
    }
    idx
}

/// Visits every cell in the axis-aligned coordinate range `lo..=hi`.
fn for_each_cell<const D: usize>(lo: &[usize; D], hi: &[usize; D], mut f: impl FnMut(&[usize; D])) {
    let mut cur = *lo;
    loop {
        f(&cur);
        // Odometer increment.
        let mut k = D;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            if cur[k] < hi[k] {
                cur[k] += 1;
                for j in k + 1..D {
                    cur[j] = lo[j];
                }
                break;
            }
        }
    }
}

/// Reproduces the paper's configuration sweep (Fig. 6b): builds a grid per
/// candidate partition count, runs the workload, and returns
/// `(partitions, total query seconds)` pairs.
pub fn sweep_partitions<const D: usize>(
    data: &[Record<D>],
    queries: &[Aabb<D>],
    candidates: &[usize],
    assignment: Assignment,
) -> Vec<(usize, f64)> {
    let mut results = Vec::with_capacity(candidates.len());
    let mut out = Vec::new();
    for &parts in candidates {
        let mut grid = UniformGrid::build(data.to_vec(), parts, assignment);
        let t = std::time::Instant::now();
        for q in queries {
            out.clear();
            grid.query_counting(q, &mut out);
        }
        results.push((parts, t.elapsed().as_secs_f64()));
    }
    results
}

impl<const D: usize> SpatialIndex<D> for UniformGrid<D> {
    fn name(&self) -> &'static str {
        match self.assignment {
            Assignment::Replication => "GridReplication",
            Assignment::QueryExtension => "Grid",
        }
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        self.query_counting(query, out);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.cells.iter().map(|c| c.capacity() * 4).sum::<usize>()
            + self.stamps.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, neuro_like, uniform_boxes_in};
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    #[test]
    fn both_strategies_are_correct() {
        let data = uniform_boxes_in::<3>(3_000, 1_000.0, 1);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 40, 1e-3, 2).queries;
        for assign in [Assignment::QueryExtension, Assignment::Replication] {
            let mut g = UniformGrid::build(data.clone(), 20, assign);
            g.validate().unwrap();
            for q in &queries {
                assert_matches_brute_force(&data, q, &g.query_collect(q));
            }
        }
    }

    #[test]
    fn replication_stores_more_entries() {
        let data = uniform_boxes_in::<2>(5_000, 1_000.0, 3);
        let ext = UniformGrid::build(data.clone(), 50, Assignment::QueryExtension);
        let rep = UniformGrid::build(data, 50, Assignment::Replication);
        assert_eq!(ext.stored_entries(), 5_000);
        assert!(
            rep.stored_entries() > 5_000,
            "replication must duplicate boundary objects: {}",
            rep.stored_entries()
        );
    }

    #[test]
    fn replication_deduplicates_results() {
        // One large box overlapping many cells must be reported once.
        let mut data = vec![Record::new(0, Aabb::new([0.0; 2], [900.0; 2]))];
        data.extend(
            uniform_boxes_in::<2>(100, 1_000.0, 4)
                .into_iter()
                .map(|mut r| {
                    r.id += 1;
                    r
                }),
        );
        let mut g = UniformGrid::build(data.clone(), 30, Assignment::Replication);
        let q = Aabb::new([0.0; 2], [1_000.0; 2]);
        let got = g.query_collect(&q);
        assert_eq!(got.len(), data.len(), "every object exactly once");
    }

    #[test]
    fn query_extension_counts_more_candidates_than_hits() {
        let data = uniform_boxes_in::<3>(10_000, 10_000.0, 5);
        let mut g = UniformGrid::build(data, 40, Assignment::QueryExtension);
        let q = Aabb::new([2_000.0; 3], [2_500.0; 3]);
        let mut out = Vec::new();
        let tested = g.query_counting(&q, &mut out);
        assert!(tested >= out.len());
    }

    #[test]
    fn single_partition_degenerates_to_scan() {
        let data = uniform_boxes_in::<2>(500, 100.0, 6);
        let mut g = UniformGrid::build(data.clone(), 1, Assignment::QueryExtension);
        let q = Aabb::new([10.0; 2], [20.0; 2]);
        assert_matches_brute_force(&data, &q, &g.query_collect(&q));
    }

    #[test]
    fn empty_and_degenerate_datasets() {
        let mut g = UniformGrid::<3>::build(Vec::new(), 10, Assignment::Replication);
        assert!(g.query_collect(&Aabb::new([0.0; 3], [1.0; 3])).is_empty());

        let data = degenerate::identical::<2>(100);
        let mut g = UniformGrid::build(data.clone(), 10, Assignment::QueryExtension);
        let q = Aabb::new([5.5; 2], [5.6; 2]);
        assert_eq!(g.query_collect(&q).len(), 100);
    }

    #[test]
    fn queries_outside_universe_are_safe() {
        let data = uniform_boxes_in::<2>(300, 100.0, 7);
        for assign in [Assignment::QueryExtension, Assignment::Replication] {
            let mut g = UniformGrid::build(data.clone(), 10, assign);
            let far = Aabb::new([-500.0, -500.0], [-400.0, -400.0]);
            assert!(g.query_collect(&far).is_empty());
            let straddling = Aabb::new([-50.0, -50.0], [10.0, 10.0]);
            assert_matches_brute_force(&data, &straddling, &g.query_collect(&straddling));
        }
    }

    #[test]
    fn sweep_runs_and_orders_configs() {
        let data = neuro_like::<3>(2_000, 8);
        let u = quasii_common::geom::mbb_of(&data);
        let queries = workload::clustered(&u, 2, 10, 1e-4, 9).queries;
        let res = sweep_partitions(&data, &queries, &[2, 8, 32], Assignment::QueryExtension);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|&(_, t)| t >= 0.0));
    }

    #[test]
    fn flatten_and_cell_math() {
        let u = Aabb::new([0.0, 0.0], [10.0, 10.0]);
        let inv = [1.0, 1.0];
        assert_eq!(cell_of(&u, &inv, 10, &[0.0, 0.0]), [0, 0]);
        assert_eq!(cell_of(&u, &inv, 10, &[9.99, 5.0]), [9, 5]);
        // Clamping beyond the universe.
        assert_eq!(cell_of(&u, &inv, 10, &[100.0, -5.0]), [9, 0]);
        assert_eq!(flatten::<2>(&[2, 3], 10), 23);
    }

    #[test]
    fn for_each_cell_visits_box() {
        let mut visited = Vec::new();
        for_each_cell::<2>(&[1, 1], &[2, 3], |c| visited.push(*c));
        assert_eq!(visited.len(), 6);
        assert!(visited.contains(&[1, 1]) && visited.contains(&[2, 3]));
    }
}
