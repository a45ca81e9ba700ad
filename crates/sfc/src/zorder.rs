//! Z-order (Morton) curve substrate: bit interleaving over a `2^bits`-per-
//! dimension grid, the Tropf–Herzog LITMAX/BIGMIN jump computation, and the
//! decomposition of a box query into Z-intervals that are fully contained in
//! the query (§3.1's optimization, citing Tropf & Herzog 1981).
//!
//! The paper's configuration is 10 bits per dimension for 3-d data (32-bit
//! codes); [`default_bits`] reproduces that choice generically.

use quasii_common::geom::Aabb;

/// Paper-faithful bits/dimension: 10 for 3-d (30-bit codes), capped so the
/// full code always fits in a `u64` with room to spare.
pub(crate) const fn default_bits(d: usize) -> u32 {
    let b = 32 / d as u32;
    if b > 16 {
        16
    } else {
        b
    }
}

/// A uniform `2^bits`-per-dimension grid mapping coordinates to Z-codes.
#[derive(Clone, Debug)]
pub struct ZGrid<const D: usize> {
    universe: Aabb<D>,
    bits: u32,
    parts: u64,
    inv_cell: [f64; D],
}

impl<const D: usize> ZGrid<D> {
    /// Creates the grid over `universe` with `bits` bits per dimension.
    ///
    /// # Panics
    /// Panics if `bits * D > 63` (code must fit a `u64`).
    pub fn new(universe: Aabb<D>, bits: u32) -> Self {
        assert!(bits >= 1 && bits * D as u32 <= 63, "bits out of range");
        let parts = 1u64 << bits;
        let mut inv_cell = [0.0; D];
        for k in 0..D {
            let span = (universe.hi[k] - universe.lo[k]).max(f64::MIN_POSITIVE);
            inv_cell[k] = parts as f64 / span;
        }
        Self {
            universe,
            bits,
            parts,
            inv_cell,
        }
    }

    /// Total bits in a code.
    pub(crate) fn code_bits(&self) -> u32 {
        self.bits * D as u32
    }

    /// Largest valid code.
    pub(crate) fn max_code(&self) -> u64 {
        (1u64 << self.code_bits()) - 1
    }

    /// Grid cell of a point (clamped into the grid).
    pub fn cell_of(&self, p: &[f64; D]) -> [u64; D] {
        let mut c = [0u64; D];
        for k in 0..D {
            let x = ((p[k] - self.universe.lo[k]) * self.inv_cell[k]).floor();
            c[k] = (x.max(0.0) as u64).min(self.parts - 1);
        }
        c
    }

    /// Interleaves a cell coordinate into a Z-code. Bit `b` of dimension `k`
    /// lands at code position `b * D + k`.
    pub fn encode(&self, cell: &[u64; D]) -> u64 {
        let mut code = 0u64;
        for b in 0..self.bits {
            for k in 0..D {
                code |= ((cell[k] >> b) & 1) << (b as usize * D + k);
            }
        }
        code
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(&self, code: u64) -> [u64; D] {
        let mut cell = [0u64; D];
        for b in 0..self.bits {
            for (k, c) in cell.iter_mut().enumerate() {
                *c |= ((code >> (b as usize * D + k)) & 1) << b;
            }
        }
        cell
    }

    /// Z-code of a point.
    pub fn code_of_point(&self, p: &[f64; D]) -> u64 {
        self.encode(&self.cell_of(p))
    }

    /// Mask of all code bits belonging to the dimension owning bit `pos`.
    fn dim_mask_below(&self, pos: u32) -> u64 {
        // Bits of the same dimension strictly below `pos`: pos-D, pos-2D, …
        let mut m = 0u64;
        let mut p = pos as i64 - D as i64;
        while p >= 0 {
            m |= 1u64 << p;
            p -= D as i64;
        }
        m
    }

    /// BIGMIN (Tropf & Herzog 1981): the smallest Z-code `> z` whose cell
    /// lies inside the query rectangle `[zmin, zmax]` (given as the codes of
    /// the rectangle's min/max corners). Returns `None` when no such code
    /// exists. `z` is assumed to lie outside the rectangle.
    pub fn bigmin(&self, z: u64, mut zmin: u64, mut zmax: u64) -> Option<u64> {
        let mut bigmin: Option<u64> = None;
        let mut pos = self.code_bits();
        while pos > 0 {
            pos -= 1;
            let bit = 1u64 << pos;
            let below = self.dim_mask_below(pos);
            let zb = z & bit != 0;
            let minb = zmin & bit != 0;
            let maxb = zmax & bit != 0;
            match (zb, minb, maxb) {
                (false, false, false) => {}
                (false, false, true) => {
                    // Candidate: jump into the upper half of this dimension
                    // (load "1000…" into zmin's bits of this dim at pos),
                    // then continue searching the lower half.
                    bigmin = Some(load_10(zmin, bit, below));
                    zmax = load_01(zmax, bit, below);
                }
                (false, true, true) => return Some(zmin),
                (true, false, false) => return bigmin,
                (true, false, true) => {
                    zmin = load_10(zmin, bit, below);
                }
                (true, true, true) => {}
                // (0,1,0) and (1,1,0) are impossible for valid min <= max.
                _ => unreachable!("inconsistent zmin/zmax bits"),
            }
        }
        bigmin
    }

    /// Whether `code`'s cell lies inside the cell rectangle `[qlo, qhi]`.
    pub fn code_in_rect(&self, code: u64, qlo: &[u64; D], qhi: &[u64; D]) -> bool {
        let c = self.decode(code);
        (0..D).all(|k| qlo[k] <= c[k] && c[k] <= qhi[k])
    }

    /// Decomposes a cell rectangle into Z-intervals covering it (the
    /// multi-interval optimization of §3.1). With `max_ranges == 0` the
    /// decomposition is *exact*: maximal intervals fully contained in the
    /// rectangle. With a positive cap, once the budget is reached partially
    /// overlapping subtrees are emitted whole (a superset whose false
    /// positives the caller's intersection filter removes), and any residue
    /// above the cap is merged across the smallest gaps.
    pub fn decompose(&self, qlo: &[u64; D], qhi: &[u64; D], max_ranges: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let budget = if max_ranges == 0 {
            usize::MAX
        } else {
            max_ranges
        };
        self.decompose_rec(0, self.max_code(), qlo, qhi, budget, &mut out);
        if max_ranges > 0 && out.len() > max_ranges {
            merge_smallest_gaps(&mut out, max_ranges);
        }
        out
    }

    fn decompose_rec(
        &self,
        lo: u64,
        hi: u64,
        qlo: &[u64; D],
        qhi: &[u64; D],
        budget: usize,
        out: &mut Vec<(u64, u64)>,
    ) {
        // [lo, hi] is an aligned node of the implicit binary tree over the
        // code space; its cell box spans decode(lo)..decode(hi).
        let clo = self.decode(lo);
        let chi = self.decode(hi);
        let mut contained = true;
        for k in 0..D {
            if clo[k] > qhi[k] || chi[k] < qlo[k] {
                return; // disjoint
            }
            if clo[k] < qlo[k] || chi[k] > qhi[k] {
                contained = false;
            }
        }
        if contained || out.len() >= budget {
            // Merge with the previous interval when contiguous (always true
            // for sibling emissions in DFS order).
            if let Some(last) = out.last_mut() {
                if last.1 + 1 >= lo {
                    last.1 = hi.max(last.1);
                    return;
                }
            }
            out.push((lo, hi));
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.decompose_rec(lo, mid, qlo, qhi, budget, out);
        self.decompose_rec(mid + 1, hi, qlo, qhi, budget, out);
    }
}

/// Sets the pattern `1000…` into the bits of one dimension at `bit`:
/// bit set, same-dimension lower bits cleared.
#[inline]
fn load_10(v: u64, bit: u64, below: u64) -> u64 {
    (v & !below) | bit
}

/// Sets the pattern `0111…`: bit cleared, same-dimension lower bits set.
#[inline]
fn load_01(v: u64, bit: u64, below: u64) -> u64 {
    (v & !bit) | below
}

/// Merges intervals across their smallest gaps until `target` remain.
fn merge_smallest_gaps(ranges: &mut Vec<(u64, u64)>, target: usize) {
    if ranges.len() <= target {
        return;
    }
    let mut gaps: Vec<(u64, usize)> = ranges
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[1].0 - w[0].1, i))
        .collect();
    gaps.sort_unstable();
    let n_merge = ranges.len() - target;
    let mut merge_after: Vec<bool> = vec![false; ranges.len()];
    for &(_, i) in gaps.iter().take(n_merge) {
        merge_after[i] = true;
    }
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(target);
    for (i, r) in ranges.iter().enumerate() {
        if i > 0 && merge_after[i - 1] {
            merged.last_mut().expect("non-empty").1 = r.1;
        } else {
            merged.push(*r);
        }
    }
    *ranges = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2(bits: u32) -> ZGrid<2> {
        ZGrid::new(Aabb::new([0.0, 0.0], [16.0, 16.0]), bits)
    }

    #[test]
    fn default_bits_match_paper() {
        assert_eq!(default_bits(3), 10, "paper: 10 bits/dim in 3-d");
        assert_eq!(default_bits(2), 16);
        assert_eq!(default_bits(4), 8);
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = grid2(4);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let code = g.encode(&[x, y]);
                assert_eq!(g.decode(code), [x, y]);
            }
        }
        assert_eq!(g.max_code(), 255);
    }

    #[test]
    fn encode_is_bijective_and_z_shaped() {
        let g = grid2(4);
        // First 4 codes trace the little z: (0,0),(1,0),(0,1),(1,1).
        assert_eq!(g.encode(&[0, 0]), 0);
        assert_eq!(g.encode(&[1, 0]), 1);
        assert_eq!(g.encode(&[0, 1]), 2);
        assert_eq!(g.encode(&[1, 1]), 3);
    }

    #[test]
    fn cell_of_clamps() {
        let g = grid2(4);
        assert_eq!(g.cell_of(&[-5.0, 0.0]), [0, 0]);
        assert_eq!(g.cell_of(&[100.0, 15.9]), [15, 15]);
        assert_eq!(g.cell_of(&[8.0, 4.0]), [8, 4]);
    }

    #[test]
    fn bigmin_agrees_with_brute_force() {
        let g = grid2(3); // 8x8 grid, 64 codes: exhaustive check feasible.
        let cells: Vec<[u64; 2]> = (0..64u64).map(|c| g.decode(c)).collect();
        let in_rect = |c: u64, qlo: &[u64; 2], qhi: &[u64; 2]| -> bool {
            let cc = &cells[c as usize];
            qlo[0] <= cc[0] && cc[0] <= qhi[0] && qlo[1] <= cc[1] && cc[1] <= qhi[1]
        };
        for qx0 in 0..8u64 {
            for qy0 in 0..8u64 {
                for qx1 in qx0..8u64 {
                    for qy1 in qy0..8u64 {
                        let qlo = [qx0, qy0];
                        let qhi = [qx1, qy1];
                        let zmin = g.encode(&qlo);
                        let zmax = g.encode(&qhi);
                        for z in 0..64u64 {
                            if in_rect(z, &qlo, &qhi) {
                                continue;
                            }
                            let expect = (z + 1..64).find(|&c| in_rect(c, &qlo, &qhi));
                            let got = g.bigmin(z, zmin, zmax).filter(|&b| b > z);
                            assert_eq!(
                                got, expect,
                                "bigmin mismatch: z={z} rect=({qlo:?},{qhi:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decompose_covers_exactly_the_rect() {
        let g = grid2(4);
        let qlo = [3u64, 5u64];
        let qhi = [9u64, 11u64];
        let ranges = g.decompose(&qlo, &qhi, 0);
        // Every code in the rect is covered exactly once, none outside.
        let mut covered = vec![false; 256];
        for &(a, b) in &ranges {
            for c in a..=b {
                assert!(!covered[c as usize], "code {c} covered twice");
                covered[c as usize] = true;
            }
        }
        for code in 0..256u64 {
            assert_eq!(
                covered[code as usize],
                g.code_in_rect(code, &qlo, &qhi),
                "coverage mismatch at {code}"
            );
        }
        // Intervals are sorted and non-adjacent (maximal).
        for w in ranges.windows(2) {
            assert!(w[0].1 + 1 < w[1].0);
        }
    }

    #[test]
    fn decompose_whole_space_is_one_interval() {
        let g = grid2(4);
        let ranges = g.decompose(&[0, 0], &[15, 15], 0);
        assert_eq!(ranges, vec![(0, 255)]);
    }

    #[test]
    fn decompose_single_cell() {
        let g = grid2(4);
        let c = [7u64, 3u64];
        let code = g.encode(&c);
        assert_eq!(g.decompose(&c, &c, 0), vec![(code, code)]);
    }

    #[test]
    fn range_cap_merges_but_keeps_coverage() {
        let g = grid2(5);
        let qlo = [1u64, 14u64];
        let qhi = [27u64, 17u64]; // wide, thin: many intervals
        let exact = g.decompose(&qlo, &qhi, 0);
        assert!(
            exact.len() > 4,
            "expected fragmentation, got {}",
            exact.len()
        );
        let capped = g.decompose(&qlo, &qhi, 4);
        assert_eq!(capped.len(), 4);
        // Capped ranges are a superset: every exact range inside some capped.
        for &(a, b) in &exact {
            assert!(
                capped.iter().any(|&(ca, cb)| ca <= a && b <= cb),
                "({a},{b}) lost after capping"
            );
        }
    }

    #[test]
    fn works_in_3d() {
        let g = ZGrid::<3>::new(Aabb::new([0.0; 3], [8.0; 3]), 3);
        let cell = [5u64, 2u64, 7u64];
        assert_eq!(g.decode(g.encode(&cell)), cell);
        let ranges = g.decompose(&[1, 1, 1], &[3, 3, 3], 0);
        let mut count = 0u64;
        for &(a, b) in &ranges {
            for c in a..=b {
                assert!(g.code_in_rect(c, &[1, 1, 1], &[3, 3, 3]));
                count += 1;
            }
        }
        assert_eq!(count, 27);
    }

    #[test]
    #[should_panic(expected = "bits out of range")]
    fn too_many_bits_panics() {
        let _ = ZGrid::<3>::new(Aabb::new([0.0; 3], [1.0; 3]), 22);
    }
}
