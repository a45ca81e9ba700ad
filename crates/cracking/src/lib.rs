//! # quasii-cracking
//!
//! One-dimensional **database cracking** (Idreos, Kersten, Manegold; CIDR
//! 2007) — the technique QUASII generalizes to the spatial domain. The
//! paper's §3.1 recaps it: "cracking rearranges elements in an array
//! according to the end points of the query range (ql, qu): all values
//! < ql are moved towards the beginning of the array, while values > qu are
//! moved towards the end. With each query, the index becomes more refined
//! until it is fully sorted."
//!
//! Two engines are provided:
//!
//! * [`CrackEngine::Standard`] — crack exactly at the query bounds;
//! * [`CrackEngine::Stochastic`] — *DDC* (data-driven center) from
//!   stochastic cracking (Halim, Idreos, Karras, Yap; VLDB 2012, the
//!   paper's \[16\]): each crack additionally splits oversized pieces at
//!   their domain centers, defending against sequential query patterns that
//!   leave standard cracking with O(n) pieces for thousands of queries.
//!
//! The cracker index is a sorted vector of `(value, position)` boundaries —
//! all keys `< value` live left of `position`.

#![warn(missing_docs)]

/// Cracking strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrackEngine {
    /// Crack only at query bounds (original database cracking).
    Standard,
    /// DDC stochastic cracking: also split pieces larger than the given
    /// threshold at their value-domain center, recursively.
    Stochastic {
        /// Piece-size threshold below which no extra center splits happen.
        threshold: usize,
    },
}

/// Work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrackStats {
    /// Range queries executed.
    pub queries: u64,
    /// Crack (partition) passes performed.
    pub cracks: u64,
    /// Elements touched across all crack passes.
    pub touched: u64,
}

/// A crackable column of `(key, row-id)` pairs.
#[derive(Clone, Debug)]
pub struct CrackerColumn {
    items: Vec<(f64, u64)>,
    /// Sorted crack boundaries `(value, position)`: keys `< value` are left
    /// of `position`. The in-memory analogue of cracking's AVL index.
    bounds: Vec<(f64, usize)>,
    engine: CrackEngine,
    stats: CrackStats,
}

impl CrackerColumn {
    /// Wraps a column; O(1) — no sorting happens up front.
    pub(crate) fn new(items: Vec<(f64, u64)>, engine: CrackEngine) -> Self {
        Self {
            items,
            bounds: Vec::new(),
            engine,
            stats: CrackStats::default(),
        }
    }

    /// Convenience constructor from bare keys (row id = position).
    pub fn from_keys(keys: impl IntoIterator<Item = f64>, engine: CrackEngine) -> Self {
        let items = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64))
            .collect();
        Self::new(items, engine)
    }

    /// Work counters so far.
    pub fn stats(&self) -> CrackStats {
        self.stats
    }

    /// Size of the largest uncracked piece — the metric stochastic cracking
    /// improves under adversarial (sequential) workloads.
    pub fn largest_piece(&self) -> usize {
        let mut prev = 0usize;
        let mut max = 0usize;
        for &(_, p) in &self.bounds {
            max = max.max(p - prev);
            prev = p;
        }
        max.max(self.items.len() - prev)
    }

    /// Half-open range query `[lo, hi)`: cracks at both bounds, then scans
    /// the (now contiguous) qualifying piece. Row ids are appended to `out`.
    pub fn range_query(&mut self, lo: f64, hi: f64, out: &mut Vec<u64>) {
        self.stats.queries += 1;
        if self.items.is_empty() || lo >= hi {
            return;
        }
        let a = self.crack_at(lo, 0);
        let b = self.crack_at(hi, 0);
        for &(_, row) in &self.items[a..b] {
            out.push(row);
        }
    }

    /// Allocating wrapper around [`range_query`](Self::range_query).
    #[cfg(test)]
    fn range_query_collect(&mut self, lo: f64, hi: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.range_query(lo, hi, &mut out);
        out
    }

    /// Position of the boundary for value `v`, cracking the enclosing piece
    /// if the boundary does not exist yet.
    fn crack_at(&mut self, v: f64, depth: usize) -> usize {
        // Existing boundary?
        match self.bounds.binary_search_by(|(bv, _)| bv.total_cmp(&v)) {
            Ok(i) => self.bounds[i].1,
            Err(i) => {
                let piece_lo = if i == 0 { 0 } else { self.bounds[i - 1].1 };
                let piece_hi = if i == self.bounds.len() {
                    self.items.len()
                } else {
                    self.bounds[i].1
                };
                let split = piece_lo + partition(&mut self.items[piece_lo..piece_hi], v);
                self.stats.cracks += 1;
                self.stats.touched += (piece_hi - piece_lo) as u64;
                self.bounds.insert(i, (v, split));

                // Stochastic DDC: keep halving oversized neighbours at their
                // value-domain centers so no piece stays O(n) forever.
                if let CrackEngine::Stochastic { threshold } = self.engine {
                    if depth < 64 {
                        for (plo, phi) in [(piece_lo, split), (split, piece_hi)] {
                            if phi - plo > threshold {
                                if let Some(mid) = value_center(&self.items[plo..phi]) {
                                    if mid != v {
                                        self.crack_at(mid, depth + 1);
                                    }
                                }
                            }
                        }
                    }
                }
                // Position may have shifted if recursive cracks inserted
                // boundaries; re-resolve.
                match self.bounds.binary_search_by(|(bv, _)| bv.total_cmp(&v)) {
                    Ok(j) => self.bounds[j].1,
                    Err(_) => unreachable!("boundary just inserted"),
                }
            }
        }
    }

    /// Verifies the cracker invariant: each boundary separates the keys.
    #[cfg(test)]
    fn validate(&self) -> Result<(), String> {
        let mut prev_pos = 0usize;
        let mut prev_val = f64::NEG_INFINITY;
        for &(v, p) in &self.bounds {
            if p < prev_pos {
                return Err(format!("positions not monotone at boundary {v}"));
            }
            if v <= prev_val {
                return Err(format!("boundary values not increasing at {v}"));
            }
            for &(k, _) in &self.items[prev_pos..p] {
                if k >= v {
                    return Err(format!("key {k} >= boundary {v} on the left side"));
                }
                if k < prev_val {
                    return Err(format!("key {k} < previous boundary {prev_val}"));
                }
            }
            prev_pos = p;
            prev_val = v;
        }
        for &(k, _) in &self.items[prev_pos..] {
            if k < prev_val {
                return Err(format!("tail key {k} < last boundary {prev_val}"));
            }
        }
        Ok(())
    }
}

/// Hoare partition by `key < v`; returns the split offset.
fn partition(piece: &mut [(f64, u64)], v: f64) -> usize {
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
    i
}

/// Center of a piece's value domain, `None` when indivisible.
fn value_center(piece: &[(f64, u64)]) -> Option<f64> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &(k, _) in piece {
        min = min.min(k);
        max = max.max(k);
    }
    let mid = 0.5 * (min + max);
    (mid > min && mid.is_finite()).then_some(mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_keys(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0.0..1000.0)).collect()
    }

    fn brute(keys: &[f64], lo: f64, hi: f64) -> Vec<u64> {
        let mut out: Vec<u64> = keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k >= lo && k < hi)
            .map(|(i, _)| i as u64)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn standard_cracking_answers_correctly() {
        let keys = random_keys(5_000, 1);
        let mut col = CrackerColumn::from_keys(keys.iter().copied(), CrackEngine::Standard);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let lo: f64 = rng.random_range(0.0..900.0);
            let hi = lo + rng.random_range(0.0..100.0);
            let mut got = col.range_query_collect(lo, hi);
            got.sort_unstable();
            assert_eq!(got, brute(&keys, lo, hi));
            col.validate().unwrap();
        }
        assert!(col.bounds.len() > 100);
    }

    #[test]
    fn repeated_query_cracks_once() {
        let keys = random_keys(2_000, 3);
        let mut col = CrackerColumn::from_keys(keys, CrackEngine::Standard);
        col.range_query_collect(100.0, 200.0);
        let cracks = col.stats().cracks;
        for _ in 0..5 {
            col.range_query_collect(100.0, 200.0);
        }
        assert_eq!(col.stats().cracks, cracks);
    }

    #[test]
    fn converges_to_sorted_under_many_queries() {
        let keys = random_keys(1_000, 5);
        let mut col = CrackerColumn::from_keys(keys, CrackEngine::Standard);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..800 {
            let lo: f64 = rng.random_range(0.0..999.0);
            col.range_query_collect(lo, lo + 1.0);
        }
        col.validate().unwrap();
        // Pieces shrink dramatically: the array is near-sorted.
        assert!(
            col.largest_piece() < 100,
            "largest piece {} after 800 queries",
            col.largest_piece()
        );
    }

    #[test]
    fn sequential_pattern_hurts_standard_but_not_stochastic() {
        // The classic adversarial case from Halim et al.: strictly
        // sequential ranges leave standard cracking with one giant
        // un-cracked tail piece that every query re-scans.
        let n = 20_000;
        let keys = random_keys(n, 7);
        let mut standard = CrackerColumn::from_keys(keys.iter().copied(), CrackEngine::Standard);
        let mut stochastic = CrackerColumn::from_keys(
            keys.iter().copied(),
            CrackEngine::Stochastic { threshold: 256 },
        );
        for step in 0..50 {
            let lo = step as f64 * 2.0;
            standard.range_query_collect(lo, lo + 2.0);
            stochastic.range_query_collect(lo, lo + 2.0);
        }
        standard.validate().unwrap();
        stochastic.validate().unwrap();
        assert!(
            standard.largest_piece() > n / 2,
            "sequential pattern must leave standard cracking a huge tail: {}",
            standard.largest_piece()
        );
        assert!(
            stochastic.largest_piece() <= 512,
            "DDC must bound piece sizes: {}",
            stochastic.largest_piece()
        );
        // And stochastic stays correct.
        let mut got = stochastic.range_query_collect(40.0, 60.0);
        got.sort_unstable();
        assert_eq!(got, brute(&keys, 40.0, 60.0));
    }

    #[test]
    fn duplicate_keys_and_degenerate_ranges() {
        let keys = vec![5.0; 100];
        let mut col = CrackerColumn::from_keys(keys, CrackEngine::Stochastic { threshold: 4 });
        assert_eq!(col.range_query_collect(5.0, 5.1).len(), 100);
        assert!(col.range_query_collect(5.1, 5.0).is_empty(), "inverted");
        assert!(col.range_query_collect(6.0, 7.0).is_empty());
        col.validate().unwrap();
    }

    #[test]
    fn empty_column() {
        let mut col = CrackerColumn::new(Vec::new(), CrackEngine::Standard);
        assert!(col.items.is_empty());
        assert!(col.range_query_collect(0.0, 1.0).is_empty());
        assert_eq!(col.largest_piece(), 0);
    }

    #[test]
    fn row_ids_follow_their_keys() {
        let keys = vec![30.0, 10.0, 20.0, 40.0];
        let mut col = CrackerColumn::from_keys(keys, CrackEngine::Standard);
        let mut got = col.range_query_collect(15.0, 35.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
    }
}
