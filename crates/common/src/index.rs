//! The common interface every index in the reproduction implements, plus
//! result-verification helpers used by tests and the benchmark harness.

use crate::geom::{Aabb, Record};

/// A (possibly incremental) main-memory spatial index over a fixed dataset.
///
/// The paper's setting (§2) is static data + ad-hoc range queries; the only
/// operation is the range (window) query. `query` takes `&mut self` because
/// incremental indexes (QUASII, SFCracker, Mosaic) refine their structure as
/// a side effect of query execution — for static indexes it is a plain read.
///
/// Results are appended to `out` as dataset ids, in unspecified order and
/// with no duplicates.
///
/// The trait holds what every approach in the paper's comparison answers:
/// range queries, one by one or in a batch, and the sizes the memory
/// comparisons read. Snapshots and the sealed fraction belong to QUASII
/// alone and are inherent methods of `quasii::Quasii` and
/// `quasii_shard::ShardedQuasii`.
pub trait SpatialIndex<const D: usize> {
    /// Short human-readable name used in benchmark tables ("R-Tree", …).
    fn name(&self) -> &'static str;

    /// Appends the ids of all objects whose MBB intersects `query` to `out`.
    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>);

    /// Answers a batch of queries, returning one id vector per query in
    /// `queries` order. The default executes them sequentially; indexes
    /// with a parallel batch path (QUASII) override it. Implementations
    /// must return exactly what the sequential loop would.
    fn query_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        queries.iter().map(|q| self.query_collect(q)).collect()
    }

    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the *index structure* (bytes), excluding
    /// the raw data. Used for the memory comparisons in EXPERIMENTS.md.
    fn index_bytes(&self) -> usize {
        0
    }

    /// Compacts any converged portions of the index into a sealed,
    /// shared-read representation, so subsequent queries over them are pure
    /// reads (see `quasii::Quasii::seal`). The default is a no-op: static
    /// indexes are "sealed" from construction and incremental indexes
    /// without a sealed read path simply keep adapting.
    fn seal(&mut self) {}

    /// Convenience wrapper allocating a fresh result vector.
    fn query_collect(&mut self, query: &Aabb<D>) -> Vec<u64> {
        let mut out = Vec::new();
        self.query(query, &mut out);
        out
    }
}

/// Runs every query through `index` and canonicalizes each result to
/// ascending id order — the order-independent form sharded/parallel
/// execution paths are checked against (it equals [`brute_force`]'s output
/// for a correct index).
pub fn canonical_results<const D: usize, I: SpatialIndex<D>>(
    index: &mut I,
    queries: &[Aabb<D>],
) -> Vec<Vec<u64>> {
    queries
        .iter()
        .map(|q| {
            let mut hits = index.query_collect(q);
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// Ground truth by exhaustive scan, independent of any index implementation.
pub fn brute_force<const D: usize>(data: &[Record<D>], query: &Aabb<D>) -> Vec<u64> {
    let mut out: Vec<u64> = data
        .iter()
        .filter(|r| r.mbb.intersects(query))
        .map(|r| r.id)
        .collect();
    out.sort_unstable();
    out
}

/// Asserts that `got` equals the brute-force answer (as a set).
///
/// Returns the sorted result so callers can chain further checks; panics with
/// a diagnostic (missing/extra ids) on mismatch.
pub fn assert_matches_brute_force<const D: usize>(
    data: &[Record<D>],
    query: &Aabb<D>,
    got: &[u64],
) -> Vec<u64> {
    let expected = brute_force(data, query);
    let mut sorted: Vec<u64> = got.to_vec();
    sorted.sort_unstable();
    if sorted != expected {
        let missing: Vec<u64> = expected
            .iter()
            .filter(|id| sorted.binary_search(id).is_err())
            .copied()
            .collect();
        let extra: Vec<u64> = sorted
            .iter()
            .filter(|id| expected.binary_search(id).is_err())
            .copied()
            .collect();
        let dupes = sorted.len() != {
            let mut d = sorted.clone();
            d.dedup();
            d.len()
        };
        panic!(
            "result mismatch for query {query:?}: expected {} ids, got {} \
             (missing: {missing:?}, extra: {extra:?}, duplicates: {dupes})",
            expected.len(),
            sorted.len(),
        );
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<Record<2>> {
        vec![
            Record::new(0, Aabb::new([0.0, 0.0], [1.0, 1.0])),
            Record::new(1, Aabb::new([2.0, 2.0], [3.0, 3.0])),
            Record::new(2, Aabb::new([0.5, 0.5], [2.5, 2.5])),
        ]
    }

    #[test]
    fn brute_force_filters_and_sorts() {
        let d = data();
        let q = Aabb::new([0.9, 0.9], [1.1, 1.1]);
        assert_eq!(brute_force(&d, &q), vec![0, 2]);
        let none = Aabb::new([10.0, 10.0], [11.0, 11.0]);
        assert!(brute_force(&d, &none).is_empty());
    }

    #[test]
    fn assert_matches_accepts_any_order() {
        let d = data();
        let q = Aabb::new([0.9, 0.9], [1.1, 1.1]);
        let sorted = assert_matches_brute_force(&d, &q, &[2, 0]);
        assert_eq!(sorted, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "result mismatch")]
    fn assert_matches_rejects_wrong_answer() {
        let d = data();
        let q = Aabb::new([0.9, 0.9], [1.1, 1.1]);
        assert_matches_brute_force(&d, &q, &[0]);
    }

    #[test]
    #[should_panic(expected = "result mismatch")]
    fn assert_matches_rejects_duplicates() {
        let d = data();
        let q = Aabb::new([0.9, 0.9], [1.1, 1.1]);
        assert_matches_brute_force(&d, &q, &[0, 2, 2]);
    }
}
