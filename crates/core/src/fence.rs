//! Key-range fences — the partition-boundary bookkeeping of the shard
//! router (`quasii-shard`), which splits a dataset across engines.
//!
//! A sequence of disjoint key ranges on one dimension, `partition k`
//! owning assignment keys in `[bounds[k], bounds[k+1])`, with sentinel
//! bounds `-inf` and `+inf` at the ends. A query whose (extension-adjusted)
//! span on that dimension is `[lo, hi]` must visit every partition whose
//! range can hold a qualifying key. [`KeyFences`] holds the fence
//! construction, the ownership lookup and the overlap predicate; the router
//! and the snapshot loader (`quasii-shard`'s recovery) share them.

use std::ops::Range;

/// Sorted key fences over one dimension: `parts()` disjoint partitions,
/// partition `k` owning assignment keys in `[bounds[k], bounds[k+1])`.
///
/// [`from_inner`](Self::from_inner) stays permissive — duplicate inner
/// fences yield empty partitions. The *planners*
/// (`equi_depth` and its sampled variant) dedupe their
/// quantiles instead: a repeated quantile used to become a permanently
/// empty shard (every key ties on the fence and falls to its right), so a
/// degenerate sample now collapses the partition count rather than
/// planning dead shards — [`validate`](Self::validate) asserts the strict
/// monotonicity planned fences must have.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyFences {
    /// `parts() + 1` sorted bounds; `bounds[0] = -inf`, `bounds[last] = +inf`.
    bounds: Vec<f64>,
}

impl KeyFences {
    /// The trivial fence set: one partition owning every key.
    pub fn single() -> Self {
        Self {
            bounds: vec![f64::NEG_INFINITY, f64::INFINITY],
        }
    }

    /// Builds fences from the sorted inner boundary values (the sentinels
    /// are added here); `inner.len() + 1` partitions result.
    pub fn from_inner(inner: Vec<f64>) -> Self {
        debug_assert!(
            inner.windows(2).all(|w| w[0] <= w[1]),
            "inner fences must be sorted"
        );
        let mut bounds = Vec::with_capacity(inner.len() + 2);
        bounds.push(f64::NEG_INFINITY);
        bounds.extend(inner);
        bounds.push(f64::INFINITY);
        Self { bounds }
    }

    /// Plans up to `parts` equi-depth partitions from a sorted key sample:
    /// inner fence `i` is the sample's `i/parts` quantile, so each
    /// partition owns roughly the same number of sampled keys. Repeated
    /// quantiles (a sample with heavy key ties) are **deduplicated** —
    /// every duplicate would have been a permanently empty partition, so
    /// the planned count shrinks instead; a fully degenerate sample
    /// collapses to [`single`](Self::single).
    pub(crate) fn equi_depth(sorted_keys: &[f64], parts: usize) -> Self {
        debug_assert!(
            sorted_keys
                .windows(2)
                .all(|w| w[0].total_cmp(&w[1]).is_le()),
            "equi_depth needs a sorted sample"
        );
        if parts <= 1 || sorted_keys.is_empty() {
            return Self::single();
        }
        let n = sorted_keys.len();
        let mut inner: Vec<f64> = (1..parts).map(|i| sorted_keys[i * n / parts]).collect();
        // The quantiles of a sorted sample are non-decreasing, so one
        // dedup pass leaves them strictly increasing. Quantiles equal to
        // the overall minimum are dropped too: every key ties-or-exceeds
        // such a fence, so the partition left of it could never own a key.
        inner.dedup();
        if inner.first() == sorted_keys.first() {
            inner.remove(0);
        }
        let fences = Self::from_inner(inner);
        debug_assert!(fences.validate().is_ok());
        fences
    }

    /// Plans `parts` equi-depth partitions straight from an (unsorted)
    /// assignment-key column: deterministic stride subsample capped at
    /// `sample_cap` keys (no RNG), sorted, then quantile fences via
    /// `equi_depth`. This is how the shard router plans
    /// boundaries from the key column its partition pass builds anyway.
    pub fn equi_depth_sampled(keys: &[f64], parts: usize, sample_cap: usize) -> Self {
        if parts <= 1 || keys.is_empty() {
            return Self::single();
        }
        let stride = keys.len().div_ceil(sample_cap.max(2)).max(1);
        let mut sample: Vec<f64> = keys.iter().copied().step_by(stride).collect();
        sample.sort_unstable_by(f64::total_cmp);
        Self::equi_depth(&sample, parts)
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The inner boundary values, sentinels stripped — the
    /// [`from_inner`](Self::from_inner) inverse, used to serialize a
    /// planned fence set (shard snapshot manifests).
    pub fn inner_bounds(&self) -> &[f64] {
        &self.bounds[1..self.bounds.len() - 1]
    }

    /// Checks that the fences are **strictly** monotone, sentinels
    /// included (`-inf < inner[0] < … < inner[last] < +inf`, no NaN) — the
    /// invariant planned fences must have: a duplicated bound is a
    /// partition no key can ever land in, i.e. a permanently empty shard.
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.bounds.len() < 2 {
            return Err(format!("{} bounds, need at least 2", self.bounds.len()));
        }
        if self.bounds[0] != f64::NEG_INFINITY {
            return Err(format!("first bound {} is not -inf", self.bounds[0]));
        }
        if *self.bounds.last().unwrap() != f64::INFINITY {
            return Err(format!(
                "last bound {} is not +inf",
                self.bounds.last().unwrap()
            ));
        }
        for (k, w) in self.bounds.windows(2).enumerate() {
            if w[0] >= w[1] || w[0].is_nan() || w[1].is_nan() {
                return Err(format!(
                    "bounds not strictly increasing at fence {k}: {} then {} \
                     (partition {k} can never own a key)",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    }

    /// The key range `[lo, hi)` partition `k` owns.
    pub fn range(&self, k: usize) -> (f64, f64) {
        (self.bounds[k], self.bounds[k + 1])
    }

    /// The partition owning assignment key `key`.
    pub fn owner_of(&self, key: f64) -> usize {
        let m = self.parts();
        self.bounds[1..m].partition_point(|&f| f <= key)
    }

    /// The contiguous run of partitions a query spanning `[lo, hi]` must
    /// visit: every `k` with `bounds[k] <= hi && bounds[k+1] >= lo`. The
    /// `>= lo` (not `>`) edge admits the partition just below `lo`, which
    /// reproduces the "step one back" rule of the paper's extended binary
    /// search (§5.2) when the fences are partition minimum keys.
    pub fn overlapping(&self, lo: f64, hi: f64) -> Range<usize> {
        let m = self.parts();
        let start = self.bounds[1..=m].partition_point(|&b| b < lo);
        let end = self.bounds[..m].partition_point(|&b| b <= hi);
        start..end.max(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_owns_everything() {
        let f = KeyFences::single();
        assert_eq!(f.parts(), 1);
        assert_eq!(f.owner_of(-1e300), 0);
        assert_eq!(f.owner_of(1e300), 0);
        assert_eq!(f.overlapping(3.0, 4.0), 0..1);
        assert_eq!(f.range(0), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn ownership_uses_half_open_ranges() {
        let f = KeyFences::from_inner(vec![10.0, 20.0]);
        assert_eq!(f.parts(), 3);
        assert_eq!(f.owner_of(9.9), 0);
        assert_eq!(f.owner_of(10.0), 1, "fence value belongs to the right");
        assert_eq!(f.owner_of(19.9), 1);
        assert_eq!(f.owner_of(20.0), 2);
        for key in [-5.0, 0.0, 10.0, 15.0, 20.0, 99.0] {
            let k = f.owner_of(key);
            let (lo, hi) = f.range(k);
            assert!(lo <= key && key < hi, "key {key} outside range of {k}");
        }
    }

    #[test]
    fn overlapping_matches_the_scalar_predicate() {
        // The closed-form range must agree with the O(parts) predicate,
        // for every span.
        let f = KeyFences::from_inner(vec![1.0, 5.0, 5.0, 9.0]);
        let m = f.parts();
        let probes = [-2.0, 0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 12.0];
        for &lo in &probes {
            for &hi in &probes {
                let got: Vec<usize> = f.overlapping(lo, hi).collect();
                let want: Vec<usize> = (0..m)
                    .filter(|&k| {
                        let (b0, b1) = f.range(k);
                        b0 <= hi && b1 >= lo
                    })
                    .collect();
                assert_eq!(got, want, "span [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn equi_depth_splits_evenly() {
        let keys: Vec<f64> = (0..100).map(f64::from).collect();
        let f = KeyFences::equi_depth(&keys, 4);
        assert_eq!(f.parts(), 4);
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[f.owner_of(k)] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }

    #[test]
    fn equi_depth_degenerates_gracefully() {
        // All-identical sample: every quantile equals the one key, so the
        // plan collapses to a single partition instead of fencing off
        // permanently empty ones.
        let keys = vec![7.0; 50];
        let f = KeyFences::equi_depth(&keys, 3);
        assert_eq!(f, KeyFences::single());
        assert_eq!(f.owner_of(7.0), 0);
        // Empty sample and single-part requests collapse to one partition.
        assert_eq!(KeyFences::equi_depth(&[], 5), KeyFences::single());
        assert_eq!(KeyFences::equi_depth(&keys, 1), KeyFences::single());
    }

    #[test]
    fn equi_depth_dedupes_tied_quantiles() {
        // Two heavy ties: quantiles repeat, and the repeats would be
        // partitions no key can own. The plan keeps only live fences.
        let mut keys = vec![1.0; 40];
        keys.extend(std::iter::repeat_n(9.0, 40));
        let f = KeyFences::equi_depth(&keys, 8);
        f.validate().expect("planned fences are strictly monotone");
        assert_eq!(f.inner_bounds(), &[9.0], "one live fence between the ties");
        assert_eq!(f.parts(), 2);
        // Every partition owns at least one key.
        let mut counts = vec![0usize; f.parts()];
        for &k in &keys {
            counts[f.owner_of(k)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn validate_flags_duplicate_and_misplaced_bounds() {
        KeyFences::single().validate().expect("single is valid");
        KeyFences::from_inner(vec![1.0, 2.0])
            .validate()
            .expect("distinct fences are valid");
        let dup = KeyFences::from_inner(vec![5.0, 5.0]);
        let err = dup.validate().expect_err("duplicate bound");
        assert!(err.contains("strictly increasing"), "{err}");
        assert!(KeyFences::from_inner(vec![f64::INFINITY])
            .validate()
            .is_err());
        assert!(KeyFences::from_inner(vec![f64::NAN]).validate().is_err());
    }

    #[test]
    fn inner_bounds_round_trips_through_from_inner() {
        let f = KeyFences::from_inner(vec![2.0, 4.0, 8.0]);
        assert_eq!(f.inner_bounds(), &[2.0, 4.0, 8.0]);
        assert_eq!(KeyFences::from_inner(f.inner_bounds().to_vec()), f);
        assert!(KeyFences::single().inner_bounds().is_empty());
    }

    #[test]
    fn equi_depth_sampled_matches_full_sort_when_uncapped() {
        // Unsorted column, cap above the length: stride 1, so the plan is
        // the plain equi-depth of the sorted column.
        let keys: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(
            KeyFences::equi_depth_sampled(&keys, 4, 1_000),
            KeyFences::equi_depth(&sorted, 4)
        );
        // Capped: stride-subsampled deterministically, still 4 partitions.
        let capped = KeyFences::equi_depth_sampled(&keys, 4, 10);
        assert_eq!(capped.parts(), 4);
        // Degenerate requests collapse to a single partition.
        assert_eq!(
            KeyFences::equi_depth_sampled(&[], 4, 10),
            KeyFences::single()
        );
        assert_eq!(
            KeyFences::equi_depth_sampled(&keys, 1, 10),
            KeyFences::single()
        );
    }

    #[test]
    fn disjoint_span_visits_nothing() {
        let f = KeyFences::from_inner(vec![10.0]);
        // hi < lo (an empty extended span) must not underflow.
        assert!(f.overlapping(20.0, 5.0).is_empty());
    }
}
