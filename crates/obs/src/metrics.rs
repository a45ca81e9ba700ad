//! Atomics-backed metric primitives: counters, gauges, counter groups and
//! striped log-bucket histograms. Everything here is `const`-constructible
//! so the registry can hold them in plain statics, and every read is a
//! merged point-in-time snapshot — writers never block on readers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (tests and experiment isolation).
    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point level (f64 bits in an atomic word).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub(crate) const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to `0.0`.
    pub(crate) fn reset(&self) {
        self.set(0.0);
    }
}

/// A gauge family with runtime label values (e.g. one level per shard).
/// Cold-path only: every write takes a lock, so callers gate updates on
/// [`crate::enabled`].
#[derive(Debug)]
pub struct GaugeVec {
    slots: Mutex<BTreeMap<String, f64>>,
}

impl GaugeVec {
    /// An empty family.
    pub(crate) const fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Sets the level for `label`.
    pub fn set(&self, label: &str, v: f64) {
        let mut slots = self.slots.lock().expect("GaugeVec lock poisoned");
        match slots.get_mut(label) {
            Some(slot) => *slot = v,
            None => {
                slots.insert(label.to_string(), v);
            }
        }
    }

    /// All `(label, level)` pairs, in label order.
    pub(crate) fn snapshot(&self) -> Vec<(String, f64)> {
        self.slots
            .lock()
            .expect("GaugeVec lock poisoned")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Drops every label.
    pub(crate) fn reset(&self) {
        self.slots.lock().expect("GaugeVec lock poisoned").clear();
    }
}

impl Default for GaugeVec {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed family of related counters with one snapshot/merge idiom — the
/// registry type the engine's lifecycle counter structs (`SealStats`,
/// `RouterStats`) are read out of. Indices are the owner's business
/// (callers define `const` positions); the group guarantees that
/// `snapshot` is a consistent-enough point-in-time read (each cell is a
/// relaxed load; owners only require per-cell monotonicity) and that
/// `merge` is an order-independent sum, mirroring `QuasiiStats::merge`.
#[derive(Debug)]
pub struct CounterGroup<const N: usize> {
    counts: [AtomicU64; N],
}

impl<const N: usize> CounterGroup<N> {
    /// A zeroed group.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; N],
        }
    }

    /// A group pre-loaded with `values` (snapshot restore).
    pub fn from_snapshot(values: [u64; N]) -> Self {
        let g = Self::new();
        g.merge(&values);
        g
    }

    /// Adds one to cell `i`.
    #[inline]
    pub fn inc(&self, i: usize) {
        self.add(i, 1);
    }

    /// Adds `n` to cell `i`.
    #[inline]
    pub(crate) fn add(&self, i: usize, n: u64) {
        self.counts[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of cell `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.counts[i].load(Ordering::Relaxed)
    }

    /// Point-in-time read of every cell.
    pub fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|i| self.get(i))
    }

    /// Folds another snapshot in (order-independent sums).
    pub fn merge(&self, other: &[u64; N]) {
        for (cell, &v) in self.counts.iter().zip(other) {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        for cell in &self.counts {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for CounterGroup<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Histogram stripes: concurrent observers from different threads land on
/// different stripes (assigned round-robin at first observation), so the
/// hot path never contends on a shared cache line.
pub(crate) const STRIPES: usize = 8;

/// Log₂ buckets. Bucket `0` holds the value `0`; bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`; the top bucket absorbs everything larger.
/// 44 buckets cover `1ns .. ~1.2h` when values are nanoseconds.
pub(crate) const BUCKETS: usize = 44;

/// The bucket index a value lands in.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The exclusive upper bound of bucket `b` (`u64::MAX` for the top
/// bucket, which is unbounded).
pub(crate) fn bucket_upper(b: usize) -> u64 {
    if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// Round-robin stripe assignment, fixed per thread at first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// One stripe of a histogram (everything relaxed: per-cell monotonicity
/// is all the merged snapshot needs).
#[derive(Debug)]
struct Stripe {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed log-bucket histogram of `u64` samples (latencies in
/// nanoseconds, or dimensionless counts like fan-out), striped per worker
/// thread and merged on read.
#[derive(Debug)]
pub struct Histogram {
    stripes: [Stripe; STRIPES],
}

impl Histogram {
    /// An empty histogram.
    pub(crate) const fn new() -> Self {
        Self {
            stripes: [const { Stripe::new() }; STRIPES],
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let s = &self.stripes[stripe_index()];
        s.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start` (a [`crate::start`]
    /// result); a no-op on `None`, so disabled call sites stay free.
    pub fn observe_since(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.observe(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Merges every stripe into one point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for s in &self.stripes {
            for (acc, cell) in snap.counts.iter_mut().zip(&s.counts) {
                *acc += cell.load(Ordering::Relaxed);
            }
            snap.count += s.count.load(Ordering::Relaxed);
            snap.sum += s.sum.load(Ordering::Relaxed);
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
        }
        snap
    }

    /// Zeroes every stripe.
    pub(crate) fn reset(&self) {
        for s in &self.stripes {
            for cell in &s.counts {
                cell.store(0, Ordering::Relaxed);
            }
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A merged read of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub counts: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket holding the target rank; `0` when empty. The top
    /// bucket (unbounded) reports [`Self::max`] instead of interpolating.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                if b == 0 {
                    return 0;
                }
                if b == BUCKETS - 1 {
                    return self.max;
                }
                let lower = 1u64 << (b - 1);
                let upper = (1u64 << b).min(self.max.max(lower));
                let frac = (target - cum) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * frac) as u64;
            }
            cum += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 is exactly the value 0; bucket b >= 1 is [2^(b-1), 2^b).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 2 + 1);
        for b in 1..BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_of(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_of(hi), b, "upper edge of bucket {b}");
        }
        // Everything at or past the last finite boundary lands in the top
        // bucket.
        assert_eq!(bucket_of(1u64 << (BUCKETS - 1)), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(10), 1024);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Log buckets only estimate, but the estimate must stay inside the
        // bracketing power-of-two bucket of the true quantile.
        let p50 = s.quantile(0.5);
        assert!((256..=512).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn cross_thread_merge_sees_every_observation() {
        let h = Histogram::new();
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.observe(t * per_thread + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        let expect_sum: u64 = (0..threads * per_thread).sum();
        assert_eq!(s.sum, expect_sum);
        assert_eq!(s.max, threads * per_thread - 1);
        assert_eq!(s.counts.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn counter_group_snapshot_and_merge() {
        let g = CounterGroup::<3>::new();
        g.inc(0);
        g.add(2, 41);
        assert_eq!(g.snapshot(), [1, 0, 41]);
        g.merge(&[9, 1, 1]);
        assert_eq!(g.snapshot(), [10, 1, 42]);
        let restored = CounterGroup::<3>::from_snapshot(g.snapshot());
        assert_eq!(restored.snapshot(), [10, 1, 42]);
        g.reset();
        assert_eq!(g.snapshot(), [0; 3]);
    }

    #[test]
    fn gauge_vec_labels() {
        let g = GaugeVec::new();
        g.set("1", 2.0);
        g.set("0", 1.0);
        g.set("1", 3.0);
        assert_eq!(
            g.snapshot(),
            vec![("0".to_string(), 1.0), ("1".to_string(), 3.0)]
        );
        g.reset();
        assert!(g.snapshot().is_empty());
    }
}
