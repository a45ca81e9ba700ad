//! # quasii-shard
//!
//! Sharded QUASII: a multi-instance shard router that splits one dataset
//! across `K` independent [`Quasii`] engines and fans queries out to the
//! shards whose key ranges they overlap — the scale-out layer on top of the
//! paper's single-array incremental index.
//!
//! ## Design
//!
//! * **Planning** — one upfront pass samples record assignment keys along
//!   the first cracked dimension (dimension 0, the same key every engine
//!   cracks first) and picks `K − 1` equi-depth boundary fences
//!   ([`KeyFences`]). Each shard owns the records whose key falls in its fence range; its
//!   *interior* stays adaptively cracked per the paper — only the shard
//!   boundaries come from a static sort-then-partition planning pass.
//! * **Routing** — a query visits exactly the shards whose fence ranges
//!   intersect its extension-adjusted span on dimension 0 (the same §5.2
//!   query-extension rule the engine itself applies, using the *global*
//!   maximum object extent so no shard holding a qualifying record is ever
//!   skipped).
//! * **The `&self` read** — [`ShardedQuasii::read`] answers one query
//!   when [`Quasii::can_read`] holds on every shard it routes to, and then
//!   reads each through [`Quasii::read_decided`], which does not repeat
//!   the test. All or nothing: if one shard would crack it, it returns
//!   `false` having booked nothing,
//!   and the caller writes through [`ShardedQuasii::try_execute_batch`].
//!   Any number of threads may read one deployment at once (the service
//!   does, under a shared lock guard).
//! * **A batch reads, then writes** — [`ShardedQuasii::try_execute_batch`]
//!   classifies every query once: routed by the fences, then
//!   [`Quasii::can_read`] on every shard of its route. The **read phase**
//!   answers each readable query as the `&self` read does, one job per
//!   query on the process-wide parked-worker pool
//!   ([`quasii_common::pool`]; at most [`ShardConfig::shard_threads`]
//!   threads), and is skipped when no query is readable. The **writer**
//!   takes the rest: one job per visited shard (at most `shard_threads`
//!   threads), each running its sub-batch through
//!   [`Quasii::try_execute_batch`]. This is the one way cracks run in
//!   parallel: an engine cracks one query at a time on the thread that
//!   runs its job. No thread is created per batch. A query that cracks
//!   nothing on any shard of its route never enters the writer; one that
//!   cracks on some shard goes to the writer of every shard on its route,
//!   and a shard engine on whose part it cracks nothing reads it in the
//!   engine's own read phase, on the thread of its shard job. Reads change
//!   no structure, so an engine classifies each query exactly as it would
//!   have had the whole batch come to it alone. No pool scope nests:
//!   `shard_threads` is the one thread knob of a deployment, so the process
//!   computes on no more threads than the host has CPUs.
//!
//! ## Determinism
//!
//! Per-shard state (data permutation, hierarchy, stats) is **bit-for-bit
//! identical for every shard-thread count and batch size**: routing depends only on the fences and the global extent (both
//! fixed at construction), so each shard always sees the same query
//! subsequence in the same order, and the engine runs its crack queries
//! in that order (see `quasii::Quasii::execute_batch`). A query the read
//! phase answers is one the shard's engine would have read too (both make
//! the same test on the state the last write left), and reads change no
//! structure.
//!
//! ## Persistence
//!
//! A deployment snapshots as **one buffer per shard** (each an independent
//! engine snapshot, see `quasii`'s `persist` module) plus a small
//! checksummed **manifest** binding them together: fences, router extension,
//! router counters, and a per-shard `(record count, length, header word)`
//! table. The header word is the part's own checksum field (bytes `16..24`
//! of the part). It covers the part's header, which ends with a table of
//! sums, one for each region blob after it, so it pins every byte of the
//! part; binding a part costs 8 bytes copied on write and 8 compared on
//! load, and the engine's load is the one pass over the part's content.
//! [`ShardedQuasii::write_snapshot_parts`] /
//! [`ShardedQuasii::from_snapshot_parts`] expose the parts in memory — the
//! migration seam (shard buffers can live on different nodes) — and
//! [`ShardedQuasii::write_snapshot_files`] /
//! [`ShardedQuasii::from_snapshot_files`] commit and load them as a
//! manifest file beside generation-stamped part files. That is the one
//! layout: a manifest followed by anything else in its file is corrupt. A
//! reloaded deployment answers every query byte-identically to the writer.
//!
//! Result vectors are returned in **canonical (ascending id) order**. The
//! single-instance engine emits hits in physical data order, which depends
//! on its private crack permutation; a sharded deployment cannot reproduce
//! that order (a query spanning a fence interleaves records the fence
//! separated), and a service layer must not leak its internal layout
//! anyway. Canonicalizing makes every query's result vector byte-identical
//! across **every** (shard count, thread count, batch size) configuration
//! — and equal to the sorted single-instance answer, which is exactly the
//! brute-force ground truth's format. `tests/shard.rs` asserts all three
//! equalities byte-for-byte.
//!
//! ```
//! use quasii_shard::{ShardConfig, ShardedQuasii};
//! use quasii_common::geom::{Aabb, Record};
//! use quasii_common::index::SpatialIndex;
//!
//! let data: Vec<Record<2>> = (0..5_000)
//!     .map(|i| {
//!         let v = i as f64 / 10.0;
//!         Record::new(i, Aabb::new([v; 2], [v + 2.0; 2]))
//!     })
//!     .collect();
//! let mut index = ShardedQuasii::new(data, ShardConfig::default().with_shards(4));
//! let hits = index.query_collect(&Aabb::new([100.0; 2], [120.0; 2]));
//! assert!(!hits.is_empty());
//! assert!(hits.windows(2).all(|w| w[0] < w[1]), "canonical id order");
//! assert_eq!(index.snapshots().len(), 4);
//! ```

#![warn(missing_docs)]

mod manifest;
mod order;
pub(crate) mod recovery;

pub use manifest::{part_path, MANIFEST_MAGIC};
pub use recovery::{Recovery, RecoveryReport, ShardStatus};

use order::{merge_sorted, sort_ids};
use quasii::crack::key_of;
use quasii::{
    AssignBy, EnginePoisoned, KeyFences, Quasii, QuasiiConfig, QuasiiStats, RepairOutcome,
};
use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_common::pool;
use quasii_obs as obs;
use std::ops::Range;

/// Most keys the boundary planner samples (stride-subsampled
/// deterministically, no RNG): a fixed constant of the build, not a knob,
/// so neither a config nor a manifest carries it.
const SAMPLE_CAP: usize = 4096;

/// Routes `(record, dimension-0 key)` pairs to the shards whose fence
/// ranges own their keys, keeping their relative order: one record vector
/// per fence range, in shard order. The one partition pass of a
/// deployment, shared by [`ShardedQuasii::new`] and [`Recovery::rebuild`].
pub(crate) fn partition<const D: usize>(
    fences: &KeyFences,
    keyed: impl IntoIterator<Item = (Record<D>, f64)>,
) -> Vec<Vec<Record<D>>> {
    let mut parts = vec![Vec::new(); fences.parts()];
    for (r, k) in keyed {
        parts[fences.owner_of(k)].push(r);
    }
    parts
}

/// Tuning knobs of [`ShardedQuasii`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards `K` the planner splits the dataset into (`0` and
    /// `1` both mean a single shard). Degenerate key distributions collapse
    /// tied boundary quantiles, so the planner may produce *fewer* shards
    /// than requested (never more) — every planned shard owns a
    /// non-degenerate key range instead of sitting permanently empty.
    pub shards: usize,
    /// Most threads that run the jobs of one phase of
    /// [`ShardedQuasii::try_execute_batch`] at a time, handed to the pool
    /// as it is: the read phase's query jobs and the writer's shard jobs.
    /// The deployment's one thread knob; nothing inside a job opens a pool
    /// scope of its own. `0` (the default) means as many as the pool has,
    /// `1` runs each phase's jobs sequentially in order. Results are
    /// identical for every value.
    pub shard_threads: usize,
    /// Configuration handed to every per-shard engine. An engine has no
    /// thread knob: its batch runs on the thread of its shard job.
    pub inner: QuasiiConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            shard_threads: 0,
            inner: QuasiiConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Returns `self` with the shard count set (chainable).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns `self` with the shard-worker count set (chainable).
    pub fn with_shard_threads(mut self, shard_threads: usize) -> Self {
        self.shard_threads = shard_threads;
        self
    }

    /// Returns `self` with the per-shard engine configuration set
    /// (chainable).
    pub fn with_inner(mut self, inner: QuasiiConfig) -> Self {
        self.inner = inner;
        self
    }
}

/// Point-in-time view of one shard — record count, refinement progress and
/// work counters. This is the introspection seam a future service layer
/// serves over the network (per-shard health, balance and convergence
/// without touching the engines).
#[derive(Clone, Debug)]
pub struct ShardSnapshot<const D: usize> {
    /// Shard index (ascending key ranges).
    pub shard: usize,
    /// Lower fence (inclusive) of the owned key range on dimension 0.
    pub key_lo: f64,
    /// Upper fence (exclusive) of the owned key range on dimension 0.
    pub key_hi: f64,
    /// Records owned by the shard.
    pub records: usize,
    /// Slices currently in the shard's hierarchy (crack progress; 0 until
    /// the shard's first query).
    pub slices: usize,
    /// Slices per hierarchy level (crack depth profile).
    pub level_profile: [usize; D],
    /// The shard engine's cumulative work counters.
    pub stats: QuasiiStats,
    /// Approximate heap bytes of the shard's index structure.
    pub index_bytes: usize,
    /// Fraction of the shard's records covered by sealed read-path arenas
    /// (see `quasii::Quasii::sealed_fraction`) — the convergence signal a
    /// rebalancer reads: a shard stuck near `0.0` while its siblings sit at
    /// `1.0` is still paying crack costs and a candidate for splitting.
    pub sealed_fraction: f64,
    /// Heap bytes of the shard's sealed arenas (included in
    /// [`index_bytes`](Self::index_bytes)).
    pub seal_bytes: usize,
}

/// Router-level counters (the engines keep their own [`QuasiiStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries accepted by the router.
    pub queries: u64,
    /// Total shard executions dispatched (one query may visit several
    /// shards; `shard_visits / queries` is the mean fan-out).
    pub shard_visits: u64,
}

impl RouterStats {
    /// Cells of the router's [`obs::CounterGroup`] backing store, in the
    /// order `[queries, shard_visits]` (the snapshot/merge idiom shared
    /// with the engine's seal counters).
    pub(crate) const CELLS: usize = 2;

    /// One consistent snapshot of the router's counter group.
    pub(crate) fn from_group(g: &obs::CounterGroup<{ Self::CELLS }>) -> Self {
        let [queries, shard_visits] = g.snapshot();
        Self {
            queries,
            shard_visits,
        }
    }

    /// Cells in group order, for seeding a group from a decoded manifest.
    pub(crate) fn cells(&self) -> [u64; Self::CELLS] {
        [self.queries, self.shard_visits]
    }
}

/// A sharded QUASII deployment: `K` independent engines behind one
/// [`SpatialIndex`] facade.
pub struct ShardedQuasii<const D: usize> {
    shards: Vec<Quasii<D>>,
    fences: KeyFences,
    cfg: ShardConfig,
    /// Router-side query extension on dimension 0, derived from the global
    /// maximum object extent and the assignment mode (mirrors the engine's
    /// §5.2 extension so routing is conservative).
    ext_low0: f64,
    ext_high0: f64,
    /// Router counters ([`RouterStats`] cells) in the shared registry
    /// group type — one snapshot/merge idiom across the whole suite.
    router: obs::CounterGroup<{ RouterStats::CELLS }>,
    /// Snapshot generation: `0` until first persisted, then the generation
    /// of the last durable commit (see
    /// [`write_snapshot_files`](Self::write_snapshot_files)).
    generation: u64,
    /// First worker-panic detail, set when a shard engine poisons itself
    /// mid-batch; the deployment refuses queries until
    /// [`repair`](Self::repair).
    poisoned: Option<String>,
}

/// One job of a batch's writer: the target engine, the indices of the
/// batch queries the read phase left and routed to it, and the hits it
/// produced (each vector already in canonical ascending-id order).
struct Task<'a, const D: usize> {
    shard: usize,
    engine: &'a mut Quasii<D>,
    queries: Vec<usize>,
    hits: Vec<Vec<u64>>,
    /// Worker-panic detail: set when the shard's engine poisoned itself (or
    /// the routing glue itself panicked) while running this task.
    error: Option<String>,
}

impl<const D: usize> ShardedQuasii<D> {
    /// Plans shard boundaries and splits `data` into `cfg.shards` owned
    /// partitions, each backed by its own [`Quasii`] engine.
    ///
    /// Unlike [`Quasii::new`] this is **O(n)**: the planner computes the
    /// dimension-0 assignment key of every record (one `key_of` each, what
    /// routes a record to its shard), plans equi-depth fences from a
    /// deterministic stride sample of those keys
    /// ([`KeyFences::equi_depth_sampled`]), measures the global dimension-0
    /// extent (needed before the first query can be routed) and physically
    /// partitions the records. Each shard engine takes its records as
    /// [`Quasii::new`] does, and lays them out as lanes at its first query.
    /// Records keep their relative order within each shard, so a
    /// single-shard deployment is byte-identical to the plain engine.
    pub fn new(data: Vec<Record<D>>, cfg: ShardConfig) -> Self {
        let mode = cfg.inner.assign_by;
        let mut ext0 = 0.0f64;
        for r in &data {
            ext0 = ext0.max(r.mbb.hi[0] - r.mbb.lo[0]);
        }
        let (ext_low0, ext_high0) = match mode {
            AssignBy::Lower => (ext0, 0.0),
            AssignBy::Center => (ext0 * 0.5, ext0 * 0.5),
            AssignBy::Upper => (0.0, ext0),
        };
        // The whole dataset's dimension-0 keys: the fences are planned from
        // a sample of them, and each record is routed by its own.
        let all_keys: Vec<f64> = data.iter().map(|r| key_of(r, 0, mode)).collect();
        let fences = if cfg.shards <= 1 {
            KeyFences::single()
        } else {
            KeyFences::equi_depth_sampled(&all_keys, cfg.shards, SAMPLE_CAP)
        };
        let shards = partition(&fences, data.into_iter().zip(all_keys))
            .into_iter()
            .map(|p| Quasii::new(p, cfg.inner.clone()))
            .collect();
        Self {
            shards,
            fences,
            cfg,
            ext_low0,
            ext_high0,
            router: obs::CounterGroup::new(),
            generation: 0,
            poisoned: None,
        }
    }

    /// Number of shards (planned fence ranges; may be fewer than requested
    /// on degenerate key distributions — see [`ShardConfig::shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The planned key fences (shard `k` owns dimension-0 assignment keys
    /// in `fences().range(k)`).
    pub fn fences(&self) -> &KeyFences {
        &self.fences
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Read access to the per-shard engines, in shard order.
    pub fn engines(&self) -> &[Quasii<D>] {
        &self.shards
    }

    /// Router-level counters (queries accepted, shard executions).
    pub fn router_stats(&self) -> RouterStats {
        RouterStats::from_group(&self.router)
    }

    /// Engine work counters folded across all shards. `queries` counts
    /// per-shard executions (a query visiting two shards counts twice);
    /// [`router_stats`](Self::router_stats) has the user-facing count.
    pub fn stats(&self) -> QuasiiStats {
        let mut total = QuasiiStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Point-in-time snapshot of every shard, in shard order — the seam a
    /// service layer exposes for balance/convergence monitoring.
    pub fn snapshots(&self) -> Vec<ShardSnapshot<D>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let (key_lo, key_hi) = self.fences.range(k);
                ShardSnapshot {
                    shard: k,
                    key_lo,
                    key_hi,
                    records: s.len(),
                    slices: s.slice_count(),
                    level_profile: s.level_profile(),
                    stats: s.stats(),
                    index_bytes: s.index_bytes(),
                    sealed_fraction: s.sealed_fraction(),
                    seal_bytes: s.seal_bytes(),
                }
            })
            .collect()
    }

    /// Runs `f` on every shard engine, one pool job per shard on at most
    /// `shard_threads` threads, and returns its results in shard order. The
    /// engines are independent, so each ends in the state a sequential loop
    /// would leave it in. A panicking job panics here as `shard k: …`.
    fn map_shards<R: Send>(&mut self, f: impl Fn(&mut Quasii<D>) -> R + Sync) -> Vec<R> {
        let mut jobs: Vec<_> = self.shards.iter_mut().map(|s| (s, None)).collect();
        let ran = pool::for_each_mut(&mut jobs, self.cfg.shard_threads, |_, (s, out)| {
            *out = Some(f(s));
        });
        if let Err(p) = ran {
            panic!("shard {}: {}", p.job, p.message);
        }
        jobs.into_iter()
            .map(|(_, out)| out.expect("every shard job ran"))
            .collect()
    }

    /// Completes the incremental build of every shard (see
    /// [`Quasii::finalize`]).
    pub fn finalize(&mut self) {
        self.map_shards(Quasii::finalize);
    }

    /// Seals every shard's converged top-level slices (see
    /// [`Quasii::seal`]). Every write already leaves its shards' seals
    /// current, so this only initializes shards no query has reached yet.
    pub fn seal(&mut self) {
        self.map_shards(Quasii::seal);
    }

    /// Record-weighted fraction of the whole deployment answered through
    /// sealed read paths (`0.0` when empty) — the aggregate convergence
    /// signal; [`snapshots`](Self::snapshots) has the per-shard breakdown.
    pub fn sealed_fraction(&self) -> f64 {
        let total: usize = self.shards.iter().map(Quasii::len).sum();
        if total == 0 {
            return 0.0;
        }
        let sealed: usize = self.shards.iter().map(Quasii::sealed_records).sum();
        sealed as f64 / total as f64
    }

    /// Checks every shard's structural invariants plus the router's
    /// ownership invariant (each record's key inside its shard's fence
    /// range); returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.fences.validate().map_err(|e| format!("fences: {e}"))?;
        if self.fences.parts() != self.shards.len() {
            return Err(format!(
                "{} fence ranges vs {} shard engines",
                self.fences.parts(),
                self.shards.len()
            ));
        }
        let mode = self.cfg.inner.assign_by;
        for (k, s) in self.shards.iter().enumerate() {
            s.validate().map_err(|e| format!("shard {k}: {e}"))?;
            let (lo, hi) = self.fences.range(k);
            for r in &s.records() {
                let key = key_of(r, 0, mode);
                if !(lo <= key && key < hi) {
                    return Err(format!(
                        "shard {k}: record {} key {key} outside owned range [{lo}, {hi})",
                        r.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// `true` once a worker panic poisoned the deployment — every query
    /// entry point refuses (structured error or panic) until
    /// [`repair`](Self::repair).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The poison marker as a structured error, if set.
    pub(crate) fn poison_error(&self) -> Option<EnginePoisoned> {
        self.poisoned
            .clone()
            .map(|detail| EnginePoisoned { detail })
    }

    /// Clears a worker-panic poison marker by repairing every poisoned
    /// shard engine (see [`Quasii::repair`]): each engine either
    /// re-validates in place (its adaptive state survives) or rebuilds
    /// itself by re-cracking from its record multiset — the paper's
    /// recovery posture. Returns the *worst* per-shard outcome.
    pub fn repair(&mut self) -> RepairOutcome {
        if self.poisoned.is_none() && self.shards.iter().all(|s| !s.is_poisoned()) {
            return RepairOutcome::Clean;
        }
        let mut worst = RepairOutcome::Revalidated;
        for s in &mut self.shards {
            if let RepairOutcome::Rebuilt = s.repair() {
                worst = RepairOutcome::Rebuilt;
            }
        }
        self.poisoned = None;
        worst
    }

    /// Snapshot generation of the last durable commit (`0` before the
    /// first [`write_snapshot_files`](Self::write_snapshot_files); restored
    /// from the manifest on load).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Test seam: arms a one-shot panic inside shard `shard`'s engine that
    /// fires on the `query_index`-th query of its **next writer
    /// sub-batch** (the shard-local index among the queries that reach the
    /// writer, not the batch-global one). A query the read phase answers
    /// never reaches an engine sub-batch, so on a converged shard the trap
    /// waits. See `Quasii::inject_panic_at`.
    #[doc(hidden)]
    pub fn inject_panic_at(&mut self, shard: usize, query_index: usize) {
        self.shards[shard].inject_panic_at(query_index);
    }

    /// The deployment's `&self` read: appends `q`'s ids to `out` in
    /// canonical ascending-id order, exactly as [`SpatialIndex::query`]
    /// would, when every shard it routes to can answer through
    /// [`Quasii::read`], and returns `true`. All or nothing: on a poisoned
    /// deployment, or when any routed shard needs the writer, it returns
    /// `false` having appended and booked nothing, so the caller's
    /// [`try_execute_batch`](Self::try_execute_batch) books every shard
    /// once. Under `&self` no writer interleaves, so the check and the
    /// reads see one state. Books the router counters and one fan-out
    /// observation; a read is not a batch.
    #[must_use]
    pub fn read(&self, q: &Aabb<D>, out: &mut Vec<u64>) -> bool {
        if self.poisoned.is_some() {
            return false;
        }
        match self.route(q) {
            Ok(route) => {
                self.read_routed(q, route, out);
                true
            }
            Err(_) => false,
        }
    }

    /// The deployment's one read-or-write decision, made by
    /// [`read`](Self::read) and by a batch's classification. It routes `q`
    /// to the shards whose fence ranges its extension-adjusted span on
    /// dimension 0 overlaps; `Ok` carries that route when every shard on it
    /// can read `q`, `Err` when one needs the writer.
    fn route(&self, q: &Aabb<D>) -> Result<Range<usize>, Range<usize>> {
        let route = self
            .fences
            .overlapping(q.lo[0] - self.ext_low0, q.hi[0] + self.ext_high0);
        if self.shards[route.clone()].iter().all(|s| s.can_read(q)) {
            Ok(route)
        } else {
            Err(route)
        }
    }

    /// The body of [`read`](Self::read) once [`route`](Self::route) said
    /// `Ok(route)`: reads every shard of `route` into `out` through
    /// [`Quasii::read_decided`], which does not repeat the test, puts the
    /// appended ids into canonical order and books the router counters and
    /// one fan-out observation.
    fn read_routed(&self, q: &Aabb<D>, route: Range<usize>, out: &mut Vec<u64>) {
        let start = out.len();
        for s in &self.shards[route.clone()] {
            s.read_decided(q, out);
        }
        // The shards are disjoint: one sort equals sorting each run and
        // merging them.
        sort_ids(&mut out[start..]);
        self.router.merge(&[1, route.len() as u64]);
        if obs::enabled() {
            obs::registry::SHARD_FANOUT.observe(route.len() as u64);
        }
    }

    /// Executes a batch of range queries across the shards — a read phase
    /// for the converged queries, then one pool job per shard the rest
    /// visit, each shard's sub-batch through the engine's own batch path
    /// — and returns one id vector per query (in `queries` order, each in
    /// canonical ascending-id order).
    ///
    /// Results are byte-identical for every (shard count, shard-thread
    /// count, batch size) combination, and equal to the canonicalized
    /// single-instance answer (see the module docs).
    pub fn execute_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        match self.try_execute_batch(queries) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Refreshes the per-shard balance gauges (`shard_records`,
    /// `shard_sealed_fraction`) after a batch. Metrics-gated: the gauge
    /// map takes a Mutex, so the disabled path must not touch it.
    fn publish_shard_gauges(&self) {
        if !obs::enabled() {
            return;
        }
        for (k, engine) in self.shards.iter().enumerate() {
            let label = k.to_string();
            obs::registry::SHARD_RECORDS.set(&label, engine.len() as f64);
            obs::registry::SHARD_SEALED_FRACTION.set(&label, engine.sealed_fraction());
        }
    }

    /// The deployment's one `&mut` write;
    /// [`execute_batch`](Self::execute_batch) and `SpatialIndex::query` (a
    /// one-query batch) wrap it. Worker panics surface as a structured
    /// error instead of a propagated panic: if any shard engine poisons
    /// itself mid-batch the whole deployment poisons (first failing shard
    /// wins, deterministically) and returns [`EnginePoisoned`]; call
    /// [`repair`](Self::repair) to recover. The deployment **never**
    /// silently returns partial results.
    ///
    /// Batching is invisible in the results: a caller that flattens
    /// several independent groups of queries into one batch (the service's
    /// admission grouping) gets each group exactly the vectors it would
    /// have got alone.
    pub fn try_execute_batch(
        &mut self,
        queries: &[Aabb<D>],
    ) -> Result<Vec<Vec<u64>>, EnginePoisoned> {
        if let Some(e) = self.poison_error() {
            return Err(e);
        }
        let mut results: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
        results.resize_with(queries.len(), Vec::new);
        if queries.is_empty() {
            return Ok(results);
        }
        if obs::enabled() {
            obs::registry::SHARD_BATCHES_TOTAL.inc();
        }

        // Classify each query once: the read phase takes it when every
        // shard it routes to can read it, the writer takes the rest (listed
        // per shard, in batch order). A read books its own router counters.
        let mut reads: Vec<(usize, Range<usize>)> = Vec::new();
        let mut writes: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let (mut written, mut visits) = (0u64, 0u64);
        for (j, q) in queries.iter().enumerate() {
            match self.route(q) {
                Ok(route) => reads.push((j, route)),
                Err(route) => {
                    written += 1;
                    visits += route.len() as u64;
                    if obs::enabled() {
                        obs::registry::SHARD_FANOUT.observe(route.len() as u64);
                    }
                    for k in route {
                        writes[k].push(j);
                    }
                }
            }
        }

        // Reads first: they change no structure, so they commute with the
        // writer's cracks.
        self.read_phase(queries, &reads, &mut results)?;
        if written > 0 {
            self.router.merge(&[written, visits]);
            self.write(queries, writes, &mut results)?;
        }
        self.publish_shard_gauges();
        Ok(results)
    }

    /// A batch's read phase: each `(batch index, route)` of `reads`
    /// answered through [`read_routed`](Self::read_routed), one pool job
    /// per query over `&self` on at most `shard_threads` threads, each into
    /// its own result slot; booked as the [`obs::Phase::SealedRead`] span.
    /// A read changes no structure, but a panicking job (a bug) leaves the
    /// batch unanswered, so it poisons the deployment.
    fn read_phase(
        &mut self,
        queries: &[Aabb<D>],
        reads: &[(usize, Range<usize>)],
        results: &mut [Vec<u64>],
    ) -> Result<(), EnginePoisoned> {
        if reads.is_empty() {
            return Ok(());
        }
        let span = obs::start();
        let mut slots = vec![Vec::new(); reads.len()];
        let this: &Self = self;
        let run = pool::for_each_mut(&mut slots, self.cfg.shard_threads, |t, out| {
            let (j, route) = &reads[t];
            this.read_routed(&queries[*j], route.clone(), out);
        });
        for ((j, _), out) in reads.iter().zip(slots) {
            results[*j] = out;
        }
        obs::finish_phase(span, obs::Phase::SealedRead);
        run.map_err(|p| self.poison(format!("read phase: {}", p.message)))
    }

    /// A batch's writer: one pool job per shard with queries in `writes`
    /// (batch indices per shard, ascending), each running its sub-batch
    /// through [`Quasii::try_execute_batch`]; the answers are merged into
    /// `results` per query in shard order.
    fn write(
        &mut self,
        queries: &[Aabb<D>],
        writes: Vec<Vec<usize>>,
        results: &mut [Vec<u64>],
    ) -> Result<(), EnginePoisoned> {
        let mut tasks: Vec<Task<'_, D>> = Vec::new();
        for ((shard, engine), queries) in self.shards.iter_mut().enumerate().zip(writes) {
            if !queries.is_empty() {
                tasks.push(Task {
                    shard,
                    engine,
                    queries,
                    hits: Vec::new(),
                    error: None,
                });
            }
        }

        // One job per visited shard; every shard engine is an independent
        // `&mut`. The job also puts its hits into canonical order, so the
        // sorts run beside each other instead of after the join.
        let run = pool::for_each_mut(&mut tasks, self.cfg.shard_threads, |_, t| {
            let sub: Vec<Aabb<D>> = t.queries.iter().map(|&j| queries[j]).collect();
            match t.engine.try_execute_batch(&sub) {
                Ok(hits) => t.hits = hits,
                Err(e) => t.error = Some(e.detail),
            }
            for h in &mut t.hits {
                sort_ids(h);
            }
        });
        // The engine catches its own query-worker panics; the pool
        // additionally contains a panic of the routing glue above.
        if let Err(p) = run {
            tasks[p.job].error.get_or_insert(p.message);
        }

        // A worker panic anywhere poisons the whole deployment: partial
        // results would be silently wrong. `tasks` is in shard order, so
        // the reported failure is the first failing shard regardless of
        // which thread hit it first.
        if let Some(t) = tasks.iter().find(|t| t.error.is_some()) {
            let detail = format!(
                "shard {}: {}",
                t.shard,
                t.error.as_deref().unwrap_or("worker panic")
            );
            return Err(self.poison(detail));
        }

        // Merge per query in shard order. Shards are disjoint and each run
        // is sorted, so the answer of a query one shard served is that
        // shard's vector as it is, and a query spanning shards takes a
        // linear merge of its runs: the duplicate-free union sorted by id.
        for t in tasks {
            for (&j, hits) in t.queries.iter().zip(t.hits) {
                let r = &mut results[j];
                *r = if r.is_empty() {
                    hits
                } else {
                    merge_sorted(r, &hits)
                };
            }
        }
        Ok(())
    }

    /// Poisons the deployment mid-batch (it was clean when the batch
    /// started) and returns the batch's error.
    fn poison(&mut self, detail: String) -> EnginePoisoned {
        self.poisoned = Some(detail.clone());
        EnginePoisoned { detail }
    }
}

impl<const D: usize> SpatialIndex<D> for ShardedQuasii<D> {
    fn name(&self) -> &'static str {
        "QUASII-sharded"
    }

    /// A one-query batch: a poisoned deployment panics with the structured
    /// message, never a silently wrong answer.
    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        out.append(&mut self.execute_batch(std::slice::from_ref(query))[0]);
    }

    fn query_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        self.execute_batch(queries)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(Quasii::len).sum()
    }

    fn index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index_bytes()).sum()
    }

    fn seal(&mut self) {
        ShardedQuasii::seal(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii::snapshot::SnapshotError;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::fault::MemStore;
    use quasii_common::fsx::SnapshotStore;
    use quasii_common::index::{assert_matches_brute_force, brute_force, canonical_results};
    use quasii_common::workload;
    use std::path::Path;

    /// Canonical reference: single-instance sequential execution with each
    /// query's hits sorted.
    fn canonical_reference<const D: usize>(
        data: &[Record<D>],
        queries: &[Aabb<D>],
        cfg: &QuasiiConfig,
    ) -> Vec<Vec<u64>> {
        let mut idx = Quasii::new(data.to_vec(), cfg.clone());
        canonical_results(&mut idx, queries)
    }

    #[test]
    fn matches_single_instance_across_shard_counts() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 101);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 50, 1e-3, 102).queries;
        let inner = QuasiiConfig::with_tau(16);
        let reference = canonical_reference(&data, &queries, &inner);
        for shards in [1usize, 2, 3, 7] {
            let cfg = ShardConfig::default()
                .with_shards(shards)
                .with_inner(inner.clone());
            let mut idx = ShardedQuasii::new(data.clone(), cfg);
            assert_eq!(idx.shard_count(), shards.max(1));
            let got = idx.execute_batch(&queries);
            assert_eq!(got, reference, "shards = {shards}");
            idx.validate()
                .unwrap_or_else(|e| panic!("shards = {shards}: {e}"));
        }
    }

    #[test]
    fn grouped_execution_is_invisible_in_the_results() {
        let data = uniform_boxes_in::<3>(3_000, 600.0, 111);
        let u = Aabb::new([0.0; 3], [600.0; 3]);
        let queries = workload::uniform(&u, 40, 1e-3, 112).queries;
        let inner = QuasiiConfig::with_tau(16);
        // Reference: every group executed alone, on its own fresh engine
        // state sequence — i.e. one engine fed the groups one at a time.
        let cfg = || {
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(16))
        };
        for cuts in [vec![0usize, 1, 5, 5, 40], vec![0, 40], vec![13, 27, 40]] {
            let mut bounds = vec![0usize];
            bounds.extend(&cuts);
            let groups: Vec<&[Aabb<3>]> = bounds
                .windows(2)
                .map(|w| &queries[w[0].min(w[1])..w[1]])
                .collect();

            let mut solo = ShardedQuasii::new(data.clone(), cfg());
            let expect: Vec<Vec<Vec<u64>>> = groups
                .iter()
                .map(|g| solo.try_execute_batch(g).unwrap())
                .collect();

            // The groups flattened into one batch, the answers split back
            // by group length.
            let flat_queries: Vec<Aabb<3>> = groups.concat();
            let mut grouped = ShardedQuasii::new(data.clone(), cfg());
            let flat_got = grouped.try_execute_batch(&flat_queries).unwrap();
            let mut answers = flat_got.iter().cloned();
            let got: Vec<Vec<Vec<u64>>> = groups
                .iter()
                .map(|g| answers.by_ref().take(g.len()).collect())
                .collect();
            assert_eq!(got, expect, "cuts = {cuts:?}");
            // And both equal the canonical single-instance answer.
            assert_eq!(
                flat_got,
                canonical_reference(&data, &flat_queries, &inner),
                "cuts = {cuts:?}"
            );
        }
        // Empty input: no queries, no work, no error.
        let mut idx = ShardedQuasii::new(data, cfg());
        assert!(idx.try_execute_batch(&[]).unwrap().is_empty());
    }

    /// Observable state of one run: results, per-shard id orders, stats.
    type RunState = (Vec<Vec<u64>>, Vec<Vec<u64>>, QuasiiStats);

    #[test]
    fn two_level_parallelism_is_deterministic() {
        let data = uniform_boxes_in::<3>(3_000, 800.0, 103);
        let u = Aabb::new([0.0; 3], [800.0; 3]);
        let queries = workload::clustered(&u, 3, 12, 1e-3, 104).queries;
        let mut baseline: Option<RunState> = None;
        for shard_threads in [1usize, 2, 4] {
            let cfg = ShardConfig::default()
                .with_shards(3)
                .with_shard_threads(shard_threads)
                .with_inner(QuasiiConfig::with_tau(12));
            let mut idx = ShardedQuasii::new(data.clone(), cfg);
            let got = idx.execute_batch(&queries);
            let orders: Vec<Vec<u64>> = idx
                .engines()
                .iter()
                .map(|s| s.records().iter().map(|r| r.id).collect())
                .collect();
            let stats = idx.stats();
            match &baseline {
                None => baseline = Some((got, orders, stats)),
                Some((r, o, st)) => {
                    assert_eq!(&got, r, "results at {shard_threads} shard threads");
                    assert_eq!(&orders, o, "permutation at {shard_threads} shard threads");
                    assert_eq!(&stats, st, "stats at {shard_threads} shard threads");
                }
            }
        }
    }

    #[test]
    fn chained_batches_and_single_queries_agree() {
        let data = uniform_boxes_in::<2>(2_000, 400.0, 105);
        let u = Aabb::new([0.0; 2], [400.0; 2]);
        let queries = workload::uniform(&u, 30, 1e-3, 106).queries;
        let cfg = ShardConfig::default()
            .with_shards(4)
            .with_inner(QuasiiConfig::with_tau(10));

        let mut whole = ShardedQuasii::new(data.clone(), cfg.clone());
        let expect = whole.execute_batch(&queries);

        let mut chunked = ShardedQuasii::new(data.clone(), cfg.clone());
        let mut got = Vec::new();
        for chunk in queries.chunks(7) {
            got.extend(chunked.execute_batch(chunk));
        }
        assert_eq!(got, expect);
        assert_eq!(chunked.stats(), whole.stats());

        let mut one_by_one = ShardedQuasii::new(data, cfg);
        let singles: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| one_by_one.query_collect(q))
            .collect();
        assert_eq!(singles, expect);
        assert_eq!(one_by_one.stats(), whole.stats());
        assert_eq!(one_by_one.router_stats(), whole.router_stats());
    }

    #[test]
    fn degenerate_keys_collapse_into_one_shard() {
        let data = degenerate::identical::<2>(600);
        let cfg = ShardConfig::default()
            .with_shards(5)
            .with_inner(QuasiiConfig::with_tau(8));
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        assert_eq!(
            idx.shard_count(),
            1,
            "tied boundary quantiles collapse to a single shard"
        );
        let snaps = idx.snapshots();
        let populated: Vec<usize> = snaps
            .iter()
            .filter(|s| s.records > 0)
            .map(|s| s.shard)
            .collect();
        assert_eq!(populated, vec![0], "all identical keys in the one shard");
        let q = Aabb::new([5.5; 2], [5.8; 2]);
        let got = idx.query_collect(&q);
        assert_eq!(got.len(), 600);
        assert_matches_brute_force(&data, &q, &got);
        idx.validate().unwrap();
    }

    #[test]
    fn router_never_misses_straddling_objects() {
        // A huge object whose key sits far left of the query must still be
        // found: the router's extension uses the global max extent.
        let mut data = uniform_boxes_in::<2>(1_000, 1_000.0, 107);
        data.push(Record::new(1_000, Aabb::new([0.0, 0.0], [900.0, 5.0])));
        let cfg = ShardConfig::default().with_shards(4);
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        let q = Aabb::new([880.0, 0.0], [890.0, 4.0]);
        let got = idx.query_collect(&q);
        assert!(got.contains(&1_000));
        assert_matches_brute_force(&data, &q, &got);
    }

    #[test]
    fn empty_dataset_and_empty_batch() {
        let mut idx = ShardedQuasii::<3>::new(Vec::new(), ShardConfig::default().with_shards(3));
        assert!(idx.is_empty());
        assert_eq!(idx.shard_count(), 1, "empty data plans a single shard");
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([0.0; 3], [1.0; 3]);
        assert_eq!(idx.execute_batch(&[q]), vec![Vec::<u64>::new()]);
        idx.validate().unwrap();

        let data = uniform_boxes_in::<3>(400, 100.0, 108);
        let mut idx = ShardedQuasii::new(data.clone(), ShardConfig::default().with_shards(2));
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = idx.execute_batch(&[q]);
        assert_eq!(got[0], brute_force(&data, &q));
    }

    #[test]
    fn snapshots_cover_partition_and_progress() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 109);
        let cfg = ShardConfig::default().with_shards(4);
        let mut idx = ShardedQuasii::new(data, cfg);
        let before = idx.snapshots();
        assert_eq!(before.len(), 4);
        assert_eq!(before.iter().map(|s| s.records).sum::<usize>(), 3_000);
        // Equi-depth planning: no shard owns more than half the data.
        assert!(before.iter().all(|s| s.records < 1_500), "{before:?}");
        assert!(before.iter().all(|s| s.slices == 0), "lazy engines");
        assert!(before.windows(2).all(|w| w[0].key_hi == w[1].key_lo));

        idx.query_collect(&Aabb::new([0.0; 3], [500.0; 3]));
        let after = idx.snapshots();
        assert!(after.iter().any(|s| s.slices > 0));
        assert!(after.iter().any(|s| s.stats.did_work()));
        assert_eq!(idx.router_stats().queries, 1);
        assert!(idx.router_stats().shard_visits >= 1);
        assert!(idx.index_bytes() > 0);
        assert_eq!(idx.name(), "QUASII-sharded");
    }

    #[test]
    fn finalize_freezes_every_shard() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 110);
        let mut idx = ShardedQuasii::new(
            data.clone(),
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(32)),
        );
        idx.finalize();
        idx.validate().unwrap();
        let cracks = idx.stats().cracks;
        assert!(cracks > 0);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        for q in &workload::uniform(&u, 20, 1e-3, 111).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        assert_eq!(
            idx.stats().cracks,
            cracks,
            "no reorganization after finalize"
        );
    }

    #[test]
    fn sealing_reports_convergence_per_shard() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 112);
        let mut idx = ShardedQuasii::new(
            data.clone(),
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(16)),
        );
        assert_eq!(idx.sealed_fraction(), 0.0, "nothing sealed before queries");
        idx.finalize();
        idx.seal();
        assert_eq!(idx.sealed_fraction(), 1.0, "finalized shards seal fully");
        let snaps = idx.snapshots();
        assert!(snaps
            .iter()
            .all(|s| s.records == 0 || s.sealed_fraction == 1.0));
        assert!(snaps.iter().any(|s| s.seal_bytes > 0));
        assert!(snaps
            .iter()
            .all(|s| s.seal_bytes == 0 || s.index_bytes > s.seal_bytes));
        // Steady-state queries run through the sealed read path and stay
        // byte-identical to brute force.
        let cracks = idx.stats().cracks;
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        for q in &workload::uniform(&u, 10, 1e-3, 113).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        assert_eq!(idx.stats().cracks, cracks, "pure reads after sealing");
        idx.validate().unwrap();
    }

    /// A two-shard deployment over 3 000 boxes in `[0, 600]³`, with the
    /// shards `sealed` finalized and sealed and the others fresh.
    fn two_shards(sealed: &[usize]) -> (Vec<Record<3>>, ShardedQuasii<3>) {
        deployment(sealed, 0)
    }

    /// [`two_shards`] with `shard_threads` at `threads`.
    fn deployment(sealed: &[usize], threads: usize) -> (Vec<Record<3>>, ShardedQuasii<3>) {
        let data = uniform_boxes_in::<3>(3_000, 600.0, 130);
        let cfg = ShardConfig::default()
            .with_shards(2)
            .with_shard_threads(threads)
            .with_inner(QuasiiConfig::with_tau(16));
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        assert_eq!(idx.shard_count(), 2);
        for &k in sealed {
            idx.shards[k].finalize();
            idx.shards[k].seal();
        }
        (data, idx)
    }

    /// The shards `idx` routes `q` to, readable or not.
    fn route(idx: &ShardedQuasii<3>, q: &Aabb<3>) -> Range<usize> {
        idx.route(q).unwrap_or_else(|route| route)
    }

    /// Thin slabs astride the fence on dimension 0: each visits both shards.
    fn astride_the_fence(idx: &ShardedQuasii<3>, n: usize) -> Vec<Aabb<3>> {
        let fence = idx.fences().inner_bounds()[0];
        (0..n)
            .map(|i| {
                let y = i as f64 * 40.0;
                Aabb::new([fence - 20.0, y, y], [fence + 20.0, y + 60.0, y + 60.0])
            })
            .collect()
    }

    #[test]
    fn reads_equal_the_batch_write_on_a_sealed_deployment() {
        let (data, reader) = two_shards(&[0, 1]);
        let (_, mut writer) = two_shards(&[0, 1]);
        let u = Aabb::new([0.0; 3], [600.0; 3]);
        let mut queries = workload::uniform(&u, 60, 1e-3, 131).queries;
        queries.extend(astride_the_fence(&reader, 10));
        let got: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                assert!(reader.read(q, &mut out), "{q:?} is sealed");
                out
            })
            .collect();
        assert_eq!(got, writer.execute_batch(&queries));
        assert_eq!(reader.stats(), writer.stats());
        assert_eq!(reader.router_stats(), writer.router_stats());
        assert!(reader.router_stats().shard_visits >= queries.len() as u64 + 10);
        for (q, ids) in queries.iter().zip(&got) {
            assert_eq!(ids, &brute_force(&data, q));
        }
    }

    #[test]
    fn a_read_is_all_or_nothing_across_its_shards() {
        let (data, idx) = two_shards(&[0]);
        let (stats, router) = (idx.stats(), idx.router_stats());
        // Astride the fence: shard 0 could read, shard 1 needs the writer.
        for q in astride_the_fence(&idx, 4) {
            assert_eq!(route(&idx, &q), 0..2);
            let mut out = vec![7];
            assert!(!idx.read(&q, &mut out));
            assert_eq!(out, vec![7], "nothing appended");
        }
        assert_eq!(idx.stats(), stats, "nothing booked");
        assert_eq!(idx.router_stats(), router);
        // A query that reaches shard 0 alone reads.
        let q = Aabb::new([10.0; 3], [80.0; 3]);
        assert_eq!(route(&idx, &q), 0..1);
        let mut out = vec![7];
        assert!(idx.read(&q, &mut out));
        let mut expect = vec![7];
        expect.extend(brute_force(&data, &q));
        assert_eq!(out, expect);
        assert_eq!(idx.router_stats().queries, router.queries + 1);
        assert_eq!(idx.router_stats().shard_visits, router.shard_visits + 1);
    }

    #[test]
    fn a_converging_write_is_readable_without_another_write() {
        // A batch of slabs over shard 0's low keys, across the whole y, z
        // extent, converges the root slices it covers; the write seals
        // them before it returns, so a query inside reads at once.
        let (data, mut idx) = two_shards(&[]);
        let slab = Aabb::new([0.0; 3], [100.0, 601.0, 601.0]);
        assert_eq!(route(&idx, &slab), 0..1);
        idx.execute_batch(&[slab; 4]);
        let inside = Aabb::new([30.0; 3], [60.0; 3]);
        assert_eq!(route(&idx, &inside), 0..1);
        let mut out = Vec::new();
        assert!(idx.read(&inside, &mut out), "no write in between");
        assert_eq!(out, brute_force(&data, &inside));
        assert!(idx.engines()[0].seal_stats().seals > 0);
    }

    #[test]
    fn a_poisoned_deployment_refuses_reads() {
        // Shard 0 is fresh, so a query there reaches the writer and its
        // trap; a read phase never enters an engine sub-batch.
        let (_, mut idx) = two_shards(&[1]);
        let q = Aabb::new([590.0; 3], [599.0; 3]);
        assert_eq!(route(&idx, &q), 1..2);
        idx.inject_panic_at(0, 0);
        let on_shard_0 = Aabb::new([10.0; 3], [80.0; 3]);
        assert_eq!(route(&idx, &on_shard_0), 0..1);
        let err = idx
            .try_execute_batch(&[on_shard_0])
            .expect_err("injected panic");
        assert!(err.detail.starts_with("shard 0: "), "{err}");
        // Shard 1 alone could still read; the deployment refuses.
        assert!(idx.engines()[1].can_read(&q));
        let mut out = Vec::new();
        assert!(!idx.read(&q, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn a_mixed_batch_books_every_query_once() {
        // Shard 0 sealed, shard 1 fresh: a query on shard 0 alone is read,
        // one astride the fence goes to the writer. The batch alternates.
        let (data, mut batched) = two_shards(&[0]);
        let straddling = astride_the_fence(&batched, 6);
        let mut queries = Vec::new();
        for (i, &astride) in straddling.iter().enumerate() {
            let v = 10.0 + i as f64 * 15.0;
            let read = Aabb::new([v; 3], [v + 60.0; 3]);
            assert!(batched.route(&read) == Ok(0..1), "{read:?} is read");
            assert!(
                batched.route(&astride) == Err(0..2),
                "{astride:?} is written"
            );
            queries.extend([read, astride]);
        }
        let got = batched.execute_batch(&queries);

        let (_, mut singles) = two_shards(&[0]);
        let one_by_one: Vec<Vec<u64>> = queries.iter().map(|q| singles.query_collect(q)).collect();
        let (_, mut sequential) = deployment(&[0], 1);
        let t1 = sequential.execute_batch(&queries);

        assert_eq!(got, one_by_one);
        assert_eq!(got, t1);
        for (q, ids) in queries.iter().zip(&got) {
            assert_eq!(ids, &brute_force(&data, q));
        }
        for other in [&singles, &sequential] {
            assert_eq!(batched.stats(), other.stats());
            assert_eq!(batched.router_stats(), other.router_stats());
        }
        // Once each: 6 reads of shard 0, 6 writes of both shards.
        let router = batched.router_stats();
        assert_eq!(router.queries, 12);
        assert_eq!(router.shard_visits, 18);
        assert_eq!(batched.stats().queries, 18, "one engine query per visit");
    }

    /// A warmed 3-shard deployment for the snapshot tests.
    pub(crate) fn warmed_deployment() -> (ShardedQuasii<3>, Vec<Aabb<3>>) {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let u = Aabb::new([0.0; 3], [600.0; 3]);
        let queries = workload::uniform(&u, 40, 1e-3, 121).queries;
        let cfg = ShardConfig::default()
            .with_shards(3)
            .with_inner(QuasiiConfig::with_tau(16));
        let mut idx = ShardedQuasii::new(data, cfg);
        idx.execute_batch(&queries[..20]);
        (idx, queries)
    }

    #[test]
    fn worker_panic_poisons_the_deployment_and_repair_recovers() {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let (mut idx, queries) = warmed_deployment();
        idx.inject_panic_at(0, 0);
        let err = idx.try_execute_batch(&queries).expect_err("injected panic");
        assert!(err.detail.contains("shard 0"), "detail: {}", err.detail);
        assert!(idx.is_poisoned());
        assert!(idx.poison_error().is_some());

        // Every entry point refuses loudly while poisoned.
        let again = idx.try_execute_batch(&queries).expect_err("still poisoned");
        assert_eq!(again.detail, err.detail);
        let q = queries[0];
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.query_collect(&q);
        }));
        assert!(p.is_err(), "single-query path must refuse while poisoned");
        assert!(matches!(
            idx.write_snapshot_parts(),
            Err(SnapshotError::Unsupported(_))
        ));

        // Repair re-validates or rebuilds, and answers match a cold-cracked
        // deployment byte-for-byte afterwards (results are canonical).
        let outcome = idx.repair();
        assert_ne!(outcome, RepairOutcome::Clean);
        assert!(!idx.is_poisoned());
        idx.validate().expect("repaired deployment validates");
        let mut oracle = ShardedQuasii::new(data, idx.config().clone());
        assert_eq!(idx.execute_batch(&queries), oracle.execute_batch(&queries));
        assert_eq!(idx.repair(), RepairOutcome::Clean, "repair is idempotent");
    }

    #[test]
    fn recovery_quarantines_then_rebuilds() {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let (mut idx, queries) = warmed_deployment();
        let store = MemStore::new();
        let path = Path::new("/deploy/shards.manifest");
        idx.write_snapshot_files(&store, path).unwrap();

        // Tear one part file in half: the strict loader refuses outright.
        let torn = part_path(path, 1, 1);
        let cur = store.files().remove(&torn).expect("part exists");
        store.write_file(&torn, &cur[..cur.len() / 2]).unwrap();
        assert!(ShardedQuasii::<3>::from_snapshot_files(&store, path).is_err());

        // Recovery quarantines exactly the torn shard.
        let rec = Recovery::<3>::load(&store, path).expect("manifest intact");
        assert_eq!(rec.report().quarantined(), vec![1]);
        assert!(!rec.report().is_complete());
        let cov = rec.report().coverage_fraction();
        assert!(0.0 < cov && cov < 1.0, "coverage {cov}");
        assert!(
            rec.into_full().is_err(),
            "into_full refuses while shards are quarantined"
        );

        // Rebuild from source records restores full byte-identity with a
        // cold-cracked deployment.
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        assert_eq!(rec.rebuild(&data).expect("rebuild"), 1);
        assert!(rec.report().is_complete());
        let mut full = rec.into_full().expect("complete after rebuild");
        full.validate().unwrap();
        let mut oracle = ShardedQuasii::new(data.clone(), idx.config().clone());
        assert_eq!(full.execute_batch(&queries), oracle.execute_batch(&queries));

        // Rebuilding from the *wrong* dataset is rejected, not absorbed.
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        let wrong = uniform_boxes_in::<3>(2_500, 600.0, 121);
        assert!(rec.rebuild(&wrong).is_err());
        let short = &data[..2_000];
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        assert!(rec.rebuild(short).is_err());
    }
}
