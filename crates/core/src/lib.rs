//! # quasii
//!
//! From-scratch Rust implementation of **QUASII — QUery-Aware Spatial
//! Incremental Index** (Pavlovic, Sidlauskas, Heinis, Ailamaki; EDBT 2018).
//!
//! QUASII answers range (window) queries over volumetric objects in main
//! memory *without* an up-front index build. Instead, every query partially
//! reorganizes ("cracks") the data array along one dimension per hierarchy
//! level, converging towards an STR-like data-oriented partitioning — the
//! cost of indexing is spread over the queries that actually need it, and
//! only the queried portions of the data are ever organized.
//!
//! ```
//! use quasii::{Quasii, QuasiiConfig};
//! use quasii_common::geom::{Aabb, Record};
//! use quasii_common::index::SpatialIndex;
//!
//! // Ten thousand boxes on a diagonal.
//! let data: Vec<Record<3>> = (0..10_000)
//!     .map(|i| {
//!         let v = i as f64 / 10.0;
//!         Record::new(i, Aabb::new([v; 3], [v + 2.0; 3]))
//!     })
//!     .collect();
//! let mut index = Quasii::new(data, QuasiiConfig::default());
//!
//! // First query pays a little reorganization, later queries get faster.
//! let hits = index.query_collect(&Aabb::new([100.0; 3], [120.0; 3]));
//! assert!(!hits.is_empty());
//! ```

#![warn(missing_docs)]

mod batch;
mod config;
pub mod crack;
mod engine;
pub(crate) mod fence;
pub mod keys;
mod persist;
mod seal;
pub mod simd;
mod slice;
mod stats;
mod validate;

/// Single-buffer snapshot surface: format constants and the shared error
/// type (see `persist` for the layout and versioning policy, and
/// [`Quasii::write_snapshot`] / [`Quasii::from_snapshot`], the one reader
/// of the format, for the API).
pub mod snapshot {
    pub use crate::persist::MAGIC;
    pub use quasii_common::snapshot::{header_word, SnapshotError};
}

pub use config::{AssignBy, QuasiiConfig};
pub use fence::KeyFences;
pub use simd::{SimdLevel, SimdPolicy};
pub use stats::{QuasiiStats, SealStats};

use engine::{Env, Runtime};
use keys::KeyColumn;
use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_obs as obs;
use seal::SealedRegion;
use slice::Slice;
use std::fmt;
use std::ops::Range;

/// A query panicked mid-batch and the engine refused to keep serving: the
/// slice hierarchy may be in an undefined intermediate state, so every
/// answer after the panic would be untrustworthy. The engine never
/// degrades into silently wrong results: until [`Quasii::repair`]
/// re-validates or rebuilds it,
/// [`Quasii::try_execute_batch`] returns this, its panicking wrappers
/// (`execute_batch`, `SpatialIndex::query`) panic with the same message,
/// and [`Quasii::read`] answers nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePoisoned {
    /// Where the panic happened and what its payload said.
    pub detail: String,
}

impl fmt::Display for EnginePoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine poisoned: {} (call repair() to re-validate or rebuild)",
            self.detail
        )
    }
}

impl std::error::Error for EnginePoisoned {}

/// What [`Quasii::repair`] had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The engine was not poisoned; nothing to do.
    Clean,
    /// Every structural invariant still held (the panic struck before any
    /// reorganization went inconsistent): the poison marker was cleared
    /// and all adaptive state survives.
    Revalidated,
    /// Invariants were violated: the engine was rebuilt from its record
    /// multiset (cracking re-grows the index from raw data — the paper's
    /// recovery posture), discarding crack progress and counters.
    Rebuilt,
}

/// The QUASII index. Generic over the dimensionality `D` (the paper
/// evaluates `D = 3`; its worked example is `D = 2`).
pub struct Quasii<const D: usize> {
    data: Vec<Record<D>>,
    /// Cache-resident assignment-key + upper-bound column pair, permuted in
    /// lockstep with `data` by every crack kernel (see [`keys`] for the
    /// invariant).
    keys: KeyColumn,
    root: Vec<Slice<D>>,
    env: Env<D>,
    rt: Runtime<D>,
    cfg: QuasiiConfig,
    /// Query extension amounts per side, derived from the global max object
    /// extent and the assignment mode (§5.2 "Query & Refine").
    ext_low: [f64; D],
    ext_high: [f64; D],
    data_bounds: Aabb<D>,
    initialized: bool,
    /// Dimension-0 key column handed in by
    /// [`with_precomputed_keys`](Self::with_precomputed_keys), adopted at
    /// first-query initialization.
    precomputed_keys: Option<Vec<f64>>,
    /// Sealed arenas over converged top-level slices, sorted by `begin`,
    /// disjoint, each covering exactly one root slice's range (see
    /// [`seal`]). A seal is permanent: its root slice has converged, so no
    /// later query reorganizes it.
    seals: Vec<SealedRegion<D>>,
    /// Structure fingerprint (`slices_created + slices_refined`) at the
    /// last seal sweep; [`u64::MAX`] (the initial state) forces the first.
    seal_stamp: u64,
    /// Seal lifecycle counters ([`SealStats`] cells), held in the shared
    /// registry group type so batch workers and snapshot restore use the
    /// same snapshot/merge idiom as the global metrics.
    seal_stats: obs::CounterGroup<{ SealStats::CELLS }>,
    /// The work of [`read`](Self::read), `[queries, objects tested]`: atomic
    /// sums, so concurrent readers book through `&self`. [`stats`](Self::stats)
    /// adds them to `rt.stats`; a snapshot writes the sum and a load starts
    /// them at 0.
    reads: obs::CounterGroup<2>,
    /// Cached sum of sealed region lengths, written by `try_seal` only
    /// (`validate()` checks it): the fully-sealed steady state is detected
    /// with one integer compare per query.
    sealed_record_count: usize,
    /// Data-space spans whose slices may have newly converged since the
    /// last sweep — every crack-path query records its candidate window
    /// here, and [`try_seal`](Self::try_seal) rechecks only unsealed root
    /// slices overlapping a recorded span: structural change is confined
    /// to the windows of the queries that caused it, so the sweep never
    /// re-walks untouched subtrees. Capped; overflow collapses into one
    /// covering span.
    seal_dirty: Vec<(usize, usize)>,
    /// Forces the next sweep to recheck every root slice (initial state).
    seal_dirty_all: bool,
    /// Set when a batch worker panicked: the hierarchy may be mid-crack
    /// inconsistent, so the engine refuses to answer (structured
    /// [`EnginePoisoned`], never a silent wrong result) until
    /// [`repair`](Self::repair) clears it.
    poisoned: Option<String>,
    /// One-shot fault-injection seam for the recovery test suite: the next
    /// batch panics while executing this query index.
    panic_trap: Option<usize>,
}

impl<const D: usize> Quasii<D> {
    /// Wraps a dataset. **O(1)** — in line with the paper's design goal (i),
    /// all work (even the initial extent scan) is deferred into the first
    /// query, so data-to-insight time is exactly the first query's latency.
    pub fn new(data: Vec<Record<D>>, cfg: QuasiiConfig) -> Self {
        let tau = config::tau_schedule::<D>(data.len(), cfg.tau);
        let simd = cfg.simd.resolve();
        if obs::enabled() {
            obs::registry::SIMD_LEVEL.set(simd.name(), 1.0);
        }
        Self {
            data,
            keys: KeyColumn::new(),
            root: Vec::new(),
            env: Env {
                tau,
                mode: cfg.assign_by,
                max_artificial_depth: cfg.max_artificial_depth,
                simd,
            },
            rt: Runtime::new(),
            cfg,
            ext_low: [0.0; D],
            ext_high: [0.0; D],
            data_bounds: Aabb::empty(),
            initialized: false,
            precomputed_keys: None,
            seals: Vec::new(),
            seal_stamp: u64::MAX,
            seal_stats: obs::CounterGroup::new(),
            reads: obs::CounterGroup::new(),
            sealed_record_count: 0,
            seal_dirty: Vec::new(),
            seal_dirty_all: true,
            poisoned: None,
            panic_trap: None,
        }
    }

    /// Same as [`Quasii::new`] with the default configuration (τ = 60).
    pub fn with_default_config(data: Vec<Record<D>>) -> Self {
        Self::new(data, QuasiiConfig::default())
    }

    /// Same as [`Quasii::new`], adopting a precomputed **dimension-0
    /// assignment-key column** instead of rebuilding it at first-query
    /// initialization (the companion upper-bound column is still built
    /// then, during the mandatory extent scan). The caller guarantees
    /// `keys[i] == crack::key_of(&data[i], 0, cfg.assign_by)` for every `i`
    /// — the sharded router builds the column as a byproduct of its
    /// partition pass and hands each shard its sub-column this way.
    ///
    /// # Panics
    ///
    /// Panics (at first-query initialization) when
    /// `keys.len() != data.len()`; debug builds additionally verify every
    /// cached key.
    pub fn with_precomputed_keys(data: Vec<Record<D>>, keys: Vec<f64>, cfg: QuasiiConfig) -> Self {
        let mut idx = Self::new(data, cfg);
        idx.precomputed_keys = Some(keys);
        idx
    }

    /// First-query initialization: one pass computing the dataset MBB and
    /// the per-dimension maximum object extent (needed for query extension),
    /// the dimension-0 assignment-key column (unless adopted precomputed
    /// via [`with_precomputed_keys`](Self::with_precomputed_keys)), then
    /// the initial whole-dataset slice `s0`.
    fn ensure_init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        if self.data.is_empty() {
            return;
        }
        let mut bounds = Aabb::empty();
        let mut ext = [0.0; D];
        for r in &self.data {
            bounds.expand(&r.mbb);
            for k in 0..D {
                let e = r.mbb.hi[k] - r.mbb.lo[k];
                if e > ext[k] {
                    ext[k] = e;
                }
            }
        }
        self.data_bounds = bounds;
        // The root slice starts at level 0 with fresh columns: cache every
        // record's dimension-0 assignment key and upper bound now (adopting
        // a precomputed key column when one was handed in at construction).
        self.keys
            .build_level0(&self.data, self.cfg.assign_by, self.precomputed_keys.take());
        // Extension direction follows the assignment coordinate: a
        // qualifying object's key can precede the query start by at most the
        // part of the object lying *after* the key, and follow the query end
        // by the part lying *before* it.
        for k in 0..D {
            let (low, high) = match self.cfg.assign_by {
                AssignBy::Lower => (ext[k], 0.0),
                AssignBy::Center => (ext[k] * 0.5, ext[k] * 0.5),
                AssignBy::Upper => (0.0, ext[k]),
            };
            self.ext_low[k] = low;
            self.ext_high[k] = high;
        }
        let root = Slice::root(self.data.len(), bounds, self.env.tau[0]);
        self.root.push(root);
    }

    /// The per-level τ thresholds in effect (Eq. 1 schedule).
    pub fn tau_levels(&self) -> [usize; D] {
        self.env.tau
    }

    /// Work counters accumulated so far, [`read`](Self::read)s included.
    pub fn stats(&self) -> QuasiiStats {
        let [queries, objects_tested] = self.reads.snapshot();
        let mut stats = self.rt.stats;
        stats.queries += queries;
        stats.objects_tested += objects_tested;
        stats
    }

    /// Total number of slices currently in the hierarchy.
    pub fn slice_count(&self) -> usize {
        self.root.iter().map(Slice::count).sum()
    }

    /// Completes the incremental build: refines every slice down to τ, as if
    /// every region had been queried. Equivalent to (and implemented as) one
    /// whole-universe query — after `finalize`, queries perform no further
    /// reorganization and the structure is the STR-style partitioning the
    /// paper's incremental process converges to.
    pub fn finalize(&mut self) {
        self.ensure_init();
        if self.data.is_empty() {
            return;
        }
        let everything = self.data_bounds;
        let mut sink = Vec::with_capacity(self.data.len());
        // Count as internal work, not as a user query: the query may have
        // been booked as a read, so fold the read cells in before restoring.
        let queries = self.stats().queries;
        self.query(&everything, &mut sink);
        self.rt.stats = QuasiiStats {
            queries,
            ..self.stats()
        };
        self.reads.reset();
        debug_assert_eq!(sink.len(), self.data.len());
    }

    /// Number of slices per level — shows how breadth grows while depth
    /// stays fixed at `D` (§5.1: "the number of levels … does not depend on
    /// the size of the dataset").
    pub fn level_profile(&self) -> [usize; D] {
        fn walk<const D: usize>(slices: &[Slice<D>], acc: &mut [usize; D]) {
            for s in slices {
                acc[s.level] += 1;
                walk(&s.children, acc);
            }
        }
        let mut acc = [0usize; D];
        walk(&self.root, &mut acc);
        acc
    }

    /// Read access to the (physically reorganized) data array.
    pub fn data(&self) -> &[Record<D>] {
        &self.data
    }

    /// Checks every structural invariant of the slice hierarchy; returns a
    /// description of the first violation, if any. Used heavily by tests.
    pub fn validate(&self) -> Result<(), String> {
        validate::validate(self)
    }

    // -----------------------------------------------------------------
    // Panic isolation & repair (see `batch` for where poison is set).
    // -----------------------------------------------------------------

    /// Whether a worker panic has poisoned this engine (see
    /// [`EnginePoisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The structured poison error, if any.
    pub(crate) fn poison_error(&self) -> Option<EnginePoisoned> {
        self.poisoned
            .clone()
            .map(|detail| EnginePoisoned { detail })
    }

    /// Marks the engine poisoned (internal — called when a batch worker
    /// panic is caught).
    pub(crate) fn poison(&mut self, detail: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(detail);
        }
    }

    /// Recovers a poisoned engine. If every structural invariant still
    /// holds, the panic struck before any
    /// reorganization went inconsistent: the poison marker is cleared and
    /// all adaptive state survives ([`RepairOutcome::Revalidated`]).
    /// Otherwise the engine is **rebuilt from its record multiset**
    /// ([`RepairOutcome::Rebuilt`]) — cracks only permute records in
    /// place, so the data itself survives any mid-crack panic, and a
    /// cracking engine re-grows its index from raw data by design; crack
    /// progress and work counters are discarded.
    pub fn repair(&mut self) -> RepairOutcome {
        if self.poisoned.is_none() {
            return RepairOutcome::Clean;
        }
        // `validate` walks whatever state the panic left behind; treat a
        // panic inside it as just another invariant violation.
        let intact = self.initialized
            && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.validate().is_ok()))
                .unwrap_or(false);
        if intact {
            self.poisoned = None;
            return RepairOutcome::Revalidated;
        }
        let data = std::mem::take(&mut self.data);
        let cfg = self.cfg.clone();
        *self = Quasii::new(data, cfg);
        RepairOutcome::Rebuilt
    }

    /// Fault-injection seam for the recovery test suite: the next write
    /// ([`try_execute_batch`](Self::try_execute_batch) or one of its
    /// wrappers, `SpatialIndex::query` included) panics on the worker that
    /// picks up query `query_index`, exercising the `catch_unwind` →
    /// poison → [`repair`](Self::repair) path deterministically.
    #[doc(hidden)]
    pub fn inject_panic_at(&mut self, query_index: usize) {
        self.panic_trap = Some(query_index);
    }

    // -----------------------------------------------------------------
    // Sealed read path (see the `seal` module for the representation).
    // -----------------------------------------------------------------

    /// Compacts every converged top-level slice into a sealed arena (a
    /// no-op for slices already sealed or not yet converged, and with
    /// [`QuasiiConfig::seal`] disabled). Runs automatically at the start of
    /// every query and batch; calling it explicitly after a warm-up (or
    /// [`finalize`](Self::finalize)) moves the sealing cost out of the next
    /// query's latency. Initializes a fresh index first.
    pub fn seal(&mut self) {
        self.ensure_init();
        self.try_seal();
    }

    /// Seal lifecycle counters (regions sealed, queries served fully
    /// sealed). Unlike [`stats`](Self::stats) these depend on batching
    /// shape — see [`SealStats`].
    pub fn seal_stats(&self) -> SealStats {
        SealStats::from_group(&self.seal_stats)
    }

    /// Records currently covered by sealed regions.
    pub fn sealed_records(&self) -> usize {
        self.sealed_record_count
    }

    /// Fraction of the dataset answered through the sealed read path
    /// (`0.0` for an empty dataset).
    pub fn sealed_fraction(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sealed_records() as f64 / self.data.len() as f64
        }
    }

    /// Heap bytes held by the sealed arenas.
    pub fn seal_bytes(&self) -> usize {
        self.seals.capacity() * std::mem::size_of::<SealedRegion<D>>()
            + self
                .seals
                .iter()
                .map(SealedRegion::heap_bytes)
                .sum::<usize>()
    }

    /// Sweeps the root list and seals newly converged top-level slices.
    /// Skipped outright when the structure fingerprint is unchanged since
    /// the last sweep, so the converged steady state pays one integer
    /// compare per call.
    pub(crate) fn try_seal(&mut self) {
        if !self.cfg.seal || self.data.is_empty() {
            return;
        }
        let stamp = self.rt.stats.slices_created + self.rt.stats.slices_refined;
        if self.seal_stamp == stamp {
            return;
        }
        self.seal_stamp = stamp;
        let span = obs::start();
        let seals_before = self.seal_stats.get(SealStats::SEALS);
        let mut kept = std::mem::take(&mut self.seals).into_iter().peekable();
        let mut out: Vec<SealedRegion<D>> = Vec::new();
        for s in &self.root {
            // A sealed root slice has converged, so no query splits it: its
            // seal is kept as it is, and the two sorted lists advance in
            // lockstep.
            if let Some(region) = kept.next_if(|r| r.begin == s.begin) {
                debug_assert_eq!(region.end, s.end, "a sealed root slice changed its range");
                out.push(region);
                continue;
            }
            // Only slices inside a dirty span can have changed convergence
            // state since the last sweep; everything else stays skipped
            // without walking its subtree.
            let dirty = self.seal_dirty_all
                || self
                    .seal_dirty
                    .iter()
                    .any(|&(lo, hi)| s.begin < hi && s.end > lo);
            if !dirty {
                continue;
            }
            if let Some(region) = SealedRegion::build(s, &self.data) {
                self.seal_stats.inc(SealStats::SEALS);
                out.push(region);
            }
        }
        debug_assert!(kept.next().is_none(), "a seal matches no root slice");
        self.seal_dirty.clear();
        self.seal_dirty_all = false;
        self.sealed_record_count = out.iter().map(SealedRegion::records).sum();
        self.seals = out;
        let swept = self.seal_stats.get(SealStats::SEALS) - seals_before;
        if obs::enabled() {
            obs::registry::SEAL_SWEEPS_TOTAL.inc();
            obs::registry::SEALS_TOTAL.add(swept);
            obs::registry::SEAL_SWEEP_SECONDS.observe_since(span);
        }
    }

    /// Records the root-slice window a crack-path query is about to visit:
    /// the only slices it can reorganize, and so newly converge (see the
    /// `seal_dirty` field).
    pub(crate) fn mark_seal_dirty(&mut self, window: Range<usize>) {
        const CAP: usize = 8;
        if self.seal_dirty_all || window.is_empty() {
            return;
        }
        let lo = self.root[window.start].begin;
        let hi = self.root[window.end - 1].end;
        if self.seal_dirty.len() >= CAP {
            let cover = self
                .seal_dirty
                .drain(..)
                .fold((lo, hi), |(alo, ahi), (blo, bhi)| {
                    (alo.min(blo), ahi.max(bhi))
                });
            self.seal_dirty.push(cover);
        } else {
            self.seal_dirty.push((lo, hi));
        }
    }

    /// The one place an extended query is decided sealed or crack, over
    /// the root-slice candidate window `query_level` would iterate: the
    /// §5.2 partition-point probe with the "step one back" rule, up to the
    /// first slice whose minimum key exceeds the extended upper bound. `Ok`
    /// carries that window when every candidate is sealed
    /// ([`read`](Self::read) answers it over `&self`); `Err` carries the
    /// window the crack path will visit, the one to
    /// [`mark_seal_dirty`](Self::mark_seal_dirty), and is empty with
    /// sealing off or no root list yet. In the fully converged steady state
    /// the decision is one integer compare.
    pub(crate) fn sealed_window(&self, qe: &Aabb<D>) -> Result<Range<usize>, Range<usize>> {
        if !self.cfg.seal || self.root.is_empty() {
            return Err(0..0);
        }
        let start = self
            .root
            .partition_point(|s| s.key_lo < qe.lo[0])
            .saturating_sub(1);
        let end = start + self.root[start..].partition_point(|s| s.key_lo <= qe.hi[0]);
        let cand = start..end;
        let sealed = self.sealed_record_count == self.data.len()
            || cand.clone().all(|i| {
                let begin = self.root[i].begin;
                self.seals.binary_search_by_key(&begin, |r| r.begin).is_ok()
            });
        if sealed {
            Ok(cand)
        } else {
            Err(cand)
        }
    }

    /// Whether [`read`](Self::read) would answer `q`: the same test it
    /// makes, booking nothing. A caller that must read several engines all
    /// or none (`ShardedQuasii::read`) asks each one first.
    pub fn can_read(&self, q: &Aabb<D>) -> bool {
        self.poisoned.is_none() && self.sealed_window(&self.extend_query(q)).is_ok()
    }

    /// The `&self` read seam: answers `q` when every root-slice candidate
    /// of its extended window is sealed, appending its ids to `out` exactly
    /// as [`SpatialIndex::query`] would and booking the work (`queries`,
    /// `objects_tested`, `sealed_queries`, the registry counters) as atomic
    /// sums, so any number of threads may read one engine at once. Returns
    /// `false` with nothing appended and nothing booked when the query
    /// needs the writer ([`try_execute_batch`](Self::try_execute_batch)): a
    /// candidate not sealed yet, sealing off, a fresh or a poisoned engine.
    /// A read does not sweep for new seals; the next write does.
    #[must_use]
    pub fn read(&self, q: &Aabb<D>, out: &mut Vec<u64>) -> bool {
        if self.poisoned.is_some() {
            return false;
        }
        let qe = self.extend_query(q);
        let Ok(cand) = self.sealed_window(&qe) else {
            return false;
        };
        // Reproduces `query_level`'s root-level loop (bounding-box skip
        // included) and descends through the arenas. Seals are sorted by
        // range like the root list, so one binary search positions a cursor
        // that then advances in lockstep with the ascending candidates.
        let mut tested = 0;
        let first_begin = self.root[cand.start].begin;
        let mut cursor = self.seals.partition_point(|r| r.begin < first_begin);
        for s in &self.root[cand] {
            while self.seals[cursor].begin < s.begin {
                cursor += 1;
            }
            let region = &self.seals[cursor];
            debug_assert_eq!((region.begin, region.end), (s.begin, s.end));
            if !q.intersects(&s.bbox) {
                continue;
            }
            if q.contains(&s.bbox) {
                // The whole region qualifies: one contiguous id copy (see
                // `SealedRegion::walk` for why this equals the full
                // descent's output and tested count).
                tested += region.emit_all(out);
            } else {
                tested += region.run(q, &qe, out, self.env.simd);
            }
        }
        self.reads.merge(&[1, tested]);
        self.seal_stats.inc(SealStats::SEALED_QUERIES);
        if obs::enabled() {
            obs::registry::QUERIES_TOTAL.inc();
            obs::registry::SEALED_QUERIES_TOTAL.inc();
        }
        true
    }

    /// Query extension (§5.2): reorganization must consider the query grown
    /// by the maximum object extent in the direction opposite the
    /// assignment coordinate, so that every qualifying object's key falls
    /// inside the extended range.
    pub(crate) fn extend_query(&self, query: &Aabb<D>) -> Aabb<D> {
        let mut qe = *query;
        for k in 0..D {
            qe.lo[k] -= self.ext_low[k];
            qe.hi[k] += self.ext_high[k];
        }
        qe
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(
        &self,
    ) -> (&[Record<D>], &KeyColumn, &[Slice<D>], &[usize; D], AssignBy) {
        (
            &self.data,
            &self.keys,
            &self.root,
            &self.env.tau,
            self.cfg.assign_by,
        )
    }

    /// Read access to the sealed regions (validation and tests).
    pub(crate) fn seal_regions(&self) -> &[SealedRegion<D>] {
        &self.seals
    }

    // -----------------------------------------------------------------
    // Snapshots (see the `persist` module for the format).
    // -----------------------------------------------------------------

    /// Serializes the whole engine — record permutation, key columns,
    /// slice-tree skeleton, every sealed arena, and all deterministic state
    /// — into one versioned, checksummed, 8-aligned buffer. Initializes and
    /// sweeps first, so the snapshot captures the post-sweep state; the
    /// reloaded engine ([`from_snapshot`](Self::from_snapshot)) answers
    /// every query **byte-identically** (ids, stats, permutation) to this
    /// one. Fails only on big-endian hosts (the format is little-endian).
    pub fn write_snapshot(&mut self) -> Result<Vec<u8>, snapshot::SnapshotError> {
        persist::write(self)
    }

    /// Revives an engine from a [`write_snapshot`](Self::write_snapshot)
    /// buffer. Sealed columns are **zero-copy**: every region borrows the
    /// one (aligned copy of the) snapshot buffer, no per-column allocation.
    /// Total over malformed input — wrong magic, truncation, checksum
    /// mismatch, wrong version or dimensionality, inconsistent structure —
    /// all return `Err`, never panic.
    pub fn from_snapshot(bytes: Vec<u8>) -> Result<Self, snapshot::SnapshotError> {
        persist::load(bytes)
    }
}

impl<const D: usize> SpatialIndex<D> for Quasii<D> {
    fn name(&self) -> &'static str {
        "QUASII"
    }

    /// A one-query batch that answers into `out`: a poisoned engine panics
    /// with the structured message, never a silently wrong answer.
    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        let slot = std::slice::from_mut(out);
        if let Err(e) = self.try_execute_into(std::slice::from_ref(query), slot) {
            panic!("{e}");
        }
    }

    fn query_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        self.execute_batch(queries)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn index_bytes(&self) -> usize {
        self.root.capacity() * std::mem::size_of::<Slice<D>>()
            + self.root.iter().map(Slice::heap_bytes).sum::<usize>()
            + self.keys.heap_bytes()
            + self.seal_bytes()
    }

    fn seal(&mut self) {
        Quasii::seal(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::index::assert_matches_brute_force;
    use quasii_common::workload;

    /// Histogram of bottom-level slice sizes in power-of-two buckets
    /// (`bucket i` counts slices with `2^i <= len < 2^(i+1)`; bucket 0 also
    /// takes singletons).
    fn leaf_size_histogram<const D: usize>(slices: &[Slice<D>], hist: &mut Vec<usize>) {
        for s in slices {
            if s.level + 1 == D && s.children.is_empty() {
                let bucket = usize::BITS as usize - 1 - s.len().leading_zeros() as usize;
                if hist.len() <= bucket {
                    hist.resize(bucket + 1, 0);
                }
                hist[bucket] += 1;
            } else {
                leaf_size_histogram(&s.children, hist);
            }
        }
    }

    fn check_queries<const D: usize>(data: Vec<Record<D>>, queries: &[Aabb<D>], tau: usize) {
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(tau));
        for q in queries {
            let got = idx.query_collect(q);
            assert_matches_brute_force(&data, q, &got);
            idx.validate().expect("invariants hold after every query");
        }
    }

    #[test]
    fn paper_example_2d_shape() {
        // Mirrors Fig. 4: small 2-d dataset with two overlapping range
        // queries, exercising both levels of the hierarchy.
        let data = uniform_boxes_in::<2>(10, 10.0, 3);
        let q1 = Aabb::new([2.0, 4.0], [4.0, 6.0]);
        let q2 = Aabb::new([4.5, 1.0], [7.0, 4.0]);
        check_queries(data, &[q1, q2], 2);
    }

    #[test]
    fn correct_on_uniform_3d() {
        let data = uniform_boxes_in::<3>(3_000, 1_000.0, 7);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let w = workload::uniform(&u, 40, 1e-3, 11);
        check_queries(data, &w.queries, 8);
    }

    #[test]
    fn correct_on_clustered_queries() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 13);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let w = workload::clustered(&u, 4, 15, 1e-3, 17);
        check_queries(data, &w.queries, 16);
    }

    #[test]
    fn repeated_identical_queries_stay_correct() {
        let data = uniform_boxes_in::<3>(1_500, 500.0, 19);
        let q = Aabb::new([100.0; 3], [200.0; 3]);
        let mut idx = Quasii::with_default_config(data.clone());
        let mut first = idx.query_collect(&q);
        first.sort_unstable();
        for _ in 0..5 {
            let mut again = idx.query_collect(&q);
            again.sort_unstable();
            assert_eq!(again, first);
        }
        assert_matches_brute_force(&data, &q, &first);
    }

    #[test]
    fn whole_universe_query_returns_everything() {
        let data = uniform_boxes_in::<2>(800, 100.0, 23);
        let mut idx = Quasii::with_default_config(data.clone());
        let all = idx.query_collect(&Aabb::new([-1.0; 2], [101.0; 2]));
        assert_eq!(all.len(), data.len());
        idx.validate().unwrap();
    }

    #[test]
    fn disjoint_query_returns_nothing_and_does_no_harm() {
        let data = uniform_boxes_in::<2>(500, 100.0, 29);
        let mut idx = Quasii::with_default_config(data.clone());
        let far = Aabb::new([500.0; 2], [600.0; 2]);
        assert!(idx.query_collect(&far).is_empty());
        let q = Aabb::new([10.0; 2], [30.0; 2]);
        assert_matches_brute_force(&data, &q, &idx.query_collect(&q));
    }

    #[test]
    fn empty_dataset() {
        let mut idx = Quasii::<3>::with_default_config(Vec::new());
        assert!(idx.is_empty());
        assert!(idx.query_collect(&Aabb::new([0.0; 3], [1.0; 3])).is_empty());
        idx.validate().unwrap();
    }

    #[test]
    fn identical_boxes_hit_forced_refinement_guard() {
        let data = degenerate::identical::<2>(1_000);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(10));
        let q = Aabb::new([5.5; 2], [5.8; 2]);
        let got = idx.query_collect(&q);
        assert_matches_brute_force(&data, &q, &got);
        assert_eq!(got.len(), 1_000);
        assert!(
            idx.stats().forced_refinements > 0,
            "identical keys must trigger the degenerate-distribution guard"
        );
        idx.validate().unwrap();
    }

    #[test]
    fn shared_lower_coordinates_are_handled() {
        let data = degenerate::shared_lower::<2>(600);
        check_queries(
            data,
            &[
                Aabb::new([0.5; 2], [3.0; 2]),
                Aabb::new([0.0; 2], [700.0; 2]),
            ],
            8,
        );
    }

    #[test]
    fn point_objects_work() {
        let data = degenerate::diagonal_points::<3>(400);
        check_queries(
            data,
            &[
                Aabb::new([10.0; 3], [20.0; 3]),
                Aabb::new([399.0; 3], [1_000.0; 3]),
                Aabb::point([42.0; 3]),
            ],
            10,
        );
    }

    #[test]
    fn refinement_progresses_and_then_stops() {
        let data = uniform_boxes_in::<3>(5_000, 1_000.0, 31);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(30));
        let q = Aabb::new([200.0; 3], [400.0; 3]);
        idx.query_collect(&q);
        let after_first = idx.stats();
        assert!(after_first.did_work());
        // Re-running the same query must not crack anything new.
        idx.query_collect(&q);
        let after_second = idx.stats();
        assert_eq!(after_first.cracks, after_second.cracks);
        assert_eq!(after_first.slices_created, after_second.slices_created);
    }

    #[test]
    fn stats_and_introspection() {
        let data = uniform_boxes_in::<3>(2_000, 1_000.0, 37);
        let mut idx = Quasii::with_default_config(data);
        assert_eq!(idx.slice_count(), 0, "lazy: nothing before first query");
        idx.query_collect(&Aabb::new([0.0; 3], [100.0; 3]));
        assert!(idx.slice_count() > 1);
        assert!(idx.index_bytes() > 0);
        assert_eq!(idx.stats().queries, 1);
        assert_eq!(idx.name(), "QUASII");
        let tau = idx.tau_levels();
        assert_eq!(tau[2], 60);
        assert!(tau[0] >= tau[1] && tau[1] >= tau[2]);
        assert_eq!(idx.cfg.tau, 60);
    }

    #[test]
    fn finalize_fully_refines_and_freezes_the_structure() {
        let data = uniform_boxes_in::<3>(8_000, 1_000.0, 51);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(32));
        idx.finalize();
        idx.validate().unwrap();
        assert_eq!(idx.stats().queries, 0, "finalize is not a user query");
        let cracks = idx.stats().cracks;
        assert!(cracks > 0);
        // Every subsequent query runs on the converged structure.
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        for q in &workload::uniform(&u, 30, 1e-3, 52).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        assert_eq!(
            idx.stats().cracks,
            cracks,
            "no reorganization after finalize"
        );

        // The hierarchy has exactly D levels of slices and τ-bounded leaves.
        let profile = idx.level_profile();
        assert!(profile.iter().all(|&c| c > 0), "{profile:?}");
        let mut hist = Vec::new();
        leaf_size_histogram(&idx.root, &mut hist);
        assert!(!hist.is_empty());
        // No bottom slice above τ = 32 (bucket 6 would be 64..127).
        assert!(hist.len() <= 6, "leaf sizes exceed τ: {hist:?}");
    }

    #[test]
    fn finalize_on_empty_and_tiny_datasets() {
        let mut idx = Quasii::<2>::with_default_config(Vec::new());
        idx.finalize();
        idx.validate().unwrap();

        let data = uniform_boxes_in::<2>(5, 10.0, 53);
        let mut idx = Quasii::with_default_config(data.clone());
        idx.finalize();
        idx.validate().unwrap();
        let all = idx.query_collect(&Aabb::new([-1.0; 2], [11.0; 2]));
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn all_assignment_modes_are_correct() {
        // Paper footnote 1: lower, center and upper assignment are all
        // valid; each needs its own query-extension direction.
        let data = uniform_boxes_in::<3>(2_500, 1_000.0, 47);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 25, 1e-3, 48).queries;
        for mode in [AssignBy::Lower, AssignBy::Center, AssignBy::Upper] {
            let mut cfg = QuasiiConfig::with_assignment(mode);
            cfg.tau = 16;
            let mut idx = Quasii::new(data.clone(), cfg);
            for q in &queries {
                let got = idx.query_collect(q);
                assert_matches_brute_force(&data, q, &got);
                idx.validate().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            }
        }
    }

    #[test]
    fn center_assignment_handles_straddling_objects() {
        // An object whose center is far left of the query but whose body
        // reaches in must be found under Center assignment.
        let mut data = uniform_boxes_in::<2>(400, 1_000.0, 49);
        data.push(Record::new(400, Aabb::new([0.0, 0.0], [900.0, 5.0])));
        let mut idx = Quasii::new(
            data.clone(),
            QuasiiConfig::with_assignment(AssignBy::Center),
        );
        let q = Aabb::new([880.0, 0.0], [890.0, 4.0]);
        let got = idx.query_collect(&q);
        assert!(got.contains(&400));
        assert_matches_brute_force(&data, &q, &got);
    }

    #[test]
    fn cracking_preserves_the_record_multiset() {
        let data = uniform_boxes_in::<2>(300, 100.0, 41);
        let mut ids: Vec<u64> = data.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let mut idx = Quasii::with_default_config(data);
        idx.query_collect(&Aabb::new([20.0; 2], [50.0; 2]));
        let mut got: Vec<u64> = idx.data().iter().map(|r| r.id).collect();
        got.sort_unstable();
        assert_eq!(ids, got, "cracking must permute, never lose records");
    }
}
