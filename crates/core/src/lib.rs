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

use engine::{Env, Lanes, Runtime};
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_obs as obs;
use seal::SealedRegion;
use slice::Slice;
use std::fmt;
use std::ops::Range;

/// Records the first query transposes into lanes between two frees of the
/// caller's rows (3.5 MiB of `Record<3>`): not a tuning knob.
const INIT_BLOCK: usize = 1 << 16;

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
    /// The record count, fixed for the engine's life.
    n: usize,
    /// The caller's records, as [`new`](Self::new) received them, until
    /// first-query initialization transposes them into `data`; empty after.
    input: Vec<Record<D>>,
    /// The records in their cracked permutation, as lanes in the sealed
    /// arena's layout (an id lane, and per dimension a `lo` lane and a
    /// negated-`hi` lane; see [`engine::Lanes`]): `n` of them from
    /// first-query initialization on while some record is unsealed, none
    /// once every record is. The write that seals the last root slice drops
    /// them, and a load of a part that stores no rows allocates none: the
    /// arenas are then the one copy of every record
    /// ([`records`](Self::records)).
    data: Lanes<D>,
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
    /// Queries answered over `&self` ([`SealStats::sealed_queries`]): an
    /// atomic sum, so concurrent readers book through `&self`.
    sealed_queries: obs::CounterGroup<1>,
    /// The work of [`read`](Self::read), `[queries, objects tested]`: atomic
    /// sums, so concurrent readers book through `&self`. [`stats`](Self::stats)
    /// adds them to `rt.stats`; a snapshot writes the sum and a load starts
    /// them at 0.
    reads: obs::CounterGroup<2>,
    /// Cached sum of the sealed root slices' lengths, written by
    /// [`seal_converged`](Self::seal_converged) only (`validate()` checks
    /// it): the fully-sealed steady state is detected with one integer
    /// compare per query.
    sealed_record_count: usize,
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
            n: data.len(),
            input: data,
            data: Lanes::new(),
            root: Vec::new(),
            env: Env {
                tau,
                mode: cfg.assign_by,
                simd,
            },
            rt: Runtime::new(),
            cfg,
            ext_low: [0.0; D],
            ext_high: [0.0; D],
            data_bounds: Aabb::empty(),
            initialized: false,
            sealed_queries: obs::CounterGroup::new(),
            reads: obs::CounterGroup::new(),
            sealed_record_count: 0,
            poisoned: None,
            panic_trap: None,
        }
    }

    /// Same as [`Quasii::new`] with the default configuration (τ = 60).
    pub fn with_default_config(data: Vec<Record<D>>) -> Self {
        Self::new(data, QuasiiConfig::default())
    }

    /// First-query initialization: one pass computing the dataset MBB and
    /// the per-dimension maximum object extent (needed for query extension)
    /// that transposes the caller's records into lanes, freeing their
    /// vector as it goes; then the initial whole-dataset slice `s0`, sealed
    /// at once if it has already converged.
    fn ensure_init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        if self.n == 0 {
            return;
        }
        let mut bounds = Aabb::empty();
        let mut ext = [0.0; D];
        let mut lanes = Lanes::zeroed(self.n);
        let mut all = lanes.segment_mut(0..self.n);
        // Back to front, a block at a time, each block's rows freed once
        // its lanes hold them (glibc shrinks a block in place, and unmaps a
        // mapping's tail), so the rows and the lanes are never both whole.
        // A tie goes to the earlier record (`<=`, `>=`), as it does in a
        // front-to-back `Aabb::expand` fold: the bounds keep its ±0.
        let mut input = std::mem::take(&mut self.input);
        while !input.is_empty() {
            let from = input.len().saturating_sub(INIT_BLOCK);
            for (j, r) in input[from..].iter().enumerate().rev() {
                for k in 0..D {
                    if r.mbb.lo[k] <= bounds.lo[k] {
                        bounds.lo[k] = r.mbb.lo[k];
                    }
                    if r.mbb.hi[k] >= bounds.hi[k] {
                        bounds.hi[k] = r.mbb.hi[k];
                    }
                    let e = r.mbb.hi[k] - r.mbb.lo[k];
                    if e > ext[k] {
                        ext[k] = e;
                    }
                }
                all.set(from + j, r);
            }
            input.truncate(from);
            input.shrink_to_fit();
        }
        self.data = lanes;
        self.data_bounds = bounds;
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
        let root = Slice::root(self.n, bounds, self.env.tau[0]);
        self.root.push(root);
        self.seal_converged(0..self.n);
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

    /// Total number of slices currently in the hierarchy, the nodes of
    /// every sealed slice's arena included.
    pub fn slice_count(&self) -> usize {
        self.level_profile().iter().sum()
    }

    /// Completes the incremental build: refines every slice down to τ, as if
    /// every region had been queried. Equivalent to (and implemented as) one
    /// whole-universe query — after `finalize`, queries perform no further
    /// reorganization and the structure is the STR-style partitioning the
    /// paper's incremental process converges to.
    pub fn finalize(&mut self) {
        self.ensure_init();
        if self.n == 0 {
            return;
        }
        let everything = self.data_bounds;
        let mut sink = Vec::with_capacity(self.n);
        // Count as internal work, not as a user query: the query may have
        // been booked as a read, so fold the read cells in before restoring.
        let queries = self.stats().queries;
        self.query(&everything, &mut sink);
        self.rt.stats = QuasiiStats {
            queries,
            ..self.stats()
        };
        self.reads.reset();
        debug_assert_eq!(sink.len(), self.n);
    }

    /// Number of slices per level — shows how breadth grows while depth
    /// stays fixed at `D` (§5.1: "the number of levels … does not depend on
    /// the size of the dataset"). A sealed slice's arena nodes count at
    /// their levels.
    pub fn level_profile(&self) -> [usize; D] {
        fn walk<const D: usize>(slices: &[Slice<D>], acc: &mut [usize; D]) {
            for s in slices {
                acc[s.dim()] += 1;
                if let Some(region) = &s.sealed {
                    for (l, n) in region.level_sizes().enumerate() {
                        acc[s.dim() + 1 + l] += n;
                    }
                }
                walk(&s.children, acc);
            }
        }
        let mut acc = [0usize; D];
        walk(&self.root, &mut acc);
        acc
    }

    /// Every record in the engine's (physically reorganized) permutation,
    /// in data-array order, gathered from the live lanes while some record
    /// is unsealed and from the arenas once none is (the caller's records
    /// as given before the first query). A copy, since the engine keeps no
    /// `Record` rows.
    pub fn records(&self) -> Vec<Record<D>> {
        if !self.initialized {
            return self.input.clone();
        }
        let mut out = Vec::with_capacity(self.n);
        // While any live lane exists every record has one, those under
        // seals included, and each equals its arena's (`validate`'s
        // invariant 8).
        if self.data.len() == self.n {
            self.data.view().push_records(0..self.n, &mut out);
        } else {
            for region in self.arenas() {
                region.lanes().push_records(0..region.records(), &mut out);
            }
        }
        out
    }

    /// The bounding box of every record (empty for an empty dataset): the
    /// one first-query initialization stores (a snapshot keeps it), or a
    /// pass over the caller's records before then.
    pub fn data_bounds(&self) -> Aabb<D> {
        if self.initialized {
            self.data_bounds
        } else {
            mbb_of(&self.input)
        }
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
    /// reorganization went inconsistent: the poison marker is cleared, all
    /// adaptive state survives, and whatever the failed batch converged
    /// before the panic is sealed ([`RepairOutcome::Revalidated`]).
    /// Otherwise the engine is **rebuilt from its record multiset**
    /// ([`RepairOutcome::Rebuilt`]) — cracks only permute records in
    /// place, so the data itself survives any mid-crack panic (a fully
    /// sealed engine takes its records from its arenas), and a cracking
    /// engine re-grows its index from raw data by design; crack progress
    /// and work counters are discarded.
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
            self.seal_converged(0..self.n);
            return RepairOutcome::Revalidated;
        }
        // Cracks only permute the lanes, so they still hold the multiset; a
        // fully sealed engine has none, and its arenas never change.
        let cfg = self.cfg.clone();
        *self = Quasii::new(self.records(), cfg);
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
    /// no-op for slices already sealed or not yet converged). Every write
    /// already seals what it converged before it returns, so on an
    /// initialized engine this finds nothing new; on a fresh one it
    /// initializes first, which is the one place it can matter.
    pub fn seal(&mut self) {
        self.ensure_init();
        self.seal_converged(0..self.n);
    }

    /// Seal lifecycle counters (regions sealed, queries served fully
    /// sealed). Unlike [`stats`](Self::stats), `sealed_queries` depends on
    /// batching shape — see [`SealStats`].
    pub fn seal_stats(&self) -> SealStats {
        let [sealed_queries] = self.sealed_queries.snapshot();
        SealStats {
            seals: self.arenas().count() as u64,
            unseals: 0,
            sealed_queries,
        }
    }

    /// Records currently covered by sealed regions.
    pub fn sealed_records(&self) -> usize {
        self.sealed_record_count
    }

    /// Fraction of the dataset answered through the sealed read path
    /// (`0.0` for an empty dataset).
    pub fn sealed_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sealed_records() as f64 / self.n as f64
        }
    }

    /// Heap bytes held by the sealed arenas.
    pub fn seal_bytes(&self) -> usize {
        self.arenas()
            .map(|r| std::mem::size_of::<SealedRegion<D>>() + r.heap_bytes())
            .sum()
    }

    /// The arenas of the sealed root slices, in data order (see [`seal`]).
    pub(crate) fn arenas(&self) -> impl Iterator<Item = &SealedRegion<D>> {
        self.root.iter().filter_map(|s| s.sealed.as_deref())
    }

    /// Seals every converged, not yet sealed root slice that overlaps the
    /// data span `span`: the slice takes its subtree's arena in place of
    /// its children. Every write calls it over the span its crack queries
    /// could reorganize, so between writes every converged root slice is
    /// sealed and [`read`](Self::read) sees it at once. A seal is
    /// permanent: its slice has converged, so no later query reorganizes
    /// it. The sweep that seals the last root slice drops the live lanes: a
    /// fully sealed engine reads only arenas and never cracks again.
    pub(crate) fn seal_converged(&mut self, span: Range<usize>) {
        if span.is_empty() {
            return;
        }
        let timer = obs::start();
        let mut sealed = 0;
        for s in &mut self.root {
            if s.sealed.is_some() || s.begin >= span.end || s.end <= span.start {
                continue;
            }
            if let Some(region) = SealedRegion::build(s, &self.data) {
                self.sealed_record_count += region.records();
                s.sealed = Some(Box::new(region));
                s.children = Vec::new();
                sealed += 1;
            }
        }
        if self.sealed_record_count == self.n {
            self.data = Lanes::new();
        }
        if obs::enabled() {
            obs::registry::SEAL_SWEEPS_TOTAL.inc();
            obs::registry::SEALS_TOTAL.add(sealed);
            obs::registry::SEAL_SWEEP_SECONDS.observe_since(timer);
        }
    }

    /// The one place a query is decided read or write. Over the root-slice
    /// candidate window `query_level` would iterate ([`engine::window`]),
    /// `Ok` carries that window when the query cracks nothing and creates
    /// nothing: every candidate is skipped by its bounding box or passes
    /// [`engine::cracks_nothing`] (a sealed one has converged, so it
    /// passes). [`read`](Self::read) then answers it over `&self`. `Err`
    /// carries the window the writer will visit, the only root slices it
    /// can reorganize and so newly converge; it is empty with no root list
    /// yet. In the fully sealed steady state the decision is one integer
    /// compare.
    pub(crate) fn readable_window(
        &self,
        q: &Aabb<D>,
        qe: &Aabb<D>,
    ) -> Result<Range<usize>, Range<usize>> {
        let cand = engine::window(&self.root, qe);
        if self.root.is_empty() {
            return Err(cand);
        }
        let readable = self.sealed_record_count == self.n
            || self.root[cand.clone()]
                .iter()
                .all(|s| !q.intersects(&s.bbox) || engine::cracks_nothing(s, q, qe));
        if readable {
            Ok(cand)
        } else {
            Err(cand)
        }
    }

    /// Whether [`read`](Self::read) would answer `q`: no slice on its path
    /// would be cracked or grow a default child. The same test `read`
    /// makes, booking nothing. A caller that must read several engines all
    /// or none (`ShardedQuasii::read`) asks each one first, then reads each
    /// through [`read_decided`](Self::read_decided).
    pub fn can_read(&self, q: &Aabb<D>) -> bool {
        self.poisoned.is_none() && self.readable_window(q, &self.extend_query(q)).is_ok()
    }

    /// The `&self` read seam: answers `q` when no slice on its path would
    /// be cracked or grow a default child ([`can_read`](Self::can_read)),
    /// appending its ids to `out` exactly as [`SpatialIndex::query`] would
    /// and booking the work (`queries`, `objects_tested`, `sealed_queries`,
    /// the registry counters) as atomic sums, so any number of threads may
    /// read one engine at once. A sealed root slice is read from its arena,
    /// any other from the live slice tree. Returns `false` with nothing
    /// appended and nothing booked when the query needs the writer
    /// ([`try_execute_batch`](Self::try_execute_batch)): a slice on its
    /// path still cracks, or the engine is fresh or poisoned.
    #[must_use]
    pub fn read(&self, q: &Aabb<D>, out: &mut Vec<u64>) -> bool {
        if self.poisoned.is_some() {
            return false;
        }
        let qe = self.extend_query(q);
        let Ok(cand) = self.readable_window(q, &qe) else {
            return false;
        };
        self.read_window(q, &qe, cand, out);
        true
    }

    /// [`read`](Self::read) for a caller that found [`can_read`](Self::can_read)
    /// true under the borrow it reads with, so the test is not made twice.
    /// Reading a query that cannot be read still appends exactly its ids,
    /// but in an order and with a tested count the writer would not
    /// produce; debug builds assert the test instead.
    pub fn read_decided(&self, q: &Aabb<D>, out: &mut Vec<u64>) {
        debug_assert!(
            self.can_read(q),
            "read_decided of a query that needs the writer"
        );
        let qe = self.extend_query(q);
        self.read_window(q, &qe, engine::window(&self.root, &qe), out);
    }

    /// The body of every `&self` read, over the root candidate window
    /// `cand` that [`readable_window`](Self::readable_window) approved.
    /// Reproduces `query_level`'s root-level loop (bounding-box skip
    /// included) and reads each visited root slice with
    /// [`engine::read_slice`]: from its arena when it is sealed, through
    /// the live tree otherwise.
    pub(crate) fn read_window(
        &self,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        cand: Range<usize>,
        out: &mut Vec<u64>,
    ) {
        let (mut tested, lanes) = (0, self.data.view());
        for s in &self.root[cand] {
            if q.intersects(&s.bbox) {
                tested += engine::read_slice(&lanes, s, q, qe, self.env.simd, out);
            }
        }
        self.reads.merge(&[1, tested]);
        self.sealed_queries.inc(0);
        if obs::enabled() {
            obs::registry::QUERIES_TOTAL.inc();
            obs::registry::SEALED_QUERIES_TOTAL.inc();
        }
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

    // -----------------------------------------------------------------
    // Snapshots (see the `persist` module for the format).
    // -----------------------------------------------------------------

    /// Serializes the whole engine — the lanes of the records outside the
    /// seals, the slice tree down to the sealed slices, each sealed
    /// slice's arena (the one copy of its subtree and its records), and all
    /// deterministic state — into one versioned, checksummed, 8-aligned
    /// buffer. Initializes a
    /// fresh engine first; the reloaded engine
    /// ([`from_snapshot`](Self::from_snapshot)) answers every query
    /// **byte-identically** (ids, stats, permutation) to this one. Fails
    /// only on big-endian hosts (the format is little-endian).
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
        self.n
    }

    fn index_bytes(&self) -> usize {
        self.root.capacity() * std::mem::size_of::<Slice<D>>()
            + self.root.iter().map(Slice::heap_bytes).sum::<usize>()
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
            if s.dim() + 1 == D && s.children.is_empty() {
                let bucket = usize::BITS as usize - 1 - s.len().leading_zeros() as usize;
                if hist.len() <= bucket {
                    hist.resize(bucket + 1, 0);
                }
                hist[bucket] += 1;
            } else if let Some(region) = &s.sealed {
                leaf_size_histogram(&region.slices(s.begin), hist);
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

    /// Initialization folds the records back to front, a block at a time;
    /// its bounds are still bit for bit the front-to-back fold's, signed
    /// zeros included, and its lanes are the records in order.
    #[test]
    fn init_transposes_blocks_and_keeps_the_forward_bounds() {
        let mut data = uniform_boxes_in::<2>(INIT_BLOCK + 700, 100.0, 3);
        // The earliest zero of each dimension has the other sign.
        for (i, z) in [(5, -0.0), (INIT_BLOCK + 9, 0.0), (INIT_BLOCK + 600, 0.0)] {
            data[i].mbb.lo = [z, -z];
        }
        let want = mbb_of(&data);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default());
        idx.ensure_init();
        let got = idx.data_bounds();
        assert_eq!(got.lo.map(f64::to_bits), want.lo.map(f64::to_bits));
        assert_eq!(got.hi.map(f64::to_bits), want.hi.map(f64::to_bits));
        assert!(got.lo[0].is_sign_negative() && got.lo[1].is_sign_positive());
        assert_eq!(idx.input.capacity(), 0);
        assert_eq!(idx.records(), data);
    }

    /// The write that seals the last root slice drops the live lanes, and so
    /// does a load of the part it writes: what is left is the root slices,
    /// each owning the arena of its subtree, and the permutation the arenas
    /// hold reads as the lanes of an unsealed tree did.
    #[test]
    fn a_fully_sealed_engine_keeps_no_live_lanes() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 57);
        let n = data.len();
        let live = seal::tests::unsealed(data.clone(), 16, None);
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(16));
        idx.seal();
        assert_eq!(idx.sealed_fraction(), 0.0);
        assert_eq!(idx.data.len(), n);
        assert!(idx.input.capacity() == 0, "init dropped the caller's rows");
        idx.finalize();
        assert_eq!(idx.sealed_fraction(), 1.0);
        assert_eq!(idx.data.heap_bytes(), 0, "the last seal freed the lanes");
        assert!(idx
            .root
            .iter()
            .all(|s| s.sealed.is_some() && s.children.is_empty()));
        let tree = idx.root.capacity() * std::mem::size_of::<Slice<3>>()
            + idx.root.iter().map(Slice::heap_bytes).sum::<usize>();
        assert_eq!(
            idx.index_bytes(),
            tree + idx.seal_bytes(),
            "the root slices and the arenas"
        );
        let rows = idx.records();
        assert_eq!(rows, live.records());
        assert_eq!(idx.slice_count(), live.slice_count());
        assert_eq!(idx.level_profile(), live.level_profile());
        idx.validate().unwrap();

        let mut re = Quasii::<3>::from_snapshot(idx.write_snapshot().unwrap()).unwrap();
        assert_eq!(
            re.data.heap_bytes(),
            0,
            "a part that stores no rows allocates none"
        );
        assert_eq!(re.len(), n);
        assert_eq!(re.data_bounds(), idx.data_bounds());
        assert_eq!(re.records(), rows);
        re.validate().unwrap();
        let q = Aabb::new([100.0; 3], [300.0; 3]);
        assert_eq!(re.query_collect(&q), seal::tests::read_live(&live, &q).0);
    }

    #[test]
    fn cracking_preserves_the_record_multiset() {
        let data = uniform_boxes_in::<2>(300, 100.0, 41);
        let mut ids: Vec<u64> = data.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let mut idx = Quasii::with_default_config(data);
        idx.query_collect(&Aabb::new([20.0; 2], [50.0; 2]));
        let mut got: Vec<u64> = idx.records().iter().map(|r| r.id).collect();
        got.sort_unstable();
        assert_eq!(ids, got, "cracking must permute, never lose records");
    }
}
