//! Batch-parallel query execution.
//!
//! [`Quasii::try_execute_batch`] is the engine's one `&mut` write: every
//! other entry point that may crack (`execute_batch`, `SpatialIndex::query`
//! as a one-query batch answering into the caller's buffer, `finalize`)
//! wraps it. It classifies every query once (`Quasii::sealed_window`, the
//! same call [`Quasii::read`] makes) and runs the batch in **two phases**:
//!
//! 1. **Shared-read phase** — queries whose whole §5.2 candidate window is
//!    covered by sealed arenas (see [`crate::seal`]) are pure reads: a pool
//!    map of [`Quasii::read`], one job per query over a shared `&self`,
//!    with *no* disjoint-partition constraint. In the converged regime this
//!    phase is the entire batch.
//! 2. **Crack phase** — everything else runs through the adaptive `&mut`
//!    machinery below. A sealed slice such a query reaches is read through
//!    the tree and stays sealed: it has converged, so nothing cracks it.
//!
//! The crack phase exploits exactly the structure the paper builds:
//! QUASII's top-level slice list contiguously partitions the data array, and
//! every crack a query triggers stays inside the top-level slice it refines
//! (`refine` only touches `data[s.begin..s.end]`). `execute_batch`
//! splits the data array
//! along top-level slice boundaries into disjoint `&mut [Record]` windows
//! (a `split_at_mut` chain — safe because sibling slices never share array
//! ranges), hands each worker the matching disjoint window of the
//! assignment-key column (see [`crate::keys`]; cracks keep both in
//! lockstep), assigns each query of the batch to the partitions the sequential
//! engine would visit for it, and runs one job per partition. Slices keep
//! their absolute data indices throughout: each window is an
//! [`engine::Cols`] that knows the absolute index of its first element, so
//! detaching and reattaching a partition moves its run of the top-level
//! list and touches no slice below it — a batch pays for the slices its
//! queries visit, not for the size of the hierarchy.
//!
//! Both phases hand their jobs to the process-wide worker pool
//! ([`quasii_common::pool`]): the calling thread claims jobs off an atomic
//! cursor, up to `threads − 1` idle pool workers join it, and every job
//! writes into its own slot. No thread is created per batch, and with
//! `threads = 1` the jobs run inline without touching the pool; so does a
//! crack phase down to its last query, which is not worth a partition.
//!
//! Splitting a batch into the two phases is result- and state-transparent:
//! sealed regions are immutable (a converged subtree never reorganizes), so
//! the reads commute with the cracks, and the sealed traversal reproduces
//! the engine's own visit order operation for operation.
//!
//! # Determinism
//!
//! Results are **bit-for-bit identical for every thread count**, including
//! the sequential `threads = 1` path, because:
//!
//! * a partition runs its assigned queries in ascending batch order — the
//!   same order the sequential loop applies them to those slices;
//! * the root-level search restricted to a partition visits exactly the
//!   slices the sequential extended binary search (§5.2) would visit there.
//!   The assignment predicate reproduces its "step one back" rule through
//!   the partitions' key boundaries (shared [`KeyFences`] machinery, also
//!   used by the `quasii-shard` router): partition `k` holds assignment
//!   keys in `[bounds[k], bounds[k+1])`, and those boundaries are stable
//!   for the whole batch — cracks only permute records within a partition,
//!   and the front sub-slice always keeps the minimum key;
//! * per-query hits are concatenated in partition order, which is ascending
//!   data-array order — the order the sequential loop appends them in;
//! * worker counters are folded back with order-independent sums.
//!
//! Every slice therefore sees the same sequence of refine/descend operations
//! it would see under sequential execution, so the final hierarchy, data
//! permutation, result vectors and stats are all independent of the thread
//! count *and* of how queries are split into batches.

use crate::engine;
use crate::fence::KeyFences;
use crate::slice::Slice;
use crate::stats::QuasiiStats;
use crate::{EnginePoisoned, Quasii};
use obs::finish_phase;
use quasii_common::geom::{Aabb, Record};
use quasii_common::pool::{self, panic_message};
use quasii_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The one-shot test trap: panics when the worker reaches the trapped
/// query index (see `Quasii::inject_panic_at`).
fn trap_check(trap: Option<usize>, j: usize) {
    if trap == Some(j) {
        panic!("injected worker panic at query {j} (test fault)");
    }
}

/// Job chunking: partitions per participating thread, so stragglers (a
/// partition that happens to hold the hot slices) rebalance onto idle
/// threads instead of serializing the batch.
const CHUNKS_PER_WORKER: usize = 4;

/// One unit of work: a contiguous run of top-level slices, the matching
/// disjoint window of the columns, and the batch queries that reach it.
struct Partition<'a, const D: usize> {
    /// This partition's disjoint window of the data array and of the
    /// assignment-key / upper-bound columns (kept in lockstep by the crack
    /// kernels), based at its first slice's `begin`.
    cols: engine::Cols<'a, D>,
    /// This partition's run of the top-level slice list, in absolute data
    /// indices like every other slice.
    slices: Vec<Slice<D>>,
    /// Indices (into the batch) of the queries assigned here, ascending.
    queries: Vec<usize>,
    /// Ids found per assigned query (aligned with `queries`).
    hits: Vec<Vec<u64>>,
    /// Work counters accumulated by whichever thread ran this partition.
    stats: QuasiiStats,
}

impl<const D: usize> Quasii<D> {
    /// The most threads a batch will run a phase on: the
    /// [`threads`](crate::QuasiiConfig::threads) knob, with `0` resolved to
    /// the host's parallelism (read once per process, see
    /// [`pool::parallelism`]).
    fn effective_threads(&self) -> usize {
        match self.cfg.threads {
            0 => pool::parallelism(),
            n => n,
        }
    }

    /// Executes a batch of range queries, cracking disjoint top-level
    /// partitions of the data array in parallel, and returns one id vector
    /// per query (in `queries` order).
    ///
    /// Results, the final hierarchy and the stats counters are bit-for-bit
    /// identical to running the queries one by one through
    /// [`SpatialIndex::query`], for every thread count (see the module
    /// documentation for why).
    ///
    /// # Panics
    ///
    /// A panic on a worker thread (a bug — the engine itself never panics
    /// on valid inputs) is caught under `catch_unwind`, the hierarchy is
    /// reassembled, the engine is **poisoned**, and this infallible entry
    /// point re-panics with the structured [`EnginePoisoned`] message.
    /// Callers that want to handle the fault (and
    /// [`repair`](Self::repair) the engine) should use
    /// [`try_execute_batch`](Self::try_execute_batch) instead.
    ///
    /// ```
    /// use quasii::{Quasii, QuasiiConfig};
    /// use quasii_common::geom::{Aabb, Record};
    ///
    /// let data: Vec<Record<2>> = (0..5_000)
    ///     .map(|i| {
    ///         let v = i as f64 / 10.0;
    ///         Record::new(i, Aabb::new([v; 2], [v + 2.0; 2]))
    ///     })
    ///     .collect();
    /// let mut index = Quasii::new(data, QuasiiConfig::default().with_threads(2));
    /// let batch = [
    ///     Aabb::new([10.0; 2], [30.0; 2]),
    ///     Aabb::new([200.0; 2], [220.0; 2]),
    /// ];
    /// let results = index.execute_batch(&batch);
    /// assert_eq!(results.len(), 2);
    /// assert!(!results[0].is_empty() && !results[1].is_empty());
    /// ```
    pub fn execute_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        match self.try_execute_batch(queries) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// The engine's one `&mut` write; [`execute_batch`](Self::execute_batch)
    /// and `SpatialIndex::query` (a one-query batch, through its slot form
    /// `try_execute_into`) wrap it. A worker panic (caught under
    /// `catch_unwind`) or an already-poisoned engine returns the structured
    /// [`EnginePoisoned`] error instead of panicking. On `Err` the engine
    /// stays poisoned — and keeps refusing queries — until
    /// [`repair`](Self::repair).
    pub fn try_execute_batch(
        &mut self,
        queries: &[Aabb<D>],
    ) -> Result<Vec<Vec<u64>>, EnginePoisoned> {
        let mut results = vec![Vec::new(); queries.len()];
        self.try_execute_into(queries, &mut results)?;
        Ok(results)
    }

    /// [`try_execute_batch`](Self::try_execute_batch) appending each
    /// query's ids to its slot of `results`, so a single query answers
    /// straight into the caller's buffer. On every return path it publishes
    /// the call's deterministic work-counter deltas into the global
    /// registry (a read books its own). The registry *mirrors* the
    /// engine-local counters — it never feeds back into them — so results,
    /// permutation and [`QuasiiStats`] are byte-identical with metrics on
    /// or off.
    pub(crate) fn try_execute_into(
        &mut self,
        queries: &[Aabb<D>],
        results: &mut [Vec<u64>],
    ) -> Result<(), EnginePoisoned> {
        let before = self.rt.stats;
        if obs::enabled() && !queries.is_empty() {
            obs::registry::BATCHES_TOTAL.inc();
        }
        let r = self.try_execute_into_inner(queries, results);
        if obs::enabled() {
            let now = &self.rt.stats;
            obs::registry::QUERIES_TOTAL.add(now.queries - before.queries);
            obs::registry::CRACKS_TOTAL.add(now.cracks - before.cracks);
            obs::registry::RECORDS_CRACKED_TOTAL.add(now.records_cracked - before.records_cracked);
        }
        r
    }

    /// The batch body.
    fn try_execute_into_inner(
        &mut self,
        queries: &[Aabb<D>],
        results: &mut [Vec<u64>],
    ) -> Result<(), EnginePoisoned> {
        if let Some(e) = self.poison_error() {
            return Err(e);
        }
        let trap = self.panic_trap.take();
        self.ensure_init();
        self.try_seal();
        if queries.is_empty() {
            return Ok(());
        }
        let threads = self.effective_threads();
        let extended: Vec<Aabb<D>> = queries.iter().map(|q| self.extend_query(q)).collect();

        // Classify each query (`sealed_window`): every candidate sealed →
        // the shared-read phase; anything else → the crack phase, its
        // window marked dirty for the next sweep. Classification is stable
        // across the whole batch because the sealed phase mutates nothing
        // and the crack phase runs after it (cracks only ever split
        // unconverged slices, so a sealed query's window can never gain an
        // unsealed candidate mid-batch).
        let span = obs::start();
        let mut sealed_jobs: Vec<usize> = Vec::new();
        let mut crack_jobs: Vec<usize> = Vec::new();
        for (j, qe) in extended.iter().enumerate() {
            match self.sealed_window(qe) {
                Ok(_) => sealed_jobs.push(j),
                Err(window) => {
                    self.mark_seal_dirty(window);
                    crack_jobs.push(j);
                }
            }
        }
        finish_phase(span, obs::Phase::Classify);

        // Phase 1 — a pool map of `read` over the sealed queries: arbitrary
        // queries as jobs over `&self`, no disjoint-partition constraint,
        // each appending to its own result slot (taken out for the phase).
        // Reads commute with the crack phase below: sealed regions are
        // immutable, and a crack query that reaches one only reads it.
        if !sealed_jobs.is_empty() {
            let span = obs::start();
            let mut slots: Vec<Vec<u64>> = sealed_jobs
                .iter()
                .map(|&j| std::mem::take(&mut results[j]))
                .collect();
            let this: &Quasii<D> = self;
            let failed = pool::for_each_mut(&mut slots, threads, |t, out| {
                let j = sealed_jobs[t];
                trap_check(trap, j);
                let answered = this.read(&queries[j], out);
                debug_assert!(answered, "query {j} was classified sealed");
            });
            for (&j, out) in sealed_jobs.iter().zip(slots) {
                results[j] = out;
            }
            finish_phase(span, obs::Phase::SealedRead);
            if let Err(p) = failed {
                // The sealed phase mutates nothing, so the structure is
                // intact — but the batch's results are incomplete, so the
                // engine still refuses to pretend it answered (repair()
                // will revalidate).
                self.poison(format!(
                    "worker panic during sealed batch phase: {}",
                    p.message
                ));
                return Err(self.poison_error().expect("poison just set"));
            }
        }
        if crack_jobs.is_empty() {
            return Ok(());
        }

        // Phase 2 — the adaptive `&mut` path for everything else.
        // Sequential prefix: the whole remainder with one worker; otherwise
        // only until the top level has cracked open far enough to split (a
        // fresh index starts as a single whole-dataset slice), and the last
        // remaining query inline too (partitioning would cost a detach and a
        // pool hop for one job; by the determinism invariant the result is
        // the same).
        let span = obs::start();
        let mut next = 0;
        while next < crack_jobs.len()
            && (threads <= 1 || self.root.len() < 2 || next + 1 == crack_jobs.len())
        {
            let j = crack_jobs[next];
            self.run_one_caught(j, trap, &queries[j], &extended[j], &mut results[j])?;
            next += 1;
        }
        if next < crack_jobs.len() {
            let jobs = &crack_jobs[next..];
            self.run_partitioned(queries, &extended, jobs, results, threads, trap);
        }
        finish_phase(span, obs::Phase::Crack);
        match self.poison_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs one crack-path query (Algorithm 1 over the whole slice tree,
    /// cracking as it goes; sealed slices it reaches are read through the
    /// tree and left unchanged) on the calling thread under `catch_unwind`;
    /// a panic poisons the engine and surfaces as `Err`.
    fn run_one_caught(
        &mut self,
        j: usize,
        trap: Option<usize>,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        out: &mut Vec<u64>,
    ) -> Result<(), EnginePoisoned> {
        let r = catch_unwind(AssertUnwindSafe(|| {
            trap_check(trap, j);
            self.rt.stats.queries += 1;
            let (keys, his) = self.keys.as_mut_slices();
            let mut cols = engine::Cols::new(&mut self.data, keys, his, 0);
            engine::query_level(
                &mut cols,
                &mut self.root,
                q,
                qe,
                &self.env,
                &mut self.rt,
                out,
            );
        }));
        if let Err(payload) = r {
            self.poison(format!(
                "panic during crack query {j}: {}",
                panic_message(payload)
            ));
            return Err(self.poison_error().expect("poison just set"));
        }
        Ok(())
    }

    /// Parallel remainder of a batch: answers `jobs` (ascending indices
    /// into the batch's `queries` / `extended`); requires
    /// `root.len() >= 2` and `threads >= 2`. A worker panic is caught, the
    /// partition (slices included) is returned to the pool so the
    /// hierarchy reassembles completely, and the engine is poisoned.
    fn run_partitioned(
        &mut self,
        queries: &[Aabb<D>],
        extended: &[Aabb<D>],
        jobs: &[usize],
        results: &mut [Vec<u64>],
        threads: usize,
        trap: Option<usize>,
    ) {
        // Group the top-level slices into contiguous runs of roughly equal
        // record counts. More runs than threads, so the job cursor balances load.
        let target_parts = (threads * CHUNKS_PER_WORKER).min(self.root.len());
        let per_part = self.data.len().div_ceil(target_parts).max(1);
        let roots = std::mem::take(&mut self.root);
        let mut groups: Vec<Vec<Slice<D>>> = Vec::with_capacity(target_parts);
        let mut cur: Vec<Slice<D>> = Vec::new();
        let mut cur_records = 0usize;
        for s in roots {
            cur_records += s.len();
            cur.push(s);
            if cur_records >= per_part && groups.len() + 1 < target_parts {
                groups.push(std::mem::take(&mut cur));
                cur_records = 0;
            }
        }
        if !cur.is_empty() {
            groups.push(cur);
        }

        // Key boundaries between partitions: partition k owns assignment
        // keys in [fences.range(k)). The inner fence before partition k is
        // the key_lo of its first slice, which make_sub measured exactly; it
        // stays the partition's true minimum for the whole batch because
        // cracks never move records across partitions and the front
        // sub-slice of any refinement keeps the minimum-key record.
        let fences = KeyFences::from_inner(groups[1..].iter().map(|g| g[0].key_lo).collect());

        // Detach the disjoint data windows (split_at_mut chain); the key
        // column is split along the exact same boundaries so each worker
        // cracks its (keys, data) pair in lockstep. The slices move as they
        // are: each window carries the absolute index it starts at.
        let mut parts: Vec<Partition<'_, D>> = Vec::with_capacity(groups.len());
        let mut rest: &mut [Record<D>] = &mut self.data;
        let (mut rest_keys, mut rest_his) = self.keys.as_mut_slices();
        let mut consumed = 0usize;
        for slices in groups {
            let begin = slices[0].begin;
            let end = slices.last().expect("groups are non-empty").end;
            debug_assert_eq!(begin, consumed, "top-level slices must be contiguous");
            let (window, tail) = rest.split_at_mut(end - consumed);
            let (key_window, key_tail) = rest_keys.split_at_mut(end - consumed);
            let (hi_window, hi_tail) = rest_his.split_at_mut(end - consumed);
            rest = tail;
            rest_keys = key_tail;
            rest_his = hi_tail;
            consumed = end;
            parts.push(Partition {
                cols: engine::Cols::new(window, key_window, hi_window, begin),
                slices,
                queries: Vec::new(),
                hits: Vec::new(),
                stats: QuasiiStats::default(),
            });
        }

        // Assign each query to exactly the partitions the sequential root
        // search would visit: the candidate range [qe.lo, qe.hi] on the
        // root dimension; `KeyFences::overlapping`'s closed lower edge
        // admits the partition holding the "step one back" slice.
        let spans = jobs.iter().map(|&j| (extended[j].lo[0], extended[j].hi[0]));
        for (p, assigned) in parts.iter_mut().zip(fences.assign(spans)) {
            p.queries = assigned.into_iter().map(|t| jobs[t]).collect();
        }

        // One pool job per partition. A panic mid-crack may leave that
        // partition's subtree inconsistent, but the partition object (and
        // its slices) stays in `parts`, so the hierarchy reassembles
        // completely and repair() can inspect it.
        let env = &self.env;
        let failed = pool::for_each_mut(&mut parts, threads, |_, p| {
            let mut rt = engine::Runtime::<D>::new();
            for &j in &p.queries {
                trap_check(trap, j);
                let mut out = Vec::new();
                engine::query_level(
                    &mut p.cols,
                    &mut p.slices,
                    &queries[j],
                    &extended[j],
                    env,
                    &mut rt,
                    &mut out,
                );
                p.hits.push(out);
            }
            p.stats = rt.stats;
        });

        // Reassemble: `parts` is still in data order; each run of slices
        // goes back onto the top-level list, hits are concatenated per
        // query in partition order (= ascending data order, the sequential
        // append order), counters summed. A query's first vector is moved,
        // not copied: one served by a single partition costs no copy at
        // all. Every partition reattaches, also one whose job panicked, so
        // the top level is always a complete partition of the data array.
        let span = obs::start();
        self.rt.stats.queries += jobs.len() as u64;
        for p in &mut parts {
            self.rt.stats.merge(&p.stats);
            self.root.append(&mut p.slices);
            for (&j, hits) in p.queries.iter().zip(p.hits.drain(..)) {
                if results[j].is_empty() {
                    results[j] = hits;
                } else {
                    results[j].extend(hits);
                }
            }
        }
        finish_phase(span, obs::Phase::Merge);
        if let Err(p) = failed {
            self.poison(format!(
                "worker panic during partitioned crack phase: {}",
                p.message
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Quasii, QuasiiConfig};
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::geom::{Aabb, Record};
    use quasii_common::index::{assert_matches_brute_force, SpatialIndex};
    use quasii_common::workload;

    /// The sequential ground truth: a fresh index answering one query at a
    /// time, plus its final observable state.
    fn sequential_reference<const D: usize>(
        data: &[Record<D>],
        queries: &[Aabb<D>],
        cfg: &QuasiiConfig,
    ) -> (Vec<Vec<u64>>, Quasii<D>) {
        let mut idx = Quasii::new(data.to_vec(), cfg.clone().with_threads(1));
        let results = queries.iter().map(|q| idx.query_collect(q)).collect();
        (results, idx)
    }

    fn ids<const D: usize>(data: &[Record<D>]) -> Vec<u64> {
        data.iter().map(|r| r.id).collect()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit_across_thread_counts() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 71);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 60, 1e-3, 72).queries;
        let cfg = QuasiiConfig::with_tau(16);
        let (reference, seq) = sequential_reference(&data, &queries, &cfg);
        for threads in [1, 2, 4, 8] {
            let mut idx = Quasii::new(data.clone(), cfg.clone().with_threads(threads));
            let got = idx.execute_batch(&queries);
            assert_eq!(got, reference, "results diverged at threads={threads}");
            idx.validate()
                .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
            assert_eq!(
                idx.stats(),
                seq.stats(),
                "work counters diverged at threads={threads}"
            );
            assert_eq!(
                ids(idx.data()),
                ids(seq.data()),
                "data permutation diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn batch_agrees_with_brute_force() {
        let data = uniform_boxes_in::<3>(2_500, 500.0, 73);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::clustered(&u, 4, 10, 1e-3, 74).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12).with_threads(4));
        let got = idx.execute_batch(&queries);
        for (q, hits) in queries.iter().zip(&got) {
            assert_matches_brute_force(&data, q, hits);
        }
        idx.validate().unwrap();
    }

    #[test]
    fn batching_is_transparent_to_later_queries() {
        // A batch run, then individual queries, must behave exactly like a
        // purely sequential history (the hierarchy converged identically).
        let data = uniform_boxes_in::<3>(3_000, 800.0, 75);
        let u = Aabb::new([0.0; 3], [800.0; 3]);
        let w = workload::uniform(&u, 40, 1e-3, 76).queries;
        let (batch, later) = w.split_at(25);
        let cfg = QuasiiConfig::with_tau(20);

        let (mut expect, mut seq) = sequential_reference(&data, batch, &cfg);
        for q in later {
            expect.push(seq.query_collect(q));
        }

        let mut idx = Quasii::new(data, cfg.with_threads(3));
        let mut got = idx.execute_batch(batch);
        for q in later {
            got.push(idx.query_collect(q));
        }
        assert_eq!(got, expect);
        assert_eq!(idx.stats(), seq.stats());
    }

    #[test]
    fn chained_batches_equal_one_big_batch() {
        let data = uniform_boxes_in::<2>(2_000, 400.0, 77);
        let u = Aabb::new([0.0; 2], [400.0; 2]);
        let queries = workload::uniform(&u, 48, 1e-3, 78).queries;
        let cfg = QuasiiConfig::with_tau(10).with_threads(4);

        let mut one = Quasii::new(data.clone(), cfg.clone());
        let whole = one.execute_batch(&queries);

        let mut chunked = Quasii::new(data, cfg);
        let mut got = Vec::new();
        for chunk in queries.chunks(7) {
            got.extend(chunked.execute_batch(chunk));
        }
        assert_eq!(got, whole);
        assert_eq!(chunked.stats(), one.stats());
    }

    #[test]
    fn empty_batch_empty_dataset_and_single_query() {
        let mut empty = Quasii::<3>::new(Vec::new(), QuasiiConfig::default().with_threads(4));
        assert!(empty.execute_batch(&[]).is_empty());
        let q = Aabb::new([0.0; 3], [1.0; 3]);
        assert_eq!(empty.execute_batch(&[q]), vec![Vec::<u64>::new()]);
        empty.validate().unwrap();

        let data = uniform_boxes_in::<3>(500, 100.0, 79);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default().with_threads(4));
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = idx.execute_batch(&[q]);
        assert_matches_brute_force(&data, &q, &got[0]);
    }

    #[test]
    fn degenerate_datasets_survive_parallel_batches() {
        for data in [
            degenerate::identical::<2>(600),
            degenerate::shared_lower::<2>(600),
        ] {
            let mut cfg = QuasiiConfig::with_tau(8).with_threads(4);
            cfg.max_artificial_depth = 16;
            let queries = [
                Aabb::new([0.0; 2], [700.0; 2]),
                Aabb::new([5.0; 2], [6.0; 2]),
                Aabb::new([2.0; 2], [80.0; 2]),
            ];
            let (reference, _) = sequential_reference(&data, &queries, &cfg);
            let mut idx = Quasii::new(data.clone(), cfg);
            assert_eq!(idx.execute_batch(&queries), reference);
            idx.validate().unwrap();
        }
    }

    #[test]
    fn query_batch_trait_method_routes_to_execute_batch() {
        let data = uniform_boxes_in::<3>(1_000, 200.0, 80);
        let queries = vec![Aabb::new([0.0; 3], [50.0; 3]); 3];
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default().with_threads(2));
        let got = idx.query_batch(&queries);
        assert_eq!(got.len(), 3);
        for (q, hits) in queries.iter().zip(&got) {
            assert_matches_brute_force(&data, q, hits);
        }
    }

    #[test]
    fn worker_panic_poisons_then_repair_restores_correct_answers() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 81);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::uniform(&u, 20, 1e-3, 82).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12).with_threads(4));
        idx.execute_batch(&queries[..8]); // warm up: top level cracked open

        idx.inject_panic_at(3);
        let err = idx
            .try_execute_batch(&queries[8..])
            .expect_err("injected panic must fail the batch");
        assert!(err.detail.contains("injected worker panic"), "{err}");
        assert!(idx.is_poisoned());
        // Still poisoned: no silent wrong answers from any entry point.
        assert!(idx.try_execute_batch(&queries[..2]).is_err());
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.query_collect(&queries[0])
        }));
        assert!(panic.is_err(), "query on a poisoned engine must panic");

        let outcome = idx.repair();
        assert_ne!(outcome, crate::RepairOutcome::Clean);
        assert!(!idx.is_poisoned());
        idx.validate()
            .expect("repaired engine is structurally sound");
        for q in &queries {
            let mut got = idx.query_collect(q);
            got.sort_unstable();
            assert_matches_brute_force(&data, q, &got);
        }
    }

    #[test]
    fn a_last_crack_query_runs_inline() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 83);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::uniform(&u, 9, 1e-3, 84).queries;
        let mut idx = Quasii::new(data, QuasiiConfig::with_tau(12).with_threads(2));
        idx.execute_batch(&queries[..8]);
        idx.seal();
        assert!(idx.root.len() >= 2, "the warm-up split the root list");
        let q = queries[8];
        assert!(idx.sealed_window(&idx.extend_query(&q)).is_err());

        idx.inject_panic_at(0);
        let err = idx.try_execute_batch(&[q]).expect_err("the trap fires");
        assert!(
            err.detail.starts_with("panic during crack query 0"),
            "{err}"
        );
    }

    #[test]
    fn an_armed_trap_poisons_a_single_query() {
        let data = uniform_boxes_in::<3>(1_500, 400.0, 85);
        let u = Aabb::new([0.0; 3], [400.0; 3]);
        let queries = workload::uniform(&u, 10, 1e-3, 86).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12).with_threads(2));
        idx.inject_panic_at(0);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.query_collect(&queries[0])
        }))
        .expect_err("an armed trap fires on a single query");
        let msg = quasii_common::pool::panic_message(panic);
        assert!(
            msg.starts_with("engine poisoned: panic during crack query 0"),
            "{msg}"
        );
        assert!(idx.is_poisoned());

        assert_ne!(idx.repair(), crate::RepairOutcome::Clean);
        for q in &queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_parallelism() {
        let idx = Quasii::<2>::new(Vec::new(), QuasiiConfig::default());
        assert!(idx.effective_threads() >= 1);
        let idx = Quasii::<2>::new(Vec::new(), QuasiiConfig::default().with_threads(7));
        assert_eq!(idx.effective_threads(), 7);
    }
}
