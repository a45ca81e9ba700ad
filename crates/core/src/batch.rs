//! Batch query execution.
//!
//! [`Quasii::try_execute_batch`] is the engine's one `&mut` write: every
//! other entry point that may crack (`execute_batch`, `SpatialIndex::query`
//! as a one-query batch answering into the caller's buffer, `finalize`)
//! wraps it. It classifies every query once (`Quasii::readable_window`, the
//! same test [`Quasii::read`] makes) and runs the batch in **two phases**,
//! both on the calling thread:
//!
//! 1. **Read phase** — queries that crack nothing (no slice on their path
//!    would be cracked or grow a default child) are pure reads: the `&self`
//!    read of each, in batch order, straight into its result slot, reading
//!    its sealed root slices from their arenas (see [`crate::seal`]) and
//!    the rest from the live slice tree. In the converged regime this
//!    phase is the entire batch.
//! 2. **Crack phase** — everything else runs through the adaptive `&mut`
//!    machinery of [`crate::engine`], one query at a time in batch order,
//!    like the paper's Algorithm 1. A converged slice such a query reaches
//!    is read by the same `engine::read_slice` the read phase uses (from
//!    its arena when sealed), and a sealed one stays sealed: nothing
//!    cracks it.
//!
//! An engine opens no pool scope. Batches run in parallel only across
//! engines: `quasii-shard` runs one writer job per shard, and its own read
//! phase answers the queries no shard would crack.
//!
//! A batch whose crack phase created or refined a slice then seals every
//! root slice it converged, before it returns: between writes every
//! converged root slice is sealed, so the next batch, and any
//! [`Quasii::read`] before it, reads arenas wherever they can exist.
//!
//! Splitting a batch into the two phases is result- and state-transparent:
//! a readable query's path holds no node a crack changes. A crack only
//! splits an unrefined slice or gives a refined, childless one its default
//! child, and the readable path holds neither. A slice the read skipped
//! (by the key window or its bounding box) stays skipped once split: its
//! pieces' boxes lie inside its box and their keys inside its key range.
//! So the reads commute with the cracks, and both the arena and the live
//! read descent reproduce the writer's visit order operation for operation.
//! Results, the final hierarchy, the data permutation and the stats are
//! therefore bit-for-bit identical however the queries are split into
//! batches.

use crate::engine;
use crate::{EnginePoisoned, Quasii};
use obs::finish_phase;
use quasii_common::geom::Aabb;
use quasii_common::pool::panic_message;
use quasii_obs as obs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The one-shot test trap: panics when the worker reaches the trapped
/// query index (see `Quasii::inject_panic_at`).
fn trap_check(trap: Option<usize>, j: usize) {
    if trap == Some(j) {
        panic!("injected worker panic at query {j} (test fault)");
    }
}

impl<const D: usize> Quasii<D> {
    /// Executes a batch of range queries — reads first, then cracks in
    /// batch order — and returns one id vector per query (in `queries`
    /// order).
    ///
    /// Results, the final hierarchy and the stats counters are bit-for-bit
    /// identical to running the queries one by one through
    /// [`SpatialIndex::query`] (see the module documentation for why).
    ///
    /// # Panics
    ///
    /// A panic while answering a query (a bug — the engine itself never
    /// panics on valid inputs) is caught under `catch_unwind`, the engine is
    /// **poisoned**, and this infallible entry
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
    /// let mut index = Quasii::new(data, QuasiiConfig::default());
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
    /// `try_execute_into`) wrap it. A panic while answering a query (caught
    /// under `catch_unwind`) or an already-poisoned engine returns the
    /// structured [`EnginePoisoned`] error instead of panicking. On `Err` the
    /// engine stays poisoned — and keeps refusing queries — until
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
    /// permutation and [`QuasiiStats`](crate::QuasiiStats) are
    /// byte-identical with metrics on or off.
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
        if queries.is_empty() {
            return Ok(());
        }
        let extended: Vec<Aabb<D>> = queries.iter().map(|q| self.extend_query(q)).collect();

        // Classify each query (`readable_window`): cracks nothing → the
        // read phase, with its root window; anything else → the
        // crack phase, its window's data span folded into `lo..hi`, the one
        // span the crack phase can reorganize (cracks split slices in place,
        // so the span holds whatever they make of it; it stays empty until
        // a window does not). Classification is stable across the whole
        // batch because the read phase mutates nothing and the crack phase
        // runs after it (see the module docs for why a crack never reaches
        // a readable query's path).
        let span = obs::start();
        let mut read_jobs: Vec<(usize, Range<usize>)> = Vec::new();
        let mut crack_jobs: Vec<usize> = Vec::new();
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (j, qe) in extended.iter().enumerate() {
            match self.readable_window(&queries[j], qe) {
                Ok(window) => read_jobs.push((j, window)),
                Err(window) => {
                    if !window.is_empty() {
                        lo = lo.min(self.root[window.start].begin);
                        hi = hi.max(self.root[window.end - 1].end);
                    }
                    crack_jobs.push(j);
                }
            }
        }
        finish_phase(span, obs::Phase::Classify);

        // Phase 1 — the `&self` read of each readable query, in batch
        // order, on the window classification approved, straight into its
        // result slot. Reads commute with the crack phase below: no crack
        // reaches a node a readable query visits.
        if !read_jobs.is_empty() {
            let span = obs::start();
            let read = catch_unwind(AssertUnwindSafe(|| {
                for (j, window) in read_jobs {
                    trap_check(trap, j);
                    self.read_window(&queries[j], &extended[j], window, &mut results[j]);
                }
            }));
            finish_phase(span, obs::Phase::SealedRead);
            if let Err(payload) = read {
                // The read phase mutates nothing, so the structure is
                // intact — but the batch's results are incomplete, so the
                // engine still refuses to pretend it answered (repair()
                // will revalidate).
                self.poison(format!(
                    "panic during batch read phase: {}",
                    panic_message(payload)
                ));
                return Err(self.poison_error().expect("poison just set"));
            }
        }
        if crack_jobs.is_empty() {
            return Ok(());
        }

        // Phase 2 — the adaptive `&mut` path for everything else, one query
        // at a time in batch order. A slice converges only by being created
        // or refined, so when neither count moved nothing new can seal;
        // otherwise the batch seals what it converged before it returns.
        let span = obs::start();
        let structure = |s: &crate::QuasiiStats| s.slices_created + s.slices_refined;
        let before = structure(&self.rt.stats);
        for &j in &crack_jobs {
            self.run_one_caught(j, trap, &queries[j], &extended[j], &mut results[j])?;
        }
        finish_phase(span, obs::Phase::Crack);
        if structure(&self.rt.stats) != before {
            self.seal_converged(lo..hi);
        }
        Ok(())
    }

    /// Runs one crack-path query (Algorithm 1 over the whole slice tree,
    /// cracking as it goes; converged slices it reaches are read, sealed
    /// ones from their arenas, and left unchanged) on the calling thread under
    /// `catch_unwind`; a panic poisons the engine and surfaces as `Err`.
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
            engine::query_level(
                &mut self.data,
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
        let mut idx = Quasii::new(data.to_vec(), cfg.clone());
        let results = queries.iter().map(|q| idx.query_collect(q)).collect();
        (results, idx)
    }

    fn ids<const D: usize>(data: &[Record<D>]) -> Vec<u64> {
        data.iter().map(|r| r.id).collect()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 71);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 60, 1e-3, 72).queries;
        let cfg = QuasiiConfig::with_tau(16);
        let (reference, seq) = sequential_reference(&data, &queries, &cfg);
        let mut idx = Quasii::new(data.clone(), cfg);
        let got = idx.execute_batch(&queries);
        assert_eq!(got, reference, "results diverged");
        idx.validate().unwrap();
        assert_eq!(idx.stats(), seq.stats(), "work counters diverged");
        assert_eq!(
            ids(&idx.records()),
            ids(&seq.records()),
            "data permutation diverged"
        );
    }

    #[test]
    fn batch_agrees_with_brute_force() {
        let data = uniform_boxes_in::<3>(2_500, 500.0, 73);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::clustered(&u, 4, 10, 1e-3, 74).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
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

        let mut idx = Quasii::new(data, cfg);
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
        let cfg = QuasiiConfig::with_tau(10);

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
        let mut empty = Quasii::<3>::new(Vec::new(), QuasiiConfig::default());
        assert!(empty.execute_batch(&[]).is_empty());
        let q = Aabb::new([0.0; 3], [1.0; 3]);
        assert_eq!(empty.execute_batch(&[q]), vec![Vec::<u64>::new()]);
        empty.validate().unwrap();

        let data = uniform_boxes_in::<3>(500, 100.0, 79);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default());
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = idx.execute_batch(&[q]);
        assert_matches_brute_force(&data, &q, &got[0]);
    }

    #[test]
    fn degenerate_datasets_survive_batches() {
        for data in [
            degenerate::identical::<2>(600),
            degenerate::shared_lower::<2>(600),
        ] {
            let cfg = QuasiiConfig::with_tau(8);
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
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default());
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
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
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
    fn an_armed_trap_poisons_a_single_query() {
        let data = uniform_boxes_in::<3>(1_500, 400.0, 85);
        let u = Aabb::new([0.0; 3], [400.0; 3]);
        let queries = workload::uniform(&u, 10, 1e-3, 86).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12));
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
}
