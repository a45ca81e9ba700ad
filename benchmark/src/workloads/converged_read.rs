//! `converged_read`: steady state with a working set of the whole dataset.
//! A two-shard engine with library defaults is finalized and sealed in
//! set-up; every round answers fresh uniform queries in batches; an op is
//! one batch. No crack may happen.
//!
//! `core.seal` and `core.simd` streaming kernels, the `core.batch` fan-out
//! and the `shard` route/merge do the work; `core.crack` does none, so a
//! crack-kernel change must show **no change** here.
//!
//! The traced run answers every round again on two twins: the same engine
//! with every thread knob at 1, and a single `Quasii`. Their difference to
//! the default engine on identical batches is the cost of the fan-out and
//! of routing and merging.

use super::{
    build_converged, check_scan, default_shards, gen_data, sample_indices, seal_stats_of,
    seals_since, set_converged_bytes, set_counters, set_laps, set_obs_phases, set_shape,
    stats_since, universe,
};
use crate::procfs::timed;
use crate::prom::{Delta, Scrape};
use crate::rounds::{repeat_setup, Budget, Phase};
use crate::spans::Tracer;
use crate::stats::ols;
use crate::{set_tracing, Ctx, QVOL};
use quasii::{Quasii, QuasiiConfig};
use quasii_common::geom::Aabb;
use quasii_common::workload;
use quasii_shard::ShardedQuasii;
use std::time::Instant;

/// The engines of the traced run that isolate one layer each.
struct Twins {
    /// Two shards, `shard_threads = 1`, engine `threads = 1`.
    sharded_t1: ShardedQuasii<3>,
    /// One engine, `threads = 1`.
    single: Quasii<3>,
}

pub fn run(ctx: &mut Ctx, tr: &mut Tracer) -> Result<(), String> {
    let sc = ctx.scale.clone();
    let round_queries = |ctx: &Ctx, round: usize| {
        workload::uniform(
            &universe(),
            sc.converged_batches * sc.batch,
            QVOL,
            ctx.derive(100 + round as u64),
        )
        .queries
    };
    let ((data, mut engine, mut twins), laps) = repeat_setup(sc.setup_reps, |laps| {
        let data = gen_data(ctx, laps);
        let first = laps.time("common.workload_gen_s", || {
            workload::uniform(&universe(), sc.batch, QVOL, ctx.derive(1)).queries
        });
        let engine = build_converged(data.clone(), default_shards(), &first, laps);
        let twins = ctx.trace.then(|| {
            let t1 = QuasiiConfig::default().with_threads(1);
            let cfg = default_shards()
                .with_shard_threads(1)
                .with_inner(t1.clone());
            let mut sharded_t1 = ShardedQuasii::<3>::new(data.clone(), cfg);
            sharded_t1.finalize();
            sharded_t1.seal();
            let mut single = Quasii::<3>::new(data.clone(), t1);
            single.finalize();
            single.seal();
            Twins { sharded_t1, single }
        });
        (data, engine, twins)
    });
    set_laps(&mut ctx.report, &laps);

    let stats_before = engine.stats();
    let seals_before = seal_stats_of(&engine);
    let scrape_before = Scrape::registry();
    let budget = Budget::new(ctx.seconds, sc.min_rounds);
    let (mut phase, mut t1_phase, mut single_phase) =
        (Phase::default(), Phase::default(), Phase::default());
    // Objects tested per twin batch, for the cost per object tested.
    let mut t1_tested = Vec::new();
    let mut round = 0;
    while budget.more(round) {
        let queries = round_queries(ctx, round);
        let traced = ctx.begin_round(tr, round);
        let answers = run_batches(
            tr,
            &mut phase,
            traced,
            "shard.execute_batch",
            &queries,
            sc.batch,
            |b| engine.execute_batch(b),
        );
        // The twins are instruments, not the subject: never traced.
        set_tracing(tr, false);
        if round == 0 {
            let samples: Vec<_> = sample_indices(queries.len(), sc.checks)
                .into_iter()
                .map(|i| (queries[i], answers[i].clone()))
                .collect();
            check_scan(&mut ctx.report, &data, &samples);
            // Counters of one round of fixed work repeat exactly for a seed.
            let seals = seals_since(&seals_before, &seal_stats_of(&engine));
            let hits = answers.iter().map(|a| a.len() as u64).sum();
            set_counters(
                &mut ctx.report,
                &stats_since(&stats_before, &engine.stats()),
                &seals,
                hits,
            );
        }

        if let Some(tw) = twins.as_mut() {
            let mut prev = tw.sharded_t1.stats().objects_tested;
            let t1_answers = run_batches(tr, &mut t1_phase, false, "", &queries, sc.batch, |b| {
                let out = tw.sharded_t1.execute_batch(b);
                let now = tw.sharded_t1.stats().objects_tested;
                t1_tested.push((now - prev) as f64);
                prev = now;
                out
            });
            let mut single_answers =
                run_batches(tr, &mut single_phase, false, "", &queries, sc.batch, |b| {
                    tw.single.execute_batch(b)
                });
            // A single engine answers in its own order; shards in id order.
            single_answers.iter_mut().for_each(|a| a.sort_unstable());
            ctx.report.check(t1_answers == answers, || {
                format!("round {round}: the threads = 1 twin answers differently")
            });
            ctx.report.check(single_answers == answers, || {
                format!("round {round}: the single engine answers differently")
            });
        }
        round += 1;
    }

    let cracks = engine.stats().cracks - stats_before.cracks;
    ctx.report.check(cracks == 0, || {
        format!("{cracks} cracks on a finalized index")
    });
    ctx.set_op_metrics(&phase);
    set_shape(&mut ctx.report, &engine);
    set_converged_bytes(&mut ctx.report, &engine);

    if ctx.trace {
        let r = &mut ctx.report;
        let scrape_after = Scrape::registry();
        set_obs_phases(
            r,
            &Delta {
                before: &scrape_before,
                after: &scrape_after,
            },
        );
        let (default_p50, t1_p50, single_p50) = (
            phase[0].p50_us(),
            t1_phase[0].p50_us(),
            single_phase[0].p50_us(),
        );
        r.set("core.batch.t1_op_p50_us", t1_p50);
        r.set("core.batch.fanout_us", default_p50 - t1_p50);
        r.set("core.batch.t1_cpu_ms_per_op", t1_phase[0].cpu_ms_per_op());
        r.set("shard.route_merge_us", t1_p50 - single_p50);
        let t1_ns: Vec<f64> = t1_phase[0].pooled().iter().map(|us| us * 1e3).collect();
        if let Some(fit) = ols(&[&t1_tested], &t1_ns) {
            r.set("core.simd.ns_per_object_tested", fit[1]);
        }
        r.reconcile(
            "us",
            &[
                ("single Quasii, threads = 1, batch p50", single_p50),
                ("shard.route_merge_us", t1_p50 - single_p50),
                ("core.batch.fanout_us", default_p50 - t1_p50),
            ],
            ("op_p50_us", default_p50),
        );
    }
    Ok(())
}

/// Answers `queries` in batches of `batch` through `exec` as one timed
/// round of `phase`, and returns the answers per query.
fn run_batches(
    tr: &mut Tracer,
    phase: &mut Phase,
    traced: bool,
    span: &'static str,
    queries: &[Aabb<3>],
    batch: usize,
    mut exec: impl FnMut(&[Aabb<3>]) -> Vec<Vec<u64>>,
) -> Vec<Vec<u64>> {
    let mut answers = Vec::with_capacity(queries.len());
    let mut lat = Vec::with_capacity(queries.len() / batch + 1);
    let ((), spent) = timed(|| {
        tr.call("round", |tr| {
            for b in queries.chunks(batch) {
                let t = Instant::now();
                let out = tr.op(|tr| tr.call(span, |_| exec(b)));
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                answers.extend(out);
            }
        })
    });
    phase[usize::from(traced)].push(&lat, spent);
    answers
}
