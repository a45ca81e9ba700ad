//! `shift_mixed`: cracks (this system's writes) beside sealed reads. Every
//! round hands a fresh two-shard engine with library defaults the raw
//! array and the same clustered query sequence in batches, cluster after
//! cluster; an op is one batch. Batches are classed from outside, by
//! whether the engines' crack counter moved.
//!
//! The same layers as `converged_read`, used differently: seal sweeps and
//! invalidations are the background work. A sealed-path gain bought with
//! dearer sealing, or a crack gain that unseals more, shows here and
//! nowhere else.
//!
//! A cluster of `workload::clustered` spreads over two thirds of every
//! dimension, so a dozen of them refine nearly the whole index: the round
//! starts crack-heavy and ends on sealed reads with seal/unseal churn.
//! The sequence is of fixed length for that reason; a run that went on for
//! as long as it had time would measure the later, converged stretch more
//! the faster it ran.
//!
//! `first_results_ms` (raw array → `ShardedQuasii::new` → first batch) is
//! the mean over a few more fresh engines, each meeting another cluster
//! first: what a first batch costs depends on where its cluster lies.

use super::{
    check_scan, default_shards, gen_data, sample_indices, seal_stats_of, set_converged_bytes,
    set_counters, set_laps, set_obs_phases, set_shape, universe,
};
use crate::procfs::timed;
use crate::prom::{Delta, Scrape};
use crate::rounds::{repeat_setup, Budget, Phase};
use crate::spans::Tracer;
use crate::stats::{median, undisturbed};
use crate::{set_tracing, Ctx, QVOL};
use quasii_common::workload;
use quasii_shard::ShardedQuasii;
use std::time::Instant;

pub fn run(ctx: &mut Ctx, tr: &mut Tracer) -> Result<(), String> {
    let sc = ctx.scale.clone();
    let ((data, queries), laps) = repeat_setup(sc.setup_reps, |laps| {
        let data = gen_data(ctx, laps);
        let queries = laps.time("common.workload_gen_s", || {
            workload::clustered(
                &universe(),
                sc.shift_clusters,
                sc.shift_per_cluster,
                QVOL,
                ctx.derive(1),
            )
            .queries
        });
        (data, queries)
    });
    set_laps(&mut ctx.report, &laps);
    let budget = Budget::new(ctx.seconds, sc.min_rounds);

    // Time to first results, on fresh engines that each start at another cluster.
    let (mut first_ms, mut build_ms) = (Vec::new(), Vec::new());
    for cluster in queries.chunks(sc.shift_per_cluster).take(sc.shift_probes) {
        let raw = data.clone();
        let t = Instant::now();
        let mut engine = ShardedQuasii::<3>::new(raw, default_shards());
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(engine.execute_batch(&cluster[..sc.batch]));
        first_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ctx.report.attempted += first_ms.len() as u64;

    let sampled = sample_indices(queries.len(), sc.checks);
    let scrape_before = Scrape::registry();
    let mut phase = Phase::default();
    let (mut crack_p50, mut read_p50, mut crack_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits_round0 = 0;
    let mut round = 0;
    while budget.more(round) {
        let traced = ctx.begin_round(tr, round);
        let raw = data.clone();
        let mut lat = Vec::with_capacity(queries.len() / sc.batch + 1);
        let mut cracked = Vec::with_capacity(lat.capacity());
        let mut answers = Vec::with_capacity(queries.len());
        // The round includes construction: it is the cumulative time to
        // answer the sequence from the raw array.
        let (mut engine, spent) = timed(|| {
            tr.call("round", |tr| {
                let mut engine = tr.call("shard.new", |_| {
                    ShardedQuasii::<3>::new(raw, default_shards())
                });
                let mut cracks = 0;
                for b in queries.chunks(sc.batch) {
                    let t = Instant::now();
                    let out =
                        tr.op(|tr| tr.call("shard.execute_batch", |_| engine.execute_batch(b)));
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                    let now = engine.stats().cracks;
                    cracked.push(now != cracks);
                    cracks = now;
                    answers.extend(out);
                }
                engine
            })
        });
        set_tracing(tr, false);
        phase[usize::from(traced)].push(&lat, spent);
        let of_class = |class: bool| -> Vec<f64> {
            lat.iter()
                .zip(&cracked)
                .filter(|(_, c)| **c == class)
                .map(|(l, _)| *l)
                .collect()
        };
        let crack_lat = of_class(true);
        crack_p50.push(median(&crack_lat));
        read_p50.push(median(&of_class(false)));
        crack_share.push(crack_lat.len() as f64 / lat.len() as f64);

        let hits: u64 = answers.iter().map(|a| a.len() as u64).sum();
        if round == 0 {
            hits_round0 = hits;
            let samples: Vec<_> = sampled
                .iter()
                .map(|&i| (queries[i], answers[i].clone()))
                .collect();
            check_scan(&mut ctx.report, &data, &samples);
            set_counters(
                &mut ctx.report,
                &engine.stats(),
                &seal_stats_of(&engine),
                hits,
            );
            set_shape(&mut ctx.report, &engine);
            engine.finalize();
            engine.seal();
            set_converged_bytes(&mut ctx.report, &engine);
        }
        // Every round does the same work on the same input.
        ctx.report.check(hits == hits_round0, || {
            format!("round {round} returned {hits} ids, round 0 returned {hits_round0}")
        });
        round += 1;
    }

    ctx.set_op_metrics(&phase);
    let r = &mut ctx.report;
    r.set(
        "first_results_ms",
        first_ms.iter().sum::<f64>() / first_ms.len().max(1) as f64,
    );
    let (build, crack, read) = (
        undisturbed(&build_ms, true),
        undisturbed(&crack_p50, true),
        undisturbed(&read_p50, true),
    );
    let share = median(&crack_share);
    r.set("shard.build_ms", build);
    r.set("shard.crack_batch_p50_us", crack);
    r.set("shard.read_batch_p50_us", read);
    r.set("shard.crack_batch_share", share);
    if ctx.trace {
        let scrape_after = Scrape::registry();
        set_obs_phases(
            r,
            &Delta {
                before: &scrape_before,
                after: &scrape_after,
            },
        );
        let batches = (queries.len() / sc.batch) as f64;
        let round_s = r.get("loadgen.round_s").unwrap_or(0.0);
        r.reconcile(
            "s",
            &[
                ("shard.build_ms", build / 1e3),
                (
                    "crack batches x shard.crack_batch_p50_us",
                    share * batches * crack / 1e6,
                ),
                (
                    "read batches x shard.read_batch_p50_us",
                    (1.0 - share) * batches * read / 1e6,
                ),
            ],
            ("loadgen.round_s (cumulative)", round_s),
        );
    }
    Ok(())
}
