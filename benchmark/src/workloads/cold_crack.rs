//! `cold_crack`: the paper's own setting (raw array → answers, §6.4
//! uniform worst case). Every round hands a fresh single `Quasii<3>` the
//! raw array and the same uniform queries, one by one through `query()`;
//! an op is one query.
//!
//! What the first query costs depends on where it falls (a three-way
//! crack moves more records the further left it cuts), between 25 and
//! 55 ms on this data. So every round starts the same queries at another
//! one, chosen so that the starts of any number of rounds cover the key
//! range evenly, and `first_results_ms` is the median over the rounds:
//! the cost of a first query in the middle of the range, whatever the
//! seed drew first.
//!
//! `core.crack`, `core.keys` and `core.engine` do nearly all the work;
//! the batch fan-out, `shard` and `server` do none, so a gain there must
//! show **no change** here.

use super::{
    check_scan, gen_data, rotated, sample_indices, set_converged_bytes, set_counters, set_laps,
    set_shape_single, universe, van_der_corput,
};
use crate::procfs::timed;
use crate::rounds::{repeat_setup, Budget, Phase};
use crate::spans::Tracer;
use crate::stats::{median, ols, undisturbed};
use crate::{set_tracing, Ctx, QVOL};
use quasii::{Quasii, QuasiiConfig};
use quasii_common::index::SpatialIndex;
use quasii_common::workload;
use std::time::Instant;

pub fn run(ctx: &mut Ctx, tr: &mut Tracer) -> Result<(), String> {
    let sc = ctx.scale.clone();
    let ((data, queries), laps) = repeat_setup(sc.setup_reps, |laps| {
        let data = gen_data(ctx, laps);
        let queries = laps.time("common.workload_gen_s", || {
            workload::uniform(&universe(), sc.cold_queries, QVOL, ctx.derive(1)).queries
        });
        (data, queries)
    });
    set_laps(&mut ctx.report, &laps);

    let sampled = sample_indices(queries.len(), sc.checks);
    // Query indices by lower key: round r starts at quantile van_der_corput(r).
    let mut by_key: Vec<usize> = (0..queries.len()).collect();
    by_key.sort_by(|&a, &b| queries[a].lo[0].total_cmp(&queries[b].lo[0]));
    let budget = Budget::new(ctx.seconds, sc.min_rounds);
    let mut phase = Phase::default();
    let (mut first_ms, mut new_ms, mut first_share) = (Vec::new(), Vec::new(), Vec::new());
    // Per query over all rounds, for the cost fit of the traced run.
    let (mut time_ns, mut cracked, mut tested) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits_round0 = 0;
    let mut round = 0;
    while budget.more(round) {
        let traced = ctx.begin_round(tr, round);
        let raw = data.clone();
        let start = by_key[(van_der_corput(round) * queries.len() as f64) as usize];
        let queries = rotated(&queries, start);
        let mut lat = Vec::with_capacity(queries.len());
        let mut answers = Vec::new();
        let mut hits = 0u64;
        let ((mut engine, new_s), spent) = timed(|| {
            tr.call("round", |tr| {
                let t = Instant::now();
                let mut engine = tr.call("core.engine.new", |_| {
                    Quasii::<3>::new(raw, QuasiiConfig::default())
                });
                let new_s = t.elapsed().as_secs_f64();
                let mut out = Vec::new();
                let mut prev = engine.stats();
                for (i, q) in queries.iter().enumerate() {
                    out.clear();
                    let t = Instant::now();
                    tr.op(|tr| tr.call("core.engine.query", |_| engine.query(q, &mut out)));
                    let ns = t.elapsed().as_nanos() as f64;
                    lat.push(ns / 1e3);
                    hits += out.len() as u64;
                    if round == 0 && sampled.contains(&i) {
                        answers.push((*q, out.clone()));
                    }
                    if ctx.trace {
                        let s = engine.stats();
                        time_ns.push(ns);
                        cracked.push((s.records_cracked - prev.records_cracked) as f64);
                        tested.push((s.objects_tested - prev.objects_tested) as f64);
                        prev = s;
                    }
                }
                (engine, new_s)
            })
        });
        set_tracing(tr, false);
        phase[usize::from(traced)].push(&lat, spent);
        first_ms.push(1e3 * new_s + lat[0] / 1e3);
        new_ms.push(1e3 * new_s);
        first_share.push(lat[0] / 1e6 / spent.wall_s);

        if round == 0 {
            hits_round0 = hits;
            check_scan(&mut ctx.report, &data, &answers);
            set_counters(&mut ctx.report, &engine.stats(), &engine.seal_stats(), hits);
            set_shape_single(&mut ctx.report, &engine);
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
    r.set("first_results_ms", median(&first_ms));
    let new_ms = undisturbed(&new_ms, true);
    r.set("core.engine.new_ms", new_ms);
    r.set("core.keys.first_query_share", median(&first_share));
    let queries_n = queries.len() as f64;
    // Time to answer the whole sequence, construction included.
    let cumulative_s = queries_n / phase[0].ops_per_s();

    if ctx.trace {
        // time = fixed + a · records cracked + b · objects tested, per query.
        if let Some(fit) = ols(&[&cracked, &tested], &time_ns) {
            r.set("core.engine.fixed_us_per_query", fit[0] / 1e3);
            r.set("core.crack.ns_per_record_cracked", fit[1]);
            r.set("core.simd.ns_per_object_tested", fit[2]);
            let rounds = round as f64;
            let per_round = |v: &[f64]| v.iter().sum::<f64>() / rounds;
            r.reconcile(
                "s",
                &[
                    ("core.engine.new_ms", new_ms / 1e3),
                    (
                        "core.crack.ns_per_record_cracked x records cracked",
                        fit[1] * per_round(&cracked) / 1e9,
                    ),
                    (
                        "core.simd.ns_per_object_tested x objects tested",
                        fit[2] * per_round(&tested) / 1e9,
                    ),
                    (
                        "core.engine.fixed_us_per_query x queries",
                        fit[0] * queries_n / 1e9,
                    ),
                ],
                ("loadgen.round_s (cumulative)", cumulative_s),
            );
        }
    }
    Ok(())
}
