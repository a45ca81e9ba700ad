//! `serve_http`: the real path socket → parse → admission queue →
//! dispatcher → shards → JSON → write. `quasii_server::start` serves a
//! finalized and sealed two-shard engine on a loopback port with
//! `quasii_obs` on, as `quasii serve` always has it; two keep-alive
//! connections send `GET /query` from a hot, skewed query set in a closed
//! loop; an op is one request.
//!
//! The query set is cache-resident, so engine time is a few percent of a
//! request and `server`, `minihttp` and thread hand-offs are the rest:
//! engine-kernel gains must show **no change** here.
//!
//! The traced run adds what the closed loop cannot show: an open loop at
//! two fixed rates with latency charged from the due time, `POST /batch`,
//! the `/healthz` request floor, and the server's own `/metrics` before
//! and after the closed loop.

use super::{
    build_converged, check_scan, default_shards, gen_data, sample_indices, set_converged_bytes,
    set_laps, set_obs_phases, set_shape, universe,
};
use crate::json::Json;
use crate::loadgen::{drive, Done};
use crate::procfs::{timed, Spent};
use crate::prom::{Delta, Scrape};
use crate::report::Report;
use crate::rounds::{repeat_setup, Budget, Phase};
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_percentile};
use crate::{Ctx, QVOL};
use minihttp::{read_request, Client, Limits, Response};
use quasii_common::geom::Aabb;
use quasii_common::workload;
use quasii_server::{start, ServeConfig, ServerHandle};
use std::time::Instant;

/// Requests per second of the two open-loop phases.
const OPEN_RATES: [(f64, &str, &str); 2] = [
    (100.0, "server.open100_p50_us", "server.open100_tail_us"),
    (200.0, "server.open200_p50_us", "server.open200_tail_us"),
];

/// Shares of the measuring time in a traced run: closed loop, then each
/// open-loop rate; `POST /batch` and `/healthz` run fixed counts.
const CLOSED_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.2;

/// A running server and the load generator's connections to it.
struct Served {
    server: Option<ServerHandle>,
    conns: Vec<Client>,
}

impl Served {
    /// Closes the connections, then drains and joins the server.
    /// Returns the milliseconds the shutdown took.
    fn shutdown(&mut self) -> f64 {
        self.conns.clear();
        let t = Instant::now();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The hot query set: `HOT_STREAMS` skewed streams (8 hotspots each, Zipf
/// 1.1) interleaved. One stream alone makes the figures hang on where its
/// hottest spot falls (a spot astride the shard fence visits both shards
/// on every query); several spots of equal weight average that out.
fn hot_pool(ctx: &Ctx, len: usize) -> Vec<Aabb<3>> {
    const HOT_STREAMS: usize = 8;
    let per_stream = len.div_ceil(HOT_STREAMS);
    let streams: Vec<_> = (0..HOT_STREAMS)
        .map(|k| {
            workload::skewed(
                &universe(),
                8,
                per_stream,
                QVOL,
                1.1,
                ctx.derive(10 + k as u64),
            )
            .queries
        })
        .collect();
    (0..per_stream)
        .flat_map(|i| streams.iter().map(move |s| s[i]))
        .collect()
}

fn get_ok(client: &mut Client, target: &str) -> Result<Vec<u8>, String> {
    match client.get(target) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("status {}", r.status)),
        Err(e) => Err(e.to_string()),
    }
}

/// The connections as the load generator drives them: request `i` is
/// `GET targets[i % len]`.
fn query_conns<'a>(
    clients: &'a mut [Client],
    targets: &'a [String],
) -> Vec<impl FnMut(usize) -> Result<Vec<u8>, String> + Send + 'a> {
    clients
        .iter_mut()
        .map(|client| move |i: usize| get_ok(client, &targets[i % targets.len()]))
        .collect()
}

fn query_target(q: &Aabb<3>) -> String {
    format!(
        "/query?lo={},{},{}&hi={},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

fn ids_of(v: &Json) -> Option<Vec<u64>> {
    v.as_arr()?
        .iter()
        .map(|n| n.as_f64().map(|n| n as u64))
        .collect()
}

/// Whether a `GET /query` reply body holds exactly `expected`.
fn query_reply_is(body: &[u8], expected: &[u64]) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|v| ids_of(v.get("ids")?))
        .is_some_and(|ids| ids == expected)
}

/// Counts the failed requests of a phase: transport errors, statuses
/// other than 200, and answers that differ from the engine's own.
fn verify(report: &mut Report, done: &[Done], expected: &[Vec<u64>]) {
    for d in done {
        match &d.reply {
            Ok(body) if query_reply_is(body, &expected[d.index % expected.len()]) => {}
            Ok(_) => report.fail(format!("request {}: the network answer differs", d.index)),
            Err(e) => report.fail(format!("request {}: {e}", d.index)),
        }
    }
}

pub fn run(ctx: &mut Ctx, tr: &mut Tracer) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return Err(format!(
            "serve_http needs 2 processors for its 2 load-generator connections, \
             available_parallelism is {cpus}: serving metrics from here would measure time slicing"
        ));
    }
    let sc = ctx.scale.clone();
    quasii_obs::set_enabled(true);
    let ((data, mut served, pool, expected, shape), laps) = repeat_setup(sc.setup_reps, |laps| {
        let data = gen_data(ctx, laps);
        let pool = laps.time("common.workload_gen_s", || hot_pool(ctx, sc.serve_pool));
        let mut engine = build_converged(data.clone(), default_shards(), &[], laps);
        // The engine's own answers and shape, before it moves into the server.
        let expected = engine.execute_batch(&pool);
        let mut shape = Report::default();
        set_shape(&mut shape, &engine);
        set_converged_bytes(&mut shape, &engine);
        let mut one_query_us = Vec::new();
        for q in pool.iter().take(256) {
            let t = Instant::now();
            std::hint::black_box(engine.execute_batch(std::slice::from_ref(q)));
            one_query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        laps.add("shard.one_query_batch_p50_us", median(&one_query_us));
        let t = Instant::now();
        let server = laps
            .time("server.start_ms", || {
                start(engine, "127.0.0.1:0", ServeConfig::default())
            })
            .expect("the server starts on a loopback port");
        let mut conns: Vec<Client> = (0..2)
            .map(|_| Client::connect(server.addr()).expect("the server accepts connections"))
            .collect();
        let first = get_ok(&mut conns[0], &query_target(&pool[0]));
        laps.add("first_results_ms", t.elapsed().as_secs_f64() * 1e3);
        assert!(first.is_ok(), "the first request fails: {first:?}");
        for (i, q) in pool.iter().cycle().take(sc.serve_warmup).enumerate() {
            let _ = get_ok(&mut conns[i % 2], &query_target(q));
        }
        let served = Served {
            server: Some(server),
            conns,
        };
        (data, served, pool, expected, shape)
    });
    set_laps(&mut ctx.report, &laps);
    ctx.report.absorb(&shape);
    let samples: Vec<_> = sample_indices(pool.len(), sc.checks)
        .into_iter()
        .map(|i| (pool[i], expected[i].clone()))
        .collect();
    check_scan(&mut ctx.report, &data, &samples);
    let hits: usize = expected.iter().map(Vec::len).sum();
    ctx.report.set("check.result_ids_total", hits as f64);

    let targets: Vec<String> = pool.iter().map(query_target).collect();
    let scrape = |client: &mut Client| -> Result<Scrape, String> {
        let body = get_ok(client, "/metrics")?;
        Scrape::parse(&String::from_utf8_lossy(&body))
    };
    let before = scrape(&mut served.conns[0])?;

    // Closed loop: each connection waits for its reply before it sends again.
    let closed_s = if ctx.trace {
        CLOSED_SHARE * ctx.seconds
    } else {
        ctx.seconds
    };
    let budget = Budget::new(closed_s, sc.min_rounds);
    let mut phase = Phase::default();
    let mut reply_bytes = Vec::new();
    let mut cursor = 0;
    let mut round = 0;
    while budget.more(round) {
        let traced = ctx.traced_round(round);
        tr.set_on(traced);
        let idx = usize::from(traced);
        let ((done, wall_s), spent) = timed(|| {
            tr.call("round", |tr| {
                let mut conns = query_conns(&mut served.conns, &targets);
                let (done, wall) = drive(&mut conns, cursor, sc.serve_round, None);
                for d in &done {
                    tr.add_remote_op("minihttp.client.get", tr.at_ns(d.sent), tr.at_ns(d.done));
                }
                (done, wall)
            })
        });
        tr.set_on(ctx.trace);
        let lat: Vec<f64> = done.iter().map(Done::latency_us).collect();
        // The round is the generator's own wall time, without thread start-up.
        phase[idx].push(&lat, Spent { wall_s, ..spent });
        verify(&mut ctx.report, &done, &expected);
        reply_bytes.extend(
            done.iter()
                .filter_map(|d| d.reply.as_ref().ok())
                .map(|b| b.len() as f64),
        );
        cursor += sc.serve_round;
        round += 1;
    }
    let t = Instant::now();
    let after = scrape(&mut served.conns[0])?;
    let scrape_us = t.elapsed().as_secs_f64() * 1e6;
    ctx.set_op_metrics(&phase);

    let delta = Delta {
        before: &before,
        after: &after,
    };
    let cracks = delta.counter("quasii_cracks_total");
    ctx.report.check(cracks == 0.0, || {
        format!("{cracks} cracks while serving a finalized index")
    });
    let r = &mut ctx.report;
    for (metric, counter) in [
        ("core.crack.cracks", "quasii_cracks_total"),
        ("core.crack.records_cracked", "quasii_records_cracked_total"),
        ("core.seal.seals", "quasii_seals_total"),
        ("core.seal.unseals", "quasii_unseals_total"),
        ("core.seal.sealed_queries", "quasii_sealed_queries_total"),
        ("server.batches", "quasii_server_batches_total"),
        ("server.rejected", "quasii_server_rejected_total"),
        ("server.bad_requests", "quasii_server_bad_requests_total"),
    ] {
        r.set(metric, delta.counter(counter));
    }
    let queries = delta.counter("quasii_queries_total");
    if queries > 0.0 {
        r.set(
            "core.seal.sealed_query_share",
            delta.counter("quasii_sealed_queries_total") / queries,
        );
    }
    r.set(
        "shard.fanout",
        delta.histogram_mean("quasii_shard_fanout", &[], 1.0),
    );
    r.set(
        "server.group_size_mean",
        delta.histogram_mean("quasii_server_batch_size", &[], 1.0),
    );
    let handle_us = delta.histogram_mean(
        "quasii_server_request_seconds",
        &[("endpoint", "query")],
        1e6,
    );
    r.set("server.handle_us_mean", handle_us);
    r.set(
        "server.admission_delay_us",
        after.value("quasii_admission_delay_us", &[]),
    );
    r.set("server.client_residue_us", phase[0].p50_us() - handle_us);
    r.set(
        "minihttp.response_bytes_mean",
        reply_bytes.iter().sum::<f64>() / reply_bytes.len().max(1) as f64,
    );
    r.set("obs.metrics_scrape_us", scrape_us);
    set_obs_phases(r, &delta);

    if ctx.trace {
        // Open loop: request k is due k / rate after the start, whatever
        // the server does; latency counts from then.
        let mut late_ms = 0.0f64;
        for (rate, p50_name, tail_name) in OPEN_RATES {
            let count = ((rate * OPEN_SHARE * ctx.seconds) as usize).max(20);
            let mut conns = query_conns(&mut served.conns, &targets);
            let (done, _) = tr.call("loadgen.open_loop", |_| {
                drive(&mut conns, cursor, count, Some(rate))
            });
            cursor += count;
            verify(&mut ctx.report, &done, &expected);
            ctx.report.attempted += done.len() as u64;
            let lat: Vec<f64> = done.iter().map(Done::latency_us).collect();
            let pct = tail_percentile(lat.len()).unwrap_or(100.0);
            ctx.report.set(p50_name, median(&lat));
            ctx.report.set(tail_name, percentile(&lat, pct));
            ctx.report.set("loadgen.open_tail_percentile", pct);
            late_ms = done.iter().map(Done::late_ms).fold(late_ms, f64::max);
        }
        ctx.report.set("loadgen.late_ms_max", late_ms);
        batches_and_floor(ctx, tr, &mut served.conns[0], &pool, &expected);
        let floor = ctx.report.get("minihttp.healthz_p50_us").unwrap_or(0.0);
        ctx.report.reconcile(
            "us",
            &[
                ("minihttp.healthz_p50_us (request floor)", floor),
                (
                    "shard.one_query_batch_p50_us (in process)",
                    laps.reading("shard.one_query_batch_p50_us"),
                ),
            ],
            ("op_p50_us", phase[0].p50_us()),
        );
    }

    ctx.report.set("server.shutdown_ms", served.shutdown());
    Ok(())
}

/// `POST /batch`, the `/healthz` request floor, and the parser and writer
/// of `minihttp` alone, without a socket.
fn batches_and_floor(
    ctx: &mut Ctx,
    tr: &mut Tracer,
    client: &mut Client,
    pool: &[Aabb<3>],
    expected: &[Vec<u64>],
) {
    let sc = ctx.scale.clone();
    let mut lat = Vec::new();
    for b in 0..sc.serve_batches {
        let at = (b * sc.serve_batch) % (pool.len() - sc.serve_batch + 1);
        let body: String = pool[at..at + sc.serve_batch]
            .iter()
            .map(|q| {
                format!(
                    "{},{},{},{},{},{}\n",
                    q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
                )
            })
            .collect();
        let t = Instant::now();
        let reply = tr.op(|tr| {
            tr.call("minihttp.client.post_batch", |_| {
                client.post("/batch", "text/plain", body.as_bytes())
            })
        });
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        let ok = reply.ok().filter(|r| r.status == 200).is_some_and(|r| {
            Json::parse(&r.text())
                .ok()
                .and_then(|v| {
                    v.get("results")?
                        .as_arr()?
                        .iter()
                        .map(ids_of)
                        .collect::<Option<Vec<_>>>()
                })
                .is_some_and(|results| results == expected[at..at + sc.serve_batch])
        });
        ctx.report.check(ok, || {
            format!("POST /batch {b} fails or answers differently")
        });
    }
    ctx.report.set("server.batch_p50_us", median(&lat));

    let mut lat = Vec::new();
    for i in 0..sc.serve_healthz {
        let t = Instant::now();
        let reply = get_ok(client, "/healthz");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        ctx.report
            .check(reply.is_ok(), || format!("GET /healthz {i}: {reply:?}"));
    }
    ctx.report.set("minihttp.healthz_p50_us", median(&lat));

    const REPS: usize = 2_000;
    let request = format!(
        "GET {} HTTP/1.1\r\nHost: quasii\r\n\r\n",
        query_target(&pool[0])
    );
    let limits = Limits::default();
    let t = Instant::now();
    for _ in 0..REPS {
        let parsed = read_request(&mut request.as_bytes(), &limits);
        assert!(matches!(std::hint::black_box(parsed), Ok(Some(_))));
    }
    ctx.report.set(
        "minihttp.parse_ns",
        t.elapsed().as_nanos() as f64 / REPS as f64,
    );
    let ids: Vec<String> = (0..1_000u64).map(|i| (i * 997).to_string()).collect();
    let response = Response::json(200, format!("{{\"ids\":[{}]}}", ids.join(",")));
    let mut sink = Vec::new();
    let t = Instant::now();
    for _ in 0..REPS {
        sink.clear();
        response
            .write_to(&mut sink)
            .expect("writing into memory succeeds");
        std::hint::black_box(&sink);
    }
    ctx.report.set(
        "minihttp.write_ns",
        t.elapsed().as_nanos() as f64 / REPS as f64,
    );
}
