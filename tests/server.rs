//! End-to-end coverage for the HTTP query service: network-path responses
//! must be **byte-identical** to direct engine answers under concurrent
//! mixed single/batch traffic, including groups past the admission cap,
//! and graceful shutdown must drain already-accepted work.

use quasii_common::dataset;
use quasii_common::index::canonical_results;
use quasii_suite::prelude::*;

const DATA_N: usize = 2_500;
const DATA_SEED: u64 = 141;
const N_QUERIES: usize = 96;
const QUERY_SEED: u64 = 142;

fn dataset_and_queries(n: usize) -> (Vec<Record<3>>, Vec<Aabb<3>>) {
    let data = dataset::uniform_boxes::<3>(DATA_N, DATA_SEED);
    let universe = quasii_common::geom::mbb_of(&data);
    let queries = workload::skewed(&universe, 6, n, 1e-3, 1.1, QUERY_SEED).queries;
    (data, queries)
}

fn reference(data: &[Record<3>], queries: &[Aabb<3>]) -> Vec<Vec<u64>> {
    let mut seq = Quasii::new(data.to_vec(), QuasiiConfig::default());
    canonical_results(&mut seq, queries)
}

fn engine(data: &[Record<3>], shards: usize) -> ShardedQuasii<3> {
    let cfg = ShardConfig::default().with_shards(shards);
    ShardedQuasii::new(data.to_vec(), cfg)
}

fn query_target(q: &Aabb<3>) -> String {
    format!(
        "/query?lo={},{},{}&hi={},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

fn batch_line(q: &Aabb<3>) -> String {
    format!(
        "{},{},{},{},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

/// Parses one `[1,2,3]` id array starting at `s[from..]`; returns the ids
/// and the index just past the closing bracket.
fn parse_id_array(s: &str, from: usize) -> (Vec<u64>, usize) {
    let open = from + s[from..].find('[').expect("array open");
    let close = open + s[open..].find(']').expect("array close");
    let inner = s[open + 1..close].trim();
    let ids = if inner.is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|t| t.trim().parse().expect("id"))
            .collect()
    };
    (ids, close + 1)
}

/// Parses `{"results":[[…],[…],…]}` into per-query id vectors.
fn parse_results(body: &str, expect: usize) -> Vec<Vec<u64>> {
    let mut out = Vec::with_capacity(expect);
    let mut at = body.find("\"results\"").expect("results key") + "\"results\":[".len();
    for _ in 0..expect {
        let (ids, next) = parse_id_array(body, at);
        out.push(ids);
        at = next;
    }
    out
}

/// The core contract: concurrent clients mixing single `GET /query` and
/// `POST /batch` traffic read back exactly the canonical answers, whatever
/// groups admission forms from them.
#[test]
fn network_path_is_byte_identical_under_mixed_traffic() {
    // 6 concurrent clients; even ones send singles, odd ones send client
    // batches — both shapes in flight at once.
    const CLIENTS: usize = 6;
    // (shape, queries per client, queries per client batch). Two batches
    // of 40 queued together form a group past the 64-query cap.
    for (name, per_client, batch) in [
        ("client batches of 7", N_QUERIES / CLIENTS, 7),
        ("client batches of 40", 40, 40),
    ] {
        let (data, queries) = dataset_and_queries(CLIENTS * per_client);
        let expected = reference(&data, &queries);
        let handle = quasii_server::start(engine(&data, 3), "127.0.0.1:0", ServeConfig::default())
            .expect("bind");
        let addr = handle.addr();

        let mut answers: Vec<(usize, Vec<Vec<u64>>)> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for (c, slice) in queries.chunks(per_client).enumerate() {
                workers.push(scope.spawn(move || {
                    let mut client = minihttp::Client::connect(addr).expect("connect");
                    let mut got = Vec::with_capacity(slice.len());
                    if c % 2 == 0 {
                        for q in slice {
                            let r = client.get(&query_target(q)).expect("GET /query");
                            assert_eq!(r.status, 200, "{name}: {}", r.text());
                            let (ids, _) = parse_id_array(&r.text(), 0);
                            got.push(ids);
                        }
                    } else {
                        for group in slice.chunks(batch) {
                            let body = group.iter().map(batch_line).collect::<Vec<_>>().join("\n");
                            let r = client
                                .post("/batch", "text/plain", body.as_bytes())
                                .expect("POST /batch");
                            assert_eq!(r.status, 200, "{name}: {}", r.text());
                            got.extend(parse_results(&r.text(), group.len()));
                        }
                    }
                    (c * per_client, got)
                }));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("client"))
                .collect()
        });
        answers.sort_by_key(|(start, _)| *start);
        let merged: Vec<Vec<u64>> = answers.into_iter().flat_map(|(_, got)| got).collect();
        assert_eq!(
            merged, expected,
            "{name}: network answers diverged from the canonical reference"
        );
        handle.shutdown();
    }
}

/// Graceful shutdown drains the queue: a client batch the server has
/// admitted before the shutdown trigger gets its (correct) answer, not a
/// dropped connection. Whether its group is still running when the
/// trigger arrives depends on timing here; the `crates/server` unit test
/// `shutdown_returns_only_once_the_leader_is_done` holds the engine lock
/// to make it certain.
#[test]
fn shutdown_drains_accepted_work() {
    let (data, _) = dataset_and_queries(N_QUERIES);
    let universe = quasii_common::geom::mbb_of(&data);
    // A large client batch on a fresh index: its group cracks for a while.
    let queries = workload::uniform(&universe, 4_000, 1e-2, QUERY_SEED).queries;
    let expected = reference(&data, &queries);
    let handle = quasii_server::start(engine(&data, 2), "127.0.0.1:0", ServeConfig::default())
        .expect("bind");
    let addr = handle.addr();
    // The batch alone admits more queries than every other test here.
    quasii_obs::set_enabled(true);
    let admitted = quasii_obs::registry::SERVER_QUERIES_TOTAL.get() + queries.len() as u64;
    let body = queries
        .iter()
        .map(batch_line)
        .collect::<Vec<_>>()
        .join("\n");
    let client = std::thread::spawn(move || {
        let mut client = minihttp::Client::connect(addr).expect("connect");
        let r = client
            .post("/batch", "text/plain", body.as_bytes())
            .expect("round-trip");
        assert_eq!(r.status, 200, "{}", r.text());
        let got = parse_results(&r.text(), expected.len());
        assert_eq!(got, expected, "drained answers must still be canonical");
    });
    // Shut down once the batch's group has started.
    let t = std::time::Instant::now();
    while quasii_obs::registry::SERVER_QUERIES_TOTAL.get() < admitted {
        assert!(
            t.elapsed() < std::time::Duration::from_secs(30),
            "the batch was never admitted"
        );
        std::thread::yield_now();
    }
    handle.shutdown();
    client.join().expect("waiting client got its answer");
}

/// Malformed and oversized requests answer named 4xx statuses over the
/// wire — the robustness seam, exercised through a real socket.
#[test]
fn malformed_requests_get_named_statuses() {
    let (data, _) = dataset_and_queries(N_QUERIES);
    let handle = quasii_server::start(engine(&data, 2), "127.0.0.1:0", ServeConfig::default())
        .expect("bind");
    let mut c = minihttp::Client::connect(handle.addr()).expect("connect");

    for (target, expect) in [
        ("/query", 400),                   // missing params
        ("/query?lo=1,2&hi=3,4,5", 400),   // wrong arity
        ("/query?lo=1,x,3&hi=4,5,6", 400), // non-numeric
        ("/query?lo=9,9,9&hi=1,1,1", 400), // inverted box
        ("/nope", 404),                    // unknown path
    ] {
        let r = c.get(target).expect("round-trip");
        assert_eq!(r.status, expect, "{target}: {}", r.text());
        assert!(r.text().contains("error"), "{target}: {}", r.text());
    }
    let r = c
        .post("/batch", "text/plain", b"1,2,3\n")
        .expect("bad line");
    assert_eq!(r.status, 400);
    let r = c.post("/batch", "text/plain", b"").expect("empty batch");
    assert_eq!(r.status, 400);
    // DELETE on a known path: method not allowed.
    let r = c
        .roundtrip("DELETE", "/query", "text/plain", b"")
        .expect("method");
    assert_eq!(r.status, 405);

    // Oversized body: bounded with a named 413, connection closed after.
    let huge = vec![b'9'; 2 << 20];
    let r = minihttp::Client::connect(handle.addr())
        .expect("connect")
        .post("/batch", "text/plain", &huge)
        .expect("oversized body");
    assert_eq!(r.status, 413, "{}", r.text());

    handle.shutdown();
}

/// The `/snapshots` health payload carries the deployment shape and the
/// universe the load generator samples workloads from.
#[test]
fn snapshots_payload_names_the_deployment() {
    let (data, queries) = dataset_and_queries(N_QUERIES);
    let handle = quasii_server::start(engine(&data, 3), "127.0.0.1:0", ServeConfig::default())
        .expect("bind");
    let mut c = minihttp::Client::connect(handle.addr()).expect("connect");
    let _ = c.get(&query_target(&queries[0])).expect("warm one query");
    let body = c.get("/snapshots").expect("snapshots").text();
    assert!(body.contains(&format!("\"records\":{DATA_N}")), "{body}");
    assert!(body.contains("\"shards\":3"), "{body}");
    assert!(body.contains("\"poisoned\":false"), "{body}");
    assert!(body.contains("\"universe\""), "{body}");
    assert!(body.contains("\"router\""), "{body}");
    // Three per-shard objects, with the outermost fences (±∞) mapped to
    // JSON null rather than emitting invalid tokens.
    assert_eq!(body.matches("\"shard\":").count(), 3, "{body}");
    assert!(body.contains("\"key_lo\":null"), "{body}");
    assert!(body.contains("\"key_hi\":null"), "{body}");
    assert!(!body.contains("inf"), "{body}");
    handle.shutdown();
}
