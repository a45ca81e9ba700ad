//! The query service layer: an HTTP/1.1 server (over the vendored
//! [`minihttp`] shim) fronting a [`ShardedQuasii`] deployment held in one
//! `RwLock`. Quokka's rule (one writer, reads first): a query that cracks
//! nothing is **read** under a shared guard, and whatever needs the writer
//! goes through **admission batching**, whose leader is the single writer.
//! Either way a request runs on the connection thread that parsed it;
//! there is no dispatcher thread to hand it to.
//!
//! * **Who reads.** A `GET /query` first tries [`ShardedQuasii::read`]
//!   under `try_read`, and enters admission only when some shard it
//!   routes to needs a crack or the guard is refused. `try_read` is
//!   refused while a writer holds the lock or waits for it, so a reader
//!   never blocks behind a crack and never starves the writer: it queues
//!   behind it instead.
//! * **Who writes.** Every other `/query` and every `POST /batch` pushes
//!   one slot onto a **bounded** queue (a full queue answers 503 instead
//!   of buffering without bound). A submitter that finds no leader becomes
//!   it: it takes a group from the head of the queue (its own slot first),
//!   runs it as one [`ShardedQuasii::try_execute_batch`] under the write
//!   guard, passes leadership to the next queued slot (or clears it)
//!   *before* answering its group, then encodes and writes its own
//!   response. A submitter that finds a leader waits on its slot and is
//!   woken once, with its answer or as the next leader, whichever comes
//!   first. A lone request crosses no thread boundary.
//! * **When a group closes.** At once: the leader takes its own slot,
//!   then whatever queued behind it, whole slots, until the group holds
//!   `MAX_GROUP` (64) queries, and never waits for a follow-up. Under load a
//!   group is what queued while the previous group ran; an idle service
//!   adds no wait at all. (A waited-for admission window bought no
//!   grouping on any traffic measured: EXPERIMENTS.md, "Admission takes
//!   what is queued".)
//!
//! **Determinism across the network boundary**: the engine's batching
//! invisibility (results are byte-identical for every batch shape, and a
//! read equals a one-query batch) means neither admission grouping nor
//! the read path can change an answer — the workspace
//! `tests/server.rs` suite asserts network-path responses equal direct
//! `execute_batch` answers under concurrent single and client-batch
//! traffic, including client batches large enough that a group crosses
//! `MAX_GROUP`.
//!
//! Failure posture: a worker panic poisons the engine
//! ([`quasii::EnginePoisoned`]); every queued and future submission is
//! answered 503 until `POST /admin/repair` runs the engine's repair
//! protocol (`/healthz` reports it without taking the engine lock), and a
//! leader that unwinds fails alone (`Term`). Graceful shutdown (the
//! [`ServerHandle`] or `POST /admin/shutdown`) stops admission and
//! **drains** the queue: [`ServerHandle::shutdown`] returns once the
//! acceptor has exited, no leader is active and the queue is empty, so
//! every already-accepted submission has its answer.
//!
//! # Endpoints
//!
//! | Method+path            | Meaning                                          |
//! |------------------------|--------------------------------------------------|
//! | `GET /query?lo=a,b,c&hi=d,e,f` | one range query → `{"ids":[…]}`          |
//! | `POST /batch` (text lines `lo0,lo1,lo2,hi0,hi1,hi2`) | client batch → `{"results":[[…],…]}` |
//! | `GET /snapshots`       | shard health/balance payload (JSON)              |
//! | `GET /metrics`         | Prometheus text exposition                       |
//! | `GET /healthz`         | `200 ok` / `503 poisoned`                        |
//! | `POST /admin/repair`   | clear a poison marker (engine repair protocol)   |
//! | `POST /admin/shutdown` | graceful shutdown (drains the queue)             |

#![warn(missing_docs)]

mod admission;

use admission::{Admission, GroupReply, Rejection};
use minihttp::{read_request, Limits, Request, Response};
use quasii_common::geom::Aabb;
use quasii_common::index::SpatialIndex;
use quasii_obs as obs;
use quasii_obs::registry::server_stage;
use quasii_obs::Stage;
use quasii_shard::ShardedQuasii;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-queue and request-bound knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded submission-queue capacity (submissions, not queries); a
    /// full queue answers 503.
    pub queue_cap: usize,
    /// Request-body byte bound (`POST /batch`); larger bodies answer 413.
    pub max_body_bytes: usize,
    /// Queries per `POST /batch` request; larger batches answer 413.
    pub max_queries_per_request: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            max_body_bytes: 1 << 20,
            max_queries_per_request: 4096,
        }
    }
}

impl ServeConfig {
    /// Sets [`queue_cap`](Self::queue_cap) (clamped to ≥ 1).
    pub fn with_queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }
}

/// State shared between the acceptor and the connection threads.
struct Shared {
    engine: RwLock<ShardedQuasii<3>>,
    /// The engine's poison marker, kept beside it so that `/healthz` does
    /// not queue behind the group that holds the engine lock: set where a
    /// group comes back poisoned, refreshed by `/admin/repair`.
    poisoned: AtomicBool,
    admission: Admission,
    addr: SocketAddr,
    /// MBB over every record (computed once; the dataset never mutates).
    universe: Aabb<3>,
    records: usize,
}

impl Shared {
    /// Runs one closed group as one engine batch and splits the answers
    /// back by slot: batching is invisible in the results, so each slot
    /// gets what it would have got alone. On poison every slot gets the
    /// detail (→ 503): the service never returns partial results.
    fn execute(&self, groups: &[&[Aabb<3>]]) -> GroupReply {
        let flat = groups.concat();
        let mut engine = self.engine.write().expect("engine lock poisoned");
        let mut answers = engine
            .try_execute_batch(&flat)
            .map_err(|e| {
                self.poisoned.store(true, Ordering::Relaxed);
                let detail = e.detail;
                format!("engine poisoned: {detail}; POST /admin/repair to recover")
            })?
            .into_iter();
        Ok(groups
            .iter()
            .map(|g| answers.by_ref().take(g.len()).collect())
            .collect())
    }
}

/// A running server: the bound address plus the acceptor thread. Dropping
/// the handle triggers (but does not wait for) shutdown; call
/// [`shutdown`](Self::shutdown) for the drained, joined variant or
/// [`wait`](Self::wait) to block until `POST /admin/shutdown` arrives.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop admission, join the acceptor, and return
    /// once no leader is active and the queue is empty (every accepted
    /// submission has been answered).
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared);
        self.join_and_drain();
    }

    /// Blocks until the server shuts down (via `POST /admin/shutdown` or a
    /// concurrent [`trigger_shutdown`]), then drains like
    /// [`shutdown`](Self::shutdown).
    pub fn wait(mut self) {
        self.join_and_drain();
    }

    fn join_and_drain(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            if acceptor.join().is_err() {
                eprintln!("[quasii-server] the acceptor thread panicked");
            }
        }
        self.shared.admission.drain();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Idempotent: shutdown()/wait() have already joined by now.
        trigger_shutdown(&self.shared);
    }
}

/// Flips the shutdown flag and wakes the acceptor (self-connect).
/// Idempotent.
fn trigger_shutdown(shared: &Shared) {
    if !shared.admission.shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Starts the service on `addr` (use port `0` for an ephemeral port) over
/// an already-built engine. Returns once the listener is bound; the
/// acceptor and the connection threads run in the background.
pub fn start(
    engine: ShardedQuasii<3>,
    addr: &str,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind '{addr}': {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let mut universe = Aabb::empty();
    for e in engine.engines() {
        universe.expand(&e.data_bounds());
    }
    let records = engine.len();

    let shared = Arc::new(Shared {
        poisoned: AtomicBool::new(engine.is_poisoned()),
        engine: RwLock::new(engine),
        admission: Admission::new(cfg),
        addr: local,
        universe,
        records,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("quasii-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.admission.shutting_down() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Connection threads are detached: they exit on
                    // client close, read timeout, or the next response
                    // after shutdown flips (Connection: close).
                    let _ = std::thread::Builder::new()
                        .name("quasii-conn".into())
                        .spawn(move || handle_connection(&shared, stream));
                }
            })
            .map_err(|e| format!("spawn acceptor: {e}"))?
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor: Some(acceptor),
    })
}

/// The keep-alive request loop of one accepted connection.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Idle keep-alive connections are reaped so detached threads never
    // outlive their clients by much.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let limits = Limits {
        max_body: shared.admission.cfg.max_body_bytes,
        ..Limits::default()
    };
    loop {
        let req = match read_request(&mut reader, &limits) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                // Named parse errors get a status; transport errors and
                // read timeouts just drop the connection.
                if let Some(status) = e.status() {
                    if obs::enabled() {
                        obs::registry::SERVER_BAD_REQUESTS_TOTAL.inc();
                    }
                    let _ = Response::json(
                        status,
                        format!("{{\"error\":\"{}\"}}", esc(&e.to_string())),
                    )
                    .closing()
                    .write_to(&mut writer);
                    // Consume what the client already sent before closing:
                    // dropping the socket with unread input would RST the
                    // error response out of the client's receive buffer.
                    let _ = writer.set_read_timeout(Some(Duration::from_millis(50)));
                    let mut sink = [0u8; 4096];
                    let mut drained = 0usize;
                    while drained < (8 << 20) {
                        match std::io::Read::read(&mut reader, &mut sink) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => drained += n,
                        }
                    }
                }
                return;
            }
        };
        let t = obs::start();
        let endpoint = endpoint_of(&req);
        let mut resp = route(shared, &req);
        if resp.status >= 400 && resp.status < 500 && obs::enabled() {
            obs::registry::SERVER_BAD_REQUESTS_TOTAL.inc();
        }
        let close = resp.close || req.wants_close() || shared.admission.shutting_down();
        resp.close = close;
        let t_write = obs::start();
        let ok = resp.write_to(&mut writer).is_ok();
        if obs::enabled() {
            if matches!(endpoint, obs::Endpoint::Query | obs::Endpoint::Batch) {
                server_stage(Stage::Write).observe_since(t_write);
            }
            obs::registry::server_request(endpoint).observe_since(t);
        }
        if close || !ok {
            return;
        }
    }
}

/// Maps a request to its latency-histogram endpoint.
fn endpoint_of(req: &Request) -> obs::Endpoint {
    match req.path() {
        "/query" => obs::Endpoint::Query,
        "/batch" => obs::Endpoint::Batch,
        "/snapshots" => obs::Endpoint::Snapshots,
        "/metrics" => obs::Endpoint::Metrics,
        "/healthz" => obs::Endpoint::Admin,
        p if p.starts_with("/admin/") => obs::Endpoint::Admin,
        _ => obs::Endpoint::Other,
    }
}

/// JSON string escaping for error bodies (names and details only — the
/// data-plane payloads are numeric).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn err_json(status: u16, msg: &str) -> Response {
    Response::json(status, format!("{{\"error\":\"{}\"}}", esc(msg)))
}

/// A JSON number for `v`, or `null` when non-finite (fence bounds of the
/// outermost shards are ±∞, which JSON cannot carry).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Parses `a,b,c` into a finite 3-vector, naming `what` in errors.
fn parse_triple(what: &str, s: &str) -> Result<[f64; 3], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!(
            "{what}: expected 3 comma-separated numbers, got {} in '{s}'",
            parts.len()
        ));
    }
    let mut out = [0.0f64; 3];
    for (d, p) in parts.iter().enumerate() {
        let v: f64 = p
            .trim()
            .parse()
            .map_err(|_| format!("{what}: cannot parse '{p}' as a number"))?;
        if !v.is_finite() {
            return Err(format!("{what}: '{p}' is not finite"));
        }
        out[d] = v;
    }
    Ok(out)
}

/// Parses one query line / query-param pair into an [`Aabb`].
fn parse_box(lo: &str, hi: &str) -> Result<Aabb<3>, String> {
    let lo = parse_triple("lo", lo)?;
    let hi = parse_triple("hi", hi)?;
    for d in 0..3 {
        if lo[d] > hi[d] {
            return Err(format!(
                "lo[{d}] = {} exceeds hi[{d}] = {} (empty boxes must still be ordered)",
                lo[d], hi[d]
            ));
        }
    }
    Ok(Aabb::new(lo, hi))
}

/// Parses a `POST /batch` body: one query per non-empty line, each
/// `lo0,lo1,lo2,hi0,hi1,hi2`.
fn parse_batch_body(body: &[u8], max_queries: usize) -> Result<Vec<Aabb<3>>, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    let mut queries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if queries.len() >= max_queries {
            return Err((
                413,
                format!("batch exceeds the {max_queries}-query per-request limit"),
            ));
        }
        let nums: Vec<&str> = line.split(',').collect();
        if nums.len() != 6 {
            return Err((
                400,
                format!(
                    "line {}: expected 6 comma-separated numbers (lo0,lo1,lo2,hi0,hi1,hi2), got {}",
                    i + 1,
                    nums.len()
                ),
            ));
        }
        let q = parse_box(&nums[..3].join(","), &nums[3..].join(","))
            .map_err(|e| (400, format!("line {}: {e}", i + 1)))?;
        queries.push(q);
    }
    if queries.is_empty() {
        return Err((400, "batch body holds no queries".to_string()));
    }
    Ok(queries)
}

/// Appends `v` in decimal: the bytes of `u64::to_string`, rendered
/// straight into `out` without the `String` per number.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends one id vector as a JSON array.
fn push_ids(out: &mut Vec<u8>, ids: &[u64]) {
    out.reserve(ids.len() * 8 + 2);
    out.push(b'[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, *id);
    }
    out.push(b']');
}

/// The 200 response over a body rendered since `t` (the `encode` stage).
fn rendered(t: Option<Instant>, body: Vec<u8>) -> Response {
    server_stage(Stage::Encode).observe_since(t);
    let mut resp = Response::json(200, String::new());
    resp.body = body;
    resp
}

/// Submits one request's queries and waits for their answers: from the
/// group's leader, or by leading a group on this thread.
fn submit_and_wait(shared: &Shared, queries: Vec<Aabb<3>>) -> Result<Vec<Vec<u64>>, Response> {
    let admission = &shared.admission;
    let rejection = match admission.enqueue(queries) {
        Ok((slot, lead)) => {
            return admission
                .finish(&slot, lead, &|groups| shared.execute(groups))
                .map_err(|msg| err_json(503, &msg));
        }
        Err(rejection) => rejection,
    };
    if obs::enabled() {
        obs::registry::SERVER_REJECTED_TOTAL.inc();
    }
    Err(match rejection {
        Rejection::Overloaded => err_json(503, "admission queue is full, retry later"),
        Rejection::ShuttingDown => err_json(503, "server is shutting down").closing(),
    })
}

/// Answers one `GET /query`: a read under a shared engine guard, else
/// through admission (see "Who reads" in the module docs).
fn read_or_submit(shared: &Shared, q: Aabb<3>) -> Result<Vec<u64>, Response> {
    let t = obs::start();
    let mut ids = Vec::new();
    if shared.engine.try_read().is_ok_and(|e| e.read(&q, &mut ids)) {
        server_stage(Stage::Engine).observe_since(t);
        return Ok(ids);
    }
    submit_and_wait(shared, vec![q]).map(|mut answers| answers.swap_remove(0))
}

/// Routes one parsed request to its endpoint handler.
fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path()) {
        ("GET", "/query") => {
            let (Some(lo), Some(hi)) = (req.query_param("lo"), req.query_param("hi")) else {
                return err_json(400, "need query params lo=a,b,c and hi=d,e,f");
            };
            let q = match parse_box(lo, hi) {
                Ok(q) => q,
                Err(e) => return err_json(400, &e),
            };
            match read_or_submit(shared, q) {
                Ok(ids) => {
                    let t = obs::start();
                    let mut body = b"{\"ids\":".to_vec();
                    push_ids(&mut body, &ids);
                    body.push(b'}');
                    rendered(t, body)
                }
                Err(resp) => resp,
            }
        }
        ("POST", "/batch") => {
            let queries =
                match parse_batch_body(&req.body, shared.admission.cfg.max_queries_per_request) {
                    Ok(q) => q,
                    Err((status, msg)) => return err_json(status, &msg),
                };
            match submit_and_wait(shared, queries) {
                Ok(answers) => {
                    let t = obs::start();
                    let mut body = b"{\"results\":[".to_vec();
                    for (i, a) in answers.iter().enumerate() {
                        if i > 0 {
                            body.push(b',');
                        }
                        push_ids(&mut body, a);
                    }
                    body.extend_from_slice(b"]}");
                    rendered(t, body)
                }
                Err(resp) => resp,
            }
        }
        ("GET", "/snapshots") => snapshots_json(shared),
        ("GET", "/metrics") => Response::text(200, obs::registry::render_prometheus()),
        ("GET", "/healthz") => {
            if shared.poisoned.load(Ordering::Relaxed) {
                err_json(503, "engine poisoned; POST /admin/repair to recover")
            } else {
                Response::json(200, "{\"status\":\"ok\"}")
            }
        }
        ("POST", "/admin/repair") => {
            let mut engine = shared.engine.write().expect("engine lock poisoned");
            let name = match engine.repair() {
                quasii::RepairOutcome::Clean => "clean",
                quasii::RepairOutcome::Revalidated => "revalidated",
                quasii::RepairOutcome::Rebuilt => "rebuilt",
            };
            shared
                .poisoned
                .store(engine.is_poisoned(), Ordering::Relaxed);
            Response::json(200, format!("{{\"outcome\":\"{name}\"}}"))
        }
        ("POST", "/admin/shutdown") => {
            trigger_shutdown(shared);
            Response::json(200, "{\"ok\":true}").closing()
        }
        ("GET" | "POST", _) => err_json(404, &format!("no such endpoint '{}'", req.path())),
        (m, _) => err_json(405, &format!("method '{m}' not allowed")),
    }
}

/// The `GET /snapshots` payload: deployment totals, router counters, the
/// dataset universe (the seam the load generator builds workloads from),
/// and one health/balance object per shard.
fn snapshots_json(shared: &Shared) -> Response {
    let engine = shared.engine.read().expect("engine lock poisoned");
    let snaps = engine.snapshots();
    let router = engine.router_stats();
    let mut body = format!(
        "{{\"records\":{},\"shards\":{},\"sealed_fraction\":{:.6},\"poisoned\":{},\
         \"generation\":{},\"router\":{{\"queries\":{},\"shard_visits\":{}}},\
         \"universe\":{{\"lo\":[{},{},{}],\"hi\":[{},{},{}]}},\"shard_detail\":[",
        shared.records,
        snaps.len(),
        engine.sealed_fraction(),
        engine.is_poisoned(),
        engine.generation(),
        router.queries,
        router.shard_visits,
        jnum(shared.universe.lo[0]),
        jnum(shared.universe.lo[1]),
        jnum(shared.universe.lo[2]),
        jnum(shared.universe.hi[0]),
        jnum(shared.universe.hi[1]),
        jnum(shared.universe.hi[2]),
    );
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"shard\":{},\"key_lo\":{},\"key_hi\":{},\"records\":{},\"slices\":{},\
             \"queries\":{},\"sealed_fraction\":{:.6},\"index_bytes\":{},\"seal_bytes\":{}}}",
            s.shard,
            jnum(s.key_lo),
            jnum(s.key_hi),
            s.records,
            s.slices,
            s.stats.queries,
            s.sealed_fraction,
            s.index_bytes,
            s.seal_bytes,
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::relock;
    use quasii_common::dataset;
    use quasii_common::geom::Record;
    use quasii_common::index::brute_force;
    use quasii_common::workload;
    use quasii_shard::ShardConfig;
    use std::sync::{Mutex, MutexGuard};

    fn tiny_engine(n: usize, shards: usize) -> ShardedQuasii<3> {
        let data = dataset::uniform_boxes::<3>(n, 77);
        let cfg = ShardConfig::default().with_shards(shards);
        ShardedQuasii::new(data, cfg)
    }

    /// Held by every test that enqueues: `follower_that_hung_up_…` turns
    /// the process-wide metrics on and reads the queue-depth gauge, which
    /// any other test's submission would write meanwhile. A test that
    /// failed while holding it must not fail the rest.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        relock(LOCK.lock())
    }

    /// Spins until `cond` holds: the tests order threads by the queue
    /// state they wait for, never by sleeping a guessed time.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let t = Instant::now();
        while !cond() {
            assert!(t.elapsed() < Duration::from_secs(20), "never saw {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn digits_render_as_to_string_does() {
        for v in [0, 9, 10, 4_294_967_295, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes(), "{v}");
        }
        let mut out = Vec::new();
        push_ids(&mut out, &[]);
        push_ids(&mut out, &[7]);
        push_ids(&mut out, &[0, 10, u64::MAX]);
        assert_eq!(out, b"[][7][0,10,18446744073709551615]");
    }

    #[test]
    fn parse_errors_are_named_not_panics() {
        assert!(parse_triple("lo", "1,2").unwrap_err().contains("3 comma"));
        assert!(parse_triple("lo", "1,x,3").unwrap_err().contains("'x'"));
        assert!(parse_triple("lo", "1,inf,3")
            .unwrap_err()
            .contains("finite"));
        assert!(parse_box("5,0,0", "1,1,1").unwrap_err().contains("exceeds"));
        assert!(matches!(parse_batch_body(b"", 10), Err((400, _))));
        assert!(matches!(parse_batch_body(b"1,2,3\n", 10), Err((400, _))));
        assert!(matches!(
            parse_batch_body(b"0,0,0,1,1,1\n0,0,0,1,1,1\n", 1),
            Err((413, _))
        ));
        assert!(matches!(parse_batch_body(&[0xff, 0xfe], 10), Err((400, _))));
        let qs = parse_batch_body(b"0,0,0,1,1,1\n\n 2,2,2,3,3,3 \n", 10).unwrap();
        assert_eq!(qs.len(), 2);
    }

    #[test]
    fn server_round_trip_and_graceful_shutdown() {
        let _serial = serial();
        let handle = start(tiny_engine(800, 2), "127.0.0.1:0", ServeConfig::default())
            .expect("bind ephemeral");
        let addr = handle.addr();
        let mut c = minihttp::Client::connect(addr).unwrap();

        let r = c.get("/healthz").unwrap();
        assert_eq!(r.status, 200);
        let r = c.get("/query?lo=0,0,0&hi=1000,1000,1000").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().starts_with("{\"ids\":["), "{}", r.text());
        let r = c
            .post(
                "/batch",
                "text/plain",
                b"0,0,0,50,50,50\n10,10,10,90,90,90\n",
            )
            .unwrap();
        assert_eq!(r.status, 200);
        assert!(r.text().starts_with("{\"results\":[["), "{}", r.text());
        let r = c.get("/snapshots").unwrap();
        assert!(r.text().contains("\"universe\""), "{}", r.text());
        assert!(r.text().contains("\"shard_detail\""), "{}", r.text());
        let r = c.get("/metrics").unwrap();
        assert_eq!(r.status, 200);

        // Malformed and unroutable requests: named 4xx, never a panic.
        assert_eq!(c.get("/query?lo=1,2&hi=3,4,5").unwrap().status, 400);
        assert_eq!(c.get("/query").unwrap().status, 400);
        assert_eq!(c.get("/nope").unwrap().status, 404);
        assert_eq!(c.post("/batch", "text/plain", b"junk").unwrap().status, 400);
        let r = c.get(&format!("/query?lo={}", "9".repeat(16 * 1024)));
        // Over-long URI: the server answers 414 and closes the connection.
        assert_eq!(r.unwrap().status, 414);

        handle.shutdown();
        // The port is released: new connections are refused or reset.
        assert!(minihttp::Client::connect(addr)
            .and_then(|mut c| c
                .get("/healthz")
                .map_err(|_| std::io::Error::other("reset")))
            .is_err());
    }

    #[test]
    fn poisoned_engine_answers_503_until_repaired() {
        let _serial = serial();
        let mut engine = tiny_engine(600, 2);
        engine.inject_panic_at(0, 0);
        let handle = start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = minihttp::Client::connect(handle.addr()).unwrap();

        // The armed panic fires on the first query, poisoning the engine.
        let r = c.get("/query?lo=0,0,0&hi=1000,1000,1000").unwrap();
        assert_eq!(r.status, 503);
        assert!(r.text().contains("poisoned"), "{}", r.text());
        // Every later query keeps refusing …
        let r = c.get("/query?lo=0,0,0&hi=9,9,9").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(c.get("/healthz").unwrap().status, 503);
        // … until the repair endpoint clears the marker.
        let r = c.post("/admin/repair", "text/plain", b"").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"outcome\""), "{}", r.text());
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        let r = c.get("/query?lo=0,0,0&hi=1000,1000,1000").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        handle.shutdown();
    }

    #[test]
    fn admin_shutdown_endpoint_stops_the_server() {
        let _serial = serial();
        let handle = start(tiny_engine(400, 1), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let mut c = minihttp::Client::connect(addr).unwrap();
        let r = c.post("/admin/shutdown", "text/plain", b"").unwrap();
        assert_eq!(r.status, 200);
        // wait() returns because the endpoint triggered shutdown.
        handle.wait();
    }

    const EVERYTHING: &str = "/query?lo=0,0,0&hi=1000,1000,1000";

    /// One client round trip on a thread of its own; joins to the status.
    fn get_in_background(addr: SocketAddr, target: &'static str) -> JoinHandle<u16> {
        std::thread::spawn(move || {
            let mut c = minihttp::Client::connect(addr).unwrap();
            c.get(target).unwrap().status
        })
    }

    /// Whether `thread` ends within `limit`. A `false` can only be late,
    /// never wrong: the tests below use it where the parent would block.
    fn ends_within<T>(thread: &JoinHandle<T>, limit: Duration) -> bool {
        let t = Instant::now();
        while !thread.is_finished() && t.elapsed() < limit {
            std::thread::yield_now();
        }
        thread.is_finished()
    }

    #[test]
    fn healthz_does_not_queue_behind_the_engine_lock() {
        let handle = start(tiny_engine(400, 1), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let shared = Arc::clone(&handle.shared);
        // A group that executes for a long time, as a 4 096-query batch does.
        let executing = shared.engine.write().unwrap();
        let probe = get_in_background(handle.addr(), "/healthz");
        let answered = ends_within(&probe, Duration::from_millis(100));
        drop(executing);
        assert!(answered, "the liveness probe waited for the engine");
        assert_eq!(probe.join().unwrap(), 200);
        handle.shutdown();
    }

    #[test]
    fn follower_that_hung_up_neither_stalls_its_group_nor_keeps_leadership() {
        let _serial = serial();
        let handle = start(tiny_engine(400, 1), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let shared = Arc::clone(&handle.shared);
        let queue_is = |leader: bool, depth: usize| {
            let q = shared.admission.lock();
            q.leader == leader && q.slots.len() == depth
        };
        obs::set_enabled(true);

        // A leads a group of one and stops at the engine lock.
        let executing = shared.engine.write().unwrap();
        let a = get_in_background(handle.addr(), EVERYTHING);
        until("A leading", || queue_is(true, 0));
        // B queues behind it and hangs up; C queues behind B.
        let mut b = TcpStream::connect(handle.addr()).unwrap();
        std::io::Write::write_all(
            &mut b,
            format!("GET {EVERYTHING} HTTP/1.1\r\nHost: quasii\r\n\r\n").as_bytes(),
        )
        .unwrap();
        until("B queued", || queue_is(true, 1));
        drop(b);
        let c = get_in_background(handle.addr(), EVERYTHING);
        until("C queued", || queue_is(true, 2));
        drop(executing);

        // B is handed leadership, runs the group it shares with C, and
        // passes leadership on although nobody reads its own answer.
        assert_eq!(a.join().unwrap(), 200);
        assert_eq!(c.join().unwrap(), 200);
        until("leadership cleared", || queue_is(false, 0));
        assert_eq!(obs::registry::SERVER_QUEUE_DEPTH.get(), 0.0);
        obs::set_enabled(false);
        let next = get_in_background(handle.addr(), EVERYTHING);
        assert_eq!(next.join().unwrap(), 200);
        handle.shutdown();
    }

    fn query_target(q: &Aabb<3>) -> String {
        format!(
            "/query?lo={},{},{}&hi={},{},{}",
            q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
        )
    }

    /// The `GET /query` body of the brute-force answer.
    fn expected_body(data: &[Record<3>], q: &Aabb<3>) -> Vec<u8> {
        let mut body = b"{\"ids\":".to_vec();
        push_ids(&mut body, &brute_force(data, q));
        body.push(b'}');
        body
    }

    #[test]
    fn sealed_queries_are_read_without_admission() {
        let _serial = serial();
        let data = dataset::uniform_boxes::<3>(2_000, 77);
        let mut engine = tiny_engine(2_000, 2);
        engine.finalize();
        engine.seal();
        let handle = start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = minihttp::Client::connect(handle.addr()).unwrap();
        let mut queries = workload::uniform(&dataset::universe(10_000.0), 40, 1e-3, 78).queries;
        queries.push(Aabb::new([0.0; 3], [1e4; 3]));
        obs::set_enabled(true);
        let batches = obs::registry::SERVER_BATCHES_TOTAL.get();
        let queued = server_stage(Stage::Queue).snapshot().count;
        let engine_calls = server_stage(Stage::Engine).snapshot().count;
        for q in &queries {
            let r = c.get(&query_target(q)).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, expected_body(&data, q), "{q:?}");
        }
        let batches_after = obs::registry::SERVER_BATCHES_TOTAL.get();
        let queued_after = server_stage(Stage::Queue).snapshot().count;
        let engine_calls_after = server_stage(Stage::Engine).snapshot().count;
        obs::set_enabled(false);
        assert_eq!(batches_after, batches, "a sealed query entered admission");
        assert_eq!(queued_after, queued, "a read observes no queue stage");
        assert_eq!(engine_calls_after - engine_calls, queries.len() as u64);
        // A client batch still goes through admission.
        let r = c.post("/batch", "text/plain", b"0,0,0,50,50,50\n").unwrap();
        assert_eq!(r.status, 200);
        let router = handle.shared.engine.read().unwrap().router_stats();
        assert_eq!(router.queries, queries.len() as u64 + 1);
        handle.shutdown();
    }

    #[test]
    fn readers_beside_a_cracking_writer_answer_exactly_and_never_starve_it() {
        let _serial = serial();
        let data = dataset::uniform_boxes::<3>(4_000, 77);
        let mut engine = tiny_engine(4_000, 2);
        // One query over everything left of the fence converges shard 0;
        // shard 1 cracks only near the fence and stays mostly fresh.
        let fence = engine.fences().inner_bounds()[0];
        engine.execute_batch(&[Aabb::new([0.0; 3], [fence, 1e4, 1e4])]);
        engine.seal();
        assert_eq!(engine.engines()[0].sealed_fraction(), 1.0);
        assert!(engine.engines()[1].sealed_fraction() < 0.5);
        // Far enough from the fence that the router's extension cannot
        // reach across it: a left query reads shard 0 alone, a right one
        // cracks shard 1 alone.
        let side = |lo: f64, hi: f64, seed| {
            let u = Aabb::new([lo, 0.0, 0.0], [hi, 1e4, 1e4]);
            workload::uniform(&u, 32, 1e-3, seed).queries
        };
        let sealed = side(0.0, fence - 1_500.0, 79);
        let cracking = side(fence + 1_500.0, 1e4, 80);
        let mut out = Vec::new();
        assert!(sealed.iter().all(|q| engine.read(q, &mut out)));
        assert!(cracking.iter().all(|q| !engine.read(q, &mut out)));
        let cracks = engine.stats().cracks;

        let handle = start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let stop = Arc::new(AtomicBool::new(false));
        // Readers and the writer start sending together.
        let go = Arc::new(std::sync::Barrier::new(5));
        let (data, sealed) = (Arc::new(data), Arc::new(sealed));
        let readers: Vec<JoinHandle<usize>> = (0..4)
            .map(|k| {
                let (data, sealed, stop, go) =
                    (data.clone(), sealed.clone(), stop.clone(), go.clone());
                std::thread::spawn(move || {
                    let mut c = minihttp::Client::connect(addr).unwrap();
                    go.wait();
                    let mut sent = 0;
                    while sent < sealed.len() || !stop.load(Ordering::Relaxed) {
                        let q = &sealed[(k + sent) % sealed.len()];
                        let r = c.get(&query_target(q)).unwrap();
                        assert_eq!(r.status, 200);
                        assert_eq!(r.body, expected_body(&data, q), "reader {k}: {q:?}");
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        let writer = {
            let data = data.clone();
            std::thread::spawn(move || {
                let mut c = minihttp::Client::connect(addr).unwrap();
                go.wait();
                for q in &cracking {
                    let r = c.get(&query_target(q)).unwrap();
                    assert_eq!(r.status, 200);
                    assert_eq!(r.body, expected_body(&data, q), "writer: {q:?}");
                }
            })
        };
        // The starvation bound: 32 crack-path requests beside four
        // closed-loop readers take well under a second on a 2-vCPU host.
        let finished = ends_within(&writer, Duration::from_secs(20));
        stop.store(true, Ordering::Relaxed);
        assert!(finished, "the writer starved behind the readers");
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() >= 32);
        }
        let after = handle.shared.engine.read().unwrap().stats().cracks;
        assert!(after > cracks, "the writer cracked: {cracks} → {after}");
        handle.shutdown();
    }

    #[test]
    fn shutdown_returns_only_once_the_leader_is_done() {
        let _serial = serial();
        let handle = start(tiny_engine(400, 1), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let shared = Arc::clone(&handle.shared);
        let executing = shared.engine.write().unwrap();
        let a = get_in_background(handle.addr(), EVERYTHING);
        until("A leading", || {
            let q = shared.admission.lock();
            q.leader && q.slots.is_empty()
        });
        let shutdown = std::thread::spawn(move || handle.shutdown());
        // The accepted request is still executing: shutdown() must wait.
        let early = ends_within(&shutdown, Duration::from_millis(100));
        drop(executing);
        assert!(!early, "shutdown() returned over an active leader");
        shutdown.join().unwrap();
        let q = shared.admission.lock();
        assert!(!q.leader && q.slots.is_empty());
        drop(q);
        assert_eq!(a.join().unwrap(), 200);
    }
}
