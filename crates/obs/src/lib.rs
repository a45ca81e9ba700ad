//! Zero-dependency observability for the QUASII suite.
//!
//! Two pieces, both `std`-only (the vendored-shim policy — no crates.io):
//!
//! * **Metrics** ([`metrics`]) — atomics-backed [`Counter`]s, [`Gauge`]s
//!   and fixed log-bucket latency [`Histogram`]s (p50/p90/p99/max). A
//!   histogram is striped across a fixed set of per-thread shards and
//!   merged on read, so concurrent workers never contend on a bucket.
//!   [`CounterGroup`] is the shared snapshot/merge idiom the engine's
//!   lifecycle counters (`SealStats`, `RouterStats`) are built on.
//! * **Registry** ([`registry`]) — a static table of every metric the
//!   suite exposes, with two exporters: a human table and
//!   Prometheus-style text exposition (plus a parser for the exposition,
//!   so round-trips are testable without external tooling).
//!
//! # Enabling
//!
//! Metrics default to off so instrumented code paths are ~free:
//!
//! ```
//! quasii_obs::set_enabled(true);              // counters + histograms
//! // ... run queries ...
//! println!("{}", quasii_obs::registry::render_table());
//! quasii_obs::set_enabled(false);
//! ```
//!
//! # The determinism contract
//!
//! Observability is strictly a side channel: nothing in the engine may
//! branch on a metric value, so an instrumented engine answers
//! every query byte-identically to a disabled one (ids, permutation,
//! `QuasiiStats`). The workspace `tests/obs.rs` suite proptests exactly
//! that across thread counts × batch shapes × seal on/off.

pub mod metrics;
pub mod registry;

pub use metrics::{Counter, CounterGroup, Gauge, GaugeVec, Histogram, HistogramSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Global metrics switch (counters, gauges, histograms). Off by default.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off globally. Off (the default) makes
/// every instrumentation site a single relaxed load plus a branch.
pub fn set_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is enabled.
#[inline]
pub fn enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Starts a latency measurement: `Some(now)` when metrics are enabled,
/// `None` (free) otherwise. Pair with [`Histogram::observe_since`].
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Nanoseconds elapsed since a [`start`] mark (0 if unarmed).
#[inline]
pub fn elapsed_nanos(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
}

/// Closes a batch-phase span: feeds the phase histogram. `t` comes from
/// [`start`], so a disabled site costs one relaxed load. The engine books
/// its phases here, and so does a sharded deployment's read phase.
pub fn finish_phase(t: Option<Instant>, phase: Phase) {
    registry::batch_phase(phase).observe_since(t);
}

/// The batch execution phases the engine reports spans for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Classifying each query of a batch as sealed-read vs crack work.
    Classify,
    /// The `&self` shared-read pool over the sealed arenas: an engine's,
    /// or a sharded deployment's read of its converged queries.
    SealedRead,
    /// The partitioned adaptive (`&mut`) crack phase.
    Crack,
    /// Partition reassembly: slice runs reattached, hits concatenated.
    Merge,
}

impl Phase {
    /// All phases, in execution order (also the registry storage order).
    pub const ALL: [Phase; 4] = [
        Phase::Classify,
        Phase::SealedRead,
        Phase::Crack,
        Phase::Merge,
    ];

    /// The label value used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Classify => "classify",
            Phase::SealedRead => "sealed_read",
            Phase::Crack => "crack",
            Phase::Merge => "merge",
        }
    }
}

/// The query-service endpoints (`crates/server`) the registry keeps
/// per-endpoint request latency histograms for — the same fixed-enum
/// indexing idiom as [`Phase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /query` — one range query per request.
    Query,
    /// `POST /batch` — a client-side query batch per request.
    Batch,
    /// `GET /snapshots` — shard health/balance payload.
    Snapshots,
    /// `GET /metrics` — Prometheus exposition scrape.
    Metrics,
    /// `/admin/*` and `/healthz` — control-plane requests.
    Admin,
    /// Anything else (404s and unknown methods).
    Other,
}

impl Endpoint {
    /// All endpoints, in registry storage order.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Query,
        Endpoint::Batch,
        Endpoint::Snapshots,
        Endpoint::Metrics,
        Endpoint::Admin,
        Endpoint::Other,
    ];

    /// The label value used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Snapshots => "snapshots",
            Endpoint::Metrics => "metrics",
            Endpoint::Admin => "admin",
            Endpoint::Other => "other",
        }
    }
}

/// The stages of one `/query` or `/batch` request inside `crates/server`,
/// in the order a request passes them, which is also the registry storage
/// order (the fixed-enum indexing idiom of [`Phase`]). The clocks a request
/// passes sum to its [`Endpoint`] latency less the wake-ups between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Slot pushed onto the admission queue → its group closed. A `/query`
    /// answered by a read is not admitted and has none.
    Queue,
    /// The group's engine call, engine lock wait included; for a `/query`
    /// answered by a read, the read with its shared guard.
    Engine,
    /// Rendering the response body.
    Encode,
    /// Writing the response to the socket.
    Write,
}
