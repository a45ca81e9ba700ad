//! The static metric registry: every metric the suite exposes, plus the
//! two exporters (human table, Prometheus text exposition) and a parser
//! for the exposition format so round-trips are testable without external
//! tooling.
//!
//! Metrics live in plain statics — registration is the `DEFS` table below,
//! so there is no runtime registration step, no locking on the hot path,
//! and the exporters can never observe a half-registered state.

use crate::metrics::{bucket_upper, Counter, Gauge, GaugeVec, Histogram, BUCKETS};
use crate::{Endpoint, Phase, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Engine (crates/core)
// ---------------------------------------------------------------------

/// Per-phase batch span latencies, indexed by [`Phase`] order. A sharded
/// deployment books its read phase as [`Phase::SealedRead`] too.
pub(crate) static BATCH_PHASE_SECONDS: [Histogram; 3] =
    [Histogram::new(), Histogram::new(), Histogram::new()];

/// The phase histogram for `p`.
pub(crate) fn batch_phase(p: Phase) -> &'static Histogram {
    &BATCH_PHASE_SECONDS[p as usize]
}

/// Batches executed through `try_execute_batch` (a single query is a
/// one-query batch).
pub static BATCHES_TOTAL: Counter = Counter::new();
/// Queries answered, `read` included.
pub static QUERIES_TOTAL: Counter = Counter::new();
/// Queries answered entirely through sealed arenas.
pub static SEALED_QUERIES_TOTAL: Counter = Counter::new();
/// Crack-kernel invocations (mirrors `QuasiiStats::cracks`).
pub static CRACKS_TOTAL: Counter = Counter::new();
/// Records moved by crack kernels (mirrors `QuasiiStats::records_cracked`).
pub static RECORDS_CRACKED_TOTAL: Counter = Counter::new();
/// Seal-sweep latencies (`try_seal` with work to do).
pub static SEAL_SWEEP_SECONDS: Histogram = Histogram::new();
/// Seal sweeps that actually walked the root list.
pub static SEAL_SWEEPS_TOTAL: Counter = Counter::new();
/// Regions sealed (each once: a seal is permanent).
pub static SEALS_TOTAL: Counter = Counter::new();
/// Dispatched SIMD kernel generation, 1 on the selected ISA (label:
/// `isa` = `scalar` | `sse2` | `avx2`; see `quasii::simd`).
pub static SIMD_LEVEL: GaugeVec = GaugeVec::new();

// ---------------------------------------------------------------------
// Shard router (crates/shard)
// ---------------------------------------------------------------------

/// Shards visited per routed query (dimensionless).
pub static SHARD_FANOUT: Histogram = Histogram::new();
/// Batches accepted by the shard router (a single query is a one-query
/// batch).
pub static SHARD_BATCHES_TOTAL: Counter = Counter::new();
/// Records owned per shard (label: shard index).
pub static SHARD_RECORDS: GaugeVec = GaugeVec::new();
/// Sealed fraction per shard (label: shard index).
pub static SHARD_SEALED_FRACTION: GaugeVec = GaugeVec::new();

// ---------------------------------------------------------------------
// Query service (crates/server)
// ---------------------------------------------------------------------

/// Per-endpoint request latency (parse → response written), indexed by
/// [`Endpoint`] order.
pub(crate) static SERVER_REQUEST_SECONDS: [Histogram; 6] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// The request-latency histogram for endpoint `e`.
pub fn server_request(e: Endpoint) -> &'static Histogram {
    &SERVER_REQUEST_SECONDS[e as usize]
}

/// Where a `/query` or `/batch` request spends its time, indexed by
/// [`Stage`] order; one sample per request and stage it passes (a `/query`
/// answered by a read is not admitted, so it has no `queue` sample).
pub(crate) static SERVER_STAGE_SECONDS: [Histogram; 4] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// The stage histogram for `s`.
pub fn server_stage(s: Stage) -> &'static Histogram {
    &SERVER_STAGE_SECONDS[s as usize]
}

/// Queries per admission group handed to `try_execute_batch` (what the
/// leader found queued, up to the group cap). A `/query` answered by a
/// read is not admitted.
pub static SERVER_BATCH_SIZE: Histogram = Histogram::new();
/// Admission groups executed by a group leader (a `/query` answered by a
/// read is not admitted).
pub static SERVER_BATCHES_TOTAL: Counter = Counter::new();
/// Queries admitted through the submission queue (a `/query` answered by
/// a read is not admitted).
pub static SERVER_QUERIES_TOTAL: Counter = Counter::new();
/// Queries that ran in an admission group of ≥ 2 queries — the batch-path
/// payoff counter (equal to `server_queries_total` minus lone queries).
pub static SERVER_BATCHED_QUERIES_TOTAL: Counter = Counter::new();
/// Submissions rejected with 503 by queue backpressure or shutdown.
pub static SERVER_REJECTED_TOTAL: Counter = Counter::new();
/// Requests answered 4xx (malformed path, params, or body).
pub static SERVER_BAD_REQUESTS_TOTAL: Counter = Counter::new();
/// Submissions waiting in the admission queue (point-in-time).
pub static SERVER_QUEUE_DEPTH: Gauge = Gauge::new();

// ---------------------------------------------------------------------
// Persistence (quasii_common::fsx / fault)
// ---------------------------------------------------------------------

/// Atomic-replace commit latencies (`write_atomic`).
pub static FSX_COMMIT_SECONDS: Histogram = Histogram::new();
/// Commits attempted through `write_atomic`.
pub static FSX_COMMITS_TOTAL: Counter = Counter::new();
/// Commits that failed (after retries).
pub static FSX_COMMIT_FAILURES_TOTAL: Counter = Counter::new();
/// Transient store errors absorbed by `RetryPolicy` retries.
pub static FSX_RETRIES_TOTAL: Counter = Counter::new();
/// Operations that kept failing transiently until the retry budget ran
/// out.
pub static FSX_RETRY_EXHAUSTED_TOTAL: Counter = Counter::new();
/// Store operations observed by a `FaultStore` wrapper.
pub static FSX_FAULT_OPS_TOTAL: Counter = Counter::new();
/// Faults a `FaultStore` actually injected (transients, crash points and
/// post-crash refusals).
pub static FSX_INJECTED_FAULTS_TOTAL: Counter = Counter::new();

/// What a registry entry points at.
pub(crate) enum Metric {
    /// A monotone counter.
    Counter(&'static Counter),
    /// A point-in-time level.
    Gauge(&'static Gauge),
    /// A labelled gauge family.
    GaugeVec(&'static GaugeVec),
    /// A latency/size distribution.
    Histogram(&'static Histogram),
}

/// The unit histogram samples are recorded in (drives export scaling).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// Dimensionless counts (exported raw).
    Count,
    /// Nanoseconds (exported as seconds).
    Seconds,
}

/// One registry row: a metric plus its export identity.
pub(crate) struct Def {
    /// Metric family name (Prometheus conventions).
    pub name: &'static str,
    /// One-line help string.
    pub help: &'static str,
    /// Pre-rendered label set (e.g. `phase="crack"`), empty for none. For
    /// [`Metric::GaugeVec`] this is the label *key*.
    pub labels: &'static str,
    /// Sample unit.
    pub unit: Unit,
    /// The metric itself.
    pub metric: Metric,
}

/// Every metric the suite exposes, grouped by family (exporters rely on
/// same-family rows being adjacent).
pub(crate) static DEFS: &[Def] = &[
    Def {
        name: "quasii_batch_phase_seconds",
        help: "Batch execution span per phase, an engine's or a sharded deployment's (its read phase)",
        labels: "phase=\"classify\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&BATCH_PHASE_SECONDS[Phase::Classify as usize]),
    },
    Def {
        name: "quasii_batch_phase_seconds",
        help: "Batch execution span per phase, an engine's or a sharded deployment's (its read phase)",
        labels: "phase=\"sealed_read\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&BATCH_PHASE_SECONDS[Phase::SealedRead as usize]),
    },
    Def {
        name: "quasii_batch_phase_seconds",
        help: "Batch execution span per phase, an engine's or a sharded deployment's (its read phase)",
        labels: "phase=\"crack\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&BATCH_PHASE_SECONDS[Phase::Crack as usize]),
    },
    Def {
        name: "quasii_batches_total",
        help: "Batches executed (a single query counts as a one-query batch)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&BATCHES_TOTAL),
    },
    Def {
        name: "quasii_queries_total",
        help: "Queries answered, read() included",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&QUERIES_TOTAL),
    },
    Def {
        name: "quasii_sealed_queries_total",
        help: "Queries answered entirely through sealed arenas",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SEALED_QUERIES_TOTAL),
    },
    Def {
        name: "quasii_cracks_total",
        help: "Crack-kernel invocations",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&CRACKS_TOTAL),
    },
    Def {
        name: "quasii_records_cracked_total",
        help: "Records moved by crack kernels",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&RECORDS_CRACKED_TOTAL),
    },
    Def {
        name: "quasii_seal_sweep_seconds",
        help: "Seal sweep latency (sweeps with work to do)",
        labels: "",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SEAL_SWEEP_SECONDS),
    },
    Def {
        name: "quasii_seal_sweeps_total",
        help: "Seal sweeps that walked the root list",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SEAL_SWEEPS_TOTAL),
    },
    Def {
        name: "quasii_seals_total",
        help: "Regions sealed",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SEALS_TOTAL),
    },
    Def {
        name: "quasii_simd_level",
        help: "Dispatched SIMD kernel generation (1 on the selected ISA)",
        labels: "isa",
        unit: Unit::Count,
        metric: Metric::GaugeVec(&SIMD_LEVEL),
    },
    Def {
        name: "quasii_shard_fanout",
        help: "Shards visited per routed query",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Histogram(&SHARD_FANOUT),
    },
    Def {
        name: "quasii_shard_batches_total",
        help: "Batches accepted by the shard router (a single query counts as a one-query batch)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SHARD_BATCHES_TOTAL),
    },
    Def {
        name: "quasii_shard_records",
        help: "Records owned per shard",
        labels: "shard",
        unit: Unit::Count,
        metric: Metric::GaugeVec(&SHARD_RECORDS),
    },
    Def {
        name: "quasii_shard_sealed_fraction",
        help: "Sealed fraction per shard",
        labels: "shard",
        unit: Unit::Count,
        metric: Metric::GaugeVec(&SHARD_SEALED_FRACTION),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"query\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Query as usize]),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"batch\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Batch as usize]),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"snapshots\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Snapshots as usize]),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"metrics\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Metrics as usize]),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"admin\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Admin as usize]),
    },
    Def {
        name: "quasii_server_request_seconds",
        help: "Request latency per endpoint (parse to response written)",
        labels: "endpoint=\"other\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_REQUEST_SECONDS[Endpoint::Other as usize]),
    },
    Def {
        name: "quasii_server_stage_seconds",
        help: "Time a /query or /batch request spends per stage (a /query answered by a read is not admitted and has no queue stage)",
        labels: "stage=\"queue\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_STAGE_SECONDS[Stage::Queue as usize]),
    },
    Def {
        name: "quasii_server_stage_seconds",
        help: "Time a /query or /batch request spends per stage (a /query answered by a read is not admitted and has no queue stage)",
        labels: "stage=\"engine\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_STAGE_SECONDS[Stage::Engine as usize]),
    },
    Def {
        name: "quasii_server_stage_seconds",
        help: "Time a /query or /batch request spends per stage (a /query answered by a read is not admitted and has no queue stage)",
        labels: "stage=\"encode\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_STAGE_SECONDS[Stage::Encode as usize]),
    },
    Def {
        name: "quasii_server_stage_seconds",
        help: "Time a /query or /batch request spends per stage (a /query answered by a read is not admitted and has no queue stage)",
        labels: "stage=\"write\"",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&SERVER_STAGE_SECONDS[Stage::Write as usize]),
    },
    Def {
        name: "quasii_server_batch_size",
        help: "Queries per admission group handed to try_execute_batch (a /query answered by a read is not admitted)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Histogram(&SERVER_BATCH_SIZE),
    },
    Def {
        name: "quasii_server_batches_total",
        help: "Admission groups executed by a group leader (a /query answered by a read is not admitted)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SERVER_BATCHES_TOTAL),
    },
    Def {
        name: "quasii_server_queries_total",
        help: "Queries admitted through the submission queue (a /query answered by a read is not admitted)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SERVER_QUERIES_TOTAL),
    },
    Def {
        name: "quasii_server_batched_queries_total",
        help: "Queries that ran in an admission group of two or more",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SERVER_BATCHED_QUERIES_TOTAL),
    },
    Def {
        name: "quasii_server_rejected_total",
        help: "Submissions rejected with 503 (backpressure or shutdown)",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SERVER_REJECTED_TOTAL),
    },
    Def {
        name: "quasii_server_bad_requests_total",
        help: "Requests answered 4xx",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&SERVER_BAD_REQUESTS_TOTAL),
    },
    Def {
        name: "quasii_server_queue_depth",
        help: "Submissions waiting in the admission queue",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Gauge(&SERVER_QUEUE_DEPTH),
    },
    Def {
        name: "fsx_commit_seconds",
        help: "Atomic-replace commit latency",
        labels: "",
        unit: Unit::Seconds,
        metric: Metric::Histogram(&FSX_COMMIT_SECONDS),
    },
    Def {
        name: "fsx_commits_total",
        help: "Commits attempted through write_atomic",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_COMMITS_TOTAL),
    },
    Def {
        name: "fsx_commit_failures_total",
        help: "Commits that failed after retries",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_COMMIT_FAILURES_TOTAL),
    },
    Def {
        name: "fsx_retries_total",
        help: "Transient store errors absorbed by retries",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_RETRIES_TOTAL),
    },
    Def {
        name: "fsx_retry_exhausted_total",
        help: "Operations whose retry budget ran out",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_RETRY_EXHAUSTED_TOTAL),
    },
    Def {
        name: "fsx_fault_ops_total",
        help: "Store operations observed by a FaultStore",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_FAULT_OPS_TOTAL),
    },
    Def {
        name: "fsx_injected_faults_total",
        help: "Faults a FaultStore injected",
        labels: "",
        unit: Unit::Count,
        metric: Metric::Counter(&FSX_INJECTED_FAULTS_TOTAL),
    },
];

/// Held by every unit test of this crate that resets the registry or
/// asserts an absolute value in it: the tests of one
/// binary run on parallel threads and share these process-wide statics
/// (`tests/obs.rs` does the same with its `OBS_LOCK`). A test that failed
/// while holding it must not fail the rest, so poison is ignored.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Zeroes every metric (tests and experiment isolation).
pub fn reset() {
    for def in DEFS {
        match &def.metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::GaugeVec(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

fn scale(v: u64, unit: Unit) -> f64 {
    match unit {
        Unit::Count => v as f64,
        Unit::Seconds => v as f64 / 1e9,
    }
}

/// Renders the registry in Prometheus text exposition format (the seam a
/// future `crates/server` scrapes). Histogram buckets are cumulative with
/// a sparse `le` set (only non-empty buckets, plus `+Inf`), which the
/// format permits.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let mut last_family = "";
    for def in DEFS {
        if def.name != last_family {
            last_family = def.name;
            let kind = match def.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) | Metric::GaugeVec(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", def.name, def.help);
            let _ = writeln!(out, "# TYPE {} {kind}", def.name);
        }
        let braces = |labels: &str| {
            if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            }
        };
        match &def.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{}{} {}", def.name, braces(def.labels), c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{}{} {}", def.name, braces(def.labels), g.get());
            }
            Metric::GaugeVec(g) => {
                for (label, v) in g.snapshot() {
                    let _ = writeln!(out, "{}{{{}=\"{label}\"}} {v}", def.name, def.labels);
                }
            }
            Metric::Histogram(h) => {
                let s = h.snapshot();
                let sep = if def.labels.is_empty() { "" } else { "," };
                let mut cum = 0u64;
                for b in 0..BUCKETS {
                    if s.counts[b] == 0 {
                        continue;
                    }
                    cum += s.counts[b];
                    if b == BUCKETS - 1 {
                        break; // the top bucket is the +Inf line below
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{{{}{}le=\"{}\"}} {cum}",
                        def.name,
                        def.labels,
                        sep,
                        scale(bucket_upper(b), def.unit),
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{{{}{}le=\"+Inf\"}} {}",
                    def.name, def.labels, sep, s.count
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    def.name,
                    braces(def.labels),
                    scale(s.sum, def.unit)
                );
                let _ = writeln!(out, "{}_count{} {}", def.name, braces(def.labels), s.count);
            }
        }
    }
    out
}

/// Human-readable duration (input nanoseconds).
fn human_nanos(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

fn human_sample(v: u64, unit: Unit) -> String {
    match unit {
        Unit::Count => format!("{v}"),
        Unit::Seconds => human_nanos(v),
    }
}

/// Renders the registry as a human table: counters/gauges as `name value`
/// lines, histograms with count / p50 / p90 / p99 / max columns.
pub fn render_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<48} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "metric", "count", "p50", "p90", "p99", "max"
    );
    for def in DEFS {
        let id = if def.labels.is_empty() {
            def.name.to_string()
        } else {
            format!("{}{{{}}}", def.name, def.labels)
        };
        match &def.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{:<48} {:>10}", id, c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{:<48} {:>10}", id, g.get());
            }
            Metric::GaugeVec(g) => {
                for (label, v) in g.snapshot() {
                    let _ = writeln!(
                        out,
                        "{:<48} {:>10}",
                        format!("{}{{{}=\"{label}\"}}", def.name, def.labels),
                        v
                    );
                }
            }
            Metric::Histogram(h) => {
                let s = h.snapshot();
                let _ = writeln!(
                    out,
                    "{:<48} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    id,
                    s.count,
                    human_sample(s.quantile(0.5), def.unit),
                    human_sample(s.quantile(0.9), def.unit),
                    human_sample(s.quantile(0.99), def.unit),
                    human_sample(s.max, def.unit),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Prometheus text exposition parser
// ---------------------------------------------------------------------

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name (family name, possibly with `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → kind.
    pub types: BTreeMap<String, String>,
    /// `# HELP` declarations: family name → help text.
    pub helps: BTreeMap<String, String>,
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Declared family names (from `# TYPE` lines).
    pub fn families(&self) -> Vec<String> {
        self.types.keys().cloned().collect()
    }

    /// The first sample matching `name` and (subset of) `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].trim_start();
        let mut chars = rest.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

/// Parses a Prometheus text exposition document. Unknown `#` comments are
/// ignored; malformed sample or declaration lines are errors.
pub fn parse_prometheus(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it
                    .next()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                let kind = it.next().unwrap_or("").trim();
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {line_no}: unknown TYPE kind '{kind}'"));
                }
                exp.types.insert(name.to_string(), kind.to_string());
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let mut it = rest.splitn(2, ' ');
                let name = it
                    .next()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("line {line_no}: HELP without a name"))?;
                exp.helps
                    .insert(name.to_string(), it.next().unwrap_or("").to_string());
            }
            // Any other comment (e.g. an embedded config object) is legal
            // and skipped.
            continue;
        }
        // Sample: name[{labels}] value
        let (ident, value) = line
            .rsplit_once(|c: char| c.is_whitespace())
            .ok_or_else(|| format!("line {line_no}: sample without a value"))?;
        let value: f64 = match value.trim() {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|e| format!("line {line_no}: bad value '{v}': {e}"))?,
        };
        let ident = ident.trim();
        let (name, labels) = match ident.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
                (name, parse_labels(body, line_no)?)
            }
            None => (ident, Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {line_no}: invalid metric name '{name}'"));
        }
        exp.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: rendering the registry and parsing it back
    /// reproduces every value.
    #[test]
    fn prometheus_round_trip() {
        let _g = test_lock();
        reset();
        QUERIES_TOTAL.add(123);
        SEALED_QUERIES_TOTAL.add(7);
        SHARD_RECORDS.set("0", 10.0);
        SHARD_RECORDS.set("1", 12.0);
        batch_phase(Phase::Crack).observe(1_500);
        batch_phase(Phase::Crack).observe(3_000_000);
        SHARD_FANOUT.observe(2);
        SHARD_FANOUT.observe(3);
        server_request(Endpoint::Query).observe(42_000);
        server_stage(Stage::Encode).observe(9_000);
        SERVER_BATCH_SIZE.observe(17);
        SERVER_BATCHED_QUERIES_TOTAL.add(17);
        SERVER_QUEUE_DEPTH.set(3.0);

        let text = render_prometheus();
        let exp = parse_prometheus(&text).expect("rendered exposition must parse");

        // Every family present and typed.
        for fam in [
            "quasii_batch_phase_seconds",
            "quasii_queries_total",
            "quasii_shard_fanout",
            "quasii_shard_records",
            "fsx_commit_seconds",
            "fsx_retries_total",
        ] {
            assert!(exp.types.contains_key(fam), "family {fam} missing");
            assert!(exp.helps.contains_key(fam), "help for {fam} missing");
        }
        assert_eq!(exp.value("quasii_queries_total", &[]), Some(123.0));
        assert_eq!(exp.value("quasii_sealed_queries_total", &[]), Some(7.0));
        assert_eq!(
            exp.value(
                "quasii_server_request_seconds_count",
                &[("endpoint", "query")]
            ),
            Some(1.0)
        );
        assert_eq!(
            exp.value("quasii_server_stage_seconds_count", &[("stage", "encode")]),
            Some(1.0)
        );
        assert_eq!(
            exp.value("quasii_server_stage_seconds_count", &[("stage", "queue")]),
            Some(0.0)
        );
        assert_eq!(exp.value("quasii_server_batch_size_count", &[]), Some(1.0));
        assert_eq!(
            exp.value("quasii_server_batched_queries_total", &[]),
            Some(17.0)
        );
        assert_eq!(exp.value("quasii_server_queue_depth", &[]), Some(3.0));
        assert_eq!(
            exp.value("quasii_shard_records", &[("shard", "1")]),
            Some(12.0)
        );
        assert_eq!(
            exp.value("quasii_batch_phase_seconds_count", &[("phase", "crack")]),
            Some(2.0)
        );
        let sum = exp
            .value("quasii_batch_phase_seconds_sum", &[("phase", "crack")])
            .unwrap();
        assert!((sum - 3.0015e-3).abs() < 1e-9, "sum = {sum}");
        assert_eq!(
            exp.value("quasii_shard_fanout_bucket", &[("le", "+Inf")]),
            Some(2.0)
        );
        // Histogram buckets must be cumulative (monotone non-decreasing).
        let mut last = 0.0;
        for s in exp
            .samples
            .iter()
            .filter(|s| s.name == "quasii_shard_fanout_bucket")
        {
            assert!(s.value >= last, "bucket counts must be cumulative");
            last = s.value;
        }
        reset();
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("bad name 1").is_err());
        assert!(parse_prometheus("x{le=\"unterminated} 1").is_err());
        assert!(parse_prometheus("x 12abc").is_err());
        // Unknown comments and blank lines are fine.
        let exp = parse_prometheus("# config {\"scale\": \"tiny\"}\n\nx_total 4\n").unwrap();
        assert_eq!(exp.value("x_total", &[]), Some(4.0));
    }

    #[test]
    fn table_renders() {
        let _g = test_lock();
        reset();
        QUERIES_TOTAL.add(5);
        batch_phase(Phase::Classify).observe(2_000);
        let table = render_table();
        assert!(table.contains("quasii_queries_total"));
        assert!(table.contains("p99"));
        assert!(table.contains("phase=\"classify\""));
        reset();
    }
}
