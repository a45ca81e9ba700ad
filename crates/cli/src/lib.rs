//! Implementation of the `quasii` command-line workbench (kept in a library
//! so the argument parsing and command logic are unit-testable).
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic dataset (`uniform` or `neuro` family)
//!   to a `.qsd` or `.csv` file;
//! * `info` — dataset statistics (count, bounds, extents);
//! * `bench` — run a query workload against one of the paper's indexes and
//!   print the timing summary (an ad-hoc, single-index `repro`); with
//!   `--warm-start FILE` the QUASII index is revived from a snapshot
//!   instead of cracked from scratch;
//! * `snapshot` — warm a QUASII index (plain or sharded) on a workload and
//!   persist it for later `--warm-start` runs: a plain engine as one
//!   file, a sharded deployment as a manifest plus per-shard part files;
//!   every write goes through the crash-safe atomic-replace protocol, and
//!   `--fault SPEC` injects deterministic crashes/transients into it;
//! * `verify` — check the integrity of a snapshot, shard manifest (+ its
//!   part files), or dataset file — header, version, checksums, structure —
//!   without constructing any engine; exits nonzero on corruption;
//! * `recover` — degraded-mode recovery of a sharded snapshot: quarantine
//!   corrupt shards, rebuild them from the source dataset, and durably
//!   re-commit the repaired deployment.

#![warn(missing_docs)]

use quasii::{Quasii, QuasiiConfig};
use quasii_common::dataset;
use quasii_common::fault::{parse_fault_spec, FaultStore};
use quasii_common::fsx::{self, FsStore, SnapshotStore};
use quasii_common::geom::{max_extents, mbb_of, Record};
use quasii_common::index::SpatialIndex;
use quasii_common::measure::{run_queries, run_query_batches, timed};
use quasii_common::scan::Scan;
use quasii_common::{io as qio, workload};
use quasii_grid::{Assignment, UniformGrid};
use quasii_mosaic::Mosaic;
use quasii_obs as obs;
use quasii_rtree::RTree;
use quasii_sfc::{SfCracker, SfcIndex};
use quasii_shard::{
    manifest_summary, part_path, Recovery, ShardConfig, ShardedQuasii, MANIFEST_MAGIC,
};
use std::path::Path;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a dataset.
    Generate {
        /// "uniform" or "neuro".
        family: String,
        /// Object count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Output path (`.qsd` or `.csv`).
        out: String,
    },
    /// Print dataset statistics.
    Info {
        /// Dataset path.
        data: String,
    },
    /// Run a workload against one index.
    Bench {
        /// Dataset path (empty when `--warm-start` supplies the index).
        data: String,
        /// Index name: scan|rtree|grid|sfc|sfcracker|mosaic|quasii.
        index: String,
        /// Number of queries.
        queries: usize,
        /// Query volume fraction.
        volume: f64,
        /// "uniform", "clustered" or "skewed" (Zipf hot-region).
        pattern: String,
        /// Workload seed.
        seed: u64,
        /// Queries per `query_batch` call; 0 = one-by-one execution.
        batch: usize,
        /// Worker threads for QUASII batch execution (0 = auto).
        threads: usize,
        /// Shard count for `--index quasii`; 0 = unsharded single engine.
        shards: usize,
        /// Assignment coordinate for QUASII: lower|center|upper.
        assign_by: String,
        /// Whether QUASII compacts converged regions into sealed arenas
        /// ("true"/"false"; default true).
        seal: String,
        /// SIMD kernel dispatch policy for QUASII: auto|scalar|sse2|avx2.
        simd: String,
        /// Snapshot file to revive the index from instead of `--data`
        /// (quasii only; empty = cold start from the dataset).
        warm_start: String,
        /// Enable the metrics registry for the run and print the latency /
        /// fan-out table afterwards (`--metrics`, no value needed).
        metrics: bool,
    },
    /// Warm a QUASII index on a workload and persist it as one snapshot
    /// file (plain engine or, with `--shards K`, a sharded deployment).
    Snapshot {
        /// Dataset path.
        data: String,
        /// Output snapshot path.
        out: String,
        /// Warm-up queries before the snapshot is taken.
        queries: usize,
        /// Query volume fraction.
        volume: f64,
        /// "uniform", "clustered" or "skewed".
        pattern: String,
        /// Workload seed.
        seed: u64,
        /// Worker threads (0 = auto).
        threads: usize,
        /// Shard count; 0 = unsharded single engine.
        shards: usize,
        /// Assignment coordinate: lower|center|upper.
        assign_by: String,
        /// SIMD kernel dispatch policy: auto|scalar|sse2|avx2 (a host
        /// property — never stored in the snapshot).
        simd: String,
        /// "true" finalizes (fully cracks) the index instead of warming it
        /// with queries.
        finalize: String,
        /// Deterministic fault-injection spec for the snapshot write
        /// (`crash@OP[:SEED]` or `transient@COUNT`; empty = no faults).
        fault: String,
    },
    /// Verify the integrity of a snapshot, shard manifest (+ parts), or
    /// dataset file without constructing any engine.
    Verify {
        /// File to verify.
        path: String,
    },
    /// Quarantine corrupt shards of a sharded snapshot, rebuild them from
    /// the source dataset, and durably re-commit the repaired deployment.
    Recover {
        /// Sharded snapshot (its manifest file) to repair.
        snapshot: String,
        /// Source dataset to rebuild quarantined shards from (may be empty
        /// to only report health).
        data: String,
    },
    /// Serve queries over HTTP with admission batching (`quasii-server`).
    Serve {
        /// Dataset path for a cold start (exactly one of this or
        /// `warm_start`).
        data: String,
        /// Sharded snapshot to revive the deployment from.
        warm_start: String,
        /// Listen address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Shard count for a cold start (0 = one shard).
        shards: usize,
        /// Worker threads per parallelism level (0 = auto).
        threads: usize,
        /// Queries per admission group (1 disables grouping).
        max_batch: usize,
        /// Admission window upper bound in microseconds.
        max_delay_us: u64,
        /// "true"/"false": shrink the window at low arrival rates.
        adaptive: String,
        /// Bounded submission-queue capacity (full queue answers 503).
        queue_cap: usize,
        /// Assignment coordinate: lower|center|upper.
        assign_by: String,
        /// Whether converged regions compact into sealed arenas.
        seal: String,
        /// SIMD kernel dispatch policy: auto|scalar|sse2|avx2.
        simd: String,
    },
    /// Show usage.
    Help,
}

/// Parses a numeric flag value, naming the flag and the offending value in
/// the error (`--n: cannot parse 'ten': …`).
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("--{flag}: cannot parse '{value}': {e}"))
}

/// Parses and validates a `--simd` value: unknown spellings and ISAs the
/// host cannot run (a forced level the dispatcher would clamp down) are
/// both flag errors, so a forced run never silently degrades.
fn parse_simd(value: &str) -> Result<quasii::SimdPolicy, String> {
    let policy = quasii::SimdPolicy::parse(value)
        .ok_or_else(|| format!("unknown --simd '{value}' (auto|scalar|sse2|avx2)"))?;
    if policy != quasii::SimdPolicy::Auto && policy.resolve().name() != policy.name() {
        return Err(format!(
            "--simd {}: not supported on this host (best available: {})",
            policy.name(),
            quasii::SimdLevel::detect().name()
        ));
    }
    Ok(policy)
}

/// One line naming the kernel generation a QUASII run dispatches to.
fn report_simd(policy: quasii::SimdPolicy) {
    println!(
        "simd kernels: {} (policy {})",
        policy.resolve().name(),
        policy.name()
    );
}

/// Parses raw arguments (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    let mut opts = std::collections::HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, found '{}'", rest[i]))?;
        // `--metrics` is a bare flag: a following `--option` (or end of
        // line) means "on", an explicit true/false value is also accepted.
        if key == "metrics" && rest.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let val = rest
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), (*val).clone());
        i += 2;
    }
    // An option the command does not read is an error, not noise: a typo,
    // or an option that no longer exists, must not pass for the default.
    let read = std::cell::RefCell::new(std::collections::HashSet::new());
    let get = |k: &'static str, default: Option<&str>| -> Result<String, String> {
        read.borrow_mut().insert(k);
        opts.get(k)
            .cloned()
            .or_else(|| default.map(str::to_string))
            .ok_or_else(|| format!("missing required --{k}"))
    };
    let command = match cmd {
        "generate" => Ok(Command::Generate {
            family: get("family", Some("uniform"))?,
            n: num("n", &get("n", Some("100000"))?)?,
            seed: num("seed", &get("seed", Some("42"))?)?,
            out: get("out", None)?,
        }),
        "info" => Ok(Command::Info {
            data: get("data", None)?,
        }),
        "bench" => Ok(Command::Bench {
            // `--data` is normally required; a `--warm-start` snapshot
            // carries the records itself, so either one satisfies it
            // (exactly-one is enforced at execution).
            data: get("data", Some(""))?,
            index: get("index", Some("quasii"))?,
            queries: num("queries", &get("queries", Some("200"))?)?,
            volume: num("volume", &get("volume", Some("1e-4"))?)?,
            pattern: get("pattern", Some("clustered"))?,
            seed: num("seed", &get("seed", Some("7"))?)?,
            batch: num("batch", &get("batch", Some("0"))?)?,
            threads: num("threads", &get("threads", Some("0"))?)?,
            shards: num("shards", &get("shards", Some("0"))?)?,
            assign_by: get("assign-by", Some("lower"))?,
            seal: get("seal", Some("true"))?,
            simd: get("simd", Some("auto"))?,
            warm_start: get("warm-start", Some(""))?,
            metrics: match get("metrics", Some("false"))?.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(format!("unknown --metrics '{other}' (true|false)")),
            },
        }),
        "snapshot" => Ok(Command::Snapshot {
            data: get("data", None)?,
            out: get("out", None)?,
            queries: num("queries", &get("queries", Some("200"))?)?,
            volume: num("volume", &get("volume", Some("1e-4"))?)?,
            pattern: get("pattern", Some("clustered"))?,
            seed: num("seed", &get("seed", Some("7"))?)?,
            threads: num("threads", &get("threads", Some("0"))?)?,
            shards: num("shards", &get("shards", Some("0"))?)?,
            assign_by: get("assign-by", Some("lower"))?,
            simd: get("simd", Some("auto"))?,
            finalize: get("finalize", Some("false"))?,
            fault: get("fault", Some(""))?,
        }),
        "verify" => Ok(Command::Verify {
            path: get("path", None)?,
        }),
        "recover" => Ok(Command::Recover {
            snapshot: get("snapshot", None)?,
            data: get("data", Some(""))?,
        }),
        "serve" => Ok(Command::Serve {
            data: get("data", Some(""))?,
            warm_start: get("warm-start", Some(""))?,
            addr: get("addr", Some("127.0.0.1:7077"))?,
            shards: num("shards", &get("shards", Some("0"))?)?,
            threads: num("threads", &get("threads", Some("0"))?)?,
            max_batch: num("max-batch", &get("max-batch", Some("64"))?)?,
            max_delay_us: num("max-delay-us", &get("max-delay-us", Some("200"))?)?,
            adaptive: get("adaptive", Some("true"))?,
            queue_cap: num("queue-cap", &get("queue-cap", Some("1024"))?)?,
            assign_by: get("assign-by", Some("lower"))?,
            seal: get("seal", Some("true"))?,
            simd: get("simd", Some("auto"))?,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'")),
    }?;
    let read = read.into_inner();
    match opts.keys().filter(|k| !read.contains(k.as_str())).min() {
        Some(k) => Err(format!("unknown option --{k} for '{cmd}'")),
        None => Ok(command),
    }
}

/// Usage text.
pub const USAGE: &str = "\
quasii — spatial incremental index workbench (QUASII, EDBT 2018 reproduction)

USAGE:
  quasii generate --out FILE [--family uniform|neuro] [--n N] [--seed S]
  quasii info     --data FILE
  quasii bench    (--data FILE | --warm-start SNAP)
                  [--index scan|rtree|grid|sfc|sfcracker|mosaic|quasii]
                  [--queries N] [--volume FRAC]
                  [--pattern uniform|clustered|skewed] [--seed S]
                  [--batch N] [--threads N] [--shards K]
                  [--assign-by lower|center|upper] [--seal true|false]
                  [--simd auto|scalar|sse2|avx2] [--metrics]
  quasii snapshot --data FILE --out SNAP [--queries N] [--volume FRAC]
                  [--pattern uniform|clustered|skewed] [--seed S]
                  [--threads N] [--shards K]
                  [--assign-by lower|center|upper] [--finalize true|false]
                  [--simd auto|scalar|sse2|avx2] [--fault SPEC]
  quasii verify   --path FILE
  quasii recover  --snapshot SNAP [--data FILE]
  quasii serve    (--data FILE | --warm-start SNAP) [--addr HOST:PORT]
                  [--shards K] [--threads N]
                  [--max-batch N] [--max-delay-us US]
                  [--adaptive true|false] [--queue-cap N]
                  [--assign-by lower|center|upper] [--seal true|false]
                  [--simd auto|scalar|sse2|avx2]

Datasets are 3-d; FILE extension picks the format (.qsd binary, .csv text).
--batch N executes the workload in batches of N queries through the index's
batch path (QUASII cracks disjoint top-level partitions on --threads workers;
0 = machine parallelism). --shards K (quasii only) splits the dataset across
K QUASII engines behind a key-range router; with --batch N, --threads feeds
both parallelism levels (--threads shard workers x --threads engine workers)
and results come back in canonical id-sorted order.
--pattern skewed is a Zipf hot-region workload that concentrates
most queries on one region (the shard-imbalance stress). Results are
identical to one-by-one execution. --assign-by picks QUASII's slice
assignment coordinate (paper footnote 1; lower is the paper's default —
center/upper exercise the engine's cached-key modes). --seal false keeps
the adaptive machinery on every query (the sealed read path's reference
configuration); results are identical either way, and the run prints the
sealed fraction reached. --simd picks the kernel generation QUASII's
column kernels dispatch to (auto = QUASII_SIMD env override, then runtime
CPU detection; forcing an ISA the host lacks is an error; scalar is the
bit-for-bit oracle) — results are identical for every level, and the run
prints the selected ISA. --metrics turns on the global metrics registry
for the run and prints a latency table afterwards (batch phase p50/p90/p99,
shard fan-out, seal sweeps); metrics are a pure side channel — answers are
byte-identical with or without it.
`snapshot` warms a QUASII index on the workload (or fully cracks it with
--finalize true), then persists it — sealed arenas, record permutation
and slice tree — as one checksummed snapshot file; with --shards K as one
such part file per shard (SNAP.g<G>.part<k>) plus a small manifest at
SNAP. `bench --warm-start SNAP` revives that index (a sharded snapshot
carries its own configuration, so --shards/--threads/--assign-by/--seal
are read from the manifest) and answers queries byte-identically to the
index that wrote it, skipping the cold cracking phase entirely.
Snapshots are written crash-safely (temp file, fsync, atomic rename,
directory fsync); a sharded snapshot writes its part files first and the
manifest last, so the manifest's rename is the single commit point — a
crash at any instant leaves the old snapshot or the new one, never a torn
mix. --fault crash@OP[:SEED] kills the write at its OP-th store operation
(tearing the in-flight file to a seeded prefix); --fault transient@COUNT
makes the first COUNT operations fail with a retryable error (absorbed by
bounded retry).
`verify` checks magic, version, checksums and structural accounting of an
engine snapshot (per-region report), a shard manifest (per-shard report,
reading the part files it names), or a .qsd dataset — without constructing
an engine; it exits nonzero on corruption.
`recover` validates each shard of a sharded snapshot independently,
quarantines the corrupt ones, re-cracks them from --data (routing records
through the manifest's fences), re-validates every invariant, and
re-commits the repaired deployment as a new snapshot generation; without
--data it only reports per-shard health.
`serve` fronts a (sharded) QUASII deployment with the HTTP query service:
GET /query?lo=a,b,c&hi=d,e,f, POST /batch (one query per line,
lo0,lo1,lo2,hi0,hi1,hi2), GET /snapshots, GET /metrics (Prometheus),
GET /healthz, POST /admin/repair, POST /admin/shutdown. Concurrent
requests are regrouped by the admission controller onto the engine's
batch path: a group closes at --max-batch queries or after the admission
window, whichever first; --adaptive true (the default) shrinks the window
at low arrival rates until it is no longer waited at all, so an idle
server adds no latency, --max-batch 1 disables grouping (the per-request
baseline).
Answers are byte-identical for every setting. The submission queue is
bounded at --queue-cap; an overloaded server answers 503 rather than
buffering without bound. --warm-start revives a sharded snapshot
(written by `snapshot --shards K`) instead of cracking from --data; the
snapshot fixes layout, so --shards/--threads/--assign-by/--seal/--simd
conflict with it. The metrics registry is always on for a server (the
/metrics endpoint is part of the API). The server runs until
POST /admin/shutdown, which drains already-accepted work before exit.";

/// Builds the benchmark workload for a universe (shared by `bench` and
/// `snapshot` so a warm-started run replays exactly the pattern the
/// snapshot was warmed on, given the same seed).
fn build_workload(
    universe: &quasii_common::geom::Aabb<3>,
    pattern: &str,
    queries: usize,
    volume: f64,
    seed: u64,
) -> Result<workload::QueryWorkload<3>, String> {
    Ok(match pattern {
        "uniform" => workload::uniform(universe, queries, volume, seed),
        "clustered" => workload::clustered(universe, 5, queries.div_ceil(5), volume, seed),
        "skewed" => workload::skewed(universe, 8, queries, volume, 1.1, seed),
        other => return Err(format!("unknown pattern '{other}'")),
    })
}

fn load(path: &str) -> Result<Vec<Record<3>>, String> {
    let res = if path.ends_with(".csv") {
        qio::read_csv_boxes::<3>(path)
    } else {
        qio::read_qsd::<3>(path)
    };
    res.map_err(|e| format!("cannot read '{path}': {e}"))
}

/// Executes a parsed command, writing human output to stdout.
pub fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Generate {
            family,
            n,
            seed,
            out,
        } => {
            let data: Vec<Record<3>> = match family.as_str() {
                "uniform" => dataset::uniform_boxes(n, seed),
                "neuro" => dataset::neuro_like(n, seed),
                other => return Err(format!("unknown family '{other}' (uniform|neuro)")),
            };
            let res = if out.ends_with(".csv") {
                qio::write_csv_boxes(&out, &data)
            } else {
                qio::write_qsd(&out, &data)
            };
            res.map_err(|e| format!("cannot write '{out}': {e}"))?;
            println!("wrote {} {family} boxes to {out}", data.len());
            Ok(())
        }
        Command::Info { data } => {
            let records = load(&data)?;
            let bounds = mbb_of(&records);
            let ext = max_extents(&records);
            println!("dataset:     {data}");
            println!("objects:     {}", records.len());
            println!("bounds:      {bounds:?}");
            println!("max extents: {ext:?}");
            let total_vol: f64 = records.iter().map(|r| r.mbb.volume()).sum();
            println!(
                "density:     {:.6} of the universe volume occupied",
                total_vol / bounds.volume().max(f64::MIN_POSITIVE)
            );
            Ok(())
        }
        Command::Bench {
            data,
            index,
            queries,
            volume,
            pattern,
            seed,
            batch,
            threads,
            shards,
            assign_by,
            seal,
            simd,
            warm_start,
            metrics,
        } => {
            if metrics {
                // Fresh registry per run: the table below reports this
                // invocation only, not process history.
                obs::registry::reset();
                obs::set_enabled(true);
            }
            if warm_start.is_empty() == data.is_empty() {
                return Err("bench needs exactly one of --data or --warm-start".to_string());
            }
            if !warm_start.is_empty() && index != "quasii" {
                return Err("--warm-start requires --index quasii".to_string());
            }
            if shards > 0 && index != "quasii" {
                return Err("--shards requires --index quasii".to_string());
            }
            let assign_by = quasii::AssignBy::parse(&assign_by)
                .ok_or_else(|| format!("unknown --assign-by '{assign_by}' (lower|center|upper)"))?;
            if assign_by != quasii::AssignBy::default() && index != "quasii" {
                return Err("--assign-by requires --index quasii".to_string());
            }
            let seal = match seal.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(format!("unknown --seal '{other}' (true|false)")),
            };
            if !seal && index != "quasii" {
                return Err("--seal requires --index quasii".to_string());
            }
            let simd = parse_simd(&simd)?;
            if simd != quasii::SimdPolicy::Auto && index != "quasii" {
                return Err("--simd requires --index quasii".to_string());
            }
            /// Runs the workload one query at a time (`batch == 0`) or in
            /// batches through the index's batch path, printing one summary
            /// line either way; returns the index so callers can report
            /// post-run state (sealed fraction).
            fn report<I: SpatialIndex<3>>(
                mut index: I,
                build_secs: f64,
                queries: &[quasii_common::geom::Aabb<3>],
                batch: usize,
            ) -> I {
                if batch == 0 {
                    let series = run_queries(&mut index, build_secs, queries);
                    let total_results: usize = series.result_counts.iter().sum();
                    println!(
                        "{}: build {:.4}s, first query {:.4}s, {} queries in {:.4}s (tail mean {:.1}µs), {} results",
                        series.name,
                        series.build_secs,
                        series.query_secs.first().copied().unwrap_or(0.0),
                        series.query_secs.len(),
                        series.total_secs() - series.build_secs,
                        series.tail_mean_secs(20) * 1e6,
                        total_results
                    );
                } else {
                    let (series, _) = run_query_batches(&mut index, queries, batch);
                    let total_results: usize = series.result_counts.iter().sum();
                    println!(
                        "{}: build {:.4}s, {} queries in batches of {} in {:.4}s ({:.0} q/s), {} results",
                        series.name,
                        build_secs,
                        series.queries(),
                        series.batch_size,
                        series.total_secs(),
                        series.throughput_qps(),
                        total_results
                    );
                }
                index
            }

            /// One summary line for the sealed read path's end state (the
            /// quasii variants call it after [`report`]).
            fn report_sealed<I: SpatialIndex<3>>(index: &I) {
                println!("sealed fraction after run: {:.3}", index.sealed_fraction());
            }

            if !warm_start.is_empty() {
                // The snapshot fixes layout and configuration; flags that
                // would contradict it are rejected rather than ignored.
                if shards > 0 {
                    return Err(
                        "--shards conflicts with --warm-start (the snapshot fixes the shard layout)"
                            .to_string(),
                    );
                }
                if threads > 0 {
                    return Err(
                        "--threads conflicts with --warm-start (stored in the snapshot)"
                            .to_string(),
                    );
                }
                if assign_by != quasii::AssignBy::default() {
                    return Err(
                        "--assign-by conflicts with --warm-start (stored in the snapshot)"
                            .to_string(),
                    );
                }
                if !seal {
                    return Err(
                        "--seal conflicts with --warm-start (stored in the snapshot)".to_string(),
                    );
                }
                if simd != quasii::SimdPolicy::Auto {
                    // Dispatch is a host property, never persisted: a revived
                    // engine re-resolves the default policy, which honors the
                    // QUASII_SIMD environment override.
                    return Err(
                        "--simd conflicts with --warm-start (dispatch is re-resolved at load; \
                         set QUASII_SIMD to override)"
                            .to_string(),
                    );
                }
                report_simd(quasii::SimdPolicy::default());
                let bytes = std::fs::read(&warm_start)
                    .map_err(|e| format!("cannot read '{warm_start}': {e}"))?;
                println!(
                    "warm start: {} snapshot bytes from {warm_start}",
                    bytes.len()
                );
                if bytes.len() >= 8 && bytes[..8] == MANIFEST_MAGIC {
                    // Per-shard loads run on parallel workers.
                    let (b, idx) = timed(|| {
                        ShardedQuasii::<3>::from_snapshot_files(&FsStore, Path::new(&warm_start))
                    });
                    let idx = idx.map_err(|e| format!("cannot load '{warm_start}': {e}"))?;
                    let mut universe = quasii_common::geom::Aabb::empty();
                    for e in idx.engines() {
                        if !e.data().is_empty() {
                            universe.expand(&mbb_of(e.data()));
                        }
                    }
                    let w = build_workload(&universe, &pattern, queries, volume, seed)?;
                    println!(
                        "shards: {} engines revived, sealed fraction {:.3}",
                        idx.shard_count(),
                        idx.sealed_fraction()
                    );
                    let idx = report(idx, b, &w.queries, batch);
                    report_sealed(&idx);
                } else {
                    let (b, idx) = timed(|| Quasii::<3>::from_snapshot(bytes));
                    let idx = idx.map_err(|e| format!("cannot load '{warm_start}': {e}"))?;
                    let universe = mbb_of(idx.data());
                    let w = build_workload(&universe, &pattern, queries, volume, seed)?;
                    println!("sealed fraction at load: {:.3}", idx.sealed_fraction());
                    let idx = report(idx, b, &w.queries, batch);
                    report_sealed(&idx);
                }
                report_metrics(metrics);
                return Ok(());
            }

            let records = load(&data)?;
            let universe = mbb_of(&records);
            let w = build_workload(&universe, &pattern, queries, volume, seed)?;

            match index.as_str() {
                "scan" => {
                    let (b, i) = timed(|| Scan::new(records));
                    report(i, b, &w.queries, batch);
                }
                "rtree" => {
                    let (b, i) = timed(|| RTree::bulk_load_default(records));
                    report(i, b, &w.queries, batch);
                }
                "grid" => {
                    let parts = (records.len() as f64).cbrt().round().clamp(8.0, 256.0) as usize;
                    let (b, i) =
                        timed(|| UniformGrid::build(records, parts, Assignment::QueryExtension));
                    report(i, b, &w.queries, batch);
                }
                "sfc" => {
                    let (b, i) = timed(|| SfcIndex::build_default(records));
                    report(i, b, &w.queries, batch);
                }
                "sfcracker" => {
                    let (b, i) = timed(|| SfCracker::with_default_bits(records));
                    report(i, b, &w.queries, batch);
                }
                "mosaic" => {
                    let (b, i) = timed(|| Mosaic::with_defaults(records));
                    report(i, b, &w.queries, batch);
                }
                "quasii" if shards > 0 => {
                    report_simd(simd);
                    let cfg = ShardConfig::default()
                        .with_shards(shards)
                        .with_shard_threads(threads)
                        .with_inner(
                            QuasiiConfig::default()
                                .with_threads(threads)
                                .with_assign_by(assign_by)
                                .with_seal(seal)
                                .with_simd(simd),
                        );
                    let (b, i) = timed(|| ShardedQuasii::new(records, cfg));
                    let snaps = i.snapshots();
                    let per_shard: Vec<usize> = snaps.iter().map(|s| s.records).collect();
                    println!("shards: {shards} engines, records per shard {per_shard:?}");
                    let i = report(i, b, &w.queries, batch);
                    report_sealed(&i);
                }
                "quasii" => {
                    report_simd(simd);
                    let cfg = QuasiiConfig::default()
                        .with_threads(threads)
                        .with_assign_by(assign_by)
                        .with_seal(seal)
                        .with_simd(simd);
                    let (b, i) = timed(|| Quasii::new(records, cfg));
                    let i = report(i, b, &w.queries, batch);
                    report_sealed(&i);
                }
                other => return Err(format!("unknown index '{other}'")),
            }
            report_metrics(metrics);
            Ok(())
        }
        Command::Snapshot {
            data,
            out,
            queries,
            volume,
            pattern,
            seed,
            threads,
            shards,
            assign_by,
            simd,
            finalize,
            fault,
        } => {
            let assign_by = quasii::AssignBy::parse(&assign_by)
                .ok_or_else(|| format!("unknown --assign-by '{assign_by}' (lower|center|upper)"))?;
            let simd = parse_simd(&simd)?;
            let finalize = match finalize.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(format!("unknown --finalize '{other}' (true|false)")),
            };
            // All writes go through the crash-safe atomic-replace protocol;
            // --fault wraps the store in a deterministic fault injector so
            // the protocol can be exercised from the command line.
            let plain = FsStore;
            let injected;
            let store: &dyn SnapshotStore = if fault.is_empty() {
                &plain
            } else {
                let plan = parse_fault_spec(&fault).map_err(|e| format!("--fault: {e}"))?;
                injected = FaultStore::new(FsStore, plan);
                &injected
            };
            let records = load(&data)?;
            let universe = mbb_of(&records);
            let w = build_workload(&universe, &pattern, queries, volume, seed)?;
            let inner = QuasiiConfig::default()
                .with_threads(threads)
                .with_assign_by(assign_by)
                .with_simd(simd);
            let out_path = Path::new(&out);
            if shards > 0 {
                let cfg = ShardConfig::default()
                    .with_shards(shards)
                    .with_shard_threads(threads)
                    .with_inner(inner);
                let mut idx = ShardedQuasii::new(records, cfg);
                if finalize {
                    idx.finalize();
                } else {
                    idx.execute_batch(&w.queries);
                }
                idx.seal();
                let frac = idx.sealed_fraction();
                let gen = idx
                    .write_snapshot_files(store, out_path)
                    .map_err(|e| format!("snapshot: {e}"))?;
                println!(
                    "committed generation {gen} ({} shards, {} part files + manifest, \
                     sealed fraction {frac:.3}) to {out}",
                    idx.shard_count(),
                    idx.shard_count()
                );
            } else {
                let mut idx = Quasii::new(records, inner);
                if finalize {
                    idx.finalize();
                } else {
                    for q in &w.queries {
                        idx.query_collect(q);
                    }
                }
                idx.seal();
                let frac = idx.sealed_fraction();
                let bytes = idx.write_snapshot().map_err(|e| format!("snapshot: {e}"))?;
                fsx::write_atomic(store, out_path, &bytes)
                    .map_err(|e| format!("cannot write '{out}': {e}"))?;
                println!(
                    "wrote {} snapshot bytes (1 engine, sealed fraction {frac:.3}) to {out}",
                    bytes.len()
                );
            }
            report_fsx_counters();
            Ok(())
        }
        Command::Verify { path } => {
            let r = verify_file(&path);
            report_fsx_counters();
            r
        }
        Command::Recover { snapshot, data } => {
            let r = recover_snapshot(&snapshot, &data);
            report_fsx_counters();
            r
        }
        Command::Serve {
            data,
            warm_start,
            addr,
            shards,
            threads,
            max_batch,
            max_delay_us,
            adaptive,
            queue_cap,
            assign_by,
            seal,
            simd,
        } => {
            if warm_start.is_empty() == data.is_empty() {
                return Err("serve needs exactly one of --data or --warm-start".to_string());
            }
            if max_batch == 0 {
                return Err(
                    "--max-batch must be >= 1 (1 disables grouping, the per-request baseline)"
                        .to_string(),
                );
            }
            let assign_by = quasii::AssignBy::parse(&assign_by)
                .ok_or_else(|| format!("unknown --assign-by '{assign_by}' (lower|center|upper)"))?;
            let seal = match seal.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(format!("unknown --seal '{other}' (true|false)")),
            };
            let adaptive = match adaptive.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(format!("unknown --adaptive '{other}' (true|false)")),
            };
            let simd = parse_simd(&simd)?;
            // A server always exposes /metrics, so the registry is always
            // on (fresh, so the exposition reports this process only).
            obs::registry::reset();
            obs::set_enabled(true);
            let engine = if !warm_start.is_empty() {
                // The snapshot fixes layout and configuration (same
                // contract as `bench --warm-start`).
                if shards > 0 {
                    return Err(
                        "--shards conflicts with --warm-start (the snapshot fixes the shard \
                         layout)"
                            .to_string(),
                    );
                }
                if threads > 0 {
                    return Err(
                        "--threads conflicts with --warm-start (stored in the snapshot)"
                            .to_string(),
                    );
                }
                if assign_by != quasii::AssignBy::default() {
                    return Err(
                        "--assign-by conflicts with --warm-start (stored in the snapshot)"
                            .to_string(),
                    );
                }
                if !seal {
                    return Err(
                        "--seal conflicts with --warm-start (stored in the snapshot)".to_string(),
                    );
                }
                if simd != quasii::SimdPolicy::Auto {
                    return Err(
                        "--simd conflicts with --warm-start (dispatch is re-resolved at load; \
                         set QUASII_SIMD to override)"
                            .to_string(),
                    );
                }
                let bytes = std::fs::read(&warm_start)
                    .map_err(|e| format!("cannot read '{warm_start}': {e}"))?;
                if !(bytes.len() >= 8 && bytes[..8] == MANIFEST_MAGIC) {
                    return Err(format!(
                        "'{warm_start}' is not a sharded snapshot (serve fronts a sharded \
                         deployment; write one with `quasii snapshot --shards K`)"
                    ));
                }
                report_simd(quasii::SimdPolicy::default());
                ShardedQuasii::<3>::from_snapshot_files(&FsStore, Path::new(&warm_start))
                    .map_err(|e| format!("cannot load '{warm_start}': {e}"))?
            } else {
                report_simd(simd);
                let records = load(&data)?;
                let cfg = ShardConfig::default()
                    .with_shards(shards.max(1))
                    .with_shard_threads(threads)
                    .with_inner(
                        QuasiiConfig::default()
                            .with_threads(threads)
                            .with_assign_by(assign_by)
                            .with_seal(seal)
                            .with_simd(simd),
                    );
                ShardedQuasii::new(records, cfg)
            };
            let records: usize = engine.engines().iter().map(|e| e.data().len()).sum();
            let shard_count = engine.shard_count();
            let cfg = quasii_server::ServeConfig::default()
                .with_max_batch(max_batch)
                .with_max_delay_us(max_delay_us)
                .with_adaptive(adaptive)
                .with_queue_cap(queue_cap);
            let handle =
                quasii_server::start(engine, &addr, cfg).map_err(|e| format!("serve: {e}"))?;
            println!(
                "serving http://{} — {records} records across {shard_count} shards, admission \
                 max_batch {max_batch}, window <= {max_delay_us}us ({}), queue cap {}",
                handle.addr(),
                if adaptive { "adaptive" } else { "fixed" },
                queue_cap.max(1),
            );
            println!(
                "endpoints: GET /query?lo=a,b,c&hi=d,e,f | POST /batch | GET /snapshots \
                 /metrics /healthz | POST /admin/repair /admin/shutdown"
            );
            handle.wait();
            println!("server stopped");
            Ok(())
        }
    }
}

/// Prints the metrics table for a `--metrics` bench run (no-op otherwise).
fn report_metrics(metrics: bool) {
    if metrics {
        println!("\nmetrics (this run):");
        print!("{}", obs::registry::render_table());
    }
}

/// One line of durable-write health: the always-on `fsx` counters (commit,
/// retry, fault-injection), so flaky-store symptoms show up in `verify`,
/// `recover` and faulted `snapshot` runs without any flag.
fn report_fsx_counters() {
    let commits = obs::registry::FSX_COMMITS_TOTAL.get();
    let failures = obs::registry::FSX_COMMIT_FAILURES_TOTAL.get();
    let retries = obs::registry::FSX_RETRIES_TOTAL.get();
    let exhausted = obs::registry::FSX_RETRY_EXHAUSTED_TOTAL.get();
    let fault_ops = obs::registry::FSX_FAULT_OPS_TOTAL.get();
    let injected = obs::registry::FSX_INJECTED_FAULTS_TOTAL.get();
    println!(
        "fsx: {commits} atomic commits ({failures} failed), {retries} transient retries \
         ({exhausted} exhausted), {fault_ops} fault-store ops ({injected} injected faults)"
    );
}

/// `quasii verify` — integrity check of a snapshot/manifest/dataset file
/// by magic sniffing, without constructing any engine. Returns `Err` (exit
/// code 2) on any corruption so scripts can gate on it.
fn verify_file(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if bytes.len() >= 8 && bytes[..8] == MANIFEST_MAGIC {
        let s = manifest_summary(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "shard manifest: generation {}, {}-d, {} shards, {} records, {} manifest bytes",
            s.generation,
            s.dims,
            s.shards.len(),
            s.records,
            bytes.len()
        );
        let mut failures = 0usize;
        for (k, &(records, len, word)) in s.shards.iter().enumerate() {
            let part = match std::fs::read(part_path(Path::new(path), s.generation, k)) {
                Ok(part) if part.len() != len => {
                    Err(format!("part is {} bytes, manifest says {len}", part.len()))
                }
                Ok(part) => Ok(part),
                Err(e) => Err(format!("part unreadable: {e}")),
            };
            // The manifest binds the part by its header word; the engine
            // snapshot's own verification is the one pass over its content.
            let verdict = part.and_then(|part| {
                if quasii::snapshot::header_word(&part) != Some(word) {
                    return Err("part checksum mismatch".to_string());
                }
                match quasii::snapshot::verify(&part) {
                    Ok(v) if v.records != records as u64 => Err(format!(
                        "part holds {} records, manifest says {records}",
                        v.records
                    )),
                    Ok(_) => Ok(()),
                    Err(e) => Err(e.to_string()),
                }
            });
            match verdict {
                Ok(()) => println!("  shard {k}: ok ({records} records, {len} bytes)"),
                Err(why) => {
                    failures += 1;
                    println!("  shard {k}: CORRUPT — {why}");
                }
            }
        }
        if failures > 0 {
            return Err(format!(
                "{failures} of {} shard buffers failed verification (recover can quarantine \
                 and rebuild them from the source dataset)",
                s.shards.len()
            ));
        }
        Ok(())
    } else if bytes.len() >= 8 && bytes[..8] == quasii::snapshot::MAGIC {
        let s = quasii::snapshot::verify(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "engine snapshot: {}-d, {} records, {} slices ({} root), checksum {:#018x} ok",
            s.dims, s.records, s.slices, s.root_slices, s.checksum
        );
        for (i, &(begin, end, blob)) in s.regions.iter().enumerate() {
            println!("  sealed region {i}: records {begin}..{end}, {blob} arena bytes");
        }
        Ok(())
    } else if bytes.len() >= 4 && bytes[..4] == qio::QSD_MAGIC[..] {
        let records = qio::decode_qsd::<3>(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "qsd dataset: {} records, {} bytes",
            records.len(),
            bytes.len()
        );
        Ok(())
    } else {
        Err(format!(
            "'{path}' is not a recognized QUASII file (expected a {:?}, {:?} or {:?} header)",
            String::from_utf8_lossy(&quasii::snapshot::MAGIC),
            String::from_utf8_lossy(&MANIFEST_MAGIC),
            String::from_utf8_lossy(qio::QSD_MAGIC),
        ))
    }
}

/// `quasii recover` — per-shard health report, rebuild of quarantined
/// shards from the source dataset, and durable re-commit.
fn recover_snapshot(snapshot: &str, data: &str) -> Result<(), String> {
    let store = FsStore;
    let path = Path::new(snapshot);
    let mut rec =
        Recovery::<3>::load(&store, path).map_err(|e| format!("cannot load '{snapshot}': {e}"))?;
    let report = rec.report().clone();
    println!(
        "generation {}: {} shards, coverage {:.3}",
        report.generation,
        report.shards.len(),
        report.coverage_fraction()
    );
    for h in &report.shards {
        match &h.status {
            quasii_shard::ShardStatus::Healthy => {
                println!("  shard {}: healthy ({} records)", h.shard, h.records)
            }
            quasii_shard::ShardStatus::Rebuilt => {
                println!("  shard {}: rebuilt ({} records)", h.shard, h.records)
            }
            quasii_shard::ShardStatus::Quarantined(why) => {
                println!("  shard {}: QUARANTINED — {why}", h.shard)
            }
        }
    }
    if report.is_complete() {
        println!("all shards healthy; nothing to repair");
        return Ok(());
    }
    if data.is_empty() {
        return Err(format!(
            "{} shards are quarantined; pass --data FILE (the snapshot's source dataset) \
             to rebuild them",
            report.quarantined().len()
        ));
    }
    let records = load(data)?;
    let rebuilt = rec
        .rebuild(&records)
        .map_err(|e| format!("rebuild from '{data}': {e}"))?;
    let mut full = rec
        .into_full()
        .map_err(|e| format!("post-recovery validation: {e}"))?;
    let gen = full
        .write_snapshot_files(&store, path)
        .map_err(|e| format!("re-commit: {e}"))?;
    println!("rebuilt {rebuilt} shards from {data}; committed generation {gen} to {snapshot}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_generate_defaults() {
        let cmd = parse(&args("generate --out /tmp/x.qsd")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                family: "uniform".into(),
                n: 100_000,
                seed: 42,
                out: "/tmp/x.qsd".into()
            }
        );
    }

    #[test]
    fn parse_bench_full() {
        let cmd = parse(&args(
            "bench --data d.qsd --index rtree --queries 50 --volume 0.01 --pattern uniform --seed 3 --batch 25 --threads 2",
        ))
        .unwrap();
        match cmd {
            Command::Bench {
                index,
                queries,
                volume,
                pattern,
                seed,
                batch,
                threads,
                ..
            } => {
                assert_eq!(index, "rtree");
                assert_eq!(queries, 50);
                assert_eq!(volume, 0.01);
                assert_eq!(pattern, "uniform");
                assert_eq!(seed, 3);
                assert_eq!(batch, 25);
                assert_eq!(threads, 2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Batch/threads/shards default to 0 (per-query, auto, unsharded).
        match parse(&args("bench --data d.qsd")).unwrap() {
            Command::Bench {
                batch,
                threads,
                shards,
                ..
            } => {
                assert_eq!((batch, threads, shards), (0, 0, 0));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args("bench --data d.qsd --shards 4 --pattern skewed")).unwrap() {
            Command::Bench {
                shards,
                pattern,
                assign_by,
                ..
            } => {
                assert_eq!(shards, 4);
                assert_eq!(pattern, "skewed");
                assert_eq!(assign_by, "lower", "paper default");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args("bench --data d.qsd --assign-by center")).unwrap() {
            Command::Bench { assign_by, .. } => assert_eq!(assign_by, "center"),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args("bench --data d.qsd --seal false")).unwrap() {
            Command::Bench { seal, .. } => assert_eq!(seal, "false"),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args("bench --data d.qsd")).unwrap() {
            Command::Bench { seal, .. } => assert_eq!(seal, "true", "sealing defaults on"),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn assign_by_and_seal_are_validated_and_quasii_only() {
        let bench = |index: &str, assign_by: &str, seal: &str| Command::Bench {
            data: "/nonexistent.qsd".into(),
            index: index.into(),
            queries: 1,
            volume: 1e-4,
            pattern: "uniform".into(),
            seed: 1,
            batch: 0,
            threads: 0,
            shards: 0,
            assign_by: assign_by.into(),
            seal: seal.into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        };
        // Every rejection fires before the dataset is even loaded.
        let err = execute(bench("quasii", "sideways", "true")).unwrap_err();
        assert!(err.contains("--assign-by"), "{err}");
        let err = execute(bench("rtree", "center", "true")).unwrap_err();
        assert!(err.contains("--assign-by requires"), "{err}");
        let err = execute(bench("quasii", "lower", "sideways")).unwrap_err();
        assert!(err.contains("--seal"), "{err}");
        let err = execute(bench("rtree", "lower", "false")).unwrap_err();
        assert!(err.contains("--seal requires"), "{err}");
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args("generate")).is_err(), "missing --out");
        assert!(parse(&args("info")).is_err(), "missing --data");
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("bench --data")).is_err(), "dangling option");
        assert!(parse(&args("bench x.qsd")).is_err(), "positional rejected");
        assert!(
            parse(&args("snapshot --data d.qsd")).is_err(),
            "missing --out"
        );
        // An option the command does not read is named, not ignored
        // (`--layout` left with the second sharded snapshot form).
        for (cmdline, option) in [
            (
                "snapshot --data d.qsd --out s --shards 3 --layout parts",
                "--layout",
            ),
            ("bench --data d.qsd --querys 10", "--querys"),
            ("info --data d.qsd --seed 1", "--seed"),
        ] {
            let err = parse(&args(cmdline)).unwrap_err();
            assert!(err.contains(&format!("unknown option {option}")), "{err}");
        }
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn malformed_numeric_flags_name_flag_and_value() {
        // Every numeric flag rejects garbage with an error naming both the
        // flag and the offending value — never a panic.
        let cases = [
            ("generate --out x.qsd --n ten", "--n", "ten"),
            ("generate --out x.qsd --seed -3", "--seed", "-3"),
            ("bench --data d.qsd --queries 12.5", "--queries", "12.5"),
            ("bench --data d.qsd --volume huge", "--volume", "huge"),
            ("bench --data d.qsd --seed 0x10", "--seed", "0x10"),
            ("bench --data d.qsd --batch -1", "--batch", "-1"),
            ("bench --data d.qsd --threads many", "--threads", "many"),
            ("bench --data d.qsd --shards 2.0", "--shards", "2.0"),
            (
                "snapshot --data d.qsd --out s --queries no",
                "--queries",
                "no",
            ),
            (
                "snapshot --data d.qsd --out s --shards -2",
                "--shards",
                "-2",
            ),
        ];
        for (cmdline, flag, value) in cases {
            let err = parse(&args(cmdline)).unwrap_err();
            assert!(err.contains(flag), "{cmdline}: {err}");
            assert!(err.contains(value), "{cmdline}: {err}");
        }
    }

    #[test]
    fn parse_serve_defaults_and_overrides() {
        match parse(&args("serve --data d.qsd")).unwrap() {
            Command::Serve {
                data,
                warm_start,
                addr,
                shards,
                max_batch,
                max_delay_us,
                adaptive,
                queue_cap,
                ..
            } => {
                assert_eq!(data, "d.qsd");
                assert_eq!(warm_start, "");
                assert_eq!(addr, "127.0.0.1:7077");
                assert_eq!(shards, 0);
                assert_eq!(max_batch, 64);
                assert_eq!(max_delay_us, 200);
                assert_eq!(adaptive, "true");
                assert_eq!(queue_cap, 1024);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&args(
            "serve --warm-start s.qshard --addr 0.0.0.0:80 --max-batch 1 --max-delay-us 0 \
             --adaptive false --queue-cap 8",
        ))
        .unwrap()
        {
            Command::Serve {
                warm_start,
                addr,
                max_batch,
                max_delay_us,
                adaptive,
                queue_cap,
                ..
            } => {
                assert_eq!(warm_start, "s.qshard");
                assert_eq!(addr, "0.0.0.0:80");
                assert_eq!(max_batch, 1);
                assert_eq!(max_delay_us, 0);
                assert_eq!(adaptive, "false");
                assert_eq!(queue_cap, 8);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&args("serve --data d.qsd --max-batch many")).unwrap_err();
        assert!(err.contains("--max-batch") && err.contains("many"), "{err}");
    }

    #[test]
    fn serve_validation_fires_before_any_socket_or_file() {
        let serve = |data: &str,
                     warm: &str,
                     shards: usize,
                     max_batch: usize,
                     adaptive: &str,
                     seal: &str| Command::Serve {
            data: data.into(),
            warm_start: warm.into(),
            addr: "127.0.0.1:0".into(),
            shards,
            threads: 0,
            max_batch,
            max_delay_us: 200,
            adaptive: adaptive.into(),
            queue_cap: 1024,
            assign_by: "lower".into(),
            seal: seal.into(),
            simd: "auto".into(),
        };
        let err = execute(serve("", "", 0, 64, "true", "true")).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = execute(serve("d.qsd", "s.qshard", 0, 64, "true", "true")).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = execute(serve("d.qsd", "", 0, 0, "true", "true")).unwrap_err();
        assert!(err.contains("--max-batch"), "{err}");
        let err = execute(serve("d.qsd", "", 0, 64, "sideways", "true")).unwrap_err();
        assert!(err.contains("--adaptive"), "{err}");
        let err = execute(serve("", "s.qshard", 2, 64, "true", "true")).unwrap_err();
        assert!(err.contains("--shards conflicts"), "{err}");
        let err = execute(serve("", "s.qshard", 0, 64, "true", "false")).unwrap_err();
        assert!(err.contains("--seal conflicts"), "{err}");
    }

    #[test]
    fn serve_end_to_end_over_loopback() {
        // Build a tiny dataset, serve it on an ephemeral port, and drive
        // the full path: query, batch, health, metrics, admin shutdown.
        let dir = std::env::temp_dir();
        let data = dir.join(format!("quasii-serve-{}.qsd", std::process::id()));
        let data_s = data.to_string_lossy().to_string();
        execute(Command::Generate {
            family: "uniform".into(),
            n: 1_500,
            seed: 31,
            out: data_s.clone(),
        })
        .unwrap();
        let records = load(&data_s).unwrap();
        let cfg = ShardConfig::default()
            .with_shards(2)
            .with_inner(QuasiiConfig::default().with_threads(1));
        let engine = ShardedQuasii::new(records, cfg);
        let handle = quasii_server::start(
            engine,
            "127.0.0.1:0",
            quasii_server::ServeConfig::default().with_max_batch(8),
        )
        .unwrap();
        let mut c = minihttp::Client::connect(handle.addr()).unwrap();
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        let r = c.get("/query?lo=0,0,0&hi=1000,1000,1000").unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let r = c.post("/admin/shutdown", "text/plain", b"").unwrap();
        assert_eq!(r.status, 200);
        handle.wait();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn bench_requires_exactly_one_data_source() {
        let bench = |data: &str, index: &str, warm_start: &str| Command::Bench {
            data: data.into(),
            index: index.into(),
            queries: 1,
            volume: 1e-4,
            pattern: "uniform".into(),
            seed: 1,
            batch: 0,
            threads: 0,
            shards: 0,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: warm_start.into(),
            metrics: false,
        };
        let err = execute(bench("", "quasii", "")).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = execute(bench("d.qsd", "quasii", "s.qsnap")).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = execute(bench("", "rtree", "s.qsnap")).unwrap_err();
        assert!(err.contains("--warm-start requires"), "{err}");
    }

    #[test]
    fn snapshot_and_warm_start_round_trip() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let data = dir.join(format!("quasii-snap-{pid}.qsd"));
        let single = dir.join(format!("quasii-snap-{pid}-single.qsnap"));
        let sharded = dir.join(format!("quasii-snap-{pid}-sharded.qsnap"));
        let data_s = data.to_string_lossy().to_string();
        execute(Command::Generate {
            family: "uniform".into(),
            n: 2_000,
            seed: 11,
            out: data_s.clone(),
        })
        .unwrap();
        let snapshot = |out: &std::path::Path, shards: usize, finalize: &str| Command::Snapshot {
            data: data_s.clone(),
            out: out.to_string_lossy().to_string(),
            queries: 30,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 12,
            threads: 0,
            shards,
            assign_by: "lower".into(),
            simd: "auto".into(),
            finalize: finalize.into(),
            fault: String::new(),
        };
        let warm_bench = |snap: &std::path::Path, batch: usize| Command::Bench {
            data: String::new(),
            index: "quasii".into(),
            queries: 30,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 12,
            batch,
            threads: 0,
            shards: 0,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: snap.to_string_lossy().to_string(),
            metrics: false,
        };
        // Single engine: snapshot after a query warm-up, then warm-start.
        execute(snapshot(&single, 0, "false")).unwrap();
        execute(warm_bench(&single, 0)).unwrap();
        // Sharded deployment: finalize, then warm-start through the batch
        // path (the manifest self-identifies via its magic and names its
        // part files).
        execute(snapshot(&sharded, 3, "true")).unwrap();
        execute(warm_bench(&sharded, 8)).unwrap();
        // A corrupt snapshot file fails loudly, not with a panic.
        let bytes = std::fs::read(&single).unwrap();
        std::fs::write(&single, &bytes[..bytes.len() / 2]).unwrap();
        assert!(execute(warm_bench(&single, 0)).is_err());
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&single).ok();
        std::fs::remove_file(&sharded).ok();
        for k in 0..3 {
            std::fs::remove_file(part_path(&sharded, 1, k)).ok();
        }
    }

    #[test]
    fn verify_fault_injection_and_recover_flow() {
        let dir = std::env::temp_dir().join(format!("quasii-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.qsd").to_string_lossy().to_string();
        let snap = dir.join("deploy.qshard").to_string_lossy().to_string();
        execute(Command::Generate {
            family: "uniform".into(),
            n: 2_000,
            seed: 21,
            out: data.clone(),
        })
        .unwrap();
        execute(Command::Verify { path: data.clone() }).unwrap();
        let snapshot = |fault: &str| Command::Snapshot {
            data: data.clone(),
            out: snap.clone(),
            queries: 30,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 22,
            threads: 0,
            shards: 3,
            assign_by: "lower".into(),
            simd: "auto".into(),
            finalize: "false".into(),
            fault: fault.into(),
        };
        execute(snapshot("")).unwrap();
        execute(Command::Verify { path: snap.clone() }).unwrap();

        // A crash injected mid-commit fails the write but leaves the
        // committed generation fully intact (manifest still names it).
        assert!(execute(snapshot("crash@2:7")).is_err());
        execute(Command::Verify { path: snap.clone() }).unwrap();
        execute(Command::Bench {
            data: String::new(),
            index: "quasii".into(),
            queries: 30,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 22,
            batch: 8,
            threads: 0,
            shards: 0,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: snap.clone(),
            metrics: false,
        })
        .unwrap();
        // Transient faults are absorbed by the bounded retry.
        execute(snapshot("transient@2")).unwrap();
        execute(Command::Verify { path: snap.clone() }).unwrap();

        // Tear one part file: verify flags it, recover reports it, and
        // rebuilding from the source dataset re-commits a clean generation.
        let part = part_path(Path::new(&snap), 2, 1);
        let bytes = std::fs::read(&part).expect("part of committed generation");
        std::fs::write(&part, &bytes[..bytes.len() / 2]).unwrap();
        let err = execute(Command::Verify { path: snap.clone() }).unwrap_err();
        assert!(err.contains("failed verification"), "{err}");
        let err = execute(Command::Recover {
            snapshot: snap.clone(),
            data: String::new(),
        })
        .unwrap_err();
        assert!(err.contains("--data"), "{err}");
        execute(Command::Recover {
            snapshot: snap.clone(),
            data: data.clone(),
        })
        .unwrap();
        execute(Command::Verify { path: snap.clone() }).unwrap();
        // A healthy deployment reports complete and changes nothing.
        execute(Command::Recover {
            snapshot: snap.clone(),
            data: String::new(),
        })
        .unwrap();

        // One file holding the manifest and then the shard buffers is not
        // a snapshot layout: verify and recover both name the trailing
        // bytes instead of reading it as a second format.
        let mut one_file = std::fs::read(&snap).unwrap();
        let summary = manifest_summary(&one_file).unwrap();
        for k in 0..summary.shards.len() {
            let part = part_path(Path::new(&snap), summary.generation, k);
            one_file.extend(std::fs::read(part).unwrap());
        }
        let glued = dir.join("one-file.qshard").to_string_lossy().to_string();
        std::fs::write(&glued, &one_file).unwrap();
        let expect = format!("{} trailing bytes", summary.shard_bytes);
        let err = execute(Command::Verify {
            path: glued.clone(),
        })
        .unwrap_err();
        assert!(err.contains(&expect), "{err}");
        let err = execute(Command::Recover {
            snapshot: glued,
            data: data.clone(),
        })
        .unwrap_err();
        assert!(err.contains(&expect), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_info_bench() {
        let path = std::env::temp_dir().join(format!("quasii-cli-{}.qsd", std::process::id()));
        let out = path.to_string_lossy().to_string();
        execute(Command::Generate {
            family: "neuro".into(),
            n: 3_000,
            seed: 1,
            out: out.clone(),
        })
        .unwrap();
        execute(Command::Info { data: out.clone() }).unwrap();
        for index in ["scan", "rtree", "quasii", "mosaic"] {
            execute(Command::Bench {
                data: out.clone(),
                index: index.into(),
                queries: 20,
                volume: 1e-4,
                pattern: "clustered".into(),
                seed: 2,
                batch: 0,
                threads: 0,
                shards: 0,
                assign_by: "lower".into(),
                seal: "true".into(),
                simd: "auto".into(),
                warm_start: String::new(),
                metrics: false,
            })
            .unwrap();
        }
        // Batch-parallel path: batches of 8 on 2 workers.
        execute(Command::Bench {
            data: out.clone(),
            index: "quasii".into(),
            queries: 20,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 2,
            batch: 8,
            threads: 2,
            shards: 0,
            assign_by: "center".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        })
        .unwrap();
        // Sealing disabled: the reference (pure adaptive) configuration.
        execute(Command::Bench {
            data: out.clone(),
            index: "quasii".into(),
            queries: 20,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 2,
            batch: 0,
            threads: 0,
            shards: 0,
            assign_by: "lower".into(),
            seal: "false".into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        })
        .unwrap();
        // Sharded two-level path on the skewed (hot-region) workload.
        execute(Command::Bench {
            data: out.clone(),
            index: "quasii".into(),
            queries: 20,
            volume: 1e-4,
            pattern: "skewed".into(),
            seed: 2,
            batch: 8,
            threads: 2,
            shards: 3,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        })
        .unwrap();
        // --shards is a router over QUASII engines only.
        assert!(execute(Command::Bench {
            data: out.clone(),
            index: "rtree".into(),
            queries: 1,
            volume: 1e-4,
            pattern: "uniform".into(),
            seed: 2,
            batch: 0,
            threads: 0,
            shards: 2,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        })
        .is_err());
        assert!(execute(Command::Bench {
            data: out.clone(),
            index: "btree".into(),
            queries: 1,
            volume: 1e-4,
            pattern: "clustered".into(),
            seed: 2,
            batch: 0,
            threads: 0,
            shards: 0,
            assign_by: "lower".into(),
            seal: "true".into(),
            simd: "auto".into(),
            warm_start: String::new(),
            metrics: false,
        })
        .is_err());
        std::fs::remove_file(&path).ok();
    }
}
