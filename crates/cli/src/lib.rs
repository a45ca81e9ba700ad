//! Implementation of the `quasii` command-line workbench (kept in a library
//! so the argument parsing and command logic are unit-testable).
//!
//! [`USAGE`] has a line per subcommand (`generate`, `info`, `bench`,
//! `snapshot`, `verify`, `recover`, `serve`) and per option.
//!
//! [`parse`] turns the command line into a [`Command`] whose fields are
//! already typed and already consistent with each other; [`execute`] never
//! validates an option.

#![warn(missing_docs)]

use quasii::{AssignBy, Quasii, QuasiiConfig, SimdPolicy};
use quasii_common::dataset;
use quasii_common::fault::{parse_fault_spec, FaultStore};
use quasii_common::fsx::{self, FsStore, SnapshotStore};
use quasii_common::geom::{max_extents, mbb_of, Aabb, Record};
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
    Recovery, RecoveryReport, ShardConfig, ShardStatus, ShardedQuasii, MANIFEST_MAGIC,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Where the index of a `bench` or `serve` run comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Built from this dataset file (`--data`).
    Data(String),
    /// Revived from this snapshot file (`--warm-start`).
    WarmStart(String),
}

/// The query pattern of a workload (`--pattern`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly placed queries.
    Uniform,
    /// Five clusters of queries.
    Clustered,
    /// Zipf hot-region workload (the shard-imbalance stress).
    Skewed,
}

impl Pattern {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(Self::Uniform),
            "clustered" => Some(Self::Clustered),
            "skewed" => Some(Self::Skewed),
            _ => None,
        }
    }
}

/// The WORKLOAD option group, shared by `bench` and `snapshot` so a
/// warm-started run replays exactly the pattern the snapshot was warmed
/// on, given the same seed.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadOpts {
    /// Query pattern.
    pub pattern: Pattern,
    /// Number of queries.
    pub queries: usize,
    /// Query volume as a fraction of the universe.
    pub volume: f64,
    /// Workload seed.
    pub seed: u64,
}

impl WorkloadOpts {
    fn build(&self, universe: &Aabb<3>) -> workload::QueryWorkload<3> {
        let (queries, volume, seed) = (self.queries, self.volume, self.seed);
        match self.pattern {
            Pattern::Uniform => workload::uniform(universe, queries, volume, seed),
            Pattern::Clustered => {
                workload::clustered(universe, 5, queries.div_ceil(5), volume, seed)
            }
            Pattern::Skewed => workload::skewed(universe, 8, queries, volume, 1.1, seed),
        }
    }
}

/// The ENGINE option group: how a QUASII index is built from a dataset.
/// Shared by `bench`, `snapshot` (which does not read `--seal`) and
/// `serve`; holds defaults wherever the index is not built from `--data`.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineOpts {
    /// Worker threads per parallelism level (0 = machine parallelism).
    pub threads: usize,
    /// Shard count; 0 = unsharded single engine.
    pub shards: usize,
    /// Slice assignment coordinate (paper footnote 1).
    pub assign_by: AssignBy,
    /// Whether converged regions compact into sealed arenas.
    pub seal: bool,
    /// SIMD kernel dispatch policy (a host property, never persisted).
    pub simd: SimdPolicy,
}

/// The option names of the ENGINE group.
const ENGINE_OPTIONS: [&str; 5] = ["threads", "shards", "assign-by", "seal", "simd"];

impl EngineOpts {
    /// The single engine these options describe.
    fn config(&self) -> QuasiiConfig {
        QuasiiConfig::default()
            .with_threads(self.threads)
            .with_assign_by(self.assign_by)
            .with_seal(self.seal)
            .with_simd(self.simd)
    }

    /// The deployment of `shards` such engines (0 and 1 both mean one
    /// shard; `--threads` feeds both parallelism levels).
    fn sharded(&self) -> ShardConfig {
        ShardConfig::default()
            .with_shards(self.shards)
            .with_shard_threads(self.threads)
            .with_inner(self.config())
    }
}

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
        /// Dataset to build the index from, or snapshot to revive it from
        /// (quasii only).
        source: Source,
        /// Index name: scan|rtree|grid|sfc|sfcracker|mosaic|quasii.
        index: String,
        /// The queries to run.
        workload: WorkloadOpts,
        /// Queries per `query_batch` call; 0 = one-by-one execution.
        batch: usize,
        /// How the QUASII index is built.
        engine: EngineOpts,
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
        workload: WorkloadOpts,
        /// How the QUASII index is built (`seal` is always on).
        engine: EngineOpts,
        /// Fully crack the index instead of warming it with queries.
        finalize: bool,
        /// Deterministic fault-injection spec for the snapshot write
        /// (`crash@OP[:SEED]` or `transient@COUNT`).
        fault: Option<String>,
    },
    /// Load a snapshot, shard manifest (+ parts), or dataset file with the
    /// loader that will serve it.
    Verify {
        /// File to verify.
        path: String,
    },
    /// Quarantine corrupt shards of a sharded snapshot, rebuild them from
    /// the source dataset, and durably re-commit the repaired deployment.
    Recover {
        /// Sharded snapshot (its manifest file) to repair.
        snapshot: String,
        /// Source dataset to rebuild quarantined shards from (`None` only
        /// reports health).
        data: Option<String>,
    },
    /// Serve queries over HTTP with admission batching (`quasii-server`).
    Serve {
        /// Dataset for a cold start, or sharded snapshot to revive.
        source: Source,
        /// Listen address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// How a cold-started deployment is built (0 shards = one shard).
        engine: EngineOpts,
        /// Queries per admission group (1 disables grouping).
        max_batch: usize,
        /// Admission window upper bound in microseconds.
        max_delay_us: u64,
        /// Shrink the window at low arrival rates.
        adaptive: bool,
        /// Bounded submission-queue capacity (full queue answers 503).
        queue_cap: usize,
    },
    /// Show usage.
    Help,
}

/// Parses and validates a `--simd` value: unknown spellings and ISAs the
/// host cannot run (a forced level the dispatcher would clamp down) are
/// both flag errors, so a forced run never silently degrades.
fn parse_simd(value: &str) -> Result<SimdPolicy, String> {
    let policy = SimdPolicy::parse(value)
        .ok_or_else(|| format!("unknown --simd '{value}' (auto|scalar|sse2|avx2)"))?;
    if policy != SimdPolicy::Auto && policy.resolve().name() != policy.name() {
        return Err(format!(
            "--simd {}: not supported on this host (best available: {})",
            policy.name(),
            quasii::SimdLevel::detect().name()
        ));
    }
    Ok(policy)
}

/// The options given on a command line, and the names the command asked
/// for: what was given and never asked for is an unknown option.
struct Given<'a> {
    opts: BTreeMap<&'a str, &'a str>,
    read: BTreeSet<&'static str>,
}

impl<'a> Given<'a> {
    fn get(&mut self, key: &'static str) -> Option<&'a str> {
        self.read.insert(key);
        self.opts.get(key).copied()
    }

    fn required(&mut self, key: &'static str) -> Result<String, String> {
        self.get(key)
            .map(str::to_string)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// A numeric option; the error names the flag and the offending value
    /// (`--n: cannot parse 'ten': …`).
    fn num<T: std::str::FromStr>(&mut self, key: &'static str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{key}: cannot parse '{v}': {e}")),
        }
    }

    /// An option that names one of a few `choices`.
    fn one_of<T>(
        &mut self,
        key: &'static str,
        default: T,
        parse: fn(&str) -> Option<T>,
        choices: &str,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| format!("unknown --{key} '{v}' ({choices})")),
        }
    }

    fn flag(&mut self, key: &'static str, default: bool) -> Result<bool, String> {
        let parse = |v: &str| match v {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        };
        self.one_of(key, default, parse, "true|false")
    }

    /// `--data` or `--warm-start`: a snapshot carries the records itself,
    /// so exactly one of them names where the index comes from.
    fn source(&mut self, cmd: &str) -> Result<Source, String> {
        match (self.get("data"), self.get("warm-start")) {
            (Some(data), None) => Ok(Source::Data(data.to_string())),
            (None, Some(snap)) => Ok(Source::WarmStart(snap.to_string())),
            _ => Err(format!("{cmd} needs exactly one of --data or --warm-start")),
        }
    }

    fn workload(&mut self) -> Result<WorkloadOpts, String> {
        Ok(WorkloadOpts {
            queries: self.num("queries", 200)?,
            volume: self.num("volume", 1e-4)?,
            pattern: self.one_of(
                "pattern",
                Pattern::Clustered,
                Pattern::parse,
                "uniform|clustered|skewed",
            )?,
            seed: self.num("seed", 7)?,
        })
    }

    /// The ENGINE group; `snapshot` passes `reads_seal = false` and always
    /// seals, so `snapshot --seal` stays an unknown option.
    fn engine(&mut self, reads_seal: bool) -> Result<EngineOpts, String> {
        Ok(EngineOpts {
            threads: self.num("threads", 0)?,
            shards: self.num("shards", 0)?,
            assign_by: self.one_of(
                "assign-by",
                AssignBy::default(),
                AssignBy::parse,
                "lower|center|upper",
            )?,
            seal: !reads_seal || self.flag("seal", true)?,
            simd: self.get("simd").map_or(Ok(SimdPolicy::Auto), parse_simd)?,
        })
    }

    /// The one rule for the ENGINE group: an option that was given where it
    /// cannot take effect is an error, not ignored, whatever its value.
    fn engine_options_take_effect(&self, index: &str, source: &Source) -> Result<(), String> {
        for key in ENGINE_OPTIONS {
            if !self.opts.contains_key(key) {
                continue;
            }
            if index != "quasii" {
                return Err(format!("--{key} requires --index quasii"));
            }
            if matches!(source, Source::WarmStart(_)) {
                return Err(format!(
                    "--{key} conflicts with --warm-start (the snapshot fixes layout and \
                     configuration; kernel dispatch is re-resolved at load, set QUASII_SIMD to \
                     override)"
                ));
            }
        }
        Ok(())
    }
}

/// Parses raw arguments (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    parse_census(args).map(|(command, _)| command)
}

/// [`parse`], also yielding the names of the options the command read.
fn parse_census(args: &[String]) -> Result<(Command, BTreeSet<&'static str>), String> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", args),
    };
    let mut opts = BTreeMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, found '{}'", rest[i]))?;
        // `--metrics` is a bare flag: a following `--option` (or end of
        // line) means "on", an explicit true/false value is also accepted.
        if key == "metrics" && rest.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            opts.insert(key, "true");
            i += 1;
            continue;
        }
        let val = rest
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key, val.as_str());
        i += 2;
    }
    let mut g = Given {
        opts,
        read: BTreeSet::new(),
    };
    let command = match cmd {
        "generate" => Command::Generate {
            family: g.get("family").unwrap_or("uniform").to_string(),
            n: g.num("n", 100_000)?,
            seed: g.num("seed", 42)?,
            out: g.required("out")?,
        },
        "info" => Command::Info {
            data: g.required("data")?,
        },
        "bench" => {
            let source = g.source("bench")?;
            let index = g.get("index").unwrap_or("quasii").to_string();
            if matches!(source, Source::WarmStart(_)) && index != "quasii" {
                return Err("--warm-start requires --index quasii".to_string());
            }
            let engine = g.engine(true)?;
            g.engine_options_take_effect(&index, &source)?;
            Command::Bench {
                source,
                index,
                workload: g.workload()?,
                batch: g.num("batch", 0)?,
                engine,
                metrics: g.flag("metrics", false)?,
            }
        }
        "snapshot" => Command::Snapshot {
            data: g.required("data")?,
            out: g.required("out")?,
            workload: g.workload()?,
            engine: g.engine(false)?,
            finalize: g.flag("finalize", false)?,
            fault: g.get("fault").map(str::to_string),
        },
        "verify" => Command::Verify {
            path: g.required("path")?,
        },
        "recover" => Command::Recover {
            snapshot: g.required("snapshot")?,
            data: g.get("data").map(str::to_string),
        },
        "serve" => {
            let source = g.source("serve")?;
            let engine = g.engine(true)?;
            g.engine_options_take_effect("quasii", &source)?;
            let max_batch = g.num("max-batch", 64)?;
            if max_batch == 0 {
                return Err(
                    "--max-batch must be >= 1 (1 disables grouping, the per-request baseline)"
                        .to_string(),
                );
            }
            Command::Serve {
                source,
                addr: g.get("addr").unwrap_or("127.0.0.1:7077").to_string(),
                engine,
                max_batch,
                max_delay_us: g.num("max-delay-us", 200)?,
                adaptive: g.flag("adaptive", true)?,
                queue_cap: g.num("queue-cap", 1024)?,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command '{other}'")),
    };
    // An option the command does not read is an error, not noise: a typo,
    // or an option that no longer exists, must not pass for the default.
    match g.opts.keys().find(|k| !g.read.contains(*k)) {
        Some(k) => Err(format!("unknown option --{k} for '{cmd}'")),
        None => Ok((command, g.read)),
    }
}

/// Usage text.
pub const USAGE: &str = "\
quasii — spatial incremental index workbench (QUASII, EDBT 2018 reproduction)

USAGE:
  quasii generate --out FILE [--family uniform|neuro] [--n N] [--seed S]
  quasii info     --data FILE
  quasii bench    (--data FILE [ENGINE] | --warm-start SNAP) [WORKLOAD]
                  [--index scan|rtree|grid|sfc|sfcracker|mosaic|quasii]
                  [--batch N] [--metrics]
  quasii snapshot --data FILE --out SNAP [WORKLOAD] [ENGINE but --seal]
                  [--finalize true|false] [--fault SPEC]
  quasii verify   --path FILE
  quasii recover  --snapshot SNAP [--data FILE]
  quasii serve    (--data FILE [ENGINE] | --warm-start SNAP) [--addr HOST:PORT]
                  [--max-batch N] [--max-delay-us US] [--adaptive true|false]
                  [--queue-cap N]

WORKLOAD: [--queries N] [--volume FRAC] [--seed S]
          [--pattern uniform|clustered|skewed]
ENGINE:   [--threads N] [--shards K] [--assign-by lower|center|upper]
          [--seal true|false] [--simd auto|scalar|sse2|avx2]
  ENGINE options say how a QUASII index is built from --data. Given with
  another --index, or beside --warm-start (the snapshot fixes layout and
  configuration), they are errors, not ignored. Answers are byte-identical
  for every ENGINE setting, --batch, --metrics and admission setting.

  --data FILE       3-d dataset; the extension picks the format (.csv text,
                    anything else .qsd binary)
  --warm-start SNAP revive the index `snapshot` wrote instead of cracking
                    from --data (`serve` takes a sharded snapshot only)
  --pattern         skewed is a Zipf hot-region workload (shard imbalance)
  --batch N         run the workload N queries at a time through the batch
                    path (0 = one by one)
  --threads N       workers per parallelism level (0 = machine parallelism)
  --shards K        K engines behind a key-range router, results in
                    ascending-id order (0 = one engine; `serve`: one shard)
  --assign-by       slice assignment coordinate (paper footnote 1)
  --seal false      keep the adaptive machinery on every query (the sealed
                    read path's reference configuration)
  --simd            kernel generation (auto = QUASII_SIMD, then CPU
                    detection; an ISA the host lacks is an error)
  --metrics         print the metrics registry's table after the run
  --finalize true   fully crack the index instead of warming it on WORKLOAD
  --out SNAP        one checksummed file; with --shards K a manifest at SNAP
                    plus SNAP.g<G>.part<k> per shard, manifest renamed last
  --fault SPEC      crash@OP[:SEED] kills the write at its OP-th store
                    operation, transient@COUNT fails the first COUNT
  verify            loads a snapshot, a manifest and its parts, or a .qsd
                    with the loader that will serve it; exit 2 on corruption
  recover           quarantines corrupt shards, re-cracks them from --data
                    and commits a new generation; without --data, reports
  serve             GET /query?lo=a,b,c&hi=d,e,f | POST /batch (one
                    lo0,lo1,lo2,hi0,hi1,hi2 per line) | GET /snapshots
                    /metrics /healthz | POST /admin/repair /admin/shutdown
  --max-batch N     a group closes at N queries (1 = no grouping) or after
  --max-delay-us US the admission window, whichever first; --adaptive true
                    shrinks the window at low arrival rates
  --queue-cap N     submissions queued beyond N are answered 503";

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
            source,
            index,
            workload,
            batch,
            engine,
            metrics,
        } => bench(source, &index, &workload, batch, &engine, metrics),
        Command::Snapshot {
            data,
            out,
            workload,
            engine,
            finalize,
            fault,
        } => {
            let r = snapshot(&data, &out, &workload, &engine, finalize, fault.as_deref());
            report_fsx_counters();
            r
        }
        Command::Verify { path } => {
            let r = verify_file(&path);
            report_fsx_counters();
            r
        }
        Command::Recover { snapshot, data } => {
            let r = recover_snapshot(&snapshot, data.as_deref());
            report_fsx_counters();
            r
        }
        Command::Serve {
            source,
            addr,
            engine,
            max_batch,
            max_delay_us,
            adaptive,
            queue_cap,
        } => {
            let cfg = quasii_server::ServeConfig::default()
                .with_max_batch(max_batch)
                .with_max_delay_us(max_delay_us)
                .with_adaptive(adaptive)
                .with_queue_cap(queue_cap);
            serve(source, &addr, &engine, cfg)
        }
    }
}

// ---- command bodies ----

/// One line naming the kernel generation a QUASII run dispatches to.
fn report_simd(policy: SimdPolicy) {
    println!(
        "simd kernels: {} (policy {})",
        policy.resolve().name(),
        policy.name()
    );
}

/// Runs the workload one query at a time (`batch == 0`) or in batches
/// through the index's batch path, printing one summary line either way;
/// returns the index so callers can report post-run state.
fn report<I: SpatialIndex<3>>(
    mut index: I,
    build_secs: f64,
    queries: &[Aabb<3>],
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

/// [`report`], then one line for the sealed read path's end state (the
/// quasii variants).
fn report_quasii<I: SpatialIndex<3>>(index: I, build_secs: f64, queries: &[Aabb<3>], batch: usize) {
    let index = report(index, build_secs, queries, batch);
    println!("sealed fraction after run: {:.3}", index.sealed_fraction());
}

/// `quasii bench`.
fn bench(
    source: Source,
    index: &str,
    workload: &WorkloadOpts,
    batch: usize,
    engine: &EngineOpts,
    metrics: bool,
) -> Result<(), String> {
    if metrics {
        // Fresh registry per run: the table below reports this
        // invocation only, not process history.
        obs::registry::reset();
        obs::set_enabled(true);
    }
    match source {
        Source::WarmStart(snap) => bench_warm(&snap, workload, batch)?,
        Source::Data(data) => bench_cold(&data, index, workload, batch, engine)?,
    }
    if metrics {
        println!("\nmetrics (this run):");
        print!("{}", obs::registry::render_table());
    }
    Ok(())
}

/// `bench --warm-start`: the snapshot fixes layout and configuration, and a
/// revived engine re-resolves the default dispatch policy (which honors the
/// `QUASII_SIMD` environment override).
fn bench_warm(snap: &str, workload: &WorkloadOpts, batch: usize) -> Result<(), String> {
    report_simd(SimdPolicy::default());
    let bytes = std::fs::read(snap).map_err(|e| format!("cannot read '{snap}': {e}"))?;
    println!("warm start: {} snapshot bytes from {snap}", bytes.len());
    if bytes.starts_with(&MANIFEST_MAGIC) {
        // Per-shard loads run on parallel workers.
        let (b, idx) = timed(|| ShardedQuasii::<3>::from_snapshot_files(&FsStore, Path::new(snap)));
        let idx = idx.map_err(|e| format!("cannot load '{snap}': {e}"))?;
        let mut universe = Aabb::empty();
        for e in idx.engines() {
            if !e.data().is_empty() {
                universe.expand(&mbb_of(e.data()));
            }
        }
        println!(
            "shards: {} engines revived, sealed fraction {:.3}",
            idx.shard_count(),
            idx.sealed_fraction()
        );
        report_quasii(idx, b, &workload.build(&universe).queries, batch);
    } else {
        let (b, idx) = timed(|| Quasii::<3>::from_snapshot(bytes));
        let idx = idx.map_err(|e| format!("cannot load '{snap}': {e}"))?;
        println!("sealed fraction at load: {:.3}", idx.sealed_fraction());
        let w = workload.build(&mbb_of(idx.data()));
        report_quasii(idx, b, &w.queries, batch);
    }
    Ok(())
}

/// `bench --data`: build `index` over the dataset, then run the workload.
fn bench_cold(
    data: &str,
    index: &str,
    workload: &WorkloadOpts,
    batch: usize,
    engine: &EngineOpts,
) -> Result<(), String> {
    let records = load(data)?;
    let w = workload.build(&mbb_of(&records));
    match index {
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
            let (b, i) = timed(|| UniformGrid::build(records, parts, Assignment::QueryExtension));
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
        "quasii" if engine.shards > 0 => {
            report_simd(engine.simd);
            let (b, i) = timed(|| ShardedQuasii::new(records, engine.sharded()));
            let per_shard: Vec<usize> = i.snapshots().iter().map(|s| s.records).collect();
            println!(
                "shards: {} engines, records per shard {per_shard:?}",
                engine.shards
            );
            report_quasii(i, b, &w.queries, batch);
        }
        "quasii" => {
            report_simd(engine.simd);
            let (b, i) = timed(|| Quasii::new(records, engine.config()));
            report_quasii(i, b, &w.queries, batch);
        }
        other => return Err(format!("unknown index '{other}'")),
    }
    Ok(())
}

/// `quasii snapshot`: warm (or fully crack) an index, seal it, and commit
/// it through the crash-safe atomic-replace protocol; `--fault` wraps the
/// store in a deterministic fault injector so the protocol can be
/// exercised from the command line.
fn snapshot(
    data: &str,
    out: &str,
    workload: &WorkloadOpts,
    engine: &EngineOpts,
    finalize: bool,
    fault: Option<&str>,
) -> Result<(), String> {
    let store: Box<dyn SnapshotStore> = match fault {
        None => Box::new(FsStore),
        Some(spec) => {
            let plan = parse_fault_spec(spec).map_err(|e| format!("--fault: {e}"))?;
            Box::new(FaultStore::new(FsStore, plan))
        }
    };
    let records = load(data)?;
    let w = workload.build(&mbb_of(&records));
    let out_path = Path::new(out);
    if engine.shards > 0 {
        let mut idx = ShardedQuasii::new(records, engine.sharded());
        if finalize {
            idx.finalize();
        } else {
            idx.execute_batch(&w.queries);
        }
        idx.seal();
        let frac = idx.sealed_fraction();
        let gen = idx
            .write_snapshot_files(store.as_ref(), out_path)
            .map_err(|e| format!("snapshot: {e}"))?;
        println!(
            "committed generation {gen} ({} shards, {} part files + manifest, \
             sealed fraction {frac:.3}) to {out}",
            idx.shard_count(),
            idx.shard_count()
        );
    } else {
        let mut idx = Quasii::new(records, engine.config());
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
        fsx::write_atomic(store.as_ref(), out_path, &bytes)
            .map_err(|e| format!("cannot write '{out}': {e}"))?;
        println!(
            "wrote {} snapshot bytes (1 engine, sealed fraction {frac:.3}) to {out}",
            bytes.len()
        );
    }
    Ok(())
}

/// One line of durable-write health: the always-on `fsx` counters (commit,
/// retry, fault-injection), so flaky-store symptoms show up in `verify`,
/// `recover` and `snapshot` runs, failed ones included, without any flag.
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

/// The per-shard health lines `verify` and `recover` both print.
fn report_health(report: &RecoveryReport) {
    println!(
        "generation {}: {} shards, coverage {:.3}",
        report.generation,
        report.shards.len(),
        report.coverage_fraction()
    );
    for h in &report.shards {
        match &h.status {
            ShardStatus::Healthy => {
                println!("  shard {}: healthy ({} records)", h.shard, h.records)
            }
            ShardStatus::Rebuilt => {
                println!("  shard {}: rebuilt ({} records)", h.shard, h.records)
            }
            ShardStatus::Quarantined(why) => println!("  shard {}: QUARANTINED — {why}", h.shard),
        }
    }
}

/// `quasii verify`: the file is read by the loader that will read it when
/// it is served (picked by magic), so what passes here loads there. Returns
/// `Err` (exit code 2) on any corruption so scripts can gate on it.
fn verify_file(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if bytes.starts_with(&MANIFEST_MAGIC) {
        let rec =
            Recovery::<3>::load(&FsStore, Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let report = rec.report();
        report_health(report);
        if !report.is_complete() {
            return Err(format!(
                "{} of {} shards failed verification (recover can quarantine and rebuild them \
                 from the source dataset)",
                report.quarantined().len(),
                report.shards.len()
            ));
        }
        Ok(())
    } else if bytes.starts_with(&quasii::snapshot::MAGIC) {
        let (len, word) = (bytes.len(), quasii::snapshot::header_word(&bytes));
        let idx = Quasii::<3>::from_snapshot(bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "engine snapshot: {len} bytes, {} records, {} slices ({} root), {} sealed regions \
             ({} arena bytes, sealed fraction {:.3}), checksum {:#018x} ok",
            idx.len(),
            idx.slice_count(),
            idx.level_profile()[0],
            idx.sealed_regions(),
            idx.seal_bytes(),
            idx.sealed_fraction(),
            word.expect("a loaded snapshot has a header word"),
        );
        Ok(())
    } else if bytes.starts_with(qio::QSD_MAGIC) {
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
fn recover_snapshot(snapshot: &str, data: Option<&str>) -> Result<(), String> {
    let store = FsStore;
    let path = Path::new(snapshot);
    let mut rec =
        Recovery::<3>::load(&store, path).map_err(|e| format!("cannot load '{snapshot}': {e}"))?;
    report_health(rec.report());
    if rec.report().is_complete() {
        println!("all shards healthy; nothing to repair");
        return Ok(());
    }
    let Some(data) = data else {
        return Err(format!(
            "{} shards are quarantined; pass --data FILE (the snapshot's source dataset) \
             to rebuild them",
            rec.report().quarantined().len()
        ));
    };
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

/// `quasii serve`: runs until `POST /admin/shutdown`.
fn serve(
    source: Source,
    addr: &str,
    engine: &EngineOpts,
    cfg: quasii_server::ServeConfig,
) -> Result<(), String> {
    // A server always exposes /metrics, so the registry is always on
    // (fresh, so the exposition reports this process only).
    obs::registry::reset();
    obs::set_enabled(true);
    let deployment = match source {
        Source::WarmStart(snap) => {
            let bytes = std::fs::read(&snap).map_err(|e| format!("cannot read '{snap}': {e}"))?;
            if !bytes.starts_with(&MANIFEST_MAGIC) {
                return Err(format!(
                    "'{snap}' is not a sharded snapshot (serve fronts a sharded deployment; \
                     write one with `quasii snapshot --shards K`)"
                ));
            }
            report_simd(SimdPolicy::default());
            ShardedQuasii::<3>::from_snapshot_files(&FsStore, Path::new(&snap))
                .map_err(|e| format!("cannot load '{snap}': {e}"))?
        }
        Source::Data(data) => {
            report_simd(engine.simd);
            ShardedQuasii::new(load(&data)?, engine.sharded())
        }
    };
    let records: usize = deployment.engines().iter().map(|e| e.data().len()).sum();
    let shard_count = deployment.shard_count();
    let handle =
        quasii_server::start(deployment, addr, cfg.clone()).map_err(|e| format!("serve: {e}"))?;
    println!(
        "serving http://{} — {records} records across {shard_count} shards, admission \
         max_batch {}, window <= {}us ({}), queue cap {}",
        handle.addr(),
        cfg.max_batch,
        cfg.max_delay_us,
        if cfg.adaptive { "adaptive" } else { "fixed" },
        cfg.queue_cap.max(1),
    );
    println!(
        "endpoints: GET /query?lo=a,b,c&hi=d,e,f | POST /batch | GET /snapshots \
         /metrics /healthz | POST /admin/repair /admin/shutdown"
    );
    handle.wait();
    println!("server stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_shard::part_path;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Threads and shards 0 (auto, unsharded), the paper's lower coordinate,
    /// sealing on, dispatch auto.
    fn default_engine() -> EngineOpts {
        EngineOpts {
            threads: 0,
            shards: 0,
            assign_by: AssignBy::Lower,
            seal: true,
            simd: SimdPolicy::Auto,
        }
    }

    /// Parses and executes one command line (paths must not hold spaces).
    fn run(cmdline: &str) -> Result<(), String> {
        parse(&args(cmdline)).and_then(execute)
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
        let bench = |rest: &str| parse(&args(&format!("bench --data d.qsd {rest}"))).unwrap();
        let expected =
            |index: &str, workload: &WorkloadOpts, batch, engine: &EngineOpts, metrics| {
                Command::Bench {
                    source: Source::Data("d.qsd".into()),
                    index: index.into(),
                    workload: workload.clone(),
                    batch,
                    engine: engine.clone(),
                    metrics,
                }
            };
        // Batch defaults to 0 (per-query).
        let workload = WorkloadOpts {
            pattern: Pattern::Clustered,
            queries: 200,
            volume: 1e-4,
            seed: 7,
        };
        let engine = default_engine();
        assert_eq!(bench(""), expected("quasii", &workload, 0, &engine, false));
        let uniform = WorkloadOpts {
            pattern: Pattern::Uniform,
            queries: 50,
            volume: 0.01,
            seed: 3,
        };
        assert_eq!(
            bench("--index rtree --queries 50 --volume 0.01 --pattern uniform --seed 3 --batch 25"),
            expected("rtree", &uniform, 25, &engine, false)
        );
        let skewed = WorkloadOpts {
            pattern: Pattern::Skewed,
            ..workload.clone()
        };
        let tuned = EngineOpts {
            threads: 2,
            shards: 4,
            assign_by: AssignBy::Center,
            seal: false,
            simd: SimdPolicy::Scalar,
        };
        assert_eq!(
            bench("--shards 4 --threads 2 --pattern skewed --assign-by center --seal false --simd scalar"),
            expected("quasii", &skewed, 0, &tuned, false)
        );
        // `--metrics` is a bare flag that also takes an explicit value.
        for (rest, on) in [
            ("--metrics", true),
            ("--metrics --seed 7", true),
            ("--metrics false", false),
        ] {
            assert_eq!(
                bench(rest),
                expected("quasii", &workload, 0, &engine, on),
                "{rest}"
            );
        }
    }

    #[test]
    fn options_are_validated_by_parse_before_any_file_or_socket() {
        let err_of = |cmdline: &str| parse(&args(cmdline)).unwrap_err();
        for (cmdline, fragment) in [
            // Typed values are checked where they enter.
            ("bench --data d --assign-by sideways", "--assign-by"),
            ("bench --data d --seal sideways", "--seal 'sideways' (true|"),
            ("bench --data d --simd mmx", "unknown --simd 'mmx'"),
            ("bench --data d --pattern zigzag", "--pattern 'zigzag'"),
            ("bench --data d --metrics maybe", "--metrics"),
            ("snapshot --data d --out s --assign-by 3", "--assign-by"),
            ("snapshot --data d --out s --simd mmx", "--simd"),
            ("snapshot --data d --out s --pattern zigzag", "--pattern"),
            ("snapshot --data d --out s --finalize maybe", "--finalize"),
            ("snapshot --data d --out s --seal true", "unknown option"),
            ("serve --data d --adaptive sideways", "--adaptive"),
            ("serve --data d --seal sideways", "--seal"),
            ("serve --data d --assign-by sideways", "--assign-by"),
            ("serve --data d --max-batch 0", "--max-batch must be >= 1"),
            // Exactly one source, and only QUASII has snapshots.
            ("bench", "bench needs exactly one of --data or"),
            ("bench --data d --warm-start s", "exactly one"),
            ("serve", "serve needs exactly one of --data or"),
            ("serve --data d --warm-start s", "exactly one"),
            (
                "bench --index rtree --warm-start s",
                "--warm-start requires",
            ),
        ] {
            let err = err_of(cmdline);
            assert!(err.contains(fragment), "{cmdline}: {err}");
        }
        // The one rule, for every ENGINE option: given where it cannot take
        // effect, at its default value or another, is an error with one
        // message.
        for option in [
            "threads 0",
            "threads 2",
            "shards 0",
            "shards 2",
            "assign-by lower",
            "assign-by center",
            "seal true",
            "seal false",
            "simd auto",
            "simd scalar",
        ] {
            let key = option.split(' ').next().unwrap();
            for index in ["rtree", "btree"] {
                assert_eq!(
                    err_of(&format!("bench --data d --index {index} --{option}")),
                    format!("--{key} requires --index quasii")
                );
            }
            for cmd in ["bench", "serve"] {
                assert_eq!(
                    err_of(&format!("{cmd} --warm-start s --{option}")),
                    format!(
                        "--{key} conflicts with --warm-start (the snapshot fixes layout and \
                         configuration; kernel dispatch is re-resolved at load, set QUASII_SIMD \
                         to override)"
                    )
                );
            }
        }
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
            ("serve --data d.qsd --max-batch many", "--max-batch", "many"),
        ];
        for (cmdline, flag, value) in cases {
            let err = parse(&args(cmdline)).unwrap_err();
            assert!(err.contains(flag), "{cmdline}: {err}");
            assert!(err.contains(value), "{cmdline}: {err}");
        }
    }

    #[test]
    fn parse_serve_defaults_and_overrides() {
        assert_eq!(
            parse(&args("serve --data d.qsd")).unwrap(),
            Command::Serve {
                source: Source::Data("d.qsd".into()),
                addr: "127.0.0.1:7077".into(),
                engine: default_engine(),
                max_batch: 64,
                max_delay_us: 200,
                adaptive: true,
                queue_cap: 1024,
            }
        );
        assert_eq!(
            parse(&args(
                "serve --warm-start s.qshard --addr 0.0.0.0:80 --max-batch 1 --max-delay-us 0 \
                 --adaptive false --queue-cap 8",
            ))
            .unwrap(),
            Command::Serve {
                source: Source::WarmStart("s.qshard".into()),
                addr: "0.0.0.0:80".into(),
                engine: default_engine(),
                max_batch: 1,
                max_delay_us: 0,
                adaptive: false,
                queue_cap: 8,
            }
        );
    }

    #[test]
    fn option_census() {
        // Every (command, option) pair, by name: an option added without a
        // usage line, or a usage line without its option, fails here.
        const CENSUS: [(&str, &str); 7] = [
            ("generate --out x", "family n out seed"),
            ("info --data d", "data"),
            (
                "bench --data d",
                "assign-by batch data index metrics pattern queries seal seed shards simd threads \
                 volume warm-start",
            ),
            (
                "snapshot --data d --out s",
                "assign-by data fault finalize out pattern queries seed shards simd threads volume",
            ),
            ("verify --path p", "path"),
            ("recover --snapshot s", "data snapshot"),
            (
                "serve --data d",
                "adaptive addr assign-by data max-batch max-delay-us queue-cap seal shards simd \
                 threads warm-start",
            ),
        ];
        let mut pairs = 0;
        let mut union = BTreeSet::new();
        for (cmdline, options) in CENSUS {
            let (_, read) = parse_census(&args(cmdline)).unwrap();
            let options: Vec<&str> = options.split(' ').collect();
            assert_eq!(read.into_iter().collect::<Vec<_>>(), options, "{cmdline}");
            pairs += options.len();
            union.extend(options);
        }
        assert_eq!(pairs, 46);
        let option_name = |t: &'static str| {
            let end = t.find(|c: char| !c.is_ascii_lowercase() && c != '-');
            &t[..end.unwrap_or(t.len())]
        };
        let in_usage: BTreeSet<&str> = USAGE.split("--").skip(1).map(option_name).collect();
        assert_eq!(in_usage, union);
    }

    #[test]
    fn serve_end_to_end_over_loopback() {
        // Build a tiny dataset, serve it on an ephemeral port, and drive
        // the full path: query, batch, health, metrics, admin shutdown.
        let dir = std::env::temp_dir();
        let data = dir.join(format!("quasii-serve-{}.qsd", std::process::id()));
        let data_s = data.to_string_lossy().to_string();
        run(&format!("generate --out {data_s} --n 1500 --seed 31")).unwrap();
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
    fn snapshot_and_warm_start_round_trip() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let data = dir.join(format!("quasii-snap-{pid}.qsd"));
        let single = dir.join(format!("quasii-snap-{pid}-single.qsnap"));
        let sharded = dir.join(format!("quasii-snap-{pid}-sharded.qsnap"));
        let (data_s, single_s, sharded_s) = (
            data.to_string_lossy(),
            single.to_string_lossy(),
            sharded.to_string_lossy(),
        );
        const WORKLOAD: &str = "--queries 30 --volume 1e-4 --pattern clustered --seed 12";
        run(&format!("generate --out {data_s} --n 2000 --seed 11")).unwrap();
        // Single engine: snapshot after a query warm-up, then warm-start.
        run(&format!(
            "snapshot --data {data_s} --out {single_s} {WORKLOAD}"
        ))
        .unwrap();
        run(&format!("verify --path {single_s}")).unwrap();
        run(&format!("bench --warm-start {single_s} {WORKLOAD}")).unwrap();
        // Sharded deployment: finalize, then warm-start through the batch
        // path (the manifest self-identifies via its magic and names its
        // part files).
        run(&format!(
            "snapshot --data {data_s} --out {sharded_s} --shards 3 --finalize true {WORKLOAD}"
        ))
        .unwrap();
        run(&format!(
            "bench --warm-start {sharded_s} --batch 8 {WORKLOAD}"
        ))
        .unwrap();
        // A corrupt snapshot file fails loudly, not with a panic, in the
        // run that would serve it and in `verify` alike.
        let bytes = std::fs::read(&single).unwrap();
        std::fs::write(&single, &bytes[..bytes.len() / 2]).unwrap();
        assert!(run(&format!("bench --warm-start {single_s} {WORKLOAD}")).is_err());
        let err = run(&format!("verify --path {single_s}")).unwrap_err();
        assert!(err.contains("buffer holds"), "{err}");
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
        run(&format!("generate --out {data} --n 2000 --seed 21")).unwrap();
        let verify = |path: &str| run(&format!("verify --path {path}"));
        verify(&data).unwrap();
        let snapshot = |fault: &str| {
            run(&format!(
                "snapshot --data {data} --out {snap} --queries 30 --seed 22 --shards 3 {fault}"
            ))
        };
        snapshot("").unwrap();
        verify(&snap).unwrap();

        // A crash injected mid-commit fails the write but leaves the
        // committed generation fully intact (manifest still names it).
        assert!(snapshot("--fault crash@2:7").is_err());
        verify(&snap).unwrap();
        run(&format!(
            "bench --warm-start {snap} --queries 30 --seed 22 --batch 8"
        ))
        .unwrap();
        // Transient faults are absorbed by the bounded retry.
        snapshot("--fault transient@2").unwrap();
        verify(&snap).unwrap();

        // Tear one part file: verify flags it, recover reports it, and
        // rebuilding from the source dataset re-commits a clean generation.
        let part = part_path(Path::new(&snap), 2, 1);
        let bytes = std::fs::read(&part).expect("part of committed generation");
        std::fs::write(&part, &bytes[..bytes.len() / 2]).unwrap();
        let err = verify(&snap).unwrap_err();
        assert!(
            err.starts_with("1 of 3 shards failed verification"),
            "{err}"
        );
        let err = run(&format!("recover --snapshot {snap}")).unwrap_err();
        assert!(err.contains("--data"), "{err}");
        run(&format!("recover --snapshot {snap} --data {data}")).unwrap();
        verify(&snap).unwrap();
        // A healthy deployment reports complete and changes nothing.
        run(&format!("recover --snapshot {snap}")).unwrap();

        // One file holding the manifest and then the shard buffers is not
        // a snapshot layout: verify and recover both name the trailing
        // bytes instead of reading it as a second format.
        let mut one_file = std::fs::read(&snap).unwrap();
        let mut trailing = 0;
        for k in 0..3 {
            let part = std::fs::read(part_path(Path::new(&snap), 3, k)).unwrap();
            trailing += part.len();
            one_file.extend(part);
        }
        let glued = dir.join("one-file.qshard").to_string_lossy().to_string();
        std::fs::write(&glued, &one_file).unwrap();
        let expect = format!("{trailing} trailing bytes");
        let err = verify(&glued).unwrap_err();
        assert!(err.contains(&expect), "{err}");
        let err = run(&format!("recover --snapshot {glued} --data {data}")).unwrap_err();
        assert!(err.contains(&expect), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_info_bench() {
        let path = std::env::temp_dir().join(format!("quasii-cli-{}.qsd", std::process::id()));
        let out = path.to_string_lossy().to_string();
        run(&format!(
            "generate --out {out} --family neuro --n 3000 --seed 1"
        ))
        .unwrap();
        run(&format!("info --data {out}")).unwrap();
        let bench = |rest: &str| run(&format!("bench --data {out} --queries 20 --seed 2 {rest}"));
        for index in [
            "scan",
            "rtree",
            "grid",
            "sfc",
            "sfcracker",
            "mosaic",
            "quasii",
        ] {
            bench(&format!("--index {index}")).unwrap();
        }
        // Batch-parallel path: batches of 8 on 2 workers.
        bench("--batch 8 --threads 2 --assign-by center").unwrap();
        // Sealing disabled: the reference (pure adaptive) configuration.
        bench("--seal false").unwrap();
        // Sharded two-level path on the skewed (hot-region) workload, with
        // the metrics table printed after it.
        bench("--pattern skewed --batch 8 --threads 2 --shards 3 --metrics").unwrap();
        // --shards is a router over QUASII engines only.
        assert!(bench("--index rtree --shards 2").is_err());
        assert!(bench("--index btree").is_err());
        std::fs::remove_file(&path).ok();
    }
}
