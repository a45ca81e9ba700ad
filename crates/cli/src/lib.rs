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

mod run;
#[cfg(test)]
mod tests;

use quasii::{AssignBy, QuasiiConfig, SimdPolicy};
use quasii_common::dataset;
use quasii_common::geom::{max_extents, mbb_of, Aabb, Record};
use quasii_common::{io as qio, workload};
use quasii_shard::{ShardConfig, ShardedQuasii};
use run::{bench, recover_snapshot, report_fsx_counters, serve, snapshot, verify_file};
use std::collections::{BTreeMap, BTreeSet};

/// Where the index of a `bench` or `serve` run comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Built from this dataset file (`--data`).
    Data(String),
    /// Revived from the deployment whose manifest this is (`--warm-start`).
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

/// The ENGINE option group: how a QUASII deployment is built from a
/// dataset. Shared by `bench`, `snapshot` and `serve`; holds defaults
/// wherever the index is not built from `--data`.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineOpts {
    /// The deployment's `shard_threads`: worker cap of its read jobs and
    /// its shard jobs (0 = machine parallelism).
    pub threads: usize,
    /// Shard count; 0 and 1 both mean one shard.
    pub shards: usize,
    /// Slice assignment coordinate (paper footnote 1).
    pub assign_by: AssignBy,
    /// SIMD kernel dispatch policy (a host property, never persisted).
    pub simd: SimdPolicy,
}

/// The option names of the ENGINE group.
const ENGINE_OPTIONS: [&str; 4] = ["threads", "shards", "assign-by", "simd"];

impl EngineOpts {
    /// The deployment these options describe, built over `records`:
    /// `shards` engines (0 and 1 both mean one, and are recorded as one)
    /// behind the key-range router, `--threads` capping the deployment's
    /// read jobs and shard jobs. `bench --data`, `snapshot` and `serve
    /// --data` all build here.
    fn build(&self, records: Vec<Record<3>>) -> ShardedQuasii<3> {
        let inner = QuasiiConfig::default()
            .with_assign_by(self.assign_by)
            .with_simd(self.simd);
        let cfg = ShardConfig::default()
            .with_shards(self.shards.max(1))
            .with_shard_threads(self.threads)
            .with_inner(inner);
        ShardedQuasii::new(records, cfg)
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
        /// Dataset to build the index from, or deployment manifest to
        /// revive it from (quasii only).
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
    /// Warm a QUASII deployment on a workload and persist it as a
    /// manifest plus one part file per shard.
    Snapshot {
        /// Dataset path.
        data: String,
        /// Manifest path; the parts are written beside it.
        out: String,
        /// Warm-up queries before the snapshot is taken.
        workload: WorkloadOpts,
        /// How the QUASII index is built.
        engine: EngineOpts,
        /// Fully crack the index instead of warming it with queries.
        finalize: bool,
        /// Deterministic fault-injection spec for the snapshot write
        /// (`crash@OP[:SEED]` or `transient@COUNT`).
        fault: Option<String>,
    },
    /// Load a deployment manifest (+ parts) or a dataset file with the
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
        /// Dataset for a cold start, or deployment manifest to revive.
        source: Source,
        /// Listen address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// How a cold-started deployment is built (0 shards = one shard).
        engine: EngineOpts,
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

    /// The ENGINE group.
    fn engine(&mut self) -> Result<EngineOpts, String> {
        Ok(EngineOpts {
            threads: self.num("threads", 0)?,
            shards: self.num("shards", 0)?,
            assign_by: self.one_of(
                "assign-by",
                AssignBy::default(),
                AssignBy::parse,
                "lower|center|upper",
            )?,
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
            let engine = g.engine()?;
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
            engine: g.engine()?,
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
            let engine = g.engine()?;
            g.engine_options_take_effect("quasii", &source)?;
            Command::Serve {
                source,
                addr: g.get("addr").unwrap_or("127.0.0.1:7077").to_string(),
                engine,
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
  quasii snapshot --data FILE --out SNAP [WORKLOAD] [ENGINE]
                  [--finalize true|false] [--fault SPEC]
  quasii verify   --path FILE
  quasii recover  --snapshot SNAP [--data FILE]
  quasii serve    (--data FILE [ENGINE] | --warm-start SNAP) [--addr HOST:PORT]
                  [--queue-cap N]

WORKLOAD: [--queries N] [--volume FRAC] [--seed S]
          [--pattern uniform|clustered|skewed]
ENGINE:   [--threads N] [--shards K] [--assign-by lower|center|upper]
          [--simd auto|scalar|sse2|avx2]
  ENGINE options say how a QUASII index is built from --data. Given with
  another --index, or beside --warm-start (the snapshot fixes layout and
  configuration), they are errors, not ignored. Answers are byte-identical
  for every ENGINE setting, --batch, --metrics and admission grouping.

  --data FILE       3-d dataset; the extension picks the format (.csv text,
                    anything else .qsd binary)
  --warm-start SNAP revive the deployment whose manifest `snapshot` wrote
                    at SNAP instead of cracking from --data
  --pattern         skewed is a Zipf hot-region workload (shard imbalance)
  --batch N         run the workload N queries at a time through the batch
                    path (0 = one by one)
  --threads N       workers per deployment phase: its read jobs, its shard
                    jobs (0 = machine parallelism)
  --shards K        K engines behind a key-range router, results in
                    ascending-id order (0 and 1 = one shard)
  --assign-by       slice assignment coordinate (paper footnote 1)
  --simd            kernel generation (auto = QUASII_SIMD, then CPU
                    detection; an ISA the host lacks is an error)
  --metrics         print the metrics registry's table after the run
  --finalize true   fully crack the index instead of warming it on WORKLOAD
  --out SNAP        a manifest at SNAP plus SNAP.g<G>.part<k> per shard,
                    parts written first, manifest renamed last
  --fault SPEC      crash@OP[:SEED] kills the write at its OP-th store
                    operation, transient@COUNT fails the first COUNT
  verify            loads a manifest and its parts, or a .qsd, with the
                    loader that will serve it; exit 2 on corruption
  recover           quarantines corrupt shards, re-cracks them from --data
                    and commits a new generation; without --data, reports
  serve             GET /query?lo=a,b,c&hi=d,e,f | POST /batch (one
                    lo0,lo1,lo2,hi0,hi1,hi2 per line) | GET /snapshots
                    /metrics /healthz | POST /admin/repair /admin/shutdown
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
            queue_cap,
        } => {
            let cfg = quasii_server::ServeConfig::default().with_queue_cap(queue_cap);
            serve(source, &addr, &engine, cfg)
        }
    }
}
