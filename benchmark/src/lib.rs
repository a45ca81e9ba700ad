//! One benchmark for the whole path of the QUASII suite.
//!
//! Five named workloads, each run by one command that checks the answers,
//! then prints every metric by name with its unit. End-to-end metrics come
//! from the untraced run; `--trace 1` repeats the workload with the
//! benchmark's own spans around every façade call (and `quasii_obs` on)
//! for the per-layer metrics. `BENCHMARK.json` at the root of the checkout
//! is the catalogue of metric names; see `README.md` beside this package.
//!
//! The system is driven only through its public façade (listed in the
//! README), so that kernel-level code can change or go without breaking
//! the benchmark it is measured by.

pub mod buildinfo;
pub mod json;
pub mod loadgen;
pub mod procfs;
pub mod prom;
pub mod report;
pub mod rounds;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod workloads;

use report::Report;
use rounds::Phase;
use spans::Tracer;
use std::path::PathBuf;

/// Sizes of everything a run does. `FULL` is what `BENCHMARK.json` runs;
/// `SMOKE` exercises the same code in a few seconds for the tests.
#[derive(Clone, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Records of `dataset::uniform_boxes::<3>`.
    pub records: usize,
    /// Set-up passes per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Rounds every timed phase runs at least.
    pub min_rounds: usize,
    /// Queries sampled per workload for the check against a full scan.
    pub checks: usize,
    /// Queries per batch of the in-process batch workloads.
    pub batch: usize,
    /// `cold_crack`: queries per fresh engine.
    pub cold_queries: usize,
    /// `converged_read`: batches per round.
    pub converged_batches: usize,
    /// `shift_mixed`: clusters per fresh engine, queries per cluster, and
    /// fresh engines probed for `first_results_ms`.
    pub shift_clusters: usize,
    pub shift_per_cluster: usize,
    pub shift_probes: usize,
    /// `serve_http`: size of the hot query set, requests per closed-loop
    /// round, warm-up requests, `POST /batch` size and count, and
    /// `/healthz` count.
    pub serve_pool: usize,
    pub serve_round: usize,
    pub serve_warmup: usize,
    pub serve_batch: usize,
    pub serve_batches: usize,
    pub serve_healthz: usize,
    /// `restart`: warm-up queries before `finalize`, and the size of the
    /// first batch a reloaded engine answers.
    pub restart_warmup: usize,
    pub restart_first_batch: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        records: 1_000_000,
        setup_reps: 5,
        min_rounds: 5,
        checks: 64,
        batch: 16,
        cold_queries: 2_000,
        converged_batches: 500,
        shift_clusters: 24,
        shift_per_cluster: 1_280,
        shift_probes: 6,
        serve_pool: 2_048,
        serve_round: 300,
        serve_warmup: 200,
        serve_batch: 64,
        serve_batches: 20,
        serve_healthz: 300,
        restart_warmup: 2_000,
        restart_first_batch: 64,
    };

    pub const SMOKE: Scale = Scale {
        name: "smoke",
        records: 20_000,
        setup_reps: 2,
        min_rounds: 2,
        checks: 16,
        batch: 16,
        cold_queries: 200,
        converged_batches: 40,
        shift_clusters: 3,
        shift_per_cluster: 64,
        shift_probes: 2,
        serve_pool: 128,
        serve_round: 40,
        serve_warmup: 10,
        serve_batch: 16,
        serve_batches: 3,
        serve_healthz: 20,
        restart_warmup: 200,
        restart_first_batch: 16,
    };

    pub fn parse(name: &str) -> Option<Scale> {
        [Self::FULL, Self::SMOKE]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Query volume as a share of the universe, for every workload.
pub const QVOL: f64 = 1e-3;

/// Side of the universe `dataset::uniform_boxes` fills.
pub const UNIVERSE_SIDE: f64 = 10_000.0;

/// What one run was asked to do, and the report it fills in.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time; set-up and answer checks come on top.
    pub seconds: f64,
    /// Whether this is the traced run that yields the per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    pub report: Report,
}

impl Ctx {
    /// The seed of input stream `stream`, derived from `--seed` (splitmix64).
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// In a traced run every other round is traced, so that the same run
    /// also yields the untraced figure the tracing overhead is taken from.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// Starts round `round` of an in-process workload: spans and the
    /// program's own metrics go on together if it is a traced round.
    /// [`set_tracing`]`(tr, false)` ends it.
    pub fn begin_round(&self, tr: &mut Tracer, round: usize) -> bool {
        let traced = self.traced_round(round);
        set_tracing(tr, traced);
        traced
    }

    /// Sets the op metrics every workload reports, from the plain rounds
    /// of its main phase; the traced rounds only yield
    /// `obs.trace_overhead_frac`: traced p50 over untraced p50, minus one.
    pub fn set_op_metrics(&mut self, phase: &Phase) {
        let [plain, traced] = phase;
        let (tail, pct) = plain.tail_us();
        println!("plain rounds:  {}", plain.describe());
        if traced.rounds() > 0 {
            println!("traced rounds: {}", traced.describe());
        }
        let r = &mut self.report;
        r.set("op_p50_us", plain.p50_us());
        r.set("op_tail_us", tail);
        r.set("ops_per_s", plain.ops_per_s());
        r.set("cpu_ms_per_op", plain.cpu_ms_per_op());
        r.set("loadgen.tail_percentile", pct);
        r.set("loadgen.rounds", (plain.rounds() + traced.rounds()) as f64);
        r.set("loadgen.ops_per_round", plain.ops_per_round() as f64);
        r.set(
            "loadgen.round_s",
            plain.ops_per_round() as f64 / plain.ops_per_s(),
        );
        r.attempted += (plain.ops() + traced.ops()) as u64;
        if traced.rounds() > 0 && plain.p50_us() > 0.0 {
            r.set(
                "obs.trace_overhead_frac",
                traced.p50_us() / plain.p50_us() - 1.0,
            );
        }
    }
}

/// Switches the benchmark's spans and the program's own metrics together.
pub fn set_tracing(tr: &mut Tracer, on: bool) {
    tr.set_on(on);
    quasii_obs::set_enabled(on);
}

/// Arguments of the `run` subcommand.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the traced run writes `<workload>.trace.jsonl`.
    pub trace_dir: PathBuf,
}

/// Where span files go unless `--trace-dir` says otherwise: inside the
/// build directory, which the checkout's `.gitignore` already names.
pub fn default_trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("quasii-trace")
}

/// Runs one workload and returns its report. `Err` means the run could
/// not be made (unknown workload, too few processors to generate load);
/// wrong answers are counted in the report instead.
pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    let Some(&(name, workload)) = workloads::ALL.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<_> = workloads::ALL.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload '{}' (one of: {})",
            args.workload,
            names.join(", ")
        ));
    };
    let jiffies = procfs::host_jiffies();
    let before = procfs::ProcStat::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale.clone(),
        report: Report::default(),
    };
    let mut tracer = Tracer::new();
    tracer.set_on(args.trace);
    quasii_obs::set_enabled(false);
    let outcome = tracer.call(name, |tr| workload(&mut ctx, tr));
    quasii_obs::set_enabled(false);
    outcome?;

    let after = procfs::ProcStat::now();
    let r = &mut ctx.report;
    r.set("proc.peak_rss_mb", procfs::peak_rss_mb());
    r.set("proc.cpu_user_s", after.user_s - before.user_s);
    r.set("proc.cpu_sys_s", after.sys_s - before.sys_s);
    let cpu = after.cpu_s() - before.cpu_s();
    r.set(
        "proc.sys_share",
        if cpu > 0.0 {
            (after.sys_s - before.sys_s) / cpu
        } else {
            0.0
        },
    );
    r.set(
        "proc.minor_faults",
        (after.minor_faults - before.minor_faults) as f64,
    );
    r.set("host.steal_frac", procfs::steal_frac_since(jiffies));
    if args.trace {
        r.set(
            "core.simd.level",
            buildinfo::simd_level_number(&buildinfo::simd_level()),
        );
        r.set("host.two_thread_speedup", procfs::two_thread_speedup());
        let path = args.trace_dir.join(format!("{name}.trace.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
        println!(
            "{:<36} {:>9} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (span, (count, total, own)) in tracer.summary() {
            println!(
                "{span:<36} {count:>9} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    Ok(ctx.report)
}
