//! `repro` — regenerates the paper's evaluation figures.
//!
//! ```text
//! repro [--scale tiny|small|medium|full] [--out DIR] [--threads N]
//!       [--shards K] [--assign-by lower|center|upper]
//!       [--simd auto|scalar|sse2|avx2] [--json PATH]
//!       <experiment>...
//! repro all                        # every figure (medium scale)
//! repro fig9 --scale small         # one figure, small inputs
//! repro scaling --threads 2 --json summary.json
//! repro sharding --shards 4 --threads 2
//! ```
//!
//! `--threads` adds a worker count to the `scaling` and `sharding` sweeps,
//! `--shards` a shard count to the `sharding` sweep, `--assign-by` picks
//! QUASII's assignment coordinate for those sweeps, `--simd` pins the
//! kernel dispatch policy (default `auto`; the *resolved* ISA is recorded
//! in the report); `--json` writes a machine-readable per-experiment timing
//! summary, with the full run configuration embedded.

use quasii::AssignBy;
use quasii_bench::experiments::{Harness, ALL_EXPERIMENTS};
use quasii_bench::scale::Scale;
use quasii_bench::OutputDir;
use quasii_obs as obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::MEDIUM;
    let mut out_dir = String::from("results");
    let mut threads = 0usize;
    let mut shards = 0usize;
    let mut assign_by = AssignBy::default();
    let mut simd = quasii::SimdPolicy::default();
    let mut json_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (tiny|small|medium|full)");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or(out_dir);
            }
            "--threads" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                threads = v.parse().unwrap_or_else(|e| {
                    eprintln!("--threads: {e}");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                shards = v.parse().unwrap_or_else(|e| {
                    eprintln!("--shards: {e}");
                    std::process::exit(2);
                });
            }
            "--assign-by" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                assign_by = AssignBy::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown assignment mode '{v}' (lower|center|upper)");
                    std::process::exit(2);
                });
            }
            "--simd" => {
                i += 1;
                let v = args.get(i).map(String::as_str).unwrap_or("");
                simd = quasii::SimdPolicy::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown --simd '{v}' (auto|scalar|sse2|avx2)");
                    std::process::exit(2);
                });
                if simd != quasii::SimdPolicy::Auto && simd.resolve().name() != simd.name() {
                    eprintln!(
                        "--simd {}: not supported on this host (best available: {})",
                        simd.name(),
                        quasii::SimdLevel::detect().name()
                    );
                    std::process::exit(2);
                }
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
                if json_path.is_none() {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = args.get(i).cloned();
                if metrics_out.is_none() {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let out = OutputDir::new(&out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create output dir '{out_dir}': {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] scale={} neuro_n={} uniform_n={} queries={} -> {}",
        scale.name, scale.neuro_n, scale.uniform_n, scale.uniform_queries, out_dir
    );

    if metrics_out.is_some() {
        // Arm the registry for the whole run; the dump below then covers
        // every experiment executed by this invocation.
        obs::registry::reset();
        obs::set_enabled(true);
    }
    let mut harness = Harness::new(scale, out);
    harness.threads = threads;
    harness.shards = shards;
    harness.assign_by = assign_by;
    harness.simd = simd;
    let t = std::time::Instant::now();
    for exp in &experiments {
        if let Err(e) = harness.run(exp) {
            eprintln!("error: {e}");
            eprintln!("known experiments: {ALL_EXPERIMENTS:?} or 'all'");
            std::process::exit(2);
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, harness.json_report()) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] wrote timing summary to {path}");
    }
    if let Some(path) = metrics_out {
        // Prometheus text exposition with the run configuration embedded
        // as a comment line (parsers skip unknown comments).
        let dump = format!(
            "# config {}\n{}",
            harness.config_json(),
            obs::registry::render_prometheus()
        );
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("cannot write '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] wrote metrics dump to {path}");
    }
    eprintln!("[repro] done in {:.1}s", t.elapsed().as_secs_f64());
}

fn print_usage() {
    println!(
        "usage: repro [--scale tiny|small|medium|full] [--out DIR] [--threads N] \
         [--shards K] [--assign-by lower|center|upper] \
         [--simd auto|scalar|sse2|avx2] [--json PATH] \
         [--metrics-out PATH] <experiment|all>..."
    );
    println!("experiments: {ALL_EXPERIMENTS:?}");
}
