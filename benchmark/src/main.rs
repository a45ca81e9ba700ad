//! `quasii-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, checks its answers, prints every metric by name with
//! its unit, and ends with the result line the driver reads.
//! `quasii-benchmark selfcheck` compares two passes of the same build.

use quasii_benchmark::report::Manifest;
use quasii_benchmark::{buildinfo, default_trace_dir, run_workload, selfcheck, RunArgs, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  quasii-benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
                       [--scale full|smoke] [--trace-dir <dir>]
  quasii-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--scale full|smoke]
workloads: cold_crack converged_read shift_mixed serve_http restart";

/// `--flag value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => out.push((flag.as_str(), value.as_str())),
            _ => return Err(format!("expected '--flag value', got {pair:?}")),
        }
    }
    Ok(out)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    buildinfo::check_profile_mirrors_root()?;
    let manifest = Manifest::load(&Manifest::locate())?;

    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = manifest.run_seconds as f64;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut trace_dir = default_trace_dir();
    for (flag, value) in flags(rest)? {
        let bad = || format!("bad value '{value}' for {flag}");
        match flag {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => scale = Scale::parse(value).ok_or_else(bad)?,
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }

    match command.as_str() {
        "run" => {
            let workload = workload.ok_or("run needs --workload")?;
            println!(
                "{}",
                buildinfo::header(&workload, seed, seconds, trace, scale.name)
            );
            let report = run_workload(&RunArgs {
                workload,
                seed,
                seconds,
                trace,
                scale,
                trace_dir,
            })?;
            let printed = report.printed(&manifest, trace)?;
            println!("{:<40} {:>18} {:<8} better", "metric", "value", "unit");
            for (def, v) in &printed {
                println!("{:<40} {v:>18.6} {:<8} {}", def.name, def.unit, def.better);
            }
            print!("{}", report.recon_table());
            for f in &report.failures {
                println!("FAILED: {f}");
            }
            println!(
                "attempted={} failed={} failed_frac={}",
                report.attempted,
                report.failed,
                report.failed as f64 / report.attempted.max(1) as f64
            );
            println!("{}", report.result_line(&printed));
            Ok(report.failed == 0)
        }
        "selfcheck" => selfcheck::selfcheck(&manifest, seed, seconds, scale.name),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
