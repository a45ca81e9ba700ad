//! `repro` — regenerates the paper's evaluation figures.
//!
//! ```text
//! repro [--scale tiny|small|medium|full] [--out DIR] <experiment|all>...
//! repro all                        # every figure (medium scale)
//! repro fig9 --scale small         # one figure, small inputs
//! repro summary --scale small      # headline table + paper-shape check
//! ```
//!
//! Exit status 2: a bad command line, an unknown experiment, or a `summary`
//! headline outside its band (the band is named).

use quasii_bench::experiments::{Harness, ALL_EXPERIMENTS};
use quasii_bench::scale::Scale;
use quasii_bench::OutputDir;

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    scale: Scale,
    out_dir: String,
    experiments: Vec<String>,
}

/// Parses the command line; `Ok(None)` is a request for the usage text.
fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        scale: Scale::MEDIUM,
        out_dir: "results".into(),
        experiments: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // The token after an option is its value unless it is another option.
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                parsed.scale = Scale::parse(v)
                    .ok_or_else(|| format!("unknown scale '{v}' (tiny|small|medium|full)"))?;
            }
            "--out" => parsed.out_dir = value()?.clone(),
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            experiment => parsed.experiments.push(experiment.to_string()),
        }
    }
    if parsed.experiments.is_empty() {
        return Err("no experiment named".into());
    }
    if parsed.experiments.iter().any(|e| e == "all") {
        parsed.experiments = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(Some(parsed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        scale,
        out_dir,
        experiments,
    } = match parse(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            print_usage();
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };

    let out = OutputDir::new(&out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create output dir '{out_dir}': {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] scale={} neuro_n={} uniform_n={} queries={} -> {}",
        scale.name, scale.neuro_n, scale.uniform_n, scale.uniform_queries, out_dir
    );

    let mut harness = Harness::new(scale, out);
    let t = std::time::Instant::now();
    for exp in &experiments {
        if let Err(e) = harness.run(exp) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] done in {:.1}s", t.elapsed().as_secs_f64());
}

fn print_usage() {
    println!("usage: repro [--scale tiny|small|medium|full] [--out DIR] <experiment|all>...");
    println!("experiments: {ALL_EXPERIMENTS:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<Args>, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn options_and_experiments_parse_in_any_order() {
        let args = parse_line("fig9 --scale tiny --out /tmp/r summary")
            .unwrap()
            .unwrap();
        assert_eq!(
            args,
            Args {
                scale: Scale::TINY,
                out_dir: "/tmp/r".into(),
                experiments: vec!["fig9".into(), "summary".into()],
            }
        );
        let all = parse_line("all").unwrap().unwrap();
        assert_eq!(
            (all.scale, all.out_dir.as_str()),
            (Scale::MEDIUM, "results")
        );
        assert_eq!(all.experiments, ALL_EXPERIMENTS);
        assert_eq!(parse_line("fig9 --help"), Ok(None));
    }

    #[test]
    fn a_flag_without_its_value_and_an_unknown_flag_are_errors() {
        for (line, want) in [
            ("fig9 --out", "--out needs a value"),
            ("fig9 --out --scale tiny", "--out needs a value"),
            ("fig9 --scale", "--scale needs a value"),
            ("fig9 --scale huge", "unknown scale 'huge'"),
            ("fig9 --threads 2", "unknown option --threads"),
            ("fig9 --json s.json", "unknown option --json"),
            ("--scale tiny", "no experiment named"),
            ("", "no experiment named"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(want), "{line:?}: {err}");
        }
    }
}
