//! `promcheck FILE FAMILY...` — parses a Prometheus text exposition dump
//! and asserts every named metric family is declared with at least one
//! sample. Exit 0 on success; CI runs it against the `/metrics` scrape of a
//! live `quasii serve` so the exported format stays parseable.

use quasii_obs::registry::parse_prometheus;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: promcheck FILE FAMILY...");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("promcheck: cannot read '{path}': {e}");
            std::process::exit(1);
        }
    };
    let exp = match parse_prometheus(&text) {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("promcheck: '{path}' does not parse: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = 0;
    let mut checked = 0;
    for family in args {
        checked += 1;
        if !exp.types.contains_key(&family) {
            eprintln!("promcheck: family '{family}' is not declared (# TYPE missing)");
            failures += 1;
            continue;
        }
        let samples = exp
            .samples
            .iter()
            .filter(|s| {
                s.name == family
                    || s.name
                        .strip_prefix(family.as_str())
                        .is_some_and(|rest| matches!(rest, "_bucket" | "_sum" | "_count"))
            })
            .count();
        if samples == 0 {
            eprintln!("promcheck: family '{family}' has no samples");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "promcheck: {} samples in {} families; {checked} requested families present",
        exp.samples.len(),
        exp.types.len()
    );
}
