//! What a number depends on besides the code: build profile, compiler,
//! processors, kernel generation. Printed as the header of every run.

use crate::prom::Scrape;
use quasii::{Quasii, QuasiiConfig};
use std::path::Path;
use std::process::Command;

/// The `key = value` lines of `[profile.release]` in a manifest, sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut out: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| {
            if l.starts_with('[') {
                inside = *l == "[profile.release]";
                return false;
            }
            inside && !l.is_empty()
        })
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    out.sort();
    out
}

/// Refuses to run when this package's release profile differs from the
/// repository's: a path dependency is built with the profile of the
/// workspace that builds it, and build settings change speed without
/// changing code.
pub fn check_profile_mirrors_root() -> Result<(), String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let mine = release_profile(&read(&here.join("Cargo.toml"))?);
    let root = release_profile(&read(&here.join("../Cargo.toml"))?);
    if mine == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml has [profile.release] {mine:?}, ../Cargo.toml has {root:?}: \
             make them equal before measuring"
        ))
    }
}

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The kernel generation `SimdPolicy::Auto` resolves to, read from the
/// `quasii_simd_level` gauge an engine sets when it is built.
pub fn simd_level() -> String {
    let was = quasii_obs::enabled();
    quasii_obs::set_enabled(true);
    drop(Quasii::<3>::new(Vec::new(), QuasiiConfig::default()));
    quasii_obs::set_enabled(was);
    Scrape::registry()
        .set_label("quasii_simd_level", "isa")
        .unwrap_or_else(|| "unknown".into())
}

/// 0 scalar, 1 sse2, 2 avx2 (`core.simd.level`).
pub fn simd_level_number(name: &str) -> f64 {
    match name {
        "sse2" => 1.0,
        "avx2" => 2.0,
        _ => 0.0,
    }
}

/// The header lines of a run.
pub fn header(workload: &str, seed: u64, seconds: f64, trace: bool, scale: &str) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // A checkout that is not a git repository has no commit; git is not
    // asked then, because it would search the directories above.
    let commit = repo
        .join(".git")
        .exists()
        .then(|| {
            output_of(
                "git",
                &[
                    "-C",
                    &repo.to_string_lossy(),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            )
        })
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    let rustc = output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = output_of("nproc", &[]).unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "quasii-benchmark  workload={workload} seed={seed} seconds={seconds} trace={} scale={scale}\n\
         commit={commit}  rustc={rustc}\n\
         nproc={nproc} available_parallelism={parallelism} simd={}",
        u8::from(trace),
        simd_level()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_by_content_not_layout() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\ndebug = true # symbols\nlto=\"thin\"\n\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\nlto = \"thin\"\ndebug=true\n[workspace]\n";
        assert_eq!(release_profile(a), ["debug=true", "lto=\"thin\""]);
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\nlto = \"fat\"\ndebug = true\n")
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn this_package_mirrors_the_repository_profile() {
        check_profile_mirrors_root().unwrap();
    }

    #[test]
    fn simd_level_is_one_the_engine_names() {
        let level = simd_level();
        assert!(
            ["scalar", "sse2", "avx2"].contains(&level.as_str()),
            "{level}"
        );
        assert_eq!(simd_level_number("avx2"), 2.0);
        assert_eq!(simd_level_number("scalar"), 0.0);
    }
}
