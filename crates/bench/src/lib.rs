//! # quasii-bench
//!
//! Experiment harness regenerating every figure of the paper's evaluation
//! (§6, Figs. 6–12) at laptop scale. The `repro` binary drives it:
//!
//! ```text
//! cargo run --release -p quasii-bench --bin repro -- all --scale medium
//! cargo run --release -p quasii-bench --bin repro -- fig9 --scale small
//! ```
//!
//! Absolute numbers differ from the paper (450 M-object datasets on a
//! 768 GB server vs millions of objects here); the harness is built so the
//! *shape* — who wins, by what factor, where break-evens fall — can be
//! compared directly. EXPERIMENTS.md records paper-vs-measured per figure.

#![warn(missing_docs)]

pub mod experiments;
pub(crate) mod runner;
pub mod scale;

use std::fs;
use std::path::{Path, PathBuf};

/// Where CSV outputs land.
#[derive(Clone, Debug)]
pub struct OutputDir(pub PathBuf);

impl OutputDir {
    /// Creates (if needed) and wraps the output directory.
    pub fn new(path: impl AsRef<Path>) -> std::io::Result<Self> {
        fs::create_dir_all(&path)?;
        Ok(Self(path.as_ref().to_path_buf()))
    }

    /// Writes one named CSV file.
    pub(crate) fn write_csv(&self, name: &str, content: &str) -> std::io::Result<()> {
        fs::write(self.0.join(name), content)
    }
}
