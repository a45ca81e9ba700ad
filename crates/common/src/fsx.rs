//! Crash-safe file writes behind a [`SnapshotStore`] trait.
//!
//! Every durable artifact in the suite (engine snapshots, shard manifests
//! and parts, `.qsd` datasets) is written through [`write_atomic`], which
//! implements the classic atomic-replace protocol at *syscall* granularity:
//!
//! 1. write the bytes to a temp file **in the target directory** (rename
//!    must not cross filesystems);
//! 2. `fsync` the temp file (content durable before it becomes visible);
//! 3. `rename` the temp file over the destination (atomic on POSIX);
//! 4. `fsync` the directory (the rename itself durable).
//!
//! A crash at any point leaves either the old file or the new file at the
//! destination — never a torn mix. Multi-file artifacts (sharded snapshots)
//! extend the protocol: part files are written atomically under
//! generation-stamped names *first*, and the manifest that references them
//! is renamed into place *last*, so the manifest rename is the single
//! commit point for the whole fleet (see `quasii_shard`).
//!
//! The trait exists so the protocol can be driven against different
//! backends: [`FsStore`] is the real filesystem; `quasii_common::fault`
//! provides a deterministic in-memory store with a crash model plus a
//! seeded fault injector, which the recovery test suite uses to run a
//! crash-point matrix over every syscall in the protocol.
//!
//! Transient errors (`Interrupted`, `WouldBlock`, `TimedOut`) are retried
//! with bounded exponential backoff ([`RetryPolicy`]); anything else fails
//! the write immediately, after a best-effort cleanup of the temp file.

use quasii_obs as obs;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The syscall surface the atomic-write protocol is built on.
///
/// Implementations must make each operation atomic *as an operation* (e.g.
/// `rename` replaces the destination in one step); durability semantics
/// (what survives a crash) are what [`write_atomic`] layers on top via the
/// explicit `sync_file` / `sync_dir` calls.
pub trait SnapshotStore {
    /// Reads the entire file at `path`.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` and writes `bytes` to it.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the *content* of `path` to durable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the *directory entries* of `dir` to durable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsStore;

impl SnapshotStore for FsStore {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        // Re-opening read-only is enough: fsync flushes the inode's dirty
        // pages regardless of which descriptor requests it.
        OpenOptions::new().read(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; the rename there is
        // already journalled, so the directory fsync is a POSIX-only step.
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Bounded retry with exponential backoff for transient I/O errors.
///
/// An error is *transient* if its kind is `Interrupted`, `WouldBlock` or
/// `TimedOut` — failures where retrying the same operation can legitimately
/// succeed. Everything else (permissions, missing directories, full disks,
/// injected crashes) is permanent and fails the write on first sight.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). Minimum 1.
    pub attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub const NONE: Self = Self {
        attempts: 1,
        backoff: Duration::ZERO,
    };

    /// The default attempt count with zero backoff — what tests use so the
    /// retry path runs without sleeping.
    pub const FAST: Self = Self {
        attempts: 3,
        backoff: Duration::ZERO,
    };

    /// Runs `op` under this policy, retrying transient errors. Every
    /// absorbed transient bumps `fsx_retries_total`; an operation that
    /// stays transient until the budget runs out additionally bumps
    /// `fsx_retry_exhausted_total` — the counters the `verify`/`recover`
    /// CLI surfaces so flaky-store symptoms are no longer silent.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut wait = self.backoff;
        let mut tries = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    tries += 1;
                    if !is_transient(&e) {
                        return Err(e);
                    }
                    if tries >= attempts {
                        obs::registry::FSX_RETRY_EXHAUSTED_TOTAL.inc();
                        return Err(e);
                    }
                    obs::registry::FSX_RETRIES_TOTAL.inc();
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                        wait = wait.saturating_mul(2);
                    }
                }
            }
        }
    }
}

/// Whether an I/O error is worth retrying.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The sibling temp path used by [`write_atomic`]: `.{name}.qtmp` in the
/// same directory as `path`. Deterministic so fault-injection runs replay
/// identically; a stale temp from a crashed writer is simply truncated and
/// reused by the next write.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    path.with_file_name(format!(".{name}.qtmp"))
}

/// Atomically replaces the file at `path` with `bytes` using the
/// temp → write → fsync file → rename → fsync dir protocol, with the
/// default [`RetryPolicy`] for transient errors.
pub fn write_atomic<S: SnapshotStore + ?Sized>(
    store: &S,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    write_atomic_with(store, path, bytes, RetryPolicy::default())
}

/// [`write_atomic`] with an explicit retry policy.
pub fn write_atomic_with<S: SnapshotStore + ?Sized>(
    store: &S,
    path: &Path,
    bytes: &[u8],
    retry: RetryPolicy,
) -> io::Result<()> {
    let t = obs::start();
    obs::registry::FSX_COMMITS_TOTAL.inc();
    let tmp = temp_path(path);
    let result = (|| {
        retry.run(|| store.write_file(&tmp, bytes))?;
        retry.run(|| store.sync_file(&tmp))?;
        retry.run(|| store.rename(&tmp, path))?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Some(dir) = dir {
            retry.run(|| store.sync_dir(dir))?;
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort: don't leave a torn temp file behind. The protocol's
        // guarantees don't depend on this (temp files are never read), so
        // a failure here is ignored.
        let _ = store.remove_file(&tmp);
        obs::registry::FSX_COMMIT_FAILURES_TOTAL.inc();
    }
    obs::registry::FSX_COMMIT_SECONDS.observe_since(t);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("quasii-fsx-{}-{name}", std::process::id()))
    }

    #[test]
    fn fs_store_atomic_write_replaces_and_cleans_up() {
        let p = tmp("basic.bin");
        write_atomic(&FsStore, &p, b"old contents").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"old contents");
        write_atomic(&FsStore, &p, b"new").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"new");
        assert!(!temp_path(&p).exists(), "temp file left behind");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn failed_write_leaves_old_file_intact() {
        let p = tmp("keep-old/missing-dir.bin");
        // Parent directory doesn't exist: the temp write fails, nothing
        // is created, and the error is a clean Err.
        assert!(write_atomic(&FsStore, &p, b"x").is_err());
    }

    #[test]
    fn retry_policy_retries_transient_and_stops_on_permanent() {
        let mut calls = 0;
        let r: io::Result<u32> = RetryPolicy::FAST.run(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(r.unwrap(), 7);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let r: io::Result<u32> = RetryPolicy::FAST.run(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1, "permanent errors must not be retried");
    }

    #[test]
    fn retry_policy_exhausts_after_attempts() {
        let mut calls = 0;
        let r: io::Result<()> = RetryPolicy::FAST.run(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "always"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn temp_path_is_a_hidden_sibling() {
        let t = temp_path(Path::new("/a/b/snap.bin"));
        assert_eq!(t, Path::new("/a/b/.snap.bin.qtmp"));
    }
}
