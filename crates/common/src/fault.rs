//! Deterministic fault injection for the crash-safety test suite.
//!
//! Two pieces, both implementing [`SnapshotStore`]:
//!
//! * [`MemStore`] — an in-memory filesystem with an explicit *durability*
//!   model. Writes and renames land in a volatile view; `sync_file` /
//!   `sync_dir` promote them to the durable view. [`MemStore::crash`]
//!   discards the volatile state with seeded adversarial choices: unsynced
//!   file content may be lost entirely, torn to a seeded prefix, or
//!   survive; each unsynced rename may or may not have reached the disk.
//!   This makes every `fsync` in the atomic-write protocol load-bearing —
//!   drop one and the matrix test finds the interleaving that corrupts.
//! * [`FaultStore`] — a wrapper over any store that counts operations and
//!   injects failures by plan: *crash at op N* (a `write_file` at the
//!   crash point tears to a seeded prefix; every later op fails), or a run
//!   of *transient* errors (exercising the `fsx` retry path).
//!
//! Everything is seeded through an inline SplitMix64 so the recovery
//! suite replays byte-identically; no external dependencies.

use crate::fsx::SnapshotStore;
use quasii_obs as obs;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// SplitMix64: tiny, seedable, good enough to pick crash outcomes.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// A seeded coin flip.
    pub(crate) fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[derive(Debug, Default)]
struct Mem {
    /// Volatile view — what reads observe before a crash.
    view: BTreeMap<PathBuf, Vec<u8>>,
    /// Durable view — what is guaranteed to survive a crash.
    disk: BTreeMap<PathBuf, Vec<u8>>,
    /// Paths whose `view` content has not been `sync_file`d.
    dirty: BTreeSet<PathBuf>,
    /// Renames applied to `view` but not yet covered by a `sync_dir`.
    pending_renames: Vec<(PathBuf, PathBuf)>,
}

/// In-memory [`SnapshotStore`] with an explicit crash/durability model.
#[derive(Debug, Default)]
pub struct MemStore {
    inner: Mutex<Mem>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates power loss and remount. Durable state survives verbatim;
    /// for every unsynced artifact a seeded adversary decides its fate:
    ///
    /// * each pending rename independently did or did not reach the disk;
    /// * each dirty file's content is lost (reverts to its last synced
    ///   content, or disappears), torn to a seeded prefix, or survives.
    ///
    /// This is a superset of real filesystem crash outcomes (real renames
    /// in one directory are ordered; we don't assume that), which only
    /// makes the matrix test stricter.
    pub fn crash(&self, seed: u64) {
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        let mut rng = SplitMix64::new(seed);
        let mut survived = m.disk.clone();
        let renames = std::mem::take(&mut m.pending_renames);
        for (from, to) in renames {
            if rng.flip() {
                if let Some(v) = survived.remove(&from) {
                    survived.insert(to, v);
                }
            }
        }
        let dirty = std::mem::take(&mut m.dirty);
        for p in dirty {
            let Some(cur) = m.view.get(&p) else { continue };
            match rng.below(3) {
                0 => {} // lost: stays at last durable content (or absent)
                1 => {
                    let cut = rng.below(cur.len() + 1);
                    survived.insert(p, cur[..cut].to_vec()); // torn
                }
                _ => {
                    survived.insert(p, cur.clone()); // made it out
                }
            }
        }
        m.view = survived.clone();
        m.disk = survived;
    }

    /// Snapshot of the current (volatile) file map — test inspection.
    pub fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.inner
            .lock()
            .expect("MemStore lock poisoned")
            .view
            .clone()
    }
}

impl SnapshotStore for MemStore {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let m = self.inner.lock().expect("MemStore lock poisoned");
        m.view
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display())))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        m.view.insert(path.to_path_buf(), bytes.to_vec());
        m.dirty.insert(path.to_path_buf());
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        let Some(content) = m.view.get(path).cloned() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            ));
        };
        m.disk.insert(path.to_path_buf(), content);
        m.dirty.remove(path);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        let Some(content) = m.view.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", from.display()),
            ));
        };
        m.view.insert(to.to_path_buf(), content);
        if m.dirty.remove(from) {
            m.dirty.insert(to.to_path_buf());
        }
        m.pending_renames
            .push((from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        // Single-directory model: one sync_dir makes all pending renames
        // durable (applied to `disk` in order).
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        let renames = std::mem::take(&mut m.pending_renames);
        for (from, to) in renames {
            if let Some(v) = m.disk.remove(&from) {
                m.disk.insert(to, v);
            }
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut m = self.inner.lock().expect("MemStore lock poisoned");
        if m.view.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}", path.display()),
            ));
        }
        m.dirty.remove(path);
        // Removal of never-visible temp files doesn't need crash-accurate
        // modelling; drop the durable copy too.
        m.disk.remove(path);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner
            .lock()
            .expect("MemStore lock poisoned")
            .view
            .contains_key(path)
    }
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    crashed: bool,
    transient_left: u32,
}

/// The injection plan for a [`FaultStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Fail at this (0-based) operation index and every one after it —
    /// simulating a process/power crash mid-protocol. If the op at the
    /// crash point is a `write_file`, a seeded prefix of the bytes is
    /// written through first (a torn write).
    pub crash_at_op: Option<u64>,
    /// Seed for the torn-write prefix length.
    pub seed: u64,
    /// Return a transient (`Interrupted`) error for this many leading
    /// operations before letting them through — exercising the bounded
    /// retry path. Each retry consumes one.
    pub transient_ops: u32,
}

/// A [`SnapshotStore`] wrapper that counts syscalls and fails them
/// according to a deterministic [`FaultPlan`].
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<S: SnapshotStore> FaultStore<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            state: Mutex::new(FaultState {
                transient_left: plan.transient_ops,
                ..FaultState::default()
            }),
        }
    }

    /// Operations observed so far (including failed ones).
    pub(crate) fn ops(&self) -> u64 {
        self.state.lock().expect("FaultStore lock poisoned").ops
    }

    /// Consumes the wrapper, returning the wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Decides the fate of the next op. `Ok(true)` = proceed, `Ok(false)`
    /// = this is the crash point (op must fail after any torn side
    /// effect), `Err` = transient or post-crash failure.
    fn admit(&self) -> io::Result<bool> {
        let mut st = self.state.lock().expect("FaultStore lock poisoned");
        let op = st.ops;
        st.ops += 1;
        obs::registry::FSX_FAULT_OPS_TOTAL.inc();
        if st.crashed {
            obs::registry::FSX_INJECTED_FAULTS_TOTAL.inc();
            return Err(io::Error::other("fault injection: store crashed"));
        }
        if st.transient_left > 0 {
            st.transient_left -= 1;
            obs::registry::FSX_INJECTED_FAULTS_TOTAL.inc();
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "fault injection: transient error",
            ));
        }
        if self.plan.crash_at_op == Some(op) {
            st.crashed = true;
            obs::registry::FSX_INJECTED_FAULTS_TOTAL.inc();
            return Ok(false);
        }
        Ok(true)
    }
}

impl<S: SnapshotStore> SnapshotStore for FaultStore<S> {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.admit()? {
            self.inner.read_file(path)
        } else {
            Err(io::Error::other("fault injection: crash during read"))
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.admit()? {
            self.inner.write_file(path, bytes)
        } else {
            // Torn write: a seeded prefix reaches the store, then the
            // crash. The prefix is strictly shorter than the full payload
            // whenever the payload is non-empty.
            let mut rng = SplitMix64::new(self.plan.seed ^ self.ops());
            let cut = rng.below(bytes.len());
            let _ = self.inner.write_file(path, &bytes[..cut]);
            Err(io::Error::other("fault injection: crash during write"))
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.admit()? {
            self.inner.sync_file(path)
        } else {
            Err(io::Error::other("fault injection: crash during fsync"))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.admit()? {
            self.inner.rename(from, to)
        } else {
            Err(io::Error::other("fault injection: crash during rename"))
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.admit()? {
            self.inner.sync_dir(dir)
        } else {
            Err(io::Error::other("fault injection: crash during dir fsync"))
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.admit()? {
            self.inner.remove_file(path)
        } else {
            Err(io::Error::other("fault injection: crash during remove"))
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes don't mutate anything; they don't consume ops
        // so crash points line up with state-changing syscalls.
        self.inner.exists(path)
    }
}

/// Parses a CLI-style fault spec: `crash@OP` / `crash@OP:SEED` /
/// `transient@COUNT`. Returns a plan or a description of the problem.
pub fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let (kind, rest) = spec
        .split_once('@')
        .ok_or_else(|| format!("bad fault spec {spec:?}: expected KIND@ARG"))?;
    match kind {
        "crash" => {
            let (op, seed) = match rest.split_once(':') {
                Some((op, seed)) => (op, seed),
                None => (rest, "0"),
            };
            let op: u64 = op
                .parse()
                .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
            let seed: u64 = seed
                .parse()
                .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
            Ok(FaultPlan {
                crash_at_op: Some(op),
                seed,
                transient_ops: 0,
            })
        }
        "transient" => {
            let count: u32 = rest
                .parse()
                .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
            Ok(FaultPlan {
                crash_at_op: None,
                seed: 0,
                transient_ops: count,
            })
        }
        other => Err(format!("unknown fault kind {other:?} (crash|transient)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::{write_atomic_with, RetryPolicy};

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_store_round_trips_and_models_durability() {
        let store = MemStore::new();
        store.write_file(&p("/d/a.bin"), b"hello").unwrap();
        assert_eq!(store.read_file(&p("/d/a.bin")).unwrap(), b"hello");
        // Unsynced content does not survive an adversarial crash with a
        // "lost" outcome; synced content always does.
        store.sync_file(&p("/d/a.bin")).unwrap();
        store.crash(1);
        assert_eq!(store.read_file(&p("/d/a.bin")).unwrap(), b"hello");
    }

    #[test]
    fn mem_store_rename_is_volatile_until_sync_dir() {
        for seed in 0..32 {
            let store = MemStore::new();
            store.write_file(&p("/d/t"), b"new").unwrap();
            store.sync_file(&p("/d/t")).unwrap();
            store.rename(&p("/d/t"), &p("/d/final")).unwrap();
            store.crash(seed);
            // Either the rename reached disk or it didn't — but the synced
            // content itself is never torn.
            match store.read_file(&p("/d/final")) {
                Ok(b) => assert_eq!(b, b"new"),
                Err(_) => assert_eq!(store.read_file(&p("/d/t")).unwrap(), b"new"),
            }
        }
    }

    #[test]
    fn atomic_write_on_mem_store_survives_any_crash_as_old_or_new() {
        for seed in 0..64u64 {
            let store = MemStore::new();
            write_atomic_with(&store, &p("/d/s.bin"), b"OLD-STATE", RetryPolicy::NONE).unwrap();
            store.crash(seed); // settle: committed state is durable
            assert_eq!(store.read_file(&p("/d/s.bin")).unwrap(), b"OLD-STATE");
            write_atomic_with(&store, &p("/d/s.bin"), b"NEW!", RetryPolicy::NONE).unwrap();
            store.crash(seed * 31 + 7);
            let got = store.read_file(&p("/d/s.bin")).unwrap();
            assert!(
                got == b"OLD-STATE" || got == b"NEW!",
                "seed {seed}: torn state {got:?}"
            );
        }
    }

    #[test]
    fn fault_store_counts_ops_and_crashes_at_point() {
        let store = FaultStore::new(MemStore::new(), FaultPlan::default());
        write_atomic_with(&store, &p("/d/x"), b"abc", RetryPolicy::NONE).unwrap();
        let total = store.ops();
        assert!(total >= 4, "write+sync+rename+syncdir, got {total}");

        for k in 0..total {
            let store = FaultStore::new(
                MemStore::new(),
                FaultPlan {
                    crash_at_op: Some(k),
                    seed: k,
                    transient_ops: 0,
                },
            );
            let r = write_atomic_with(&store, &p("/d/x"), b"abcdef", RetryPolicy::NONE);
            assert!(r.is_err(), "crash at op {k} must fail the write");
            assert!(store.state.lock().unwrap().crashed);
        }
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry_and_exhaust_cleanly() {
        // 2 transient failures, 3 attempts: succeeds.
        let store = FaultStore::new(
            MemStore::new(),
            FaultPlan {
                crash_at_op: None,
                seed: 0,
                transient_ops: 2,
            },
        );
        write_atomic_with(&store, &p("/d/x"), b"ok", RetryPolicy::FAST).unwrap();
        assert_eq!(store.inner.read_file(&p("/d/x")).unwrap(), b"ok");

        // 9 transient failures, 3 attempts per op: the first op exhausts.
        let store = FaultStore::new(
            MemStore::new(),
            FaultPlan {
                crash_at_op: None,
                seed: 0,
                transient_ops: 9,
            },
        );
        let r = write_atomic_with(&store, &p("/d/x"), b"no", RetryPolicy::FAST);
        assert!(r.is_err());
        assert!(!store.inner.exists(&p("/d/x")));
    }

    #[test]
    fn fault_spec_parses() {
        let plan = parse_fault_spec("crash@5:9").unwrap();
        assert_eq!(plan.crash_at_op, Some(5));
        assert_eq!(plan.seed, 9);
        let plan = parse_fault_spec("crash@3").unwrap();
        assert_eq!(plan.crash_at_op, Some(3));
        let plan = parse_fault_spec("transient@4").unwrap();
        assert_eq!(plan.transient_ops, 4);
        assert!(parse_fault_spec("melt@1").is_err());
        assert!(parse_fault_spec("crash").is_err());
    }
}
