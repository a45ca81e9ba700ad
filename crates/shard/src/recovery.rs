//! Recovery of a damaged sharded deployment, behind `quasii recover`.
//!
//! The ordinary load path ([`ShardedQuasii::from_snapshot_files`]) is
//! all-or-nothing: one corrupt part fails the whole load. [`Recovery::load`]
//! validates the manifest and then each part **independently**,
//! quarantining the shards that fail (with the reason) instead of aborting;
//! [`Recovery::report`] is the per-shard health `quasii verify` prints.
//! [`Recovery::rebuild`] then re-cracks the quarantined shards from the
//! source records (the paper's recovery posture: the index is a cheap
//! function of the data), after which [`Recovery::into_full`] re-validates
//! every router invariant and hands back a fully serving [`ShardedQuasii`].
//! Rebuilt shards start cold and answer byte-identically to a cold-cracked
//! deployment (sharded results are canonical ascending-id vectors,
//! independent of crack state). A deployment with a quarantined shard is
//! never served.

use crate::manifest::{load_shard, parse_manifest, part_path, Manifest};
use crate::{partition, ShardedQuasii};
use quasii::crack::key_of;
use quasii::snapshot::SnapshotError;
use quasii::{KeyFences, Quasii};
use quasii_common::fsx::SnapshotStore;
use quasii_common::geom::Record;
use quasii_common::snapshot::corrupt;
use std::path::Path;

/// Health of one shard after [`Recovery::load`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// The part verified (length, checksum, engine load, record count).
    Healthy,
    /// The part was missing, truncated, or corrupt; the string pinpoints
    /// the first violation. The shard serves nothing until rebuilt.
    Quarantined(String),
    /// The shard was re-cracked from source records by
    /// [`Recovery::rebuild`]; it serves, starting from cold crack state.
    Rebuilt,
}

/// One row of a [`RecoveryReport`].
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// Shard index (ascending key ranges).
    pub shard: usize,
    /// Records the manifest says the shard owns.
    pub records: usize,
    /// What validation found.
    pub status: ShardStatus,
}

/// What [`Recovery::load`] found, shard by shard.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Snapshot generation of the manifest that was validated.
    pub generation: u64,
    /// Per-shard health, in shard order.
    pub shards: Vec<ShardHealth>,
}

impl RecoveryReport {
    /// Indices of the shards currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|h| matches!(h.status, ShardStatus::Quarantined(_)))
            .map(|h| h.shard)
            .collect()
    }

    /// `true` when every shard is serving (healthy or rebuilt).
    pub fn is_complete(&self) -> bool {
        self.shards
            .iter()
            .all(|h| !matches!(h.status, ShardStatus::Quarantined(_)))
    }

    /// Fraction of the deployment's records in serving shards
    /// (`1.0` when complete, `0.0` when everything is quarantined or the
    /// deployment is empty of records).
    pub fn coverage_fraction(&self) -> f64 {
        let total: usize = self.shards.iter().map(|h| h.records).sum();
        if total == 0 {
            return if self.is_complete() { 1.0 } else { 0.0 };
        }
        let serving: usize = self
            .shards
            .iter()
            .filter(|h| !matches!(h.status, ShardStatus::Quarantined(_)))
            .map(|h| h.records)
            .sum();
        serving as f64 / total as f64
    }
}

/// A partially loaded sharded deployment: the manifest plus every shard
/// that survived validation. See the module docs for the one exit,
/// [`rebuild`](Self::rebuild) then [`into_full`](Self::into_full).
pub struct Recovery<const D: usize> {
    manifest: Manifest,
    fences: KeyFences,
    engines: Vec<Option<Quasii<D>>>,
    report: RecoveryReport,
}

impl<const D: usize> Recovery<D> {
    /// Loads whatever survives of a deployment committed at `path`. The
    /// manifest itself must parse — it is the small, last-committed, checksummed piece; if
    /// *it* is gone there is nothing to recover and the caller should
    /// re-crack from source data. Each shard part file is then validated
    /// independently; failures quarantine the shard instead of failing the
    /// load. Never panics on malformed input.
    pub fn load<S: SnapshotStore + ?Sized>(store: &S, path: &Path) -> Result<Self, SnapshotError> {
        let bytes = store.read_file(path)?;
        let m = parse_manifest::<D>(&bytes)?;
        let fences = KeyFences::from_inner(m.inner_bounds.clone());
        fences
            .validate()
            .map_err(|e| corrupt(format!("fences: {e}")))?;
        let mut engines = Vec::with_capacity(m.shards.len());
        let mut shards = Vec::with_capacity(m.shards.len());
        for (k, &entry) in m.shards.iter().enumerate() {
            let (records, _, _) = entry;
            let buf = store
                .read_file(&part_path(path, m.generation, k))
                .map_err(|e| format!("part unreadable: {e}"));
            let status =
                match buf.and_then(|b| load_shard::<D>(k, entry, b).map_err(|e| e.to_string())) {
                    Ok(engine) => {
                        engines.push(Some(engine));
                        ShardStatus::Healthy
                    }
                    Err(why) => {
                        engines.push(None);
                        ShardStatus::Quarantined(why)
                    }
                };
            shards.push(ShardHealth {
                shard: k,
                records,
                status,
            });
        }
        Ok(Self {
            report: RecoveryReport {
                generation: m.generation,
                shards,
            },
            manifest: m,
            fences,
            engines,
        })
    }

    /// What validation found, shard by shard.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Re-cracks every quarantined shard from `records` — the snapshot's
    /// source dataset, in its original order (e.g. re-read from the `.qsd`
    /// the deployment was built from). Records are routed through the
    /// manifest's fences with the manifest's assignment mode, so each
    /// rebuilt shard receives exactly the record subsequence the original
    /// planner gave it; per-shard counts are cross-checked against the
    /// manifest before any engine is replaced. Returns the number of
    /// shards rebuilt.
    pub fn rebuild(&mut self, records: &[Record<D>]) -> Result<usize, SnapshotError> {
        let expected: usize = self.manifest.shards.iter().map(|&(r, _, _)| r).sum();
        if records.len() != expected {
            return Err(corrupt(format!(
                "source data has {} records, manifest accounts for {expected}",
                records.len()
            )));
        }
        let mode = self.manifest.inner.assign_by;
        let keyed = records.iter().map(|r| (*r, key_of(r, 0, mode)));
        let parts = partition(&self.fences, keyed);
        for (k, part) in parts.iter().enumerate() {
            if part.len() != self.manifest.shards[k].0 {
                return Err(corrupt(format!(
                    "source data routes {} records to shard {k}, manifest says {} — \
                     this is not the dataset the snapshot was built from",
                    part.len(),
                    self.manifest.shards[k].0
                )));
            }
        }
        let mut rebuilt = 0;
        for (k, part) in parts.into_iter().enumerate() {
            if !matches!(self.report.shards[k].status, ShardStatus::Quarantined(_)) {
                continue;
            }
            let engine = Quasii::new(part, self.manifest.inner.clone());
            engine
                .validate()
                .map_err(|e| corrupt(format!("rebuilt shard {k}: {e}")))?;
            self.engines[k] = Some(engine);
            self.report.shards[k].status = ShardStatus::Rebuilt;
            rebuilt += 1;
        }
        Ok(rebuilt)
    }

    /// Finishes a complete recovery: every shard must be serving (healthy
    /// or rebuilt — see [`rebuild`](Self::rebuild)). Re-validates the full
    /// deployment — every engine invariant plus the router's ownership
    /// invariant — before handing it back, re-establishing the same gate a
    /// freshly constructed deployment passes.
    pub fn into_full(self) -> Result<ShardedQuasii<D>, SnapshotError> {
        let quarantined = self.report.quarantined();
        if !quarantined.is_empty() {
            return Err(corrupt(format!(
                "shards {quarantined:?} are still quarantined; rebuild() them from source data"
            )));
        }
        let engines: Vec<Quasii<D>> = self
            .engines
            .into_iter()
            .map(|e| e.expect("complete recovery has every engine"))
            .collect();
        let deployment = ShardedQuasii::from_parts_raw(engines, self.fences, self.manifest);
        deployment
            .validate()
            .map_err(|e| corrupt(format!("post-recovery validation: {e}")))?;
        Ok(deployment)
    }
}
