//! Counters exposing QUASII's incremental behaviour — how much
//! reorganization each query performed. Used by tests, the ablation bench
//! and EXPERIMENTS.md.

/// Cumulative work counters since index creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuasiiStats {
    /// Queries executed.
    pub queries: u64,
    /// Crack (partition) operations performed.
    pub cracks: u64,
    /// Total records touched by crack passes (proxy for reorganization cost).
    pub records_cracked: u64,
    /// Slices created (all levels).
    pub slices_created: u64,
    /// Slices that reached their level's τ and were finalized with an exact MBB.
    pub slices_refined: u64,
    /// Default children materialized (paper Alg. 1 line 15).
    pub default_children: u64,
    /// Slices force-finalized above τ because their lower coordinates were
    /// value-indivisible (robustness guard, see DESIGN.md).
    pub forced_refinements: u64,
    /// Objects tested for intersection at the bottom level.
    pub objects_tested: u64,
    /// Lazy per-level rebuilds of the assignment-key column (one per
    /// default child that gets cracked; root slices and crack outputs are
    /// born with fresh keys — see `crate::keys`).
    pub rekeys: u64,
    /// Total records re-keyed by those rebuilds.
    pub records_rekeyed: u64,
}

impl QuasiiStats {
    /// Convenience: whether any reorganization happened at all.
    pub fn did_work(&self) -> bool {
        self.cracks > 0 || self.slices_created > 0
    }

    /// Accumulates `other` into `self`. A sharded deployment folds its
    /// shards' counters this way; addition is order-independent, so the
    /// total does not depend on the order the shards are visited in.
    pub fn merge(&mut self, other: &QuasiiStats) {
        self.queries += other.queries;
        self.cracks += other.cracks;
        self.records_cracked += other.records_cracked;
        self.slices_created += other.slices_created;
        self.slices_refined += other.slices_refined;
        self.default_children += other.default_children;
        self.forced_refinements += other.forced_refinements;
        self.objects_tested += other.objects_tested;
        self.rekeys += other.rekeys;
        self.records_rekeyed += other.records_rekeyed;
    }
}

/// Counters of the sealed read path's lifecycle (see `crate::seal`).
///
/// Kept **separate** from [`QuasiiStats`] on purpose: the deterministic
/// work counters are bit-for-bit identical across thread counts, batch
/// sizes and shard layouts. [`seals`](Self::seals) is the number of sealed
/// regions, which every write leaves current; only
/// [`sealed_queries`](Self::sealed_queries) depends on how queries are
/// batched — a query is read when its batch was classified after the write
/// that converged its path, so three chained batches may read queries
/// sooner than one big batch. Comparing `QuasiiStats` across execution
/// shapes stays meaningful; seal counters are observability, not part of
/// the determinism contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Sealed regions. A seal is permanent, so each region counts once in
    /// its life.
    pub seals: u64,
    /// Always 0: nothing unseals a region. Kept so that code building a
    /// `SealStats` by field name still compiles.
    pub unseals: u64,
    /// Queries answered over `&self`, reading no `&mut` state: every
    /// [`Quasii::read`](crate::Quasii::read), from sealed arenas and from the
    /// live slice tree alike. The name predates live reads and is kept
    /// for the code and metrics that read it.
    pub sealed_queries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed_and_idle() {
        let s = QuasiiStats::default();
        assert_eq!(s.queries, 0);
        assert!(!s.did_work());
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = QuasiiStats {
            queries: 1,
            cracks: 2,
            records_cracked: 3,
            slices_created: 4,
            slices_refined: 5,
            default_children: 6,
            forced_refinements: 7,
            objects_tested: 8,
            rekeys: 9,
            records_rekeyed: 10,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            QuasiiStats {
                queries: 2,
                cracks: 4,
                records_cracked: 6,
                slices_created: 8,
                slices_refined: 10,
                default_children: 12,
                forced_refinements: 14,
                objects_tested: 16,
                rekeys: 18,
                records_rekeyed: 20,
            }
        );
    }

    #[test]
    fn did_work_tracks_cracks() {
        let s = QuasiiStats {
            cracks: 1,
            ..Default::default()
        };
        assert!(s.did_work());
    }

    #[test]
    fn seal_stats_default_is_idle() {
        let s = SealStats::default();
        assert_eq!((s.seals, s.unseals, s.sealed_queries), (0, 0, 0));
    }
}
