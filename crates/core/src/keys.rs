//! The cache-resident **assignment-key column** (and its companion
//! upper-bound column) backing the keyed crack kernels (see
//! [`crate::crack`]).
//!
//! QUASII's partition decisions only ever consume one 8-byte assignment key
//! per record ([`crate::crack::key_of`]), and its per-crack measurements
//! only the crack dimension's interval — yet a `Record<D>` is 56 bytes at
//! `D = 3`. The engine therefore keeps two parallel `Vec<f64>` columns and
//! cracks *those*, touching the wide records only to move them:
//!
//! * `keys[i] == key_of(&data[i], dim, mode)` — the assignment key the
//!   partition compares and the minimum of which becomes a sub-slice's
//!   `key_lo`;
//! * `his[i] == data[i].mbb.hi[dim]` — the upper coordinate whose maximum
//!   becomes an (unrefined) sub-slice's `bbox.hi[dim]`.
//!
//! (In `Lower` mode — the paper's default — the minimum `lo[dim]` equals
//! the minimum key, so both bbox bounds of an unrefined sub-slice come from
//! the columns and an untouched record is never even read. `Center`/`Upper`
//! modes additionally fold `lo[dim]` from the records during the scan.)
//!
//! # The key-column invariant
//!
//! For every **unrefined** slice `s` whose
//! [`keys_fresh`](crate::slice::Slice::keys_fresh) flag is set, the two
//! equalities above hold with `dim = s.level` for all `i in s.begin..s.end`.
//! The invariant is maintained cheaply because key dimensions change **per
//! level, not per crack**:
//!
//! * every crack kernel swaps both columns in lockstep with `data`, so a
//!   crack preserves freshness and every sub-slice it creates is born fresh;
//! * only two slice kinds start *stale* — the initial root slice (fresh in
//!   practice, because first-query initialization builds the dimension-0
//!   columns during its mandatory extent scan) and **default children**
//!   (level `l + 1` slices spanning a range last keyed for level `l`);
//! * a stale slice is re-keyed lazily by [`rekey`], once, right before its
//!   first crack on its own level — the "rebuilt lazily per level" cursor:
//!   the columns always cache the dimension currently being cracked over
//!   each slice's range.
//!
//! `validate()` re-checks the invariant over the whole hierarchy after every
//! operation in the test suites.
//!
//! The columns under a sealed region are **unspecified**: every slice
//! there is refined, so the invariant says nothing about them, and no
//! crack ever reads them again. A snapshot does not store them, and the
//! loader of a partially sealed engine leaves them zero (see
//! `crate::persist`). At sealed fraction 1 there are no columns at all:
//! the write that seals the last root slice drops both, and a load of a
//! part that stores no rows never builds them.

use crate::config::AssignBy;
use crate::crack::key_of;
use quasii_common::geom::Record;

/// Recomputes `keys[i] = key_of(&recs[i], dim, mode)` and
/// `his[i] = recs[i].mbb.hi[dim]` over a segment — the lazy per-level
/// rebuild of the column pair.
#[inline]
pub fn rekey<const D: usize>(
    keys: &mut [f64],
    his: &mut [f64],
    recs: &[Record<D>],
    dim: usize,
    mode: AssignBy,
) {
    debug_assert_eq!(keys.len(), recs.len());
    debug_assert_eq!(his.len(), recs.len());
    for ((k, h), r) in keys.iter_mut().zip(his.iter_mut()).zip(recs) {
        *k = key_of(r, dim, mode);
        *h = r.mbb.hi[dim];
    }
}

/// The per-index column pair: one assignment key and one upper coordinate
/// per record, in data-array order, for the dimension each record's
/// enclosing slice is currently cracked on (see the module docs for the
/// exact invariant).
#[derive(Clone, Debug, Default)]
pub(crate) struct KeyColumn {
    keys: Vec<f64>,
    his: Vec<f64>,
}

impl KeyColumn {
    /// An empty column (built lazily at first-query initialization).
    pub(crate) const fn new() -> Self {
        Self {
            keys: Vec::new(),
            his: Vec::new(),
        }
    }

    /// Number of cached entries (equals the record count once built).
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether both columns are built for an `n`-record dataset.
    pub(crate) fn is_built(&self, n: usize) -> bool {
        self.keys.len() == n && self.his.len() == n
    }

    /// Read access to the assignment-key column.
    pub(crate) fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// Read access to the upper-bound column.
    pub(crate) fn his(&self) -> &[f64] {
        &self.his
    }

    /// Mutable access to both columns (the engine slices disjoint `&mut`
    /// windows off these, mirroring the data-array windows).
    pub(crate) fn as_mut_slices(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.keys, &mut self.his)
    }

    /// Builds both columns for dimension 0 — the state every slice
    /// hierarchy starts from (the root slice cracks dimension 0 first).
    /// `keys`, when given, is a precomputed dimension-0 assignment-key
    /// column adopted verbatim (the shard router builds one as a byproduct
    /// of its partition pass).
    pub(crate) fn build_level0<const D: usize>(
        &mut self,
        data: &[Record<D>],
        mode: AssignBy,
        keys: Option<Vec<f64>>,
    ) {
        match keys {
            Some(k) => {
                assert_eq!(k.len(), data.len(), "precomputed key column length");
                debug_assert!(
                    k.iter().zip(data).all(|(k, r)| *k == key_of(r, 0, mode)),
                    "precomputed keys must be the dimension-0 assignment keys"
                );
                self.keys = k;
            }
            None => {
                self.keys.clear();
                self.keys.reserve_exact(data.len());
                self.keys.extend(data.iter().map(|r| key_of(r, 0, mode)));
            }
        }
        self.his.clear();
        self.his.reserve_exact(data.len());
        self.his.extend(data.iter().map(|r| r.mbb.hi[0]));
    }

    /// Rebuilds the pair from columns serialized out of another index —
    /// the snapshot loader's path (see `crate::persist`). The caller
    /// guarantees that outside the sealed regions both columns equal those
    /// of a built `KeyColumn` of the same dataset permutation, so the
    /// module invariant carries over verbatim.
    pub(crate) fn from_raw(keys: Vec<f64>, his: Vec<f64>) -> Self {
        debug_assert_eq!(keys.len(), his.len());
        Self { keys, his }
    }

    /// Heap bytes held by both columns (16 bytes per record once built).
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.his.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::geom::Aabb;

    fn recs() -> Vec<Record<2>> {
        vec![
            Record::new(0, Aabb::new([1.0, 10.0], [3.0, 14.0])),
            Record::new(1, Aabb::new([5.0, 20.0], [9.0, 21.0])),
        ]
    }

    #[test]
    fn build_level0_caches_dim0_columns() {
        let data = recs();
        for (mode, want) in [
            (AssignBy::Lower, [1.0, 5.0]),
            (AssignBy::Center, [2.0, 7.0]),
            (AssignBy::Upper, [3.0, 9.0]),
        ] {
            let mut col = KeyColumn::new();
            assert_eq!(col.len(), 0);
            assert!(!col.is_built(2));
            col.build_level0(&data, mode, None);
            assert_eq!(col.keys(), &want);
            assert_eq!(col.his(), &[3.0, 9.0], "hi[0] regardless of mode");
            assert_eq!(col.len(), 2);
            assert!(col.is_built(2));
            assert!(col.heap_bytes() >= 32);
        }
    }

    #[test]
    fn build_level0_adopts_precomputed_keys() {
        let data = recs();
        let mut col = KeyColumn::new();
        col.build_level0(&data, AssignBy::Lower, Some(vec![1.0, 5.0]));
        assert_eq!(col.keys(), &[1.0, 5.0]);
        assert_eq!(col.his(), &[3.0, 9.0]);
    }

    #[test]
    fn rekey_switches_dimension() {
        let data = recs();
        let mut col = KeyColumn::new();
        col.build_level0(&data, AssignBy::Lower, None);
        let (keys, his) = col.as_mut_slices();
        rekey(keys, his, &data, 1, AssignBy::Lower);
        assert_eq!(col.keys(), &[10.0, 20.0]);
        assert_eq!(col.his(), &[14.0, 21.0]);
        let (keys, his) = col.as_mut_slices();
        rekey(
            &mut keys[1..],
            &mut his[1..],
            &data[1..],
            1,
            AssignBy::Upper,
        );
        assert_eq!(col.keys(), &[10.0, 21.0]);
        assert_eq!(col.his(), &[14.0, 21.0]);
    }
}
