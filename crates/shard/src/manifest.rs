//! The manifest codec and the snapshot read / write / commit paths of a
//! sharded deployment (see the crate docs, "Persistence", for the layout).

use crate::{RouterStats, ShardConfig, ShardedQuasii};
use quasii::snapshot::{header_word, SnapshotError};
use quasii::{AssignBy, KeyFences, Quasii, QuasiiConfig};
use quasii_common::fsx::{self, SnapshotStore};
use quasii_common::index::SpatialIndex;
use quasii_common::pool;
use quasii_common::snapshot::{corrupt, Frame, Reader, Writer, FRAME_LEN};
use quasii_obs as obs;
use std::path::{Path, PathBuf};

/// First 8 bytes of every shard-deployment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"QSIISHRD";
/// The one manifest format version this build writes and accepts (bumped on
/// **any** layout change, mirroring the engine snapshot's policy).
/// Version 2 added the snapshot **generation** counter and the inner engine
/// configuration, so durable multi-file commits can name their part files
/// and recovery can rebuild shards with zero healthy engines.
/// Version 3 binds each part by its header word (see the module docs) and
/// moved both checksums to `checksum64`.
/// Versions 4 and 5 dropped words that no longer vary: the planner's sample
/// cap and the engines' artificial-split depth (4), and whether the engines
/// seal (5: an engine always seals what converges).
pub(crate) const MANIFEST_VERSION: u32 = 5;

impl<const D: usize> ShardedQuasii<D> {
    /// Serializes the deployment as a **manifest** plus **one buffer per
    /// shard** — the migration seam: each shard buffer is a self-contained
    /// engine snapshot that can be shipped to (and verified on) a different
    /// node, while the manifest pins the pieces together (fences, router
    /// extension/counters, and a per-shard record-count/length/header-word
    /// table). The shards are written as pool jobs, one per shard on at
    /// most `shard_threads` threads, as they are loaded; the first error in
    /// shard order is returned, so it is the same for every thread count,
    /// and so are the bytes. The manifest is written after all the parts.
    pub fn write_snapshot_parts(&mut self) -> Result<(Vec<u8>, Vec<Vec<u8>>), SnapshotError> {
        if self.is_poisoned() {
            return Err(SnapshotError::Unsupported(
                "a poisoned sharded deployment (a worker panicked mid-batch; call repair() first)",
            ));
        }
        let shard_bufs = self
            .map_shards(Quasii::write_snapshot)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        let mut m = Writer::framed(&MANIFEST_MAGIC, MANIFEST_VERSION, D as u32, 0);
        for v in [
            self.generation,
            self.shards.len() as u64,
            self.cfg.shards as u64,
            self.cfg.shard_threads as u64,
            self.cfg.inner.tau as u64,
            self.cfg.inner.assign_by.code(),
            self.cfg.inner.threads as u64,
        ] {
            m.u64(v);
        }
        m.f64(self.ext_low0);
        m.f64(self.ext_high0);
        let router = self.router_stats();
        m.u64(router.queries);
        m.u64(router.shard_visits);
        let inner = self.fences.inner_bounds();
        m.u64(inner.len() as u64);
        m.f64s(inner);
        for (s, buf) in self.shards.iter().zip(&shard_bufs) {
            m.u64(s.len() as u64);
            m.u64(buf.len() as u64);
            m.u64(header_word(buf).expect("an engine snapshot starts with a frame"));
        }
        Ok((m.finish(), shard_bufs))
    }

    /// Revives a deployment from [`write_snapshot_parts`] output. Every
    /// shard buffer is bound to the manifest's length/header-word table
    /// (buffers must arrive in shard order), then loaded through the
    /// engine's own validated, checksummed snapshot path; the reloaded
    /// deployment answers every query byte-identically to the writer.
    /// Never panics on malformed input.
    pub fn from_snapshot_parts(
        manifest: &[u8],
        shards: Vec<Vec<u8>>,
    ) -> Result<Self, SnapshotError> {
        Self::assemble(parse_manifest::<D>(manifest)?, shards)
    }

    /// Shared tail of both load paths: verify each shard buffer against the
    /// manifest table, revive the engines — **in parallel**, one pool job
    /// per shard on at most the manifest's `shard_threads` threads — and
    /// rebuild the router around them. Per-shard failures land in
    /// per-shard slots and the first one *in shard order* is returned, so
    /// the error is deterministic for every thread count.
    fn assemble(m: Manifest, shard_bufs: Vec<Vec<u8>>) -> Result<Self, SnapshotError> {
        if shard_bufs.len() != m.shards.len() {
            return Err(corrupt(format!(
                "manifest lists {} shards, got {} buffers",
                m.shards.len(),
                shard_bufs.len()
            )));
        }
        let fences = KeyFences::from_inner(m.inner_bounds.clone());
        fences
            .validate()
            .map_err(|e| corrupt(format!("fences: {e}")))?;
        type Slot<const D: usize> = (Vec<u8>, Option<Result<Quasii<D>, SnapshotError>>);
        let mut loaded: Vec<Slot<D>> = shard_bufs.into_iter().map(|buf| (buf, None)).collect();
        pool::for_each_mut(&mut loaded, m.shard_threads, |k, (buf, out)| {
            *out = Some(load_shard(k, m.shards[k], std::mem::take(buf)));
        })
        .map_err(|p| corrupt(format!("shard {}: loader panicked: {}", p.job, p.message)))?;
        let mut engines: Vec<Quasii<D>> = Vec::with_capacity(loaded.len());
        for (_, r) in loaded {
            engines.push(r.expect("every load job ran")?);
        }
        Ok(Self::from_parts_raw(engines, fences, m))
    }

    /// Raw constructor shared by [`assemble`](Self::assemble) and the
    /// recovery path: trusts that `engines` already passed per-shard
    /// verification and match `fences` one-to-one.
    pub(crate) fn from_parts_raw(engines: Vec<Quasii<D>>, fences: KeyFences, m: Manifest) -> Self {
        Self {
            shards: engines,
            fences,
            cfg: ShardConfig {
                shards: m.requested_shards,
                shard_threads: m.shard_threads,
                inner: m.inner,
            },
            ext_low0: m.ext_low0,
            ext_high0: m.ext_high0,
            router: obs::CounterGroup::from_snapshot(m.router.cells()),
            generation: m.generation,
            poisoned: None,
        }
    }

    /// Durably commits the deployment to `path` as a **new generation** of
    /// part files plus a manifest, through `store`'s atomic-replace
    /// protocol (see `quasii_common::fsx`):
    ///
    /// 1. every shard buffer is written atomically to its own
    ///    generation-stamped part file (`<path>.g<G>.part<k>`, `G` = old
    ///    generation + 1) — new parts never overwrite the committed ones;
    /// 2. the checksummed manifest (carrying `G`) is written atomically to
    ///    `path` **last** — its rename is the single commit point: a crash
    ///    anywhere earlier leaves the old manifest naming the old parts,
    ///    both intact;
    /// 3. the superseded generation's part files are removed best-effort
    ///    (failures ignored — stale parts are garbage, not corruption).
    ///
    /// Returns the committed generation.
    pub fn write_snapshot_files<S: SnapshotStore + ?Sized>(
        &mut self,
        store: &S,
        path: &Path,
    ) -> Result<u64, SnapshotError> {
        // The previous commit (if any) tells us which generation to
        // supersede and how many stale parts to sweep afterwards. The read
        // retries transient errors so a flaky store cannot silently reset
        // the generation counter.
        let prev = fsx::RetryPolicy::default()
            .run(|| store.read_file(path))
            .ok()
            .and_then(|b| parse_manifest_any(&b).ok())
            .map(|(_, m)| (m.generation, m.shards.len()));
        self.generation = prev.map_or(0, |(g, _)| g).max(self.generation) + 1;
        let (manifest, shard_bufs) = self.write_snapshot_parts()?;
        for (k, buf) in shard_bufs.iter().enumerate() {
            fsx::write_atomic(store, &part_path(path, self.generation, k), buf)?;
        }
        fsx::write_atomic(store, path, &manifest)?;
        if let Some((old_gen, old_count)) = prev {
            for k in 0..old_count {
                let _ = store.remove_file(&part_path(path, old_gen, k));
            }
        }
        Ok(self.generation)
    }

    /// Revives a deployment committed by
    /// [`write_snapshot_files`](Self::write_snapshot_files): reads the
    /// manifest at `path`, then the generation-stamped part files it names.
    /// Never panics on malformed input; any missing or corrupt part yields
    /// `Err` — use
    /// [`Recovery`](crate::recovery::Recovery) to load what survives
    /// instead.
    pub fn from_snapshot_files<S: SnapshotStore + ?Sized>(
        store: &S,
        path: &Path,
    ) -> Result<Self, SnapshotError> {
        let bytes = store.read_file(path)?;
        let m = parse_manifest::<D>(&bytes)?;
        let mut bufs = Vec::with_capacity(m.shards.len());
        for k in 0..m.shards.len() {
            bufs.push(store.read_file(&part_path(path, m.generation, k))?);
        }
        Self::assemble(m, bufs)
    }
}

/// The part-file path for shard `shard` of snapshot generation
/// `generation`, as named by a manifest committed at `path`:
/// `<path>.g<G>.part<k>`, a sibling of the manifest.
pub fn part_path(path: &Path, generation: u64, shard: usize) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "shards".to_string());
    path.with_file_name(format!("{name}.g{generation}.part{shard}"))
}

/// Binds one shard buffer to its manifest entry
/// `(record count, length, header word)` and revives its engine — the
/// per-shard unit of work the parallel load path fans out. The entry is
/// compared with the buffer's header word (8 bytes, no pass over the
/// content); the engine's load then hashes the content against that same
/// word, once, and value-checks the 16 bytes before it.
pub(crate) fn load_shard<const D: usize>(
    k: usize,
    (records, len, word): (usize, usize, u64),
    buf: Vec<u8>,
) -> Result<Quasii<D>, SnapshotError> {
    if buf.len() != len {
        return Err(corrupt(format!(
            "shard {k} buffer is {} bytes, manifest says {len}",
            buf.len()
        )));
    }
    if header_word(&buf) != Some(word) {
        return Err(corrupt(format!("shard {k} buffer checksum mismatch")));
    }
    let engine = Quasii::from_snapshot(buf).map_err(|e| match e {
        SnapshotError::Corrupt(msg) => corrupt(format!("shard {k}: {msg}")),
        other => other,
    })?;
    if engine.len() != records {
        return Err(corrupt(format!(
            "shard {k} holds {} records, manifest says {records}",
            engine.len()
        )));
    }
    Ok(engine)
}

/// Decoded manifest: everything the router needs besides the engines
/// themselves, plus the per-shard verification table
/// `(record count, buffer length, header word)`.
pub(crate) struct Manifest {
    pub(crate) generation: u64,
    pub(crate) requested_shards: usize,
    pub(crate) shard_threads: usize,
    pub(crate) inner: QuasiiConfig,
    pub(crate) ext_low0: f64,
    pub(crate) ext_high0: f64,
    pub(crate) router: RouterStats,
    pub(crate) inner_bounds: Vec<f64>,
    pub(crate) shards: Vec<(usize, usize, u64)>,
}

/// Parses and verifies a manifest for dimensionality `D` (see
/// [`parse_manifest_any`] for the runtime-dims variant).
pub(crate) fn parse_manifest<const D: usize>(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let (dims, m) = parse_manifest_any(bytes)?;
    if dims as usize != D {
        return Err(SnapshotError::WrongDims {
            found: dims,
            expected: D as u32,
        });
    }
    Ok(m)
}

/// Parses and verifies a manifest (magic, version, checksum, exact body
/// accounting) without pinning the dimensionality: a commit reads the
/// generation it supersedes whatever `D` wrote it. The manifest must be all
/// of `bytes`:
/// shard buffers live in their own part files, so anything after it (one
/// file holding the manifest and the buffers, say) is corrupt.
///
/// Every count read from the body is validated against the bytes that
/// remain *before* any allocation sized by it, so a forged manifest with a
/// colliding checksum and huge counts yields `Err`, never an OOM abort.
pub(crate) fn parse_manifest_any(bytes: &[u8]) -> Result<(u32, Manifest), SnapshotError> {
    let frame = Frame::read(bytes, &MANIFEST_MAGIC, MANIFEST_VERSION, "shard manifest")?;
    let (dims, total) = (frame.dims, frame.total);
    if bytes.len() > total {
        return Err(corrupt(format!(
            "{} trailing bytes after the {total}-byte shard manifest",
            bytes.len() - total
        )));
    }
    frame.verify(bytes, "shard manifest")?;

    let mut r = Reader::new(bytes, FRAME_LEN);
    let generation = r.u64()?;
    let shard_count = r.index("shard count")?;
    if shard_count == 0 {
        return Err(corrupt("manifest lists zero shards"));
    }
    let requested_shards = r.index("requested shard count")?;
    let shard_threads = r.index("shard threads")?;
    let inner = QuasiiConfig {
        tau: r.index("tau")?,
        assign_by: AssignBy::from_code(r.u64()?)?,
        threads: r.index("inner threads")?,
        // SIMD dispatch is a host property, never persisted: re-resolve on
        // the loading host (see `quasii::simd`).
        simd: quasii::SimdPolicy::default(),
    };
    let ext_low0 = r.f64()?;
    let ext_high0 = r.f64()?;
    let router = RouterStats {
        queries: r.u64()?,
        shard_visits: r.u64()?,
    };
    let bound_count = r.index("inner-bound count")?;
    if bound_count != shard_count - 1 {
        return Err(corrupt(format!(
            "{bound_count} inner fence bounds for {shard_count} shards"
        )));
    }
    // `f64s` and `section` check a count against the bytes that actually
    // remain before anything is sized by it: a forged (checksum-colliding)
    // manifest must not OOM us.
    let inner_bounds = r.f64s(bound_count, "inner fence bounds")?;
    let mut table = Reader::new(r.section(shard_count, 24, "shard table entries")?, 0);
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let records = table.index("shard record count")?;
        let len = table.index("shard buffer length")?;
        shards.push((records, len, table.u64()?));
    }
    if r.pos() != total {
        return Err(corrupt(format!(
            "manifest body ends at {}, header claims {total}",
            r.pos()
        )));
    }
    Ok((
        dims,
        Manifest {
            generation,
            requested_shards,
            shard_threads,
            inner,
            ext_low0,
            ext_high0,
            router,
            inner_bounds,
            shards,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::warmed_deployment;
    use crate::Recovery;
    use quasii_common::fault::MemStore;

    #[test]
    fn snapshot_parts_roundtrip_is_byte_identical() {
        let (mut idx, queries) = warmed_deployment();
        let (manifest, shard_bufs) = idx.write_snapshot_parts().expect("write parts");
        assert_eq!(shard_bufs.len(), idx.shard_count());
        let mut re =
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, shard_bufs).expect("load parts");
        assert_eq!(re.fences(), idx.fences());
        assert_eq!(re.router_stats(), idx.router_stats());
        assert_eq!(re.stats(), idx.stats());
        assert_eq!(re.config().shards, idx.config().shards);
        assert_eq!(re.config().shard_threads, idx.config().shard_threads);
        for (a, b) in re.engines().iter().zip(idx.engines()) {
            assert_eq!(a.records(), b.records(), "per-shard permutation");
        }
        re.validate().expect("reloaded invariants");
        assert_eq!(
            re.execute_batch(&queries),
            idx.execute_batch(&queries),
            "reloaded deployment answers byte-identically"
        );
        assert_eq!(re.stats(), idx.stats(), "work counters track in lockstep");
        assert_eq!(re.router_stats(), idx.router_stats());
    }

    #[test]
    fn part_bytes_do_not_depend_on_the_thread_count() {
        // `finalize` is a write, so each shard job seals its whole shard
        // before it returns; the parts then store sealed arenas only.
        for finalize in [false, true] {
            let what = if finalize { "finalized" } else { "warmed" };
            let written: Vec<_> = [1, 2, 4]
                .into_iter()
                .map(|threads| {
                    let (mut idx, _) = warmed_deployment();
                    idx.cfg.shard_threads = threads;
                    if finalize {
                        let before = idx.sealed_fraction();
                        idx.finalize();
                        assert!(before < 1.0 && idx.sealed_fraction() == 1.0);
                    }
                    idx.write_snapshot_parts().expect("write parts")
                })
                .collect();
            let (manifest, parts) = &written[0];
            for ((m, p), threads) in written[1..].iter().zip([2u64, 4]) {
                assert_eq!(p, parts, "{what}: parts with {threads} threads");
                assert_eq!(m.len(), manifest.len());
                let word = FRAME_LEN + 3 * 8..FRAME_LEN + 4 * 8;
                assert_eq!(m[word.clone()], threads.to_le_bytes(), "{what}");
                for (i, (a, b)) in m.iter().zip(manifest).enumerate() {
                    // The header word sums the content, the word with it.
                    assert!(
                        a == b || word.contains(&i) || (16..24).contains(&i),
                        "{what}: manifest byte {i} with {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_shard_snapshots_are_rejected() {
        let (mut idx, _) = warmed_deployment();
        let (manifest, shard_bufs) = idx.write_snapshot_parts().expect("write parts");

        let mut bad = manifest.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs.clone()),
            Err(SnapshotError::Corrupt(_))
        ));

        // Exactly one version is accepted: the previous one is foreign too.
        for foreign in [99, MANIFEST_VERSION - 1] {
            let mut bad = manifest.clone();
            bad[8] = foreign as u8;
            assert!(matches!(
                ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs.clone()),
                Err(SnapshotError::WrongVersion { found, expected: MANIFEST_VERSION })
                    if found == foreign
            ));
        }

        assert!(matches!(
            ShardedQuasii::<2>::from_snapshot_parts(&manifest, shard_bufs.clone()),
            Err(SnapshotError::WrongDims {
                found: 3,
                expected: 2
            })
        ));

        // Shard buffers swapped out of manifest order: checksums catch it.
        let mut swapped = shard_bufs.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, swapped),
            Err(SnapshotError::Corrupt(_))
        ));

        // A bit flip inside one shard buffer: its engine checksum catches it.
        let mut flipped = shard_bufs.clone();
        let at = flipped[1].len() / 2;
        flipped[1][at] ^= 0x01;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, flipped),
            Err(SnapshotError::Corrupt(_))
        ));

        // Missing buffer.
        let mut short = shard_bufs.clone();
        short.pop();
        assert!(ShardedQuasii::<3>::from_snapshot_parts(&manifest, short).is_err());

        // Truncations of the manifest never panic.
        for cut in [0, 16, 31, 32, manifest.len() - 1] {
            assert!(
                ShardedQuasii::<3>::from_snapshot_parts(&manifest[..cut], shard_bufs.clone())
                    .is_err()
            );
        }

        // A manifest-body bit flip fails the manifest checksum.
        let mut bad = manifest.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn parts_are_bound_by_header_word_and_hashed_by_the_engine() {
        let (mut idx, _) = warmed_deployment();
        let (manifest, bufs) = idx.write_snapshot_parts().expect("write parts");
        let m = parse_manifest::<3>(&manifest).expect("manifest");
        for (&(records, len, word), (buf, engine)) in
            m.shards.iter().zip(bufs.iter().zip(idx.engines()))
        {
            assert_eq!((records, len), (engine.len(), buf.len()));
            assert_eq!(
                Some(word),
                header_word(buf),
                "the entry is the part's header word"
            );
        }
        let (records, len, word) = m.shards[1];
        let reason = |r: Result<Quasii<3>, SnapshotError>| match r {
            Err(SnapshotError::Corrupt(why)) => why,
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a damaged part was accepted"),
        };

        // Header word patched (and the entry with it), content intact: the
        // engine's pass over the content disagrees with the word.
        let mut patched = bufs[1].clone();
        patched[16] ^= 0x40;
        let entry = (records, len, header_word(&patched).unwrap());
        let why = reason(load_shard::<3>(1, entry, patched));
        assert!(
            why.starts_with("shard 1: snapshot checksum mismatch"),
            "{why}"
        );

        // Content flipped, header word and entry intact: the same check.
        let mut flipped = bufs[1].clone();
        flipped[len / 2] ^= 0x01;
        let why = reason(load_shard::<3>(1, (records, len, word), flipped.clone()));
        assert!(
            why.starts_with("shard 1: snapshot checksum mismatch"),
            "{why}"
        );

        // An entry that differs from the header word is refused by the
        // 8-byte comparison. The content is damaged as well, so a pass over
        // it would have reported the engine checksum instead: none ran.
        let why = reason(load_shard::<3>(1, (records, len, word ^ 1), flipped));
        assert_eq!(why, "shard 1 buffer checksum mismatch");
        // Another shard's part under this entry: length or word differ.
        assert!(load_shard::<3>(1, (records, len, word), bufs[0].clone()).is_err());
        // A buffer too short to hold a header word.
        let why = reason(load_shard::<3>(
            1,
            (records, 20, word),
            bufs[1][..20].to_vec(),
        ));
        assert_eq!(why, "shard 1 buffer checksum mismatch");
    }

    #[test]
    fn snapshot_files_commit_generations_and_roundtrip() {
        let (mut idx, queries) = warmed_deployment();
        let store = MemStore::new();
        let path = Path::new("/deploy/shards.manifest");
        assert_eq!(idx.generation(), 0);
        assert_eq!(idx.write_snapshot_files(&store, path).unwrap(), 1);
        let mut re = ShardedQuasii::<3>::from_snapshot_files(&store, path).unwrap();
        assert_eq!(re.generation(), 1);
        let expect = idx.execute_batch(&queries);
        assert_eq!(re.execute_batch(&queries), expect);
        assert_eq!(re.config().inner.tau, idx.config().inner.tau);

        // A second commit bumps the generation and sweeps the old parts.
        assert_eq!(idx.write_snapshot_files(&store, path).unwrap(), 2);
        let files = store.files();
        assert!(files.contains_key(&part_path(path, 2, 0)));
        assert!(
            !files
                .keys()
                .any(|p| p.to_string_lossy().contains(".g1.part")),
            "superseded generation swept: {files:?}",
            files = files.keys().collect::<Vec<_>>()
        );
        let m = parse_manifest::<3>(files.get(Path::new("/deploy/shards.manifest")).unwrap())
            .expect("committed manifest verifies");
        assert_eq!(m.generation, 2);
        assert_eq!(m.shards.iter().map(|&(r, _, _)| r).sum::<usize>(), 2_500);
        assert_eq!(m.shards.len(), idx.shard_count());

        // One file holding the manifest and then the shard buffers is not a
        // second layout: every entry point names the trailing bytes, and
        // recovery has no manifest to quarantine shards against.
        let (manifest, bufs) = idx.write_snapshot_parts().unwrap();
        let trailing: usize = bufs.iter().map(Vec::len).sum();
        let one_file = [manifest, bufs.concat()].concat();
        let p2 = Path::new("/deploy/one-file.bin");
        fsx::write_atomic(&store, p2, &one_file).unwrap();
        let expect = format!("{trailing} trailing bytes after the");
        for err in [
            ShardedQuasii::<3>::from_snapshot_files(&store, p2).err(),
            Recovery::<3>::load(&store, p2).err(),
            parse_manifest::<3>(&one_file).err(),
        ] {
            match err {
                Some(SnapshotError::Corrupt(why)) => assert!(why.contains(&expect), "{why}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn forged_huge_counts_error_instead_of_allocating() {
        // A hostile manifest with a *valid* checksum but an absurd shard
        // count must fail cleanly before any count-sized allocation.
        let huge: u64 = 1 << 40;
        let mut m = Writer::framed(&MANIFEST_MAGIC, MANIFEST_VERSION, 3, 0);
        for v in [
            1u64,     // generation
            huge,     // shard count
            huge,     // requested shards
            1,        // shard threads
            60,       // tau
            0,        // assign mode
            0,        // inner threads
            0,        // ext_low0
            0,        // ext_high0
            0,        // router queries
            0,        // router visits
            huge - 1, // inner-bound count
        ] {
            m.u64(v);
        }
        let m = m.finish();
        match parse_manifest::<3>(&m).err() {
            Some(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("remain"), "unexpected reason: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&m, Vec::new()),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
