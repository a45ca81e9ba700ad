//! `restart`: snapshot, reload, first answers. Set-up converges a
//! two-shard engine (uniform warm-up queries, `finalize`, `seal`). Every
//! round writes the snapshot parts, loads them into a new engine and
//! answers a first batch there, all in memory; an op is one such cycle.
//! Once per run the same engine is committed through a counting
//! `SnapshotStore` over `MemStore`, the store crashes, and the reload is
//! compared with the writer.
//!
//! `core.persist`, the `shard` manifest and assembly, and `common.fsx` do
//! the work and nothing else does. Device time is not reported (the
//! sandbox's fsync takes 3–57 s and says nothing about a disk); the commit
//! protocol is measured as exact operation and byte counts.

use super::{
    check_scan, default_shards, gen_data, seal_stats_of, seals_since, set_counters, set_laps,
    set_shape, stats_since, universe,
};
use crate::procfs::{cpu_now_s, timed};
use crate::rounds::{repeat_setup, Budget, Phase};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{set_tracing, Ctx, QVOL};
use quasii::{Quasii, QuasiiConfig};
use quasii_common::fault::MemStore;
use quasii_common::fsx::SnapshotStore;
use quasii_common::geom::Aabb;
use quasii_common::index::SpatialIndex;
use quasii_common::workload;
use quasii_shard::ShardedQuasii;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts what the commit protocol asks of its store.
#[derive(Default)]
struct CountingStore {
    inner: MemStore,
    /// Every call, whatever its kind.
    ops: AtomicU64,
    syncs: AtomicU64,
    renames: AtomicU64,
    bytes_written: AtomicU64,
}

impl CountingStore {
    /// Counts one store call and hands the inner store.
    fn op(&self) -> &MemStore {
        self.ops.fetch_add(1, Relaxed);
        &self.inner
    }
}

impl SnapshotStore for CountingStore {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op().read_file(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written.fetch_add(bytes.len() as u64, Relaxed);
        self.op().write_file(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Relaxed);
        self.op().sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.renames.fetch_add(1, Relaxed);
        self.op().rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Relaxed);
        self.op().sync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op().remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.op().exists(path)
    }
}

/// Warm-up in batches, then `finalize` and `seal`: a converged engine.
fn converge<E: SpatialIndex<3>>(
    engine: &mut E,
    warmup: &[Aabb<3>],
    batch: usize,
    finalize: impl Fn(&mut E),
) {
    for b in warmup.chunks(batch) {
        std::hint::black_box(engine.query_batch(b));
    }
    finalize(engine);
    engine.seal();
}

pub fn run(ctx: &mut Ctx, tr: &mut Tracer) -> Result<(), String> {
    let sc = ctx.scale.clone();
    let ((data, mut engine, mut single, first), laps) = repeat_setup(sc.setup_reps, |laps| {
        let data = gen_data(ctx, laps);
        let (warmup, first) = laps.time("common.workload_gen_s", || {
            let mut q = workload::uniform(
                &universe(),
                sc.restart_warmup + sc.restart_first_batch,
                QVOL,
                ctx.derive(1),
            )
            .queries;
            let first = q.split_off(sc.restart_warmup);
            (q, first)
        });
        let mut engine = laps.time("shard.build_ms", || {
            ShardedQuasii::<3>::new(data.clone(), default_shards())
        });
        converge(&mut engine, &warmup, sc.batch, ShardedQuasii::finalize);
        // The traced run also restarts a single engine, for `core.persist`.
        let single = ctx.trace.then(|| {
            let mut single = Quasii::<3>::new(data.clone(), QuasiiConfig::default());
            converge(&mut single, &warmup, sc.batch, Quasii::finalize);
            single
        });
        (data, engine, single, first)
    });
    set_laps(&mut ctx.report, &laps);

    // The writer's own answers: what every reloaded engine must repeat.
    let (stats_before, seals_before) = (engine.stats(), seal_stats_of(&engine));
    let expected = engine.execute_batch(&first);
    let samples: Vec<_> = first
        .iter()
        .copied()
        .zip(expected.iter().cloned())
        .take(sc.checks)
        .collect();
    check_scan(&mut ctx.report, &data, &samples);
    // The counters are those of this one batch on the converged writer.
    let hits: u64 = expected.iter().map(|a| a.len() as u64).sum();
    let work = stats_since(&stats_before, &engine.stats());
    let seals = seals_since(&seals_before, &seal_stats_of(&engine));
    set_counters(&mut ctx.report, &work, &seals, hits);
    // `bytes_per_record` is set again below: here the stored form is the
    // snapshot, not the live index.
    set_shape(&mut ctx.report, &engine);

    let budget = Budget::new(ctx.seconds, sc.min_rounds);
    let mut phase = Phase::default();
    let (mut write_ms, mut load_ms, mut load_cpu_ms, mut first_batch_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut single_write_ms, mut single_load_ms, mut single_load_cpu_ms) =
        (vec![], vec![], vec![]);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut round = 0;
    while budget.more(round) {
        let traced = ctx.begin_round(tr, round);
        let idx = usize::from(traced);
        let (cycle, spent) = timed(|| {
            tr.call("round", |tr| {
                tr.op(|tr| {
                    let t = Instant::now();
                    let written = tr.call("shard.write_snapshot_parts", |_| {
                        engine.write_snapshot_parts()
                    });
                    write_ms.push(ms(t));
                    let (manifest, parts) = written?;
                    let bytes = manifest.len() + parts.iter().map(Vec::len).sum::<usize>();
                    let (t, cpu) = (Instant::now(), cpu_now_s());
                    let loaded = tr.call("shard.from_snapshot_parts", |_| {
                        ShardedQuasii::<3>::from_snapshot_parts(&manifest, parts)
                    });
                    load_ms.push(ms(t));
                    load_cpu_ms.push(1e3 * (cpu_now_s() - cpu));
                    let mut loaded = loaded?;
                    let t = Instant::now();
                    let answers = tr.call("shard.execute_batch", |_| loaded.execute_batch(&first));
                    first_batch_ms.push(ms(t));
                    Ok::<_, quasii_common::snapshot::SnapshotError>((
                        answers,
                        bytes,
                        manifest.len(),
                    ))
                })
            })
        });
        set_tracing(tr, false);
        match cycle {
            Ok((answers, bytes, manifest_bytes)) => {
                phase[idx].push(&[spent.wall_s * 1e6], spent);
                if answers != expected {
                    ctx.report.fail(format!(
                        "round {round}: the reloaded engine answers differently"
                    ));
                }
                ctx.report
                    .set("bytes_per_record", bytes as f64 / data.len() as f64);
                ctx.report
                    .set("shard.manifest_bytes", manifest_bytes as f64);
            }
            Err(e) => ctx.report.check(false, || format!("round {round}: {e}")),
        }

        if let Some(single) = single.as_mut() {
            let t = Instant::now();
            let bytes = single.write_snapshot().map_err(|e| e.to_string())?;
            single_write_ms.push(ms(t));
            ctx.report.set(
                "core.persist.bytes_per_record",
                bytes.len() as f64 / data.len() as f64,
            );
            let (t, cpu) = (Instant::now(), cpu_now_s());
            let mut loaded = Quasii::<3>::from_snapshot(bytes).map_err(|e| e.to_string())?;
            single_load_ms.push(ms(t));
            single_load_cpu_ms.push(1e3 * (cpu_now_s() - cpu));
            let mut answers = loaded.execute_batch(&first);
            answers.iter_mut().for_each(|a| a.sort_unstable());
            ctx.report.check(answers == expected, || {
                format!("round {round}: the reloaded single engine answers differently")
            });
        }
        round += 1;
    }
    ctx.set_op_metrics(&phase);

    commit_and_crash(ctx, &mut engine, &first, &expected);

    let r = &mut ctx.report;
    let first_results: Vec<f64> = load_ms
        .iter()
        .zip(&first_batch_ms)
        .map(|(l, f)| l + f)
        .collect();
    r.set("first_results_ms", median(&first_results));
    r.set("shard.snapshot_write_ms", median(&write_ms));
    r.set("shard.load_ms", median(&load_ms));
    r.set("shard.load_cpu_ms", median(&load_cpu_ms));
    r.set("shard.first_batch_ms", median(&first_batch_ms));
    if ctx.trace {
        r.set("core.persist.write_ms", median(&single_write_ms));
        r.set("core.persist.load_ms", median(&single_load_ms));
        r.set("core.persist.load_cpu_ms", median(&single_load_cpu_ms));
        r.reconcile(
            "ms",
            &[
                ("shard.load_ms", median(&load_ms)),
                ("shard.first_batch_ms", median(&first_batch_ms)),
            ],
            ("first_results_ms", median(&first_results)),
        );
    }
    Ok(())
}

/// Commits through the counting store, crashes it, reloads, and compares
/// the reloaded engine's answers with the writer's.
fn commit_and_crash(
    ctx: &mut Ctx,
    engine: &mut ShardedQuasii<3>,
    first: &[Aabb<3>],
    expected: &[Vec<u64>],
) {
    let store = CountingStore::default();
    let path = Path::new("/quasii-benchmark/index.snapshot");
    let t = Instant::now();
    let committed = engine.write_snapshot_files(&store, path);
    let commit_ms = t.elapsed().as_secs_f64() * 1e3;
    // Everything the commit acknowledged was synced, so whatever the
    // seeded adversary does to unsynced state, the reload must succeed.
    store.inner.crash(ctx.derive(2));
    let reloaded = committed
        .map_err(|e| e.to_string())
        .and_then(|_| {
            ShardedQuasii::<3>::from_snapshot_files(&store, path).map_err(|e| e.to_string())
        })
        .map(|mut e| e.execute_batch(first));
    let ok = matches!(&reloaded, Ok(answers) if answers == expected);
    ctx.report.check(ok, || match reloaded {
        Ok(_) => "the engine reloaded after the crash answers differently".into(),
        Err(e) => format!("commit, crash, reload: {e}"),
    });
    let r = &mut ctx.report;
    r.set("common.fsx.crash_reload_ok", f64::from(u8::from(ok)));
    r.set("common.fsx.commit_ms_mem", commit_ms);
    r.set("common.fsx.store_ops", store.ops.load(Relaxed) as f64);
    r.set("common.fsx.syncs", store.syncs.load(Relaxed) as f64);
    r.set("common.fsx.renames", store.renames.load(Relaxed) as f64);
    r.set(
        "common.fsx.bytes_written",
        store.bytes_written.load(Relaxed) as f64,
    );
}
