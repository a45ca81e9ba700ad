//! The command bodies behind [`execute`](crate::execute).

use crate::{load, EngineOpts, Source, WorkloadOpts};
use quasii::SimdPolicy;
use quasii_common::fault::{parse_fault_spec, FaultStore};
use quasii_common::fsx::{FsStore, SnapshotStore};
use quasii_common::geom::{mbb_of, Aabb};
use quasii_common::index::SpatialIndex;
use quasii_common::io as qio;
use quasii_common::measure::{run_queries, run_query_batches, timed};
use quasii_common::scan::Scan;
use quasii_grid::{Assignment, UniformGrid};
use quasii_mosaic::Mosaic;
use quasii_obs as obs;
use quasii_rtree::RTree;
use quasii_sfc::{SfCracker, SfcIndex};
use quasii_shard::{Recovery, RecoveryReport, ShardStatus, ShardedQuasii, MANIFEST_MAGIC};
use std::path::Path;

/// One line naming the kernel generation a QUASII run dispatches to.
fn report_simd(policy: SimdPolicy) {
    println!(
        "simd kernels: {} (policy {})",
        policy.resolve().name(),
        policy.name()
    );
}

/// Runs the workload one query at a time (`batch == 0`) or in batches
/// through the index's batch path, printing one summary line either way;
/// returns the index so callers can report post-run state.
fn report<I: SpatialIndex<3>>(
    mut index: I,
    build_secs: f64,
    queries: &[Aabb<3>],
    batch: usize,
) -> I {
    if batch == 0 {
        let series = run_queries(&mut index, build_secs, queries);
        let total_results: usize = series.result_counts.iter().sum();
        println!(
            "{}: build {:.4}s, first query {:.4}s, {} queries in {:.4}s (tail mean {:.1}µs), {} results",
            series.name,
            series.build_secs,
            series.query_secs.first().copied().unwrap_or(0.0),
            series.query_secs.len(),
            series.total_secs() - series.build_secs,
            series.tail_mean_secs(20) * 1e6,
            total_results
        );
    } else {
        let (series, _) = run_query_batches(&mut index, queries, batch);
        let total_results: usize = series.result_counts.iter().sum();
        println!(
            "{}: build {:.4}s, {} queries in batches of {} in {:.4}s ({:.0} q/s), {} results",
            series.name,
            build_secs,
            series.queries(),
            series.batch_size,
            series.total_secs(),
            series.throughput_qps(),
            total_results
        );
    }
    index
}

/// [`report`], then one line for the sealed read path's end state.
fn report_quasii(index: ShardedQuasii<3>, build_secs: f64, queries: &[Aabb<3>], batch: usize) {
    let index = report(index, build_secs, queries, batch);
    println!("sealed fraction after run: {:.3}", index.sealed_fraction());
}

/// Refuses anything but a deployment manifest where `--warm-start` or
/// `verify` reads one. A bare engine snapshot (one part file) gets its own
/// error naming the manifest.
fn expect_manifest(path: &str, bytes: &[u8]) -> Result<(), String> {
    if bytes.starts_with(&MANIFEST_MAGIC) {
        Ok(())
    } else if bytes.starts_with(&quasii::snapshot::MAGIC) {
        Err(format!(
            "'{path}' is one engine's part file, not a deployment: pass the manifest \
             `quasii snapshot` wrote at --out (its parts are <manifest>.g<G>.part<k>)"
        ))
    } else {
        Err(format!(
            "'{path}' is not a deployment manifest (expected a {:?} header)",
            String::from_utf8_lossy(&MANIFEST_MAGIC)
        ))
    }
}

/// `--warm-start`: revives the deployment whose manifest is at `snap`, its
/// shards loaded on parallel workers. The snapshot fixes layout and
/// configuration; the engines re-resolve the default dispatch policy
/// (which honors the `QUASII_SIMD` environment override). Returns the load
/// time with the deployment.
fn warm_start(snap: &str) -> Result<(f64, ShardedQuasii<3>), String> {
    let bytes = std::fs::read(snap).map_err(|e| format!("cannot read '{snap}': {e}"))?;
    expect_manifest(snap, &bytes)?;
    report_simd(SimdPolicy::default());
    let (secs, idx) = timed(|| ShardedQuasii::<3>::from_snapshot_files(&FsStore, Path::new(snap)));
    let idx = idx.map_err(|e| format!("cannot load '{snap}': {e}"))?;
    Ok((secs, idx))
}

/// `quasii bench`.
pub(crate) fn bench(
    source: Source,
    index: &str,
    workload: &WorkloadOpts,
    batch: usize,
    engine: &EngineOpts,
    metrics: bool,
) -> Result<(), String> {
    if metrics {
        // Fresh registry per run: the table below reports this
        // invocation only, not process history.
        obs::registry::reset();
        obs::set_enabled(true);
    }
    match source {
        Source::WarmStart(snap) => bench_warm(&snap, workload, batch)?,
        Source::Data(data) => bench_cold(&data, index, workload, batch, engine)?,
    }
    if metrics {
        println!("\nmetrics (this run):");
        print!("{}", obs::registry::render_table());
    }
    Ok(())
}

/// `bench --warm-start`: revive the deployment, then run the workload over
/// the records' universe.
fn bench_warm(snap: &str, workload: &WorkloadOpts, batch: usize) -> Result<(), String> {
    let (b, idx) = warm_start(snap)?;
    let mut universe = Aabb::empty();
    for e in idx.engines() {
        universe.expand(&e.data_bounds());
    }
    println!(
        "shards: {} engines revived, sealed fraction {:.3}",
        idx.shard_count(),
        idx.sealed_fraction()
    );
    report_quasii(idx, b, &workload.build(&universe).queries, batch);
    Ok(())
}

/// `bench --data`: build `index` over the dataset, then run the workload.
fn bench_cold(
    data: &str,
    index: &str,
    workload: &WorkloadOpts,
    batch: usize,
    engine: &EngineOpts,
) -> Result<(), String> {
    let records = load(data)?;
    let w = workload.build(&mbb_of(&records));
    match index {
        "scan" => {
            let (b, i) = timed(|| Scan::new(records));
            report(i, b, &w.queries, batch);
        }
        "rtree" => {
            let (b, i) = timed(|| RTree::bulk_load_default(records));
            report(i, b, &w.queries, batch);
        }
        "grid" => {
            let parts = (records.len() as f64).cbrt().round().clamp(8.0, 256.0) as usize;
            let (b, i) = timed(|| UniformGrid::build(records, parts, Assignment::QueryExtension));
            report(i, b, &w.queries, batch);
        }
        "sfc" => {
            let (b, i) = timed(|| SfcIndex::build_default(records));
            report(i, b, &w.queries, batch);
        }
        "sfcracker" => {
            let (b, i) = timed(|| SfCracker::with_default_bits(records));
            report(i, b, &w.queries, batch);
        }
        "mosaic" => {
            let (b, i) = timed(|| Mosaic::with_defaults(records));
            report(i, b, &w.queries, batch);
        }
        "quasii" => {
            report_simd(engine.simd);
            let (b, i) = timed(|| engine.build(records));
            let per_shard: Vec<usize> = i.snapshots().iter().map(|s| s.records).collect();
            println!(
                "shards: {} engines, records per shard {per_shard:?}",
                i.shard_count()
            );
            report_quasii(i, b, &w.queries, batch);
        }
        other => return Err(format!("unknown index '{other}'")),
    }
    Ok(())
}

/// `quasii snapshot`: warm (or fully crack) a deployment, seal it, and
/// commit its manifest plus one part per shard through the crash-safe
/// protocol (parts first, manifest renamed last); `--fault` wraps the store
/// in a deterministic fault injector so the protocol can be exercised from
/// the command line.
pub(crate) fn snapshot(
    data: &str,
    out: &str,
    workload: &WorkloadOpts,
    engine: &EngineOpts,
    finalize: bool,
    fault: Option<&str>,
) -> Result<(), String> {
    let store: Box<dyn SnapshotStore> = match fault {
        None => Box::new(FsStore),
        Some(spec) => {
            let plan = parse_fault_spec(spec).map_err(|e| format!("--fault: {e}"))?;
            Box::new(FaultStore::new(FsStore, plan))
        }
    };
    let records = load(data)?;
    let w = workload.build(&mbb_of(&records));
    let mut idx = engine.build(records);
    if finalize {
        idx.finalize();
    } else {
        idx.execute_batch(&w.queries);
    }
    idx.seal();
    let frac = idx.sealed_fraction();
    let gen = idx
        .write_snapshot_files(store.as_ref(), Path::new(out))
        .map_err(|e| format!("snapshot: {e}"))?;
    println!(
        "committed generation {gen} ({} shards, {} part files + manifest, \
         sealed fraction {frac:.3}) to {out}",
        idx.shard_count(),
        idx.shard_count()
    );
    Ok(())
}

/// One line of durable-write health: the always-on `fsx` counters (commit,
/// retry, fault-injection), so flaky-store symptoms show up in `verify`,
/// `recover` and `snapshot` runs, failed ones included, without any flag.
pub(crate) fn report_fsx_counters() {
    let commits = obs::registry::FSX_COMMITS_TOTAL.get();
    let failures = obs::registry::FSX_COMMIT_FAILURES_TOTAL.get();
    let retries = obs::registry::FSX_RETRIES_TOTAL.get();
    let exhausted = obs::registry::FSX_RETRY_EXHAUSTED_TOTAL.get();
    let fault_ops = obs::registry::FSX_FAULT_OPS_TOTAL.get();
    let injected = obs::registry::FSX_INJECTED_FAULTS_TOTAL.get();
    println!(
        "fsx: {commits} atomic commits ({failures} failed), {retries} transient retries \
         ({exhausted} exhausted), {fault_ops} fault-store ops ({injected} injected faults)"
    );
}

/// The per-shard health lines `verify` and `recover` both print.
fn report_health(report: &RecoveryReport) {
    println!(
        "generation {}: {} shards, coverage {:.3}",
        report.generation,
        report.shards.len(),
        report.coverage_fraction()
    );
    for h in &report.shards {
        match &h.status {
            ShardStatus::Healthy => {
                println!("  shard {}: healthy ({} records)", h.shard, h.records)
            }
            ShardStatus::Rebuilt => {
                println!("  shard {}: rebuilt ({} records)", h.shard, h.records)
            }
            ShardStatus::Quarantined(why) => println!("  shard {}: QUARANTINED — {why}", h.shard),
        }
    }
}

/// `quasii verify`: a manifest is read by the loader `recover` uses, shard
/// by shard, and a `.qsd` by the dataset reader, so what passes here loads
/// there. Returns `Err` (exit code 2) on any corruption so scripts can gate
/// on it.
pub(crate) fn verify_file(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if bytes.starts_with(qio::QSD_MAGIC) {
        let records = qio::decode_qsd::<3>(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "qsd dataset: {} records, {} bytes",
            records.len(),
            bytes.len()
        );
        return Ok(());
    }
    expect_manifest(path, &bytes)?;
    let rec = Recovery::<3>::load(&FsStore, Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let report = rec.report();
    report_health(report);
    if !report.is_complete() {
        return Err(format!(
            "{} of {} shards failed verification (recover can quarantine and rebuild them \
             from the source dataset)",
            report.quarantined().len(),
            report.shards.len()
        ));
    }
    Ok(())
}

/// `quasii recover` — per-shard health report, rebuild of quarantined
/// shards from the source dataset, and durable re-commit.
pub(crate) fn recover_snapshot(snapshot: &str, data: Option<&str>) -> Result<(), String> {
    let store = FsStore;
    let path = Path::new(snapshot);
    let mut rec =
        Recovery::<3>::load(&store, path).map_err(|e| format!("cannot load '{snapshot}': {e}"))?;
    report_health(rec.report());
    if rec.report().is_complete() {
        println!("all shards healthy; nothing to repair");
        return Ok(());
    }
    let Some(data) = data else {
        return Err(format!(
            "{} shards are quarantined; pass --data FILE (the snapshot's source dataset) \
             to rebuild them",
            rec.report().quarantined().len()
        ));
    };
    let records = load(data)?;
    let rebuilt = rec
        .rebuild(&records)
        .map_err(|e| format!("rebuild from '{data}': {e}"))?;
    let mut full = rec
        .into_full()
        .map_err(|e| format!("post-recovery validation: {e}"))?;
    let gen = full
        .write_snapshot_files(&store, path)
        .map_err(|e| format!("re-commit: {e}"))?;
    println!("rebuilt {rebuilt} shards from {data}; committed generation {gen} to {snapshot}");
    Ok(())
}

/// `quasii serve`: runs until `POST /admin/shutdown`.
pub(crate) fn serve(
    source: Source,
    addr: &str,
    engine: &EngineOpts,
    cfg: quasii_server::ServeConfig,
) -> Result<(), String> {
    // A server always exposes /metrics, so the registry is always on
    // (fresh, so the exposition reports this process only).
    obs::registry::reset();
    obs::set_enabled(true);
    let deployment = match source {
        Source::WarmStart(snap) => warm_start(&snap)?.1,
        Source::Data(data) => {
            report_simd(engine.simd);
            engine.build(load(&data)?)
        }
    };
    let records = deployment.len();
    let shard_count = deployment.shard_count();
    let handle =
        quasii_server::start(deployment, addr, cfg.clone()).map_err(|e| format!("serve: {e}"))?;
    println!(
        "serving http://{} — {records} records across {shard_count} shards, admission \
         queue cap {}",
        handle.addr(),
        cfg.queue_cap.max(1),
    );
    println!(
        "endpoints: GET /query?lo=a,b,c&hi=d,e,f | POST /batch | GET /snapshots \
         /metrics /healthz | POST /admin/repair /admin/shutdown"
    );
    handle.wait();
    println!("server stopped");
    Ok(())
}
