//! `warm_start` — snapshot persistence vs cold cracking. Not a paper
//! figure: the paper's engine pays its build cost incrementally through
//! queries (Figs. 7–12) and loses that investment on restart; this
//! experiment measures what the single-buffer snapshot (see `quasii`'s
//! `persist` module) recovers. Protocol:
//!
//! 1. **Writer**: converge an engine on a warm-up workload (+ `finalize`,
//!    the fully-converged admin state), then `write_snapshot` (timed).
//! 2. **Reload**: `from_snapshot` (timed) — the zero-copy warm start.
//! 3. **Byte-identity gate**: the reloaded engine must answer the steady
//!    workload identically to the writer — ids, record permutation and
//!    work counters (asserted, not sampled).
//! 4. **Payoff**: time-to-results on the steady workload, cold (fresh
//!    engine cracking from scratch) vs warm (load + sealed reads).
//! 5. **Sharded**: the same roundtrip through the one-buffer-per-shard
//!    manifest transport ([`ShardedQuasii::write_snapshot_parts`]), with
//!    the same byte-identity gate.

use super::{Harness, JsonRecord};
use quasii::{Quasii, QuasiiConfig};
use quasii_common::geom::mbb_of;
use quasii_common::index::SpatialIndex;
use quasii_common::measure::{run_query_batches, timed};
use quasii_common::workload;
use quasii_shard::{ShardConfig, ShardedQuasii};

/// Seed of the warm-up workload (recorded in the `repro --json` config).
pub const WARMUP_SEED: u64 = 95;
/// Seed of the steady-state measurement workload.
pub const WORKLOAD_SEED: u64 = 96;

/// Steady-state batch size (converged engines are batch-size insensitive).
const BATCH: usize = 256;

/// Runs the snapshot roundtrip + cold-vs-warm comparison.
pub fn run_exp(h: &mut Harness) {
    println!("\n=== Warm start: single-buffer snapshots vs cold cracking ===");
    let assign_by = h.assign_by;
    let threads = h.threads.max(1);
    let data = h.uniform_data();
    let universe = mbb_of(&data);
    let n_queries = h.scale.uniform_queries;
    let warm = workload::uniform(&universe, n_queries, 1e-3, WARMUP_SEED).queries;
    let steady = workload::uniform(&universe, n_queries, 1e-3, WORKLOAD_SEED).queries;
    let cfg = QuasiiConfig::default()
        .with_assign_by(assign_by)
        .with_threads(threads)
        .with_simd(h.simd);
    println!(
        "{} objects, {} warm-up + {} steady queries, {} thread(s)",
        data.len(),
        warm.len(),
        steady.len(),
        threads
    );

    let record = |h: &mut Harness, series: &str, secs: f64, results: u64| {
        h.record(JsonRecord {
            experiment: "warm_start".into(),
            series: series.into(),
            build_secs: 0.0,
            total_secs: secs,
            tail_mean_secs: 0.0,
            results,
        });
    };

    // --- Writer: converge, then persist. -------------------------------
    let mut writer = Quasii::new(data.clone(), cfg.clone());
    let _ = writer.execute_batch(&warm);
    writer.finalize();
    writer.seal();
    let (write_secs, snap) = timed(|| writer.write_snapshot().expect("write_snapshot"));
    let snap_len = snap.len();
    println!(
        "snapshot: {:.2} MiB written in {:.4}s ({:.2} MiB live index, {} sealed regions)",
        snap_len as f64 / (1024.0 * 1024.0),
        write_secs,
        writer.index_bytes() as f64 / (1024.0 * 1024.0),
        writer.sealed_regions()
    );
    record(h, "snapshot-write", write_secs, snap_len as u64);

    // Reference steady run on the writer (pure reads once converged).
    let (ref_series, reference) = run_query_batches(&mut writer, &steady, BATCH);
    let ref_hits: u64 = ref_series.result_counts.iter().map(|&c| c as u64).sum();

    // --- Reload + byte-identity gate. -----------------------------------
    let (load_secs, reloaded) = timed(|| Quasii::<3>::from_snapshot(snap).expect("from_snapshot"));
    let mut reloaded = reloaded;
    assert_eq!(reloaded.data(), writer.data(), "permutation byte-identical");
    reloaded.validate().expect("reloaded invariants");
    record(h, "snapshot-load", load_secs, snap_len as u64);

    let (warm_series, warm_results) = run_query_batches(&mut reloaded, &steady, BATCH);
    assert_eq!(warm_results, reference, "reloaded results byte-identical");
    assert_eq!(
        reloaded.stats(),
        writer.stats(),
        "work counters in lockstep"
    );
    let warm_total = load_secs + warm_series.total_secs();

    // --- Cold baseline: crack the steady workload from scratch. ---------
    let (build_secs, mut cold) = timed(|| Quasii::new(data.clone(), cfg.clone()));
    let (cold_series, cold_results) = run_query_batches(&mut cold, &steady, BATCH);
    // The cold engine cracked on a different workload, so its physical
    // order (and thus hit order) differs — compare canonical id sets.
    let canon = |rs: &[Vec<u64>]| -> Vec<Vec<u64>> {
        rs.iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r
            })
            .collect()
    };
    assert_eq!(
        canon(&cold_results),
        canon(&reference),
        "cold engine agrees"
    );
    let cold_total = build_secs + cold_series.total_secs();

    println!("{:>14} {:>12} {:>10}", "path", "total (s)", "q/s");
    let mut csv = String::from("path,total_secs,qps\n");
    for (name, secs) in [
        ("cold-crack", cold_total),
        ("warm-start", warm_total),
        ("load-only", load_secs),
    ] {
        let qps = steady.len() as f64 / secs.max(1e-12);
        println!("{name:>14} {secs:>12.4} {qps:>10.0}");
        csv.push_str(&format!("{name},{secs:.6},{qps:.3}\n"));
        record(h, name, secs, ref_hits);
    }
    println!(
        "warm start is {:.2}x the cold time-to-results",
        warm_total / cold_total.max(1e-12)
    );

    // --- Sharded deployment: manifest + per-shard buffers. ---------------
    let shards = if h.shards > 0 { h.shards } else { 4 };
    let shard_cfg = ShardConfig::default()
        .with_shards(shards)
        .with_shard_threads(threads)
        .with_inner(cfg.clone());
    let mut swriter = ShardedQuasii::new(data.clone(), shard_cfg);
    let _ = swriter.execute_batch(&warm);
    swriter.finalize();
    swriter.seal();
    let sref = swriter.execute_batch(&steady);
    let (swrite_secs, (manifest, bufs)) =
        timed(|| swriter.write_snapshot_parts().expect("write parts"));
    let parts_len: usize = manifest.len() + bufs.iter().map(Vec::len).sum::<usize>();
    let (sload_secs, sreloaded) =
        timed(|| ShardedQuasii::<3>::from_snapshot_parts(&manifest, bufs).expect("load parts"));
    let mut sreloaded = sreloaded;
    assert_eq!(
        sreloaded.execute_batch(&steady),
        sref,
        "sharded reload byte-identical"
    );
    sreloaded.validate().expect("sharded reloaded invariants");
    println!(
        "sharded: {} shards, {:.2} MiB parts written in {:.4}s, reloaded in {:.4}s",
        swriter.shard_count(),
        parts_len as f64 / (1024.0 * 1024.0),
        swrite_secs,
        sload_secs
    );
    record(h, "sharded-write", swrite_secs, parts_len as u64);
    record(h, "sharded-load", sload_secs, parts_len as u64);
    println!("[check] reloaded engines byte-identical to their writers");
    let _ = h.out.write_csv("warm_start.csv", &csv);
}
