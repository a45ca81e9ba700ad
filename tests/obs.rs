//! Observability byte-identity gate: enabling the metrics registry must
//! never change anything an engine computes — result vectors (in engine
//! visit order), the record permutation, `QuasiiStats` and `SealStats` are
//! compared for equality between a disabled and an enabled run of the
//! identical configuration, across batch shapes.
//!
//! The obs flag is process-global, so every test that toggles it holds
//! [`OBS_LOCK`]; the engines themselves never *read* observability state to
//! make a decision, which is exactly the property under test.

use proptest::prelude::*;
use quasii_obs as obs;
use quasii_suite::prelude::*;

/// Serializes tests that flip the global metrics switch.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..15.0f64,
        0.0..15.0f64,
        0.0..15.0f64,
    )
        .prop_map(|(x, y, z, a, b, c)| Aabb::new([x, y, z], [x + a, y + b, z + c]))
}

fn dataset3(max: usize) -> impl Strategy<Value = Vec<Record<3>>> {
    prop::collection::vec(arb_box3(), 1..max).prop_map(|boxes| {
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, b)| Record::new(i as u64, b))
            .collect()
    })
}

/// Everything observable an engine run produces: per-query hits in engine
/// visit order, the final record permutation, and both counter structs.
type RunFingerprint = (
    Vec<Vec<u64>>,
    Vec<u64>,
    quasii::QuasiiStats,
    quasii::SealStats,
);

fn run_engine(data: &[Record<3>], queries: &[Aabb<3>], batch: usize) -> RunFingerprint {
    let cfg = QuasiiConfig::with_tau(6);
    let mut idx = Quasii::new(data.to_vec(), cfg);
    let mut results: Vec<Vec<u64>> = Vec::new();
    if batch == 0 {
        for q in queries {
            results.push(idx.query_collect(q));
        }
    } else {
        for chunk in queries.chunks(batch) {
            results.extend(idx.execute_batch(chunk));
        }
    }
    let perm: Vec<u64> = idx.records().iter().map(|r| r.id).collect();
    (results, perm, idx.stats(), idx.seal_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn metrics_never_change_results(
        data in dataset3(140),
        queries in prop::collection::vec(arb_box3(), 1..16),
        batch in 0usize..5,
    ) {
        let _g = OBS_LOCK.lock().unwrap();
        obs::set_enabled(false);
        let off = run_engine(&data, &queries, batch);

        obs::registry::reset();
        obs::set_enabled(true);
        let on = run_engine(&data, &queries, batch);
        obs::set_enabled(false);

        prop_assert_eq!(off, on);
    }
}

/// With metrics armed, an engine run actually lands in the registry: the
/// work counters move and the Prometheus exposition round-trips through
/// the parser with the expected families present.
#[test]
fn enabled_run_populates_registry_and_exposition_parses() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::registry::reset();
    obs::set_enabled(true);

    let data: Vec<Record<3>> = (0..4000)
        .map(|i| {
            let v = i as f64 / 10.0;
            Record::new(i, Aabb::new([v; 3], [v + 2.0; 3]))
        })
        .collect();
    let mut idx = Quasii::new(data, QuasiiConfig::default());
    let queries: Vec<Aabb<3>> = (0..32)
        .map(|i| {
            let lo = (i * 11) as f64;
            Aabb::new([lo; 3], [lo + 15.0; 3])
        })
        .collect();
    let _ = idx.execute_batch(&queries);
    idx.seal();
    let _ = idx.execute_batch(&queries);
    obs::set_enabled(false);

    let text = obs::registry::render_prometheus();
    let exp = obs::registry::parse_prometheus(&text).expect("exposition must parse");
    let families = exp.families();
    for family in [
        "quasii_batches_total",
        "quasii_queries_total",
        "quasii_cracks_total",
        "quasii_records_cracked_total",
        "quasii_batch_phase_seconds",
    ] {
        assert!(families.contains(&family.to_string()), "missing {family}");
    }
    assert!(
        exp.value("quasii_queries_total", &[]).unwrap_or(0.0) >= 64.0,
        "both batches must be counted"
    );
    assert!(
        exp.value("quasii_cracks_total", &[]).unwrap_or(0.0) > 0.0,
        "a cold engine must have cracked"
    );
}

/// The always-on `fsx` counters move when the atomic-write protocol runs —
/// the signal `verify`/`recover`/faulted `snapshot` surface in the CLI.
#[test]
fn fsx_commit_counter_is_always_on() {
    // The siblings reset the shared registry; holding their lock keeps a
    // reset from landing between the two reads below.
    let _g = OBS_LOCK.lock().unwrap();
    let before = obs::registry::FSX_COMMITS_TOTAL.get();
    let dir = std::env::temp_dir().join(format!("quasii-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.bin");
    fsx::write_atomic(&FsStore, &path, b"probe").unwrap();
    assert!(
        obs::registry::FSX_COMMITS_TOTAL.get() > before,
        "write_atomic must count commits even with metrics disabled"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
