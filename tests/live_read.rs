//! The **live read**: a query that cracks nothing is answered over `&self`
//! whether or not its slices have a sealed arena. Readability is decided
//! per node on the query's path (no node cracked, no default child grown),
//! so a query under a converged level-1 subtree reads even while its root
//! slice is still cracking elsewhere. Whenever `can_read` says yes, the
//! reference QUASII of `tests/reference`, run through the same history,
//! changes nothing when it runs the query and answers the same ids in the
//! same order; and batches that mix such reads with cracks stay bit-for-bit
//! equal to one-by-one execution.

mod reference;

use proptest::prelude::*;
use quasii::{AssignBy, QuasiiConfig, QuasiiStats};
use quasii_common::index::{assert_matches_brute_force, brute_force};
use quasii_suite::prelude::*;
use reference::{algorithmic, ids, Reference};

/// The counters a crack or a new slice moves; a read leaves every one.
fn structure(s: &QuasiiStats) -> [u64; 8] {
    [
        s.cracks,
        s.records_cracked,
        s.slices_created,
        s.slices_refined,
        s.default_children,
        s.forced_refinements,
        s.rekeys,
        s.records_rekeyed,
    ]
}

/// One query cracks a band that is narrow on dimension 1 but spans the
/// whole of dimensions 0 and 2: every level-1 slice inside the band
/// converges, and every root slice keeps unrefined level-1 slices outside
/// it, so nothing converges at the root and nothing seals. A query inside
/// the band still reads, from the live tree, with no write in between.
#[test]
fn a_converged_level_one_subtree_reads_below_an_unconverged_root() {
    let data = dataset::uniform_boxes_in::<3>(6_000, 1_000.0, 381);
    let band = Aabb::new([0.0, 400.0, 0.0], [1_001.0, 600.0, 1_001.0]);
    let probe = Aabb::new([200.0, 470.0, 300.0], [420.0, 530.0, 520.0]);
    let cfg = QuasiiConfig::with_tau(8);

    let mut idx = Quasii::new(data.clone(), cfg.clone());
    let mut writer = Reference::new(data.clone(), &cfg);
    assert_matches_brute_force(&data, &band, &idx.query_collect(&band));
    assert_matches_brute_force(&data, &band, &writer.query(&band));
    assert_eq!(idx.sealed_records(), 0, "no root slice has converged");

    assert!(idx.can_read(&probe), "nothing on the probe's path cracks");
    let before = idx.stats();
    let mut got = Vec::new();
    assert!(idx.read(&probe, &mut got));
    let after = idx.stats();
    assert_eq!(
        structure(&after),
        structure(&before),
        "a read changes nothing"
    );
    assert_eq!(after.queries, before.queries + 1);
    assert_eq!(
        idx.seal_stats().sealed_queries,
        1,
        "booked as a `&self` read"
    );
    assert_matches_brute_force(&data, &probe, &got);

    let writer_before = writer.stats();
    assert_eq!(writer.query(&probe), got, "the writer's ids, in order");
    assert_eq!(structure(&writer.stats()), structure(&writer_before));
    assert_eq!(
        algorithmic(after),
        writer.stats(),
        "the same work as the writer"
    );
    assert_eq!(ids(&idx.records()), ids(writer.records()));
    idx.validate().unwrap();

    // The deployment reads it too, on a shard whose root has not converged.
    let mut deployment = ShardedQuasii::new(
        data.clone(),
        ShardConfig::default().with_shards(2).with_inner(cfg),
    );
    deployment.query_collect(&band);
    assert_eq!(deployment.sealed_fraction(), 0.0);
    let before = deployment.stats();
    let mut got = Vec::new();
    assert!(
        deployment.read(&probe, &mut got),
        "every routed shard reads"
    );
    assert_eq!(got, brute_force(&data, &probe));
    assert_eq!(structure(&deployment.stats()), structure(&before));
}

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
        0.0..6.0f64,
        0.0..6.0f64,
        0.0..6.0f64,
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

fn arb_mode() -> impl Strategy<Value = AssignBy> {
    (0u8..3).prop_map(|m| match m {
        0 => AssignBy::Lower,
        1 => AssignBy::Center,
        _ => AssignBy::Upper,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clustered batches on two engines and the reference with one
    /// history: `batched` (whole batches), `single` (one query
    /// at a time) and `writer` (the reference: every query through
    /// Algorithm 1). After each batch, every query of the next cluster is
    /// probed: where `batched` says it can read, its read is answered and
    /// the writer answers the same query; the writer's structural counters
    /// must not move and its ids must equal the read's. Results,
    /// permutation and the algorithmic counters must agree on all three
    /// throughout.
    #[test]
    fn a_readable_query_is_one_the_writer_would_not_crack(
        data in dataset3(900),
        tau in 2usize..24,
        mode in arb_mode(),
        clusters in 1usize..5,
        per_cluster in 2usize..12,
        volume_exp in 2i32..5,
        chunk in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let universe = Aabb::new([0.0; 3], [106.0; 3]);
        let volume = 10f64.powi(-volume_exp);
        let queries = workload::clustered(&universe, clusters, per_cluster, volume, seed).queries;
        let cfg = QuasiiConfig::with_tau(tau).with_assign_by(mode);
        let mut batched = Quasii::new(data.clone(), cfg.clone());
        let mut single = Quasii::new(data.clone(), cfg.clone());
        let mut writer = Reference::new(data.clone(), &cfg);

        let chunks: Vec<&[Aabb<3>]> = queries.chunks(chunk).collect();
        for (k, batch) in chunks.iter().enumerate() {
            let got = batched.execute_batch(batch);
            for (q, hits) in batch.iter().zip(&got) {
                let one = single.query_collect(q);
                prop_assert_eq!(hits, &one, "batched vs one by one at {:?}", q);
                prop_assert_eq!(&writer.query(q), hits, "writer at {:?}", q);
            }
            prop_assert_eq!(batched.stats(), single.stats());
            prop_assert_eq!(algorithmic(batched.stats()), writer.stats());
            prop_assert_eq!(ids(&batched.records()), ids(writer.records()));
            prop_assert_eq!(ids(&single.records()), ids(writer.records()));
            batched.validate().map_err(|e| TestCaseError::fail(format!("batched: {e}")))?;

            // Reads between the batches: the next batch's queries.
            for q in chunks.get(k + 1).copied().unwrap_or(&[]) {
                if !batched.can_read(q) {
                    continue;
                }
                prop_assert!(single.can_read(q), "one state, one decision");
                let mut read = Vec::new();
                prop_assert!(batched.read(q, &mut read));
                prop_assert!(single.read(q, &mut Vec::new()));
                let before = writer.stats();
                let written = writer.query(q);
                let after = writer.stats();
                prop_assert_eq!(
                    structure(&after), structure(&before),
                    "the writer cracked a readable query {:?}", q
                );
                prop_assert_eq!(&written, &read, "read vs writer at {:?}", q);
                assert_matches_brute_force(&data, q, &read);
                prop_assert_eq!(algorithmic(batched.stats()), after);
            }
        }
        prop_assert_eq!(ids(&batched.records()), ids(writer.records()));
    }
}
