//! Work equality from one change to the next: five fixed shapes that mirror
//! the benchmark's workloads, and the deterministic work each one does,
//! checked cell by cell against the committed table `tests/work.tsv`.
//!
//! Each shape is built only from the public crates (the dataset and
//! workload generators, `Quasii`, `ShardedQuasii`, the snapshot API and the
//! HTTP service) and is a pure function of its seed and operation count,
//! so every cell is the same on every host, under every SIMD level and at
//! every `shard_threads` (the test checks 1, 2 and 4):
//!
//! - `cold_crack`: a fresh engine under clustered queries, one at a time;
//! - `converged_read`: a finalized 2-shard deployment under uniform batches;
//! - `shift_mixed`: a fresh 2-shard deployment under clustered batches,
//!   cluster after cluster, then its (partially sealed) snapshot parts;
//! - `restart`: a finalized 2-shard deployment written to parts, loaded
//!   back, and its first batch;
//! - `service`: one loopback client against a fresh 2-shard deployment,
//!   one request at a time, then `GET /snapshots`.
//!
//! The columns are the `QuasiiStats` work counters, the seal counters, the
//! slice count, the result ids (their total and a `checksum64` of them in
//! order), the snapshot part bytes and a `checksum64` over the parts' sums,
//! and `index_bytes`. A cell a shape cannot observe reads `-` (the service
//! shows its engines only through `/snapshots`).
//!
//! A change that changes work regenerates the table in the same commit and
//! says why. On a mismatch the test writes the recomputed table to
//! `work.tsv` under cargo's `CARGO_TARGET_TMPDIR` and fails with a per-cell
//! diff; regenerating is copying that file over `tests/work.tsv`.

use quasii::{QuasiiStats, SealStats};
use quasii_common::index::SpatialIndex;
use quasii_common::snapshot::checksum64;
use quasii_suite::prelude::*;
use std::fmt::Write as _;

const RECORDS: usize = 20_000;
const DATA_SEED: u64 = 16;
const QVOL: f64 = 1e-3;

/// The table's columns, after the shape name.
const COLUMNS: [&str; 18] = [
    "queries",
    "cracks",
    "records_cracked",
    "slices_created",
    "slices_refined",
    "default_children",
    "forced_refinements",
    "objects_tested",
    "rekeys",
    "records_rekeyed",
    "seals",
    "sealed_queries",
    "slices",
    "result_ids_total",
    "result_ids_sum",
    "part_bytes",
    "part_sum",
    "index_bytes",
];

/// One shape's cells, in [`COLUMNS`] order; `None` prints as `-`.
type Row = [Option<String>; COLUMNS.len()];

fn data() -> Vec<Record<3>> {
    dataset::uniform_boxes::<3>(RECORDS, DATA_SEED)
}

fn universe() -> Aabb<3> {
    dataset::universe::<3>(10_000.0)
}

fn deployment(shard_threads: usize) -> ShardedQuasii<3> {
    let cfg = ShardConfig::default()
        .with_shards(2)
        .with_shard_threads(shard_threads);
    ShardedQuasii::new(data(), cfg)
}

/// What every shape records: counters, seals, slices, answers, parts and
/// index bytes, each `None` until the shape fills it.
#[derive(Default)]
struct Work {
    stats: Option<QuasiiStats>,
    seals: Option<SealStats>,
    slices: Option<usize>,
    ids: Vec<u64>,
    parts: Option<Vec<Vec<u8>>>,
    index_bytes: Option<usize>,
}

impl Work {
    fn answers(&mut self, results: impl IntoIterator<Item = Vec<u64>>) {
        for r in results {
            self.ids.extend(r);
        }
    }

    fn deployment(&mut self, d: &ShardedQuasii<3>) {
        self.stats = Some(d.stats());
        let mut seals = SealStats::default();
        for e in d.engines() {
            let s = e.seal_stats();
            seals.seals += s.seals;
            seals.sealed_queries += s.sealed_queries;
        }
        self.seals = Some(seals);
        self.slices = Some(d.engines().iter().map(Quasii::slice_count).sum());
        self.index_bytes = Some(d.index_bytes());
    }

    fn row(self) -> Row {
        let s = self.stats;
        let stat = |f: fn(&QuasiiStats) -> u64| s.as_ref().map(|s| f(s).to_string());
        let id_bytes: Vec<u8> = self.ids.iter().flat_map(|id| id.to_le_bytes()).collect();
        let part_sums: Option<Vec<u8>> = self.parts.as_ref().map(|parts| {
            parts
                .iter()
                .flat_map(|p| checksum64(p).to_le_bytes())
                .collect()
        });
        [
            stat(|s| s.queries),
            stat(|s| s.cracks),
            stat(|s| s.records_cracked),
            stat(|s| s.slices_created),
            stat(|s| s.slices_refined),
            stat(|s| s.default_children),
            stat(|s| s.forced_refinements),
            stat(|s| s.objects_tested),
            stat(|s| s.rekeys),
            stat(|s| s.records_rekeyed),
            self.seals.map(|s| s.seals.to_string()),
            self.seals.map(|s| s.sealed_queries.to_string()),
            self.slices.map(|n| n.to_string()),
            Some(self.ids.len().to_string()),
            Some(format!("{:#018x}", checksum64(&id_bytes))),
            self.parts
                .as_ref()
                .map(|p| p.iter().map(Vec::len).sum::<usize>().to_string()),
            part_sums.map(|b| format!("{:#018x}", checksum64(&b))),
            self.index_bytes.map(|n| n.to_string()),
        ]
    }
}

/// A fresh engine answering clustered queries one by one.
fn cold_crack() -> Row {
    let queries = workload::clustered(&universe(), 4, 25, QVOL, 161).queries;
    let mut engine = Quasii::new(data(), QuasiiConfig::default());
    let mut w = Work::default();
    for q in &queries {
        let mut out = Vec::new();
        engine.query(q, &mut out);
        w.ids.extend(out);
    }
    w.stats = Some(engine.stats());
    w.seals = Some(engine.seal_stats());
    w.slices = Some(engine.slice_count());
    w.index_bytes = Some(engine.index_bytes());
    w.row()
}

/// A finalized, sealed deployment answering uniform batches of 16.
fn converged_read(shard_threads: usize) -> Row {
    let queries = workload::uniform(&universe(), 160, QVOL, 162).queries;
    let mut d = deployment(shard_threads);
    d.finalize();
    d.seal();
    let mut w = Work::default();
    for batch in queries.chunks(16) {
        w.answers(d.execute_batch(batch));
    }
    w.deployment(&d);
    w.row()
}

/// A fresh deployment answering clustered batches of 8, cluster after
/// cluster, then writing its parts (some root slices still crack).
fn shift_mixed(shard_threads: usize) -> Row {
    let queries = workload::clustered(&universe(), 6, 16, QVOL, 163).queries;
    let mut d = deployment(shard_threads);
    let mut w = Work::default();
    for batch in queries.chunks(8) {
        w.answers(d.execute_batch(batch));
    }
    assert!(d.sealed_fraction() < 1.0, "the parts are partially sealed");
    w.parts = Some(d.write_snapshot_parts().expect("write").1);
    w.deployment(&d);
    w.row()
}

/// A finalized deployment written to parts, loaded back, and the first
/// batch of 16 uniform queries on the loaded one.
fn restart(shard_threads: usize) -> Row {
    let queries = workload::uniform(&universe(), 16, QVOL, 164).queries;
    let mut d = deployment(shard_threads);
    d.finalize();
    d.seal();
    let (manifest, parts) = d.write_snapshot_parts().expect("write");
    let mut loaded =
        ShardedQuasii::<3>::from_snapshot_parts(&manifest, parts.clone()).expect("load");
    let mut w = Work::default();
    w.answers(loaded.execute_batch(&queries));
    w.parts = Some(parts);
    w.deployment(&loaded);
    w.row()
}

fn query_target(q: &Aabb<3>) -> String {
    format!(
        "/query?lo={},{},{}&hi={},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

/// The ids of every `[…]` array in `body`, in order.
fn id_arrays(body: &str) -> Vec<u64> {
    let mut ids = Vec::new();
    for part in body.split('[').skip(1) {
        if let Some(end) = part.find(']') {
            ids.extend(
                part[..end]
                    .split(',')
                    .filter_map(|t| t.trim().parse::<u64>().ok()),
            );
        }
    }
    ids
}

/// The sum of every `"key":N` field in `body`.
fn field_sum(body: &str, key: &str) -> usize {
    let pat = format!("\"{key}\":");
    body.match_indices(&pat)
        .map(|(at, _)| {
            let digits: String = body[at + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<usize>().expect("a count")
        })
        .sum()
}

/// One client, one request at a time: 24 single queries, one batch of 16,
/// then the deployment as `/snapshots` shows it.
fn service() -> Row {
    let queries = workload::clustered(&universe(), 5, 8, QVOL, 165).queries;
    let handle = quasii_server::start(deployment(0), "127.0.0.1:0", ServeConfig::default())
        .expect("bind a loopback port");
    let mut client = minihttp::Client::connect(handle.addr()).expect("connect");
    let mut w = Work::default();
    for q in &queries[..24] {
        let r = client.get(&query_target(q)).expect("GET /query");
        assert_eq!(r.status, 200, "{}", r.text());
        w.ids.extend(id_arrays(&r.text()));
    }
    let body: Vec<String> = queries[24..]
        .iter()
        .map(|q| {
            format!(
                "{},{},{},{},{},{}",
                q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
            )
        })
        .collect();
    let r = client
        .post("/batch", "text/plain", body.join("\n").as_bytes())
        .expect("POST /batch");
    assert_eq!(r.status, 200, "{}", r.text());
    w.ids.extend(id_arrays(&r.text()));
    let snaps = client.get("/snapshots").expect("GET /snapshots").text();
    let detail = &snaps[snaps.find("\"shard_detail\"").expect("shard detail")..];
    w.slices = Some(field_sum(detail, "slices"));
    w.index_bytes = Some(field_sum(detail, "index_bytes"));
    handle.shutdown();
    let mut row = w.row();
    row[0] = Some(field_sum(detail, "queries").to_string());
    row
}

/// The shapes whose deployment runs shard jobs, at `shard_threads`.
fn threaded(shard_threads: usize) -> Vec<(&'static str, Row)> {
    vec![
        ("converged_read", converged_read(shard_threads)),
        ("shift_mixed", shift_mixed(shard_threads)),
        ("restart", restart(shard_threads)),
    ]
}

fn render(rows: &[(&str, Row)]) -> String {
    let mut out = format!("shape\t{}\n", COLUMNS.join("\t"));
    for (shape, row) in rows {
        out.push_str(shape);
        for cell in row {
            write!(out, "\t{}", cell.as_deref().unwrap_or("-")).expect("a String");
        }
        out.push('\n');
    }
    out
}

/// Every cell where `got` and `want` differ, as `shape.column: want -> got`,
/// and the lines only one of them has.
fn diff(want: &str, got: &str) -> Vec<String> {
    let cells = |t: &str| -> Vec<Vec<String>> {
        t.lines()
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect()
    };
    let (want, got) = (cells(want), cells(got));
    let header = &got[0];
    let mut out = Vec::new();
    for i in 0..want.len().max(got.len()) {
        match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) if w == g => {}
            (Some(w), Some(g)) => {
                for c in 0..w.len().max(g.len()) {
                    let (wc, gc) = (w.get(c), g.get(c));
                    if wc != gc {
                        let name = header.get(c).map_or("?", String::as_str);
                        out.push(format!(
                            "{}.{name}: {} -> {}",
                            g[0],
                            wc.map_or("(none)", String::as_str),
                            gc.map_or("(none)", String::as_str)
                        ));
                    }
                }
            }
            (Some(w), None) => out.push(format!("line {i} only in tests/work.tsv: {w:?}")),
            (None, Some(g)) => out.push(format!("line {i} only recomputed: {g:?}")),
            (None, None) => {}
        }
    }
    out
}

#[test]
fn the_work_of_every_shape_matches_tests_work_tsv() {
    let single = threaded(1);
    for t in [2, 4] {
        let again = threaded(t);
        assert_eq!(
            render(&again),
            render(&single),
            "work depends on shard_threads {t}"
        );
    }
    let mut rows = vec![("cold_crack", cold_crack())];
    rows.extend(single);
    rows.push(("service", service()));
    let got = render(&rows);
    let want = include_str!("work.tsv");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("work.tsv");
        std::fs::write(&path, &got).expect("write the recomputed table");
        panic!(
            "the work differs from tests/work.tsv (recomputed table: {}):\n{}",
            path.display(),
            diff(want, &got).join("\n")
        );
    }
}
