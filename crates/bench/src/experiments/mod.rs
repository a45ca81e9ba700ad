//! One module per paper figure. [`Harness`] caches the shared
//! neuroscience-workload run (Figs. 7, 8 and 9 analyze the same execution
//! from different angles, exactly like the paper).

pub mod ablation;
pub mod converged;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7_9;
pub mod scaling;
pub mod service;
pub mod sharding;
pub mod summary;
pub mod warm_start;

use crate::runner::Approach;
use crate::scale::Scale;
use crate::OutputDir;
use quasii::{AssignBy, SimdPolicy};
use quasii_common::dataset;
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_common::measure::RunSeries;
use quasii_common::workload;
use quasii_obs as obs;

/// Experiment identifiers accepted by the `repro` binary.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablation",
    "scaling",
    "sharding",
    "service",
    "converged",
    "warm_start",
    "summary",
];

/// Seed of the neuroscience-like dataset generator.
pub const NEURO_DATA_SEED: u64 = 42;
/// Seed of the uniform synthetic dataset generator.
pub const UNIFORM_DATA_SEED: u64 = 43;
/// Seed of the clustered neuro query workload.
pub const NEURO_WORKLOAD_SEED: u64 = 7;

/// CIDR-2007-style per-query cumulative crack-cost curve: runs `queries`
/// one at a time with tracing armed and drains the trace ring after each,
/// summing the `Crack { records }` events that query emitted. Each CSV row
/// is `query, records cracked by it, cumulative records cracked` — the
/// classic cracking plot of indexing effort decaying as the structure
/// converges. Tracing is torn down before returning, so the measured runs
/// that follow stay untouched.
pub(crate) fn crack_cost_curve<I: SpatialIndex<3>>(index: &mut I, queries: &[Aabb<3>]) -> String {
    obs::trace::enable(1 << 16, 1);
    let mut csv = String::from("query,records_cracked,cumulative_records_cracked\n");
    let mut cumulative = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let mut out = Vec::new();
        index.query(q, &mut out);
        let cost: u64 = obs::trace::drain()
            .iter()
            .map(|(_, e)| match e {
                obs::trace::TraceEvent::Crack { records } => *records,
                _ => 0,
            })
            .sum();
        cumulative += cost;
        csv.push_str(&format!("{},{cost},{cumulative}\n", i + 1));
    }
    obs::trace::disable();
    csv
}

/// One row of the machine-readable report `repro --json` emits: either an
/// experiment's wall time (series `"(wall)"`) or one measured series inside
/// an experiment.
#[derive(Clone, Debug)]
pub struct JsonRecord {
    /// Experiment id (`fig7`, `scaling`, …).
    pub experiment: String,
    /// Series name within the experiment, or `"(wall)"`.
    pub series: String,
    /// Build (pre-processing) seconds; 0 for incremental indexes.
    pub build_secs: f64,
    /// Total wall-clock seconds (build + queries, or the experiment wall).
    pub total_secs: f64,
    /// Mean per-query seconds over the converged tail (0 when not
    /// meaningful for the row).
    pub tail_mean_secs: f64,
    /// Total result cardinality over the series' queries.
    pub results: u64,
}

/// The shared clustered-neuroscience execution (dataset §6.1, 5 clusters ×
/// 100 queries, qvol 10⁻² %), with one series per approach.
pub struct NeuroRun {
    /// The dataset the run used.
    pub data: Vec<Record<3>>,
    /// The query sequence.
    pub queries: Vec<Aabb<3>>,
    /// One series per approach, in [`NEURO_APPROACHES`] order.
    pub series: Vec<RunSeries>,
    /// Grid partitions/dimension used for the Grid baseline.
    pub grid_parts: usize,
}

/// Order of approaches inside [`NeuroRun::series`].
pub fn neuro_approaches(grid_parts: usize) -> Vec<Approach> {
    vec![
        Approach::Scan,
        Approach::Sfc,
        Approach::SfCracker,
        Approach::Grid(grid_parts),
        Approach::Mosaic,
        Approach::RTree,
        Approach::Quasii,
    ]
}

/// Grid partitions-per-dimension heuristic: ≈ cell count ~ n for uniform
/// data, finer for skew (mirrors the paper's sweep outcomes: 100 vs 220).
pub fn grid_parts_for(n: usize, skewed: bool) -> usize {
    let base = (n as f64).cbrt().round() as usize;
    let p = if skewed { base * 2 } else { base };
    p.clamp(8, 256)
}

/// Everything the experiments need, with the neuro run cached.
pub struct Harness {
    /// Active scale preset.
    pub scale: Scale,
    /// CSV sink.
    pub out: OutputDir,
    /// Worker-thread override from `repro --threads` (0 = auto): the
    /// `scaling` and `sharding` experiments add it to their sweeps, and it
    /// is recorded in the JSON report so perf numbers carry their
    /// configuration.
    pub threads: usize,
    /// Shard-count override from `repro --shards` (0 = default sweep): the
    /// `sharding` experiment adds it to its sweep; recorded in the JSON
    /// report.
    pub shards: usize,
    /// QUASII assignment coordinate from `repro --assign-by` (paper
    /// default: lower). The `scaling` and `sharding` experiments build
    /// every engine with it — center/upper are the modes where the cached
    /// key column saves the most work — and it is recorded in the JSON
    /// report so the file carries its configuration.
    pub assign_by: AssignBy,
    /// SIMD kernel-dispatch policy from `repro --simd` (default: auto —
    /// `QUASII_SIMD` env override, then runtime CPU detection). Every
    /// QUASII engine the experiments build uses it; the *resolved* ISA is
    /// recorded in the JSON report so perf numbers name the kernel
    /// generation that produced them.
    pub simd: SimdPolicy,
    neuro: Option<NeuroRun>,
    records: Vec<JsonRecord>,
}

impl Harness {
    /// Creates a harness.
    pub fn new(scale: Scale, out: OutputDir) -> Self {
        Self {
            scale,
            out,
            threads: 0,
            shards: 0,
            assign_by: AssignBy::default(),
            simd: SimdPolicy::default(),
            neuro: None,
            records: Vec::new(),
        }
    }

    /// Appends one row to the machine-readable report.
    pub fn record(&mut self, rec: JsonRecord) {
        self.records.push(rec);
    }

    /// Renders every recorded row as the `repro --json` document. The
    /// leading `config` object embeds the full run configuration (scale
    /// preset with its sizes, thread/shard overrides, generator seeds) so a
    /// report is self-describing: two reports are comparable iff their
    /// `config` objects match.
    /// The run configuration as a JSON object — embedded at the top of
    /// [`json_report`](Self::json_report) and (as a `# config` comment) in
    /// `--metrics-out` dumps, so every artifact names the run that made it.
    pub fn config_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        format!(
            "{{\"scale\": \"{}\", \"neuro_n\": {}, \"uniform_n\": {}, \"clusters\": {}, \"per_cluster\": {}, \"uniform_queries\": {}, \"threads\": {}, \"shards\": {}, \"assign_by\": \"{}\", \"simd\": \"{}\", \"seeds\": {{\"neuro_data\": {}, \"uniform_data\": {}, \"neuro_workload\": {}, \"scaling_workload\": {}, \"sharding_workload\": {}, \"service_workload\": {}, \"converged_warmup\": {}, \"converged_workload\": {}, \"warm_start_warmup\": {}, \"warm_start_workload\": {}}}}}",
            esc(self.scale.name),
            self.scale.neuro_n,
            self.scale.uniform_n,
            self.scale.clusters,
            self.scale.per_cluster,
            self.scale.uniform_queries,
            self.threads,
            self.shards,
            esc(self.assign_by.name()),
            esc(self.simd.resolve().name()),
            NEURO_DATA_SEED,
            UNIFORM_DATA_SEED,
            NEURO_WORKLOAD_SEED,
            scaling::WORKLOAD_SEED,
            sharding::WORKLOAD_SEED,
            service::WORKLOAD_SEED,
            converged::WARMUP_SEED,
            converged::WORKLOAD_SEED,
            warm_start::WARMUP_SEED,
            warm_start::WORKLOAD_SEED,
        )
    }

    /// The machine-readable per-experiment timing report `repro --json`
    /// writes: the full run configuration followed by one record per
    /// measured series (see [`JsonRecord`]).
    pub fn json_report(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = format!(
            "{{\n  \"config\": {},\n  \"records\": [",
            self.config_json()
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"experiment\": \"{}\", \"series\": \"{}\", \
                 \"build_secs\": {:.9}, \"total_secs\": {:.9}, \
                 \"tail_mean_secs\": {:.9}, \"results\": {}}}",
                esc(&r.experiment),
                esc(&r.series),
                r.build_secs,
                r.total_secs,
                r.tail_mean_secs,
                r.results
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The neuroscience-like dataset at the current scale.
    pub fn neuro_data(&self) -> Vec<Record<3>> {
        dataset::neuro_like::<3>(self.scale.neuro_n, NEURO_DATA_SEED)
    }

    /// The uniform synthetic dataset at the current scale.
    pub fn uniform_data(&self) -> Vec<Record<3>> {
        dataset::uniform_boxes::<3>(self.scale.uniform_n, UNIFORM_DATA_SEED)
    }

    /// Read access to the cached neuro execution (call
    /// [`ensure_neuro`](Self::ensure_neuro) first).
    pub fn neuro(&self) -> &NeuroRun {
        self.neuro.as_ref().expect("ensure_neuro must run first")
    }

    /// Runs the clustered-neuro execution unless already cached.
    pub fn ensure_neuro(&mut self) {
        if self.neuro.is_none() {
            eprintln!(
                "[setup] neuro-like dataset: {} objects, {} clustered queries (qvol 0.01%)",
                self.scale.neuro_n,
                self.scale.clustered_queries()
            );
            let data = self.neuro_data();
            let universe = mbb_of(&data);
            let w = workload::clustered(
                &universe,
                self.scale.clusters,
                self.scale.per_cluster,
                1e-4,
                NEURO_WORKLOAD_SEED,
            );
            let grid_parts = grid_parts_for(data.len(), true);
            let approaches = neuro_approaches(grid_parts);
            let series = crate::runner::run_all(&approaches, &data, &w.queries);
            verify_agreement(&series);
            for s in &series {
                self.records.push(JsonRecord {
                    experiment: "neuro".into(),
                    series: s.name.clone(),
                    build_secs: s.build_secs,
                    total_secs: s.total_secs(),
                    tail_mean_secs: s.tail_mean_secs(25),
                    results: s.result_counts.iter().map(|&c| c as u64).sum(),
                });
            }
            self.neuro = Some(NeuroRun {
                data,
                queries: w.queries,
                series,
                grid_parts,
            });
        }
    }

    /// Dispatches one experiment by id, recording its wall time in the
    /// JSON report.
    pub fn run(&mut self, name: &str) -> Result<(), String> {
        let t = std::time::Instant::now();
        match name {
            "fig6a" => fig6::run_a(self),
            "fig6b" => fig6::run_b(self),
            "fig7" => fig7_9::run_fig7(self),
            "fig8" => fig7_9::run_fig8(self),
            "fig9" => fig7_9::run_fig9(self),
            "fig10" => fig10::run(self),
            "fig11" => fig11::run_exp(self),
            "fig12" => fig12::run_exp(self),
            "ablation" => ablation::run_exp(self),
            "scaling" => scaling::run_exp(self),
            "sharding" => sharding::run_exp(self),
            "service" => service::run_exp(self),
            "converged" => converged::run_exp(self),
            "warm_start" => warm_start::run_exp(self),
            "summary" => summary::run(self),
            other => return Err(format!("unknown experiment '{other}'")),
        }
        self.records.push(JsonRecord {
            experiment: name.into(),
            series: "(wall)".into(),
            build_secs: 0.0,
            total_secs: t.elapsed().as_secs_f64(),
            tail_mean_secs: 0.0,
            results: 0,
        });
        Ok(())
    }
}

/// Cross-checks that every approach returned identical result cardinalities
/// — a full end-to-end correctness gate embedded in the harness itself.
pub fn verify_agreement(series: &[RunSeries]) {
    let Some(first) = series.first() else { return };
    for s in &series[1..] {
        assert_eq!(
            s.result_counts, first.result_counts,
            "{} and {} disagree on query results",
            s.name, first.name
        );
    }
    eprintln!(
        "[check] all {} approaches agree on {} query result sizes",
        series.len(),
        first.result_counts.len()
    );
}

/// Finds a series by name (panics if missing — ids are internal).
pub fn series<'a>(run: &'a NeuroRun, name: &str) -> &'a RunSeries {
    run.series
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("series '{name}' missing"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_dispatch() {
        // Unknown ids are rejected without side effects.
        let out = OutputDir::new(std::env::temp_dir().join("quasii-bench-test")).unwrap();
        let mut h = Harness::new(Scale::SMALL, out);
        assert!(h.run("figNaN").is_err());
    }

    #[test]
    fn grid_parts_heuristic() {
        assert!(grid_parts_for(1_000_000, true) > grid_parts_for(1_000_000, false));
        assert!(grid_parts_for(10, false) >= 8);
        assert!(grid_parts_for(usize::MAX / 2, true) <= 256);
    }
}
