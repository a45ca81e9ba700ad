//! One module per paper figure. [`Harness`] caches the shared
//! neuroscience-workload run (Figs. 7, 8 and 9 analyze the same execution
//! from different angles, exactly like the paper).

pub(crate) mod ablation;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub(crate) mod fig6;
pub(crate) mod fig7_9;
pub(crate) mod summary;

use crate::runner::Approach;
use crate::scale::Scale;
use crate::OutputDir;
use quasii_common::dataset;
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::measure::RunSeries;
use quasii_common::workload;

/// Experiment identifiers accepted by the `repro` binary.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "summary",
];

/// Seed of the neuroscience-like dataset generator.
pub(crate) const NEURO_DATA_SEED: u64 = 42;
/// Seed of the uniform synthetic dataset generator.
pub(crate) const UNIFORM_DATA_SEED: u64 = 43;
/// Seed of the clustered neuro query workload.
pub(crate) const NEURO_WORKLOAD_SEED: u64 = 7;

/// The shared clustered-neuroscience execution (dataset §6.1, 5 clusters ×
/// 100 queries, qvol 10⁻² %), with one series per approach.
pub(crate) struct NeuroRun {
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
pub(crate) fn neuro_approaches(grid_parts: usize) -> Vec<Approach> {
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
pub(crate) fn grid_parts_for(n: usize, skewed: bool) -> usize {
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
    neuro: Option<NeuroRun>,
}

impl Harness {
    /// Creates a harness.
    pub fn new(scale: Scale, out: OutputDir) -> Self {
        Self {
            scale,
            out,
            neuro: None,
        }
    }

    /// The neuroscience-like dataset at the current scale.
    pub(crate) fn neuro_data(&self) -> Vec<Record<3>> {
        dataset::neuro_like::<3>(self.scale.neuro_n, NEURO_DATA_SEED)
    }

    /// The uniform synthetic dataset at the current scale.
    pub(crate) fn uniform_data(&self) -> Vec<Record<3>> {
        dataset::uniform_boxes::<3>(self.scale.uniform_n, UNIFORM_DATA_SEED)
    }

    /// Read access to the cached neuro execution (call
    /// [`ensure_neuro`](Self::ensure_neuro) first).
    pub(crate) fn neuro(&self) -> &NeuroRun {
        self.neuro.as_ref().expect("ensure_neuro must run first")
    }

    /// Runs the clustered-neuro execution unless already cached.
    pub(crate) fn ensure_neuro(&mut self) {
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
            self.neuro = Some(NeuroRun {
                data,
                queries: w.queries,
                series,
                grid_parts,
            });
        }
    }

    /// Dispatches one experiment by id. `Err` names an id this harness does
    /// not know, or the band a `summary` headline left.
    pub fn run(&mut self, name: &str) -> Result<(), String> {
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
            "summary" => return summary::run(self),
            other => {
                return Err(format!(
                    "unknown experiment '{other}' (known: {ALL_EXPERIMENTS:?} or 'all')"
                ))
            }
        }
        Ok(())
    }
}

/// Cross-checks that every approach returned identical result cardinalities
/// — a full end-to-end correctness gate embedded in the harness itself.
pub(crate) fn verify_agreement(series: &[RunSeries]) {
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

/// Finds a series of the neuro run by name.
pub(crate) fn series<'a>(run: &'a NeuroRun, name: &str) -> &'a RunSeries {
    find_series(&run.series, name)
}

/// Finds a series by name (panics if missing — ids are internal).
pub(crate) fn find_series<'a>(series: &'a [RunSeries], name: &str) -> &'a RunSeries {
    series
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
