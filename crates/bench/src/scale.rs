//! Experiment scale presets. The paper runs 450 M–1 B objects on a 768 GB
//! server; these presets keep the same workload *shapes* at laptop scale
//! (see DESIGN.md §5 for the substitution argument).

/// Dataset / workload sizes for one harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Preset name.
    pub name: &'static str,
    /// Objects in the neuroscience-like dataset (paper: 450 M).
    pub neuro_n: usize,
    /// Objects in the uniform synthetic dataset (paper: 500 M).
    pub uniform_n: usize,
    /// Query clusters in the clustered workload (paper: 5).
    pub clusters: usize,
    /// Queries per cluster (paper: 100).
    pub per_cluster: usize,
    /// Queries in the uniform workloads of Figs. 10–12 (paper: 10 000 /
    /// 5 000).
    pub uniform_queries: usize,
}

impl Scale {
    /// Smallest preset: keeps every experiment running in well under a
    /// second so smoke tests can exercise the whole harness on each
    /// `cargo test` without slowing the suite down.
    pub const TINY: Scale = Scale {
        name: "tiny",
        neuro_n: 3_000,
        uniform_n: 4_000,
        clusters: 3,
        per_cluster: 8,
        uniform_queries: 40,
    };

    /// Small preset for CI and local smoke runs (seconds).
    pub(crate) const SMALL: Scale = Scale {
        name: "small",
        neuro_n: 60_000,
        uniform_n: 80_000,
        clusters: 5,
        per_cluster: 30,
        uniform_queries: 300,
    };

    /// Default preset (a few minutes in release mode).
    pub const MEDIUM: Scale = Scale {
        name: "medium",
        neuro_n: 1_000_000,
        uniform_n: 1_000_000,
        clusters: 5,
        per_cluster: 100,
        uniform_queries: 2_000,
    };

    /// Closest to the paper that a laptop tolerates.
    pub(crate) const FULL: Scale = Scale {
        name: "full",
        neuro_n: 4_000_000,
        uniform_n: 4_000_000,
        clusters: 5,
        per_cluster: 100,
        uniform_queries: 10_000,
    };

    /// Parses a preset name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Self::TINY),
            "small" => Some(Self::SMALL),
            "medium" => Some(Self::MEDIUM),
            "full" => Some(Self::FULL),
            _ => None,
        }
    }

    /// Clustered workload length.
    pub(crate) fn clustered_queries(&self) -> usize {
        self.clusters * self.per_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [Scale::TINY, Scale::SMALL, Scale::MEDIUM, Scale::FULL] {
            assert_eq!(Scale::parse(s.name), Some(s));
        }
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn presets_are_ordered() {
        let sizes = [
            Scale::TINY.neuro_n,
            Scale::SMALL.neuro_n,
            Scale::MEDIUM.neuro_n,
            Scale::FULL.neuro_n,
        ];
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
        assert_eq!(Scale::MEDIUM.clustered_queries(), 500); // the paper's 5 × 100
    }
}
