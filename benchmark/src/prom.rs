//! Before/after deltas over the program's own Prometheus exposition — the
//! in-process registry for the engine workloads, `GET /metrics` for the
//! served one.

use quasii_obs::registry::{self, Exposition};

/// One parsed scrape.
pub struct Scrape(Exposition);

impl Scrape {
    /// Renders and parses the in-process registry.
    pub fn registry() -> Self {
        Self::parse(&registry::render_prometheus()).expect("the registry renders valid exposition")
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        registry::parse_prometheus(text).map(Self)
    }

    /// Value of the first sample matching `name` and `labels` (0 if absent:
    /// sparse histograms omit empty series).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0.value(name, labels).unwrap_or(0.0)
    }

    /// The label value of the first series of gauge vector `name` that is set.
    pub fn set_label(&self, name: &str, key: &str) -> Option<String> {
        self.0
            .samples
            .iter()
            .find(|s| s.name == name && s.value != 0.0)
            .and_then(|s| s.labels.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    }
}

/// What happened between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of a counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.after.value(name, &[]) - self.before.value(name, &[])
    }

    /// Increase of a histogram's (sum, count).
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> (f64, f64) {
        let part = |suffix: &str| {
            let name = format!("{family}_{suffix}");
            self.after.value(&name, labels) - self.before.value(&name, labels)
        };
        (part("sum"), part("count"))
    }

    /// Mean observation of a histogram over the interval, scaled by `unit`
    /// (1e6 turns seconds into microseconds); 0 with no observations.
    pub fn histogram_mean(&self, family: &str, labels: &[(&str, &str)], unit: f64) -> f64 {
        let (sum, count) = self.histogram(family, labels);
        if count > 0.0 {
            unit * sum / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE quasii_cracks_total counter
quasii_cracks_total 10
# TYPE quasii_server_request_seconds histogram
quasii_server_request_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 4
quasii_server_request_seconds_sum{endpoint=\"query\"} 0.004
quasii_server_request_seconds_count{endpoint=\"query\"} 4
quasii_server_request_seconds_sum{endpoint=\"batch\"} 1
quasii_server_request_seconds_count{endpoint=\"batch\"} 1
";
    const AFTER: &str = "\
# TYPE quasii_cracks_total counter
quasii_cracks_total 25
# TYPE quasii_simd_level gauge
quasii_simd_level{isa=\"avx2\"} 1
# TYPE quasii_server_request_seconds histogram
quasii_server_request_seconds_sum{endpoint=\"query\"} 0.010
quasii_server_request_seconds_count{endpoint=\"query\"} 7
quasii_server_request_seconds_sum{endpoint=\"batch\"} 1
quasii_server_request_seconds_count{endpoint=\"batch\"} 1
";

    #[test]
    fn before_after_delta_of_counters_and_labelled_histograms() {
        let (before, after) = (
            Scrape::parse(BEFORE).unwrap(),
            Scrape::parse(AFTER).unwrap(),
        );
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.counter("quasii_cracks_total"), 15.0);
        assert_eq!(d.counter("quasii_absent_total"), 0.0);
        let q = [("endpoint", "query")];
        let (sum, count) = d.histogram("quasii_server_request_seconds", &q);
        assert!((sum - 0.006).abs() < 1e-12 && count == 3.0);
        let mean_us = d.histogram_mean("quasii_server_request_seconds", &q, 1e6);
        assert!((mean_us - 2000.0).abs() < 1e-6);
        let idle = d.histogram_mean(
            "quasii_server_request_seconds",
            &[("endpoint", "batch")],
            1e6,
        );
        assert_eq!(idle, 0.0);
        assert_eq!(
            after.set_label("quasii_simd_level", "isa").as_deref(),
            Some("avx2")
        );
        assert_eq!(before.set_label("quasii_simd_level", "isa"), None);
    }

    #[test]
    fn the_live_registry_parses() {
        let s = Scrape::registry();
        assert!(s.value("quasii_queries_total", &[]) >= 0.0);
    }
}
