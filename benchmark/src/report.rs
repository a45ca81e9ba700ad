//! `BENCHMARK.json` as the one catalogue of metric names, and the report a
//! run fills in against it. A workload sets values by name; the catalogue
//! supplies units, refuses names it does not list, and fixes which metrics
//! a run prints, so the documented and the printed metrics cannot drift.

use crate::json::{escape, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One metric of the catalogue.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    /// `BENCHMARK.json` of the checkout: in the working directory (the
    /// driver runs from the checkout's root), else beside this package.
    pub fn locate() -> PathBuf {
        let cwd = PathBuf::from("BENCHMARK.json");
        if cwd.is_file() {
            cwd
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        }
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("'{key}' must be a list"))
        };
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a metric lacks '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("'run_seconds' must be a number")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn printed(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One row of a reconciliation table.
#[derive(Clone, Debug)]
pub struct ReconRow {
    pub label: String,
    pub value: f64,
}

/// What one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Ops and answer checks attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, for the human-readable part of the output.
    pub failures: Vec<String>,
    /// Layer rows on the blocking path, then the end-to-end figure last.
    pub recon: Vec<ReconRow>,
    pub recon_unit: &'static str,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Takes over every value of `other`.
    pub fn absorb(&mut self, other: &Report) {
        self.values
            .extend(other.values.iter().map(|(k, v)| (k.clone(), *v)));
    }

    /// Names set so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Counts one attempted check and records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed op or check (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Layer rows that should add up to `end_to_end`; the unexplained
    /// residue becomes a row of its own when the table is printed.
    pub fn reconcile(
        &mut self,
        unit: &'static str,
        layers: &[(&str, f64)],
        end_to_end: (&str, f64),
    ) {
        self.recon_unit = unit;
        self.recon = layers
            .iter()
            .chain(std::iter::once(&end_to_end))
            .map(|(label, value)| ReconRow {
                label: label.to_string(),
                value: *value,
            })
            .collect();
    }

    /// The values to print, in catalogue order. A per-layer metric a
    /// workload does not exercise reads 0 (for instance `core.crack.cracks`
    /// on a converged index); a missing end-to-end metric or a name the
    /// catalogue does not list is an error.
    pub fn printed<'m>(
        &self,
        manifest: &'m Manifest,
        trace: bool,
    ) -> Result<Vec<(&'m MetricDef, f64)>, String> {
        let known = |n: &str| {
            manifest
                .end_to_end
                .iter()
                .chain(&manifest.per_layer)
                .any(|m| m.name == n)
        };
        if let Some(stray) = self.names().find(|n| !known(n)) {
            return Err(format!("metric '{stray}' is not in BENCHMARK.json"));
        }
        manifest
            .printed(trace)
            .iter()
            .map(|def| match self.get(&def.name) {
                Some(v) if v.is_finite() => Ok((def, v)),
                Some(v) => Err(format!("metric '{}' is {v}", def.name)),
                None if trace => Ok((def, 0.0)),
                None => Err(format!("end-to-end metric '{}' was not measured", def.name)),
            })
            .collect()
    }

    /// The result line the driver reads.
    pub fn result_line(&self, printed: &[(&MetricDef, f64)]) -> String {
        let metrics: Vec<String> = printed
            .iter()
            .map(|(def, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    escape(&def.name),
                    escape(&def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The reconciliation table, with sum and residue rows.
    pub fn recon_table(&self) -> String {
        let Some((total, layers)) = self.recon.split_last() else {
            return String::new();
        };
        let sum: f64 = layers.iter().map(|r| r.value).sum();
        let mut out = format!("reconciliation ({}):\n", self.recon_unit);
        let mut row = |label: &str, v: f64| {
            let share = if total.value != 0.0 {
                100.0 * v / total.value
            } else {
                0.0
            };
            out.push_str(&format!("  {label:<44} {v:>14.3} {share:>7.1} %\n"));
        };
        for r in layers {
            row(&r.label, r.value);
        }
        row("sum of layer rows", sum);
        row(&format!("{} (end to end)", total.label), total.value);
        row("unexplained residue", total.value - sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 3,
        "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.count", "unit": "count", "better": "lower"},
                      {"name": "l.other", "unit": "us", "better": "lower"}]
    }"#;

    #[test]
    fn catalogue_fixes_what_a_run_prints() {
        let m = Manifest::parse(DOC).unwrap();
        assert_eq!((m.run_seconds, m.workloads.len()), (3, 2));
        assert_eq!(m.end_to_end[0].bound, Some(0.25));
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.set("l.count", 12.0);
        r.attempted = 4;
        let e2e = r.printed(&m, false).unwrap();
        assert_eq!(e2e.len(), 1);
        let layers = r.printed(&m, true).unwrap();
        assert_eq!(
            layers.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            [12.0, 0.0]
        );
        let line = r.result_line(&layers);
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(4.0));
        let metrics = back.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[0].1.get("unit").and_then(Json::as_str),
            Some("count")
        );
    }

    #[test]
    fn stray_missing_and_non_finite_metrics_are_errors() {
        let m = Manifest::parse(DOC).unwrap();
        let mut r = Report::default();
        assert!(r.printed(&m, false).unwrap_err().contains("setup_s"));
        r.set("setup_s", f64::NAN);
        assert!(r.printed(&m, false).is_err());
        r.set("setup_s", 1.0);
        r.set("typo", 1.0);
        assert!(r.printed(&m, true).unwrap_err().contains("typo"));
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let m = Manifest::parse(DOC).unwrap();
        let mut r = Report::default();
        r.set("setup_s", 1.25);
        r.check(true, || unreachable!());
        r.check(false, || "answer differs".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        let line = r.result_line(&r.printed(&m, false).unwrap());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn reconciliation_shows_the_residue_as_a_row() {
        let mut r = Report::default();
        r.reconcile("us", &[("a", 30.0), ("b", 50.0)], ("op_p50_us", 100.0));
        let t = r.recon_table();
        assert!(t.contains("sum of layer rows"));
        let residue = t
            .lines()
            .find(|l| l.contains("unexplained residue"))
            .unwrap();
        assert!(
            residue.contains("20.000") && residue.contains("20.0 %"),
            "{residue}"
        );
    }
}
