//! `BENCHMARK.json`, embedded at build time: the one place that names
//! the workloads and gives every metric its unit, direction and bound.

use serde::Deserialize;

/// The repository's `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// How far the metric may move the wrong way, as a share of the
    /// parent's median (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// Whether larger values are better.
    #[must_use]
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// One declared workload.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name.
    pub name: String,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Declared workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Metrics of a run with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The embedded spec.
    ///
    /// # Panics
    ///
    /// If the embedded `BENCHMARK.json` does not parse: the build
    /// itself is broken.
    #[must_use]
    pub fn embedded() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The metrics of one phase: per-layer when `traced`.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn spec_declares_exactly_the_harness_workloads() {
        let spec = Spec::embedded();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }
}
