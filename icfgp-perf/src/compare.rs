//! Results files and `icfgp-perf compare`.

use crate::spec::{Metric, Spec};
use crate::stats::{median, spread};
use crate::Phase;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One workload's results within a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The end-to-end phase, when it ran.
    pub e2e: Option<Phase>,
    /// The traced phase, when it ran.
    pub layers: Option<Phase>,
}

/// One `icfgp-perf run`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Run {
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Available parallelism of the machine that ran it.
    pub nproc: usize,
    /// The workload seed.
    pub seed: u64,
    /// Measuring time per phase, in seconds.
    pub seconds: f64,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// A results file: every run appended to it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultsFile {
    /// Runs in the order they were made.
    pub runs: Vec<Run>,
}

impl ResultsFile {
    /// Read a results file.
    ///
    /// # Errors
    ///
    /// Reading or parsing fails.
    pub fn read(path: &std::path::Path) -> Result<ResultsFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counts that depend only on the inputs, so they must repeat exactly
/// across runs, seeds and commits that do not change them.
/// `net.server_requests` is not one: when a flush outlives the server's
/// lease, the renewals and re-sent PUTs it adds depend on timing (seen
/// on the cold workloads, whose remote flush takes seconds).
pub const DETERMINISTIC: [&str; 11] = [
    "cfg.funcs",
    "cfg.blocks",
    "cfg.jump_tables",
    "cfg.failed_funcs",
    "core.trampolines",
    "emu.cycles_orig",
    "emu.cycles_rw",
    "emu.traps",
    "emu.icache_misses",
    "store.get_calls",
    "net.get_calls",
];

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows, with spreads inside the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and the change's
    /// runs do not all read better than the parent's.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against parent runs `a` for one metric.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], m: &Metric) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let worse_by = |from: f64, to: f64| {
        if m.higher_is_better() {
            from - to
        } else {
            to - from
        }
    };
    if spread(a) > bound || spread(b) > bound {
        let better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
        return if better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 {
        worse_by(ma, mb).signum()
    } else {
        worse_by(ma, mb) / ma.abs()
    };
    if change > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Values of `metric` in the `e2e` (or traced) phase of workload
/// `name`, one per run that measured it.
fn values(runs: &[Run], name: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| &r.workloads)
        .filter(|w| w.name == name)
        .filter_map(|w| {
            if traced {
                w.layers.as_ref()
            } else {
                w.e2e.as_ref()
            }
        })
        .filter_map(|p| p.metrics.get(metric).copied())
        .collect()
}

/// Compare candidate `b` against parent `a`: every workload × end-to-end
/// metric by its direction and bound, every failed request, and every
/// [`DETERMINISTIC`] count. Returns the report and whether nothing
/// regressed or drifted.
#[must_use]
pub fn compare(spec: &Spec, a: &ResultsFile, b: &ResultsFile) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    for w in &spec.workloads {
        let name = w.name.as_str();
        for m in &spec.end_to_end {
            let (va, vb) = (
                values(&a.runs, name, false, &m.name),
                values(&b.runs, name, false, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m);
            clean &= v != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            let _ = writeln!(
                out,
                "{name:<17} {:<18} {ma:>12.4} -> {mb:>12.4} {:<7} {:>+8.2}%  spread {:>5.1}%/{:>5.1}%  bound {:>5.2}%  {}",
                m.name,
                m.unit,
                if ma == 0.0 { 0.0 } else { 100.0 * (mb - ma) / ma.abs() },
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * m.bound.unwrap_or(0.0),
                v.word(),
            );
        }
        let failed: u64 = b
            .runs
            .iter()
            .flat_map(|r| &r.workloads)
            .filter(|x| x.name == name)
            .flat_map(|x| x.e2e.iter().chain(&x.layers))
            .map(|p| p.failed)
            .sum();
        if failed > 0 {
            clean = false;
            let _ = writeln!(
                out,
                "{name:<17} {failed} failed request(s) or pass(es)  regressed"
            );
        }
        for count in DETERMINISTIC {
            let mut seen = values(&a.runs, name, true, count);
            seen.extend(values(&b.runs, name, true, count));
            if seen.windows(2).any(|p| p[0] != p[1]) {
                clean = false;
                let _ = writeln!(out, "{name:<17} {count:<18} does not repeat: {seen:?}");
            }
        }
    }
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn run(seed: u64, p50: f64) -> Run {
        let spec = Spec::embedded();
        let workloads = spec
            .workloads
            .iter()
            .map(|w| {
                let mut metrics: BTreeMap<String, f64> = spec
                    .end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), 10.0))
                    .collect();
                metrics.insert("latency_ms_p50".into(), p50);
                WorkloadResult {
                    name: w.name.clone(),
                    e2e: Some(Phase {
                        attempted: 100,
                        failed: 0,
                        metrics,
                    }),
                    layers: None,
                }
            })
            .collect();
        Run {
            commit: "test".into(),
            nproc: 2,
            seed,
            seconds: 1.0,
            workloads,
        }
    }

    #[test]
    fn twenty_percent_slower_p50_is_regressed() {
        let spec = Spec::embedded();
        let parent = ResultsFile {
            runs: vec![run(1, 100.0), run(2, 101.0), run(3, 99.0)],
        };
        let slower = ResultsFile {
            runs: vec![run(1, 120.0), run(2, 121.2), run(3, 118.8)],
        };
        let (report, clean) = compare(&spec, &parent, &slower);
        assert!(!clean, "{report}");
        let p50: Vec<&str> = report
            .lines()
            .filter(|l| l.contains("latency_ms_p50"))
            .collect();
        assert_eq!(p50.len(), spec.workloads.len());
        assert!(p50.iter().all(|l| l.ends_with("regressed")), "{report}");
        let rest = report.lines().filter(|l| !l.contains("latency_ms_p50"));
        assert!(rest.clone().all(|l| l.ends_with(" ok")), "{report}");
        let (_, clean) = compare(&spec, &parent, &parent);
        assert!(clean);
    }

    #[test]
    fn a_drifting_count_is_flagged() {
        let spec = Spec::embedded();
        let with_count = |n: f64| {
            let mut r = run(1, 100.0);
            r.workloads[0].layers = Some(Phase {
                attempted: 1,
                failed: 0,
                metrics: BTreeMap::from([("cfg.funcs".into(), n)]),
            });
            ResultsFile { runs: vec![r] }
        };
        assert!(compare(&spec, &with_count(5.0), &with_count(5.0)).1);
        let (report, clean) = compare(&spec, &with_count(5.0), &with_count(6.0));
        assert!(!clean && report.contains("cfg.funcs"), "{report}");
    }
}
