//! `icfgp-perf`: see the library docs for workloads, metrics and usage.

use icfgp_perf::compare::{compare, ResultsFile, Run, WorkloadResult};
use icfgp_perf::icfgp::{self, Icfgp};
use icfgp_perf::spec::{Metric, Spec};
use icfgp_perf::workload::Workload;
use icfgp_perf::{calib, e2e, layers, repo_root, target_dir, Phase};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: icfgp-perf [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [-o FILE]
       icfgp-perf compare PARENT.json CANDIDATE.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        // Internal: the helper every measured child is started from, and
        // the body of one calibration sample.
        Some("spawner") => icfgp::spawner_main().map(|()| 0).map_err(|e| e.to_string()),
        Some("calibrate") => {
            calib::run();
            Ok(0)
        }
        None => cmd_run(&[]),
        Some(flag) if flag.starts_with("--") => cmd_run(&args),
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("icfgp-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Options of `run`.
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None` runs both phases.
    traced: Option<bool>,
    results: Option<PathBuf>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        traced: None,
        results: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workloads
                    .push(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => run.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                run.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "-o" => run.results = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = Workload::ALL.to_vec();
    }
    Ok(run)
}

/// Build the `icfgp` release binary from source into the target
/// directory and return its path.
fn build_icfgp(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--bin", "icfgp"])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building icfgp failed: {status}"));
    }
    Ok(target.join("release").join("icfgp"))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn cmd_run(args: &[String]) -> Result<u8, String> {
    let spec = Spec::embedded();
    let run = parse_run(args, &spec)?;
    let target = target_dir();
    // Started first, while this process is still small: see `Icfgp`.
    let icfgp = Icfgp::start(build_icfgp(&target)?)?;
    let out = target.join("icfgp-perf");
    let mut results = Vec::new();
    for &w in &run.workloads {
        let work = out.join(format!("work-{}-{}", w.name(), std::process::id()));
        let e2e = (run.traced != Some(true))
            .then(|| e2e::run(w, run.seed, run.seconds, &icfgp, &work.join("e2e")))
            .transpose();
        let trace_path = out.join(format!("trace-{}.jsonl", w.name()));
        let layers = match &e2e {
            Ok(_) if run.traced != Some(false) => {
                layers::run(w, run.seconds, &icfgp, &work.join("trace"), &trace_path).map(Some)
            }
            _ => Ok(None),
        };
        let _ = std::fs::remove_dir_all(&work);
        results.push(WorkloadResult {
            name: w.name().to_string(),
            e2e: e2e?,
            layers: layers?,
        });
    }

    print_e2e(&spec.end_to_end, &results);
    print_layers(&spec.per_layer, &results);
    let failed = results
        .iter()
        .flat_map(|r| r.e2e.iter().chain(&r.layers))
        .any(|p| p.failed > 0);
    let record = Run {
        commit: commit(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        seed: run.seed,
        seconds: run.seconds,
        workloads: results,
    };
    if let Some(path) = &run.results {
        let mut file = if path.exists() {
            ResultsFile::read(path)?
        } else {
            ResultsFile::default()
        };
        file.runs.push(record.clone());
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("appended this run to {}", path.display());
    }
    // One workload, one phase: the machine-readable line comes last.
    if let ([w], Some(traced)) = (record.workloads.as_slice(), run.traced) {
        let phase = if traced { &w.layers } else { &w.e2e };
        let phase = phase.as_ref().expect("the requested phase ran");
        println!("{}", contract_line(phase, spec.metrics(traced))?);
    }
    Ok(u8::from(failed))
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
/// over exactly the declared metrics.
fn contract_line(phase: &Phase, declared: &[Metric]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in declared {
        let value = *phase
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("{} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a finite number: {value}", m.name));
        }
        metrics.push((
            m.name.clone(),
            Value::Obj(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(phase.failed == 0)),
        ("attempted".into(), Value::UInt(phase.attempted)),
        ("failed".into(), Value::UInt(phase.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// End-to-end metrics recorded but not gated in `BENCHMARK.json`: two
/// that are 0 on some workloads, and the unscaled timings with the
/// calibration median that scales them.
const E2E_EXTRA: [(&str, &str); 5] = [
    ("store_mb", "MiB"),
    ("failed_ratio", "ratio"),
    ("raw_latency_ms_p50", "ms"),
    ("raw_latency_ms_p75", "ms"),
    ("calib_ms", "ms"),
];

fn print_e2e(declared: &[Metric], results: &[WorkloadResult]) {
    if results.iter().all(|r| r.e2e.is_none()) {
        return;
    }
    let cols: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .chain(E2E_EXTRA)
        .collect();
    println!("end to end (closed loop, one client):");
    print!("{:<17} {:>9}", "workload", "requests");
    for (name, unit) in &cols {
        print!(
            " {:>width$}",
            format!("{name} [{unit}]"),
            width = name.len().max(12) + unit.len() + 3
        );
    }
    println!();
    for r in results {
        let Some(p) = &r.e2e else { continue };
        print!("{:<17} {:>9}", r.name, p.attempted);
        for (name, unit) in &cols {
            let v = p.metrics.get(*name).copied().unwrap_or(f64::NAN);
            print!(
                " {:>width$.4}",
                v,
                width = name.len().max(12) + unit.len() + 3
            );
        }
        println!();
    }
}

fn print_layers(declared: &[Metric], results: &[WorkloadResult]) {
    if results.iter().all(|r| r.layers.is_none()) {
        return;
    }
    println!("per layer (traced pass, medians over passes):");
    for r in results {
        let Some(p) = &r.layers else { continue };
        let mut layer = "";
        for m in declared {
            let (prefix, short) = m.name.split_once('.').unwrap_or(("", &m.name));
            if prefix != layer {
                if !layer.is_empty() {
                    println!();
                }
                layer = prefix;
                print!("{:<17} {:<7}", r.name, prefix);
            }
            let v = p.metrics.get(&m.name).copied().unwrap_or(f64::NAN);
            print!(" {short}={v:.4} {}", m.unit);
        }
        println!(
            "\n{:<17} {:<7} {} pass(es), {} failed",
            r.name, "passes", p.attempted, p.failed
        );
    }
}

fn cmd_compare(args: &[String]) -> Result<u8, String> {
    let [a, b] = args else {
        return Err(format!("compare needs two results files\n{USAGE}"));
    };
    let (report, clean) = compare(
        &Spec::embedded(),
        &ResultsFile::read(Path::new(a))?,
        &ResultsFile::read(Path::new(b))?,
    );
    print!("{report}");
    println!("{}", if clean { "no regression" } else { "REGRESSED" });
    Ok(u8::from(!clean))
}
