//! `icfgp-perf`: the repository benchmark. Every performance claim about
//! `icfgp rewrite FILE -o OUT` is made with it: end to end, by timing the
//! release binary as a user runs it, and layer by layer, by timing calls
//! into each crate's public functions.
//!
//! # Running
//!
//! ```text
//! cargo run --release --manifest-path icfgp-perf/Cargo.toml -- run --seed 1 -o a.json
//! cargo run --release --manifest-path icfgp-perf/Cargo.toml -- run --seed 2 -o b.json
//! cargo run --release --manifest-path icfgp-perf/Cargo.toml -- compare a.json b.json
//! ```
//!
//! `run` first builds `icfgp` from source (`cargo build --release --bin
//! icfgp` in the repository, into the same target directory), then runs
//! both phases of every workload and prints each metric by name with
//! its unit; on 2 vCPUs that takes about three minutes. It exits 1 if
//! any request or traced pass failed. Options:
//!
//! * `--workload NAME` (repeatable; default all four);
//! * `--seed N` (default 1) picks the fleet variants;
//! * `--seconds S` (default `run_seconds` in `BENCHMARK.json`) is the
//!   measuring time of each phase;
//! * `--trace 0|1` runs only the end-to-end (0) or traced (1) phase;
//! * `-o FILE` appends the run to a results file for `compare`.
//!
//! With one `--workload` and a `--trace` value, the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the `end_to_end` (trace 0) or `per_layer` (trace 1) metrics of
//! `BENCHMARK.json`. That is the form `BENCHMARK.json`'s `command` is
//! called in: `--workload W --seed N --seconds S --trace T` with no
//! subcommand means `run`.
//!
//! Everything the benchmark writes stays in `<target>/icfgp-perf/`,
//! where `<target>` is `CARGO_TARGET_DIR` or the repository's `target`.
//!
//! `compare PARENT.json CANDIDATE.json` prints, for every workload ×
//! end-to-end metric, the two medians over the files' runs and a verdict
//! under the metric's direction and bound from `BENCHMARK.json`:
//!
//! * `regressed`: the candidate's median is worse by more than the bound;
//! * `unresolved`: a side's spread (inter-quartile distance over median,
//!   as Python's `statistics.quantiles(n=4)` gives it) is wider than the
//!   bound, and not every candidate run reads better than every parent
//!   run;
//! * `ok` otherwise.
//!
//! It also flags any failed request, and any of the
//! [`compare::DETERMINISTIC`] counts that does not repeat exactly across
//! all runs of both files. It exits 1 on a regression or a drifting
//! count. `results/baseline.json` holds the two runs (seeds 1 and 2)
//! this benchmark was introduced with; each records the measured
//! program's commit and the core count.
//!
//! # Workloads
//!
//! Every request is `icfgp rewrite IN --mode func-ptr -o OUT --quiet`
//! with every block instrumented (the CLI default).
//!
//! | name | input | why |
//! |---|---|---|
//! | `cold-libxul` | `firefox_like(X64, 8)`: 1,739 functions, 1.5 MiB JSON. No store. | Analysis-heavy C++/Rust mix: switch tables, fn-pointer tables, exceptions, unanalysable dispatchers (exit code 1 by design). `cfg`, `core` and `verify` do the work; `store` and `net` are bypassed, so a store or net change must show no change here. |
//! | `cold-driverlib` | `driverlib_like(X64, 12644, 702)`, the paper's §9 size: 12,644 tiny, densely packed functions, 3.5 MiB JSON. No store. | Per-function fixed costs, pool scheduling and the `Binary` JSON codec dominate; analysis per function is trivial. |
//! | `warm-disk-libxul` | `cold-libxul`'s input with `--cache-dir D`; D is filled by one untimed rewrite in setup, so every request is a fresh process over a full store. | The store read path (open, get, decode, revalidate) replaces `cfg`/`core` compute: the layer that has to pay for itself. |
//! | `fleet-remote` | A seeded stream of near-identical variants of `spec_params("602.gcc_s")` with 400 fillers, each rewritten by a fresh `icfgp rewrite --store-url U` against one `icfgp cache serve 127.0.0.1:0` child serving a store filled from the base variant (perturb 0) in setup. | The same store layer deployed remotely: GETs for shared records and lease-fenced PUTs for the perturbed ones, over loopback. |
//!
//! `firefox_like` and `driverlib_like` take no seed: `--seed` changes
//! only `fleet-remote`'s variant stream.
//!
//! # Phases
//!
//! 1. **Setup.** Generate the input, compute its reference (an
//!    in-process storeless `rewrite_with_ladder`, checked independently
//!    of the rewriter: `icfgp_emu::run` on the original and the rewritten
//!    binary must both halt with equal output), and fill the store or
//!    start the server the workload needs. The end-to-end phase sets up
//!    three times and reports the median as `setup_s`.
//! 2. **End to end.** A closed loop with one client: the `icfgp` release
//!    binary is spawned once per request, one request at a time, with
//!    tracing off, the default worker pool and a clean `ICFGP_*`
//!    environment. Three untimed warm-up requests, then requests for
//!    `--seconds`; on `fleet-remote`, whose served store grows with every
//!    variant, a fixed 3 requests per second of `--seconds` instead, so
//!    that every run sees the same store history. Fleet variants are
//!    generated between requests, outside the timed span, and their
//!    references are computed after the loop.
//!    A request **fails** if it exits with a code other than 0 or 1, runs
//!    past 60 s, or writes bytes that differ from its reference.
//! 3. **Traced.** In process, after a fresh setup: passes that time calls
//!    into each layer's public functions, repeated for `--seconds` (at
//!    least one); metrics are medians over passes. Each pass checks that
//!    every output it produced equals the reference or the plain rewrite.
//!    Spans are kept in memory and written to
//!    `<target>/icfgp-perf/trace-<workload>.jsonl` when the phase ends.
//!
//! # End-to-end metrics
//!
//! Bounds are in `BENCHMARK.json`, as the share of the parent's median a
//! metric may move the wrong way.
//!
//! Times are **calibrated**: a calibration sample (fixed work in a fresh
//! `icfgp-perf calibrate` process, see [`calib`]) follows every request and
//! every setup, and each time `t` is reported as `t × calib::REF_MS / c`,
//! with `c` the sample right after it. Shared machines drift by a third
//! and more within minutes; the calibration drifts with them, so the
//! scaled times repeat to a few percent while every change to the program
//! still shows in full. The unscaled numbers are recorded too
//! (`raw_latency_ms_p50`, `raw_latency_ms_p75`, `raw_funcs_per_s`,
//! `raw_setup_s`, and the calibration median `calib_ms`).
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `latency_ms_p50`, `latency_ms_p75` | ms | nearest-rank percentiles of the timed requests' calibrated spawn-to-exit times. `attempted` gives the sample count. A run of `run_seconds` makes about 40 requests on the slowest workload, so p75 is the highest percentile with ten samples beyond it. |
//! | `funcs_per_s` | funcs/s | point-selected functions rewritten by correct timed requests ÷ the timed requests' summed calibrated latency |
//! | `peak_rss_mb` | MiB | the largest peak RSS of any timed request, read per child with `wait4` (children start from a small helper process, so the benchmark's own memory is not charged to them) |
//! | `setup_s` | s | median calibrated wall time of the three setups |
//! | `rw_cycles_pct` | % | emulated cycles of the rewritten binary as a share of the original's (paper §8 runtime overhead is this minus 100; on `fleet-remote`, the base variant) |
//! | `size_increase_pct` | % | `RewriteReport::size_increase` |
//! | `coverage_pct` | % | `RewriteReport::coverage` |
//! | `store_mb` | MiB | on-disk bytes of the store or served directory after the loop; 0 on cold workloads, so recorded but not gated |
//! | `failed_ratio` | ratio | failed ÷ attempted requests; 0 when correct, so gated through `failed` instead |
//!
//! # Per-layer metrics
//!
//! Each pass runs every layer on the workload's traced input, and every
//! store tier starts from a fresh copy of the workload's store: empty on
//! the cold workloads (the fill path), the setup's full store on
//! `warm-disk-libxul` (the hit path), and the base variant's store on
//! `fleet-remote`, whose traced input is the fixed variant
//! [`workload::TRACE_PERTURB`] so that its counts do not depend on the
//! seed. `*_ms` times are span durations; `store.get_ms` and its kin sum
//! the spans of calls that may run on several worker threads at once.
//!
//! | metric(s) | layer | timed call | should move | most / least on |
//! |---|---|---|---|---|
//! | `proc.startup_ms` | `src/bin/icfgp.rs` | mean of five `icfgp list-workloads` children | `latency_ms_p50` | fleet-remote / cold-driverlib |
//! | `obj.load_ms` `obj.save_ms` `obj.in_mb` `obj.out_mb` | `icfgp-obj` codec | read + `serde_json::from_slice::<Binary>`; `to_vec` + write of the ladder's output | `latency_ms_p50`, `peak_rss_mb` | cold-driverlib / fleet-remote |
//! | `cfg.analyze_ms` `cfg.liveness_ms` `cfg.funcs` `cfg.blocks` `cfg.jump_tables` `cfg.failed_funcs` | `icfgp-cfg` | `analyze`; `live_in_at_blocks` per analysable function | `latency_ms_p50`, `funcs_per_s`, `coverage_pct` | cold-libxul / warm-disk-libxul |
//! | `core.analysis_ms` `core.rewrite_t1_ms` `core.rewrite_tN_ms` `core.parallel_speedup` `core.emit_self_ms` `core.cfl_blocks` `core.trampolines` `core.multi_hop` `core.traps` | `icfgp_core` rewriter, relocate, placement, pool | `analyze_incremental`; `Rewriter::with_threads(1)` and default-pool `rewrite`; speedup is t1 ÷ tN, emit self time is tN − analysis | `funcs_per_s`, `latency_ms_p75`; the counts move `rw_cycles_pct` and `size_increase_pct` | cold-libxul, cold-driverlib / warm-disk-libxul |
//! | `verify.ladder_ms` `verify.ladder_self_ms` `verify.check_ms` `verify.rounds` | `icfgp-verify` | `rewrite_with_ladder_cached` (self time: minus the rounds' own rewrite time); `verify_rewrite` | `latency_ms_p50` | warm-disk-libxul (verify is not cached, so its share is largest there) / fleet-remote |
//! | `cache.warm_mem_ms` `cache.func_hit_ratio` `cache.frag_hit_ratio` `cache.emit_hit_ratio` `cache.live_hit_ratio` | `icfgp_core::cache` | a second `rewrite_cached` on one `RewriteCache`; the ratios are the `RewriteStats` of the store-attached rewrite below | `latency_ms_p50` | warm-disk-libxul, fleet-remote / cold-* |
//! | `store.open_ms` `store.get_ms` `store.get_calls` `store.get_hit_ratio` `store.get_mb` `store.put_ms` `store.put_calls` `store.flush_ms` `store.decode_ms` `store.disk_mb` | `icfgp_core::store` | `CacheStore::open`; a rewrite through [`spans::TimedStore`] over it, then its flush. A put only buffers, so `put_ms` is the puts plus the flush that persists them; decode is the rewrite's time minus `store.get_ms` minus `cache.warm_mem_ms` | `latency_ms_p50`, `store_mb` | warm-disk-libxul / cold-* |
//! | `net.connect_ms` `net.get_ms` `net.get_calls` `net.put_ms` `net.put_calls` `net.flush_ms` `net.server_requests` `net.lease_rejects` | `icfgp_core::net` | `RemoteStore::connect` plus its first `server_stats` round trip, against an in-process `serve`; the same wrapper, with `put_ms` again including the flush; the `server_stats()` delta over the rewrite and flush | `latency_ms_p50`, `latency_ms_p75` | fleet-remote / the others |
//! | `emu.cycles_orig` `emu.cycles_rw` `emu.traps` `emu.icache_misses` | `icfgp-emu` | `icfgp_emu::run` on the reference's original and rewritten binary | `rw_cycles_pct` | all (deterministic) |
//! | `trace.record_overhead_pct` `trace.events` | `icfgp_core::trace` | the ladder under `RewriteCache::with_trace(Trace::recording())` against the mean of a plain ladder just before and just after it | none yet: it sets the budget for always-on tracing | cold-libxul |
//!
//! # Reading `trace-<workload>.jsonl`
//!
//! One span per line, in the order spans closed:
//!
//! ```text
//! {"id":41,"parent":40,"name":"store.get","start_us":812.113,"end_us":812.901,"self_us":0.788}
//! ```
//!
//! `id` is unique within the file; `parent` links a span to the span
//! that caused it and is `null` for the root `pass` span of each traced
//! pass. Times are microseconds since the phase started. `self_us` is
//! the span's duration minus the union of its children's intervals
//! (children may overlap when they ran on worker threads). Each layer
//! call of a pass is a child of its `pass`; `store.get`/`store.put` and
//! `net.get`/`net.put` are children of `store.rewrite`/`net.rewrite`, so
//! the rewrite's self time is the work the store tier did not cover.
//! To total a layer, sum `self_us` by `name` and divide by the number of
//! `pass` spans.
#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod e2e;
pub mod icfgp;
pub mod layers;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workload;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What one phase of one workload measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Phase {
    /// Requests (end-to-end) or traced passes run.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
}

impl Phase {
    /// A phase result from metrics keyed by static names.
    #[must_use]
    pub fn new(attempted: u64, failed: u64, metrics: BTreeMap<&'static str, f64>) -> Phase {
        let metrics = metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Phase {
            attempted,
            failed,
            metrics,
        }
    }
}

/// The repository root: the parent of this package.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Cargo's target directory: `CARGO_TARGET_DIR` (relative to the
/// working directory, as Cargo reads it) or the repository's `target`.
#[must_use]
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR").filter(|d| !d.is_empty()) {
        Some(dir) => std::env::current_dir().unwrap_or_default().join(dir),
        None => repo_root().join("target"),
    }
}

/// Bytes per MiB, the unit every size metric uses.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Bytes of every file under `dir`, in MiB (0 if it does not exist).
#[must_use]
pub fn dir_mib(dir: &Path) -> f64 {
    fn bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => bytes(&e.path()),
                    Ok(_) => e.metadata().map_or(0, |m| m.len()),
                    Err(_) => 0,
                })
                .sum()
        })
    }
    bytes(dir) as f64 / MIB
}
