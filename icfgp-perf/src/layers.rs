//! The traced phase: in-process passes that time calls into each
//! layer's public functions, with the workload's input and store state.

use crate::e2e::{self, Setup};
use crate::icfgp::Icfgp;
use crate::spans::{Recorder, Tier, TimedStore};
use crate::stats::median;
use crate::workload::{self, Reference, Workload};
use crate::{dir_mib, Phase, MIB};
use icfgp_core::{
    analyze_incremental, parse_store_url, serve, CacheStore, RemoteOptions, RemoteStore,
    RewriteCache, RewriteStats, Rewriter, ServeOptions, Trace,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `icfgp list-workloads` spawns per pass for `proc.startup_ms`.
const STARTUP_SPAWNS: usize = 5;

/// What one traced pass reads: the input on disk, its reference, and
/// the store every tier starts from (a copy of it, fresh each pass).
pub struct TraceInput {
    /// The input file.
    pub input: PathBuf,
    /// Its reference.
    pub reference: Reference,
    /// Store contents each tier starts from; `None` starts empty.
    pub seed_store: Option<PathBuf>,
}

/// The traced input of `w`: the setup's input, except on fleet-remote,
/// where it is the fixed [`workload::TRACE_PERTURB`] variant over the
/// base variant's store.
///
/// # Errors
///
/// Generating or checking the variant's reference fails.
pub fn trace_input(w: Workload, setup: &Setup) -> Result<TraceInput, String> {
    if w != Workload::FleetRemote {
        return Ok(TraceInput {
            input: setup.input.clone(),
            reference: setup.reference.clone(),
            seed_store: setup.store.clone(),
        });
    }
    let binary = workload::fleet_variant(workload::TRACE_PERTURB);
    let input = setup.dir.join("trace-variant.icfgp");
    e2e::write_binary(&binary, &input)?;
    Ok(TraceInput {
        input,
        reference: workload::reference(&binary)?,
        seed_store: setup.store.clone(),
    })
}

/// Copy a store directory's files, minus the writer lock of whoever
/// holds the original.
fn copy_store(from: Option<&Path>, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let Some(from) = from else { return Ok(()) };
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() && entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn ratio_of(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One traced pass. Returns the per-layer metrics and whether every
/// output it produced matched.
fn pass(
    rec: &Arc<Recorder>,
    icfgp: &Icfgp,
    t: &TraceInput,
    work: &Path,
) -> Result<(BTreeMap<&'static str, f64>, bool), String> {
    let config = workload::rewrite_config();
    let instr = workload::instrumentation();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ok = true;
    let root = rec.reserve();
    let root_start = rec.now_ns();

    // proc: a no-work child, spawn to exit.
    let mut startup = 0.0;
    for _ in 0..STARTUP_SPAWNS {
        let (exit, _) = rec.time("proc.startup", Some(root), |_| {
            icfgp.run(&["list-workloads".into()])
        });
        let exit = exit?;
        ok &= exit.code == Some(0);
        startup += exit.ms / STARTUP_SPAWNS as f64;
    }
    m.insert("proc.startup_ms", startup);

    // obj: the Binary codec.
    let (binary, ms) = rec.time(
        "obj.load",
        Some(root),
        |_| -> Result<icfgp_obj::Binary, String> {
            let bytes = std::fs::read(&t.input).map_err(|e| e.to_string())?;
            serde_json::from_slice(&bytes).map_err(|e| e.to_string())
        },
    );
    let binary = binary?;
    m.insert("obj.load_ms", ms);
    m.insert(
        "obj.in_mb",
        std::fs::metadata(&t.input).map_or(0, |md| md.len()) as f64 / MIB,
    );

    // cfg: the sequential analysis and per-function liveness.
    let (analysis, ms) = rec.time("cfg.analyze", Some(root), |_| {
        icfgp_cfg::analyze(&binary, &config.analysis)
    });
    m.insert("cfg.analyze_ms", ms);
    let ok_funcs: Vec<&icfgp_cfg::FuncCfg> = analysis
        .funcs
        .values()
        .filter(|f| f.status == icfgp_cfg::FuncStatus::Ok)
        .collect();
    let ((), ms) = rec.time("cfg.liveness", Some(root), |_| {
        for f in &ok_funcs {
            black_box(icfgp_cfg::live_in_at_blocks(f, binary.arch));
        }
    });
    m.insert("cfg.liveness_ms", ms);
    m.insert("cfg.funcs", analysis.funcs.len() as f64);
    m.insert(
        "cfg.blocks",
        analysis
            .funcs
            .values()
            .map(|f| f.blocks.len())
            .sum::<usize>() as f64,
    );
    m.insert(
        "cfg.jump_tables",
        analysis
            .funcs
            .values()
            .map(|f| f.jump_tables.len())
            .sum::<usize>() as f64,
    );
    m.insert(
        "cfg.failed_funcs",
        (analysis.funcs.len() - ok_funcs.len()) as f64,
    );

    // core: incremental analysis, then whole rewrites on 1 and N threads.
    let threads = Rewriter::new(config.clone()).threads();
    let (_, analysis_ms) = rec.time("core.analysis", Some(root), |_| {
        black_box(analyze_incremental(
            &binary,
            &config.analysis,
            &RewriteCache::new(),
            threads,
        ))
    });
    m.insert("core.analysis_ms", analysis_ms);
    let rewrite = |name: &'static str, rw: Rewriter| {
        let (out, ms) = rec.time(name, Some(root), |_| rw.rewrite(&binary, &instr));
        out.map(|o| (o, ms)).map_err(|e| format!("{name}: {e}"))
    };
    let (t1, t1_ms) = rewrite(
        "core.rewrite_t1",
        Rewriter::new(config.clone()).with_threads(1),
    )?;
    let (tn, tn_ms) = rewrite("core.rewrite_tN", Rewriter::new(config.clone()))?;
    ok &= t1.binary == tn.binary;
    m.insert("core.rewrite_t1_ms", t1_ms);
    m.insert("core.rewrite_tN_ms", tn_ms);
    m.insert("core.parallel_speedup", t1_ms / tn_ms);
    m.insert("core.emit_self_ms", tn_ms - analysis_ms);
    let r = &tn.report;
    m.insert("core.cfl_blocks", r.cfl_blocks as f64);
    m.insert("core.trampolines", r.trampolines() as f64);
    m.insert("core.multi_hop", r.tramp_multi_hop as f64);
    m.insert("core.traps", r.tramp_trap as f64);

    // verify: the ladder the CLI runs, and the static checker alone.
    let (ladder, ladder_ms) = rec.time("verify.ladder", Some(root), |_| {
        icfgp_verify::rewrite_with_ladder_cached(&binary, &config, &instr, &RewriteCache::new())
    });
    let ladder = ladder.map_err(|e| format!("ladder: {e}"))?;
    let rounds_ms: f64 = ladder
        .round_stats
        .iter()
        .map(|s| s.timings.total_ns as f64 / 1e6)
        .sum();
    m.insert("verify.ladder_ms", ladder_ms);
    m.insert("verify.ladder_self_ms", ladder_ms - rounds_ms);
    m.insert("verify.rounds", ladder.rounds as f64);
    let (report, ms) = rec.time("verify.check", Some(root), |_| {
        icfgp_verify::verify_rewrite(&binary, &ladder.outcome, &config)
    });
    black_box(report.map_err(|e| e.to_string())?);
    m.insert("verify.check_ms", ms);

    // obj: serialise what the CLI would write.
    let out_path = work.join("out.icfgp");
    let (bytes, ms) = rec.time("obj.save", Some(root), |_| -> Result<Vec<u8>, String> {
        let bytes = serde_json::to_vec(&ladder.outcome.binary).map_err(|e| e.to_string())?;
        std::fs::write(&out_path, &bytes).map_err(|e| e.to_string())?;
        Ok(bytes)
    });
    let bytes = bytes?;
    ok &= bytes == t.reference.bytes;
    m.insert("obj.save_ms", ms);
    m.insert("obj.out_mb", bytes.len() as f64 / MIB);

    // cache: a second rewrite over one in-memory cache.
    let rw = Rewriter::new(config.clone());
    let mem = RewriteCache::new();
    let (cold, _) = rec.time("cache.cold_mem", Some(root), |_| {
        rw.rewrite_cached(&binary, &instr, &mem)
    });
    let (warm, warm_ms) = rec.time("cache.warm_mem", Some(root), |_| {
        rw.rewrite_cached(&binary, &instr, &mem)
    });
    ok &= cold.map_err(|e| e.to_string())?.binary == tn.binary;
    ok &= warm.map_err(|e| e.to_string())?.binary == tn.binary;
    m.insert("cache.warm_mem_ms", warm_ms);

    // store: the local tier, from a fresh copy of the workload's store.
    let store_dir = work.join("store");
    copy_store(t.seed_store.as_deref(), &store_dir)?;
    let (store, ms) = rec.time("store.open", Some(root), |_| {
        Arc::new(CacheStore::open(&store_dir))
    });
    m.insert("store.open_ms", ms);
    let timed = Arc::new(TimedStore::new(store, Tier::Store, Arc::clone(rec)));
    let tier = tiered_rewrite(rec, root, &timed, &rw, &binary)?;
    ok &= tier.output == tn.binary;
    let names = Tier::Store.names();
    let (gets, get_ms) = rec.sum(tier.span, names.get);
    let (puts, put_ms) = rec.sum(tier.span, names.put);
    m.insert("store.get_ms", get_ms);
    m.insert("store.get_calls", gets as f64);
    m.insert("store.get_hit_ratio", ratio_of(timed.get_hits(), gets));
    m.insert("store.get_mb", timed.get_bytes() as f64 / MIB);
    // A put only buffers; the write path is the puts plus their flush.
    let flush_ms = rec.sum(root, names.flush).1;
    m.insert("store.put_ms", put_ms + flush_ms);
    m.insert("store.put_calls", puts as f64);
    m.insert("store.flush_ms", flush_ms);
    m.insert("store.decode_ms", tier.ms - get_ms - warm_ms);
    drop(timed);
    m.insert("store.disk_mb", dir_mib(&store_dir));
    let s = tier.stats;
    for (name, stage) in [
        ("cache.func_hit_ratio", s.func_analyses),
        ("cache.frag_hit_ratio", s.fragments),
        ("cache.emit_hit_ratio", s.emits),
        ("cache.live_hit_ratio", s.liveness),
    ] {
        m.insert(name, stage.hit_rate());
    }

    // net: the remote tier, an in-process server over another copy.
    let served = work.join("served");
    copy_store(t.seed_store.as_deref(), &served)?;
    let server = serve("127.0.0.1:0", &served, ServeOptions::default())
        .map_err(|e| format!("serve: {e}"))?;
    let url = parse_store_url(&server.url())?;
    let (remote, ms) = rec.time("net.connect", Some(root), |_| {
        let remote = Arc::new(RemoteStore::connect(&url, RemoteOptions::default()));
        let before = remote.server_stats();
        (remote, before)
    });
    m.insert("net.connect_ms", ms);
    let (remote, before) = remote;
    let before = before?;
    let timed = Arc::new(TimedStore::new(remote.clone(), Tier::Net, Arc::clone(rec)));
    let tier = tiered_rewrite(rec, root, &timed, &rw, &binary)?;
    ok &= tier.output == tn.binary;
    let after = remote.server_stats()?;
    let names = Tier::Net.names();
    let (gets, get_ms) = rec.sum(tier.span, names.get);
    let (puts, put_ms) = rec.sum(tier.span, names.put);
    m.insert("net.get_ms", get_ms);
    m.insert("net.get_calls", gets as f64);
    let flush_ms = rec.sum(root, names.flush).1;
    m.insert("net.put_ms", put_ms + flush_ms);
    m.insert("net.put_calls", puts as f64);
    m.insert("net.flush_ms", flush_ms);
    m.insert(
        "net.server_requests",
        (after.requests - before.requests) as f64,
    );
    m.insert(
        "net.lease_rejects",
        ((after.puts_rejected - before.puts_rejected) + (after.leases_busy - before.leases_busy))
            as f64,
    );
    drop(timed);
    drop(remote);
    drop(server);

    // emu: the reference's emulations, deterministic counts.
    let rf = &t.reference;
    m.insert("emu.cycles_orig", rf.emu_orig.cycles as f64);
    m.insert("emu.cycles_rw", rf.emu_rw.cycles as f64);
    m.insert("emu.traps", rf.emu_rw.traps as f64);
    m.insert("emu.icache_misses", rf.emu_rw.icache_misses as f64);

    // trace: the ladder recording its event stream, between two plain
    // ladders so that drift and warm-up within the pass cancel.
    let ladder_with = |name: &'static str, cache: &RewriteCache| {
        let (out, ms) = rec.time(name, Some(root), |_| {
            icfgp_verify::rewrite_with_ladder_cached(&binary, &config, &instr, cache)
        });
        out.map(|l| (l.outcome.binary == tn.binary, ms))
            .map_err(|e| format!("{name}: {e}"))
    };
    let (same_before, plain_before) = ladder_with("trace.ladder_plain", &RewriteCache::new())?;
    let traced = RewriteCache::with_trace(Trace::recording());
    let (same_traced, recording) = ladder_with("trace.ladder_recording", &traced)?;
    let (same_after, plain_after) = ladder_with("trace.ladder_plain", &RewriteCache::new())?;
    ok &= same_before && same_traced && same_after;
    let plain = (plain_before + plain_after) / 2.0;
    m.insert(
        "trace.record_overhead_pct",
        100.0 * (recording - plain) / plain,
    );
    m.insert("trace.events", traced.trace().sealed().len() as f64);

    rec.push(root, None, "pass", root_start);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&served);
    Ok((m, ok))
}

/// One rewrite through a store tier.
struct Tiered {
    /// The `<tier>.rewrite` span; the tier's get and put spans sit
    /// under it.
    span: u32,
    /// Its duration in milliseconds.
    ms: f64,
    stats: RewriteStats,
    output: icfgp_obj::Binary,
}

/// Rewrite through `timed` under a `<tier>.rewrite` span, then flush
/// (the flush span sits under `root`).
fn tiered_rewrite(
    rec: &Recorder,
    root: u32,
    timed: &Arc<TimedStore>,
    rw: &Rewriter,
    binary: &icfgp_obj::Binary,
) -> Result<Tiered, String> {
    let cache = RewriteCache::with_backend(timed.clone());
    let name = timed.tier().names().rewrite;
    let mut span = 0;
    let (out, ms) = rec.time(name, Some(root), |id| {
        span = id;
        timed.set_parent(id);
        rw.rewrite_cached(binary, &workload::instrumentation(), &cache)
    });
    let out = out.map_err(|e| format!("{name}: {e}"))?;
    timed.set_parent(root);
    cache.flush_store();
    Ok(Tiered {
        span,
        ms,
        stats: out.stats,
        output: out.binary,
    })
}

/// The traced phase: one setup, then passes until `seconds` have
/// passed (at least one). Spans are written to `trace_path`; metrics
/// are medians over passes.
///
/// # Errors
///
/// Setup or a layer call fails outright.
pub fn run(
    w: Workload,
    seconds: f64,
    icfgp: &Icfgp,
    work: &Path,
    trace_path: &Path,
) -> Result<Phase, String> {
    let setup = e2e::setup(w, icfgp, &work.join("setup"))?;
    let input = trace_input(w, &setup)?;
    let rec = Arc::new(Recorder::default());
    let pass_dir = work.join("pass");
    std::fs::create_dir_all(&pass_dir).map_err(|e| e.to_string())?;
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while per_pass.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (m, ok) = pass(&rec, icfgp, &input, &pass_dir)?;
        if !ok {
            failed += 1;
            eprintln!(
                "{}: traced pass {} produced a wrong output",
                w.name(),
                per_pass.len()
            );
        }
        per_pass.push(m);
    }
    drop(setup);
    for count in crate::compare::DETERMINISTIC {
        let seen: Vec<f64> = per_pass.iter().map(|m| m[count]).collect();
        if seen.windows(2).any(|p| p[0] != p[1]) {
            eprintln!("{}: {count} differs between passes: {seen:?}", w.name());
        }
    }
    rec.write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let metrics = per_pass[0]
        .keys()
        .map(|&k| {
            (
                k,
                median(&per_pass.iter().map(|m| m[k]).collect::<Vec<_>>()),
            )
        })
        .collect();
    Ok(Phase::new(per_pass.len() as u64, failed, metrics))
}
