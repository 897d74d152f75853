//! Determinism properties of the structured trace spine (tentpole of
//! the unified-tracing PR):
//!
//! 1. the sealed stream's canonical (timing-free) form is
//!    byte-identical for any worker-thread count — in-process via
//!    [`Rewriter::with_threads`] and end-to-end via `ICFGP_THREADS`
//!    on the CLI with `--trace`;
//! 2. warm and cold runs of the same input agree on the structural
//!    projection (span tree, demotions) — they take
//!    different cache paths but the same shape;
//! 3. recording the stream changes neither output bytes nor any
//!    registry counter: tracing *is* the stats mechanism, the buffer
//!    is just a tap on it;
//! 4. a sealed stream replayed through the registry reproduces the
//!    live counters and satisfies the store conservation laws.

use incremental_cfg_patching::core::trace::{
    canonical_lines, read_jsonl, structural_lines, summarize_events,
};
use incremental_cfg_patching::core::{
    Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter, SpanKind, Stage,
    Trace, TraceEvent,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::verify::MAX_ROUNDS;
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use std::ffi::OsString;

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![
        Just(RewriteMode::Dir),
        Just(RewriteMode::Jt),
        Just(RewriteMode::FuncPtr)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1 (in-process): the canonical stream and the output
    /// bytes are identical for 1, 2 and 8 worker threads.
    #[test]
    fn trace_stream_is_thread_stable((arch, mode, seed) in (arb_arch(), arb_mode(), 0u64..500)) {
        let binary = generate(&GenParams::small("trace", arch, seed)).binary;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let config = RewriteConfig::new(mode);
        let mut reference: Option<(Vec<String>, Vec<u8>)> = None;
        for threads in [1usize, 2, 8] {
            let cache = RewriteCache::with_trace(Trace::recording());
            let out = Rewriter::new(config.clone())
                .with_threads(threads)
                .rewrite_cached(&binary, &instr, &cache)
                .expect("rewrite");
            let lines = canonical_lines(&cache.trace().sealed());
            let bytes = serde_json::to_vec(&out.binary).expect("serialise");
            match &reference {
                None => reference = Some((lines, bytes)),
                Some((ref_lines, ref_bytes)) => {
                    prop_assert_eq!(&lines, ref_lines,
                        "canonical stream diverged at {} thread(s)", threads);
                    prop_assert_eq!(&bytes, ref_bytes,
                        "output bytes diverged at {} thread(s)", threads);
                }
            }
        }
    }

    /// Property 3: a recording trace is observationally identical to a
    /// counting-only one — same output bytes, same stage counters.
    #[test]
    fn recording_changes_nothing((arch, mode, seed) in (arb_arch(), arb_mode(), 0u64..500)) {
        let binary = generate(&GenParams::small("trace", arch, seed)).binary;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let rw = Rewriter::new(RewriteConfig::new(mode));
        let plain = RewriteCache::new();
        let taped = RewriteCache::with_trace(Trace::recording());
        let out_plain = rw.rewrite_cached(&binary, &instr, &plain).expect("plain");
        let out_taped = rw.rewrite_cached(&binary, &instr, &taped).expect("taped");
        prop_assert_eq!(out_plain.binary, out_taped.binary,
            "recording the stream must not change output bytes");
        for stage in [Stage::Func, Stage::Fragment, Stage::Liveness] {
            let a = plain.trace().registry().stage_stats(stage);
            let b = taped.trace().registry().stage_stats(stage);
            prop_assert_eq!(a.hits, b.hits);
            prop_assert_eq!(a.misses, b.misses);
            prop_assert_eq!(a.shared, b.shared);
        }
    }
}

/// Property 2: warm and cold runs share the structural projection, and
/// the warm stream's cache events flip to hits without changing shape.
#[test]
fn warm_and_cold_share_structure() {
    let binary = generate(&GenParams::small("trace-warm", Arch::X64, 7)).binary;
    let instr = Instrumentation::empty(Points::EveryBlock);
    let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
    let cache = RewriteCache::with_trace(Trace::recording());
    let cold = rw.rewrite_cached(&binary, &instr, &cache).expect("cold");
    let cold_events = cache.trace().sealed();

    cache.trace().record(); // sealed() stopped the tape; re-arm for the warm run
    let warm = rw.rewrite_cached(&binary, &instr, &cache).expect("warm");
    let warm_events = cache.trace().sealed();

    assert_eq!(cold.binary, warm.binary, "warm rewrite must reproduce cold bytes");
    assert_eq!(
        structural_lines(&cold_events),
        structural_lines(&warm_events),
        "warm and cold runs must agree on the span structure"
    );
    // The cache paths *do* differ: the cold stream is all misses, the
    // warm one all hits — visible in the canonical form.
    assert_ne!(
        canonical_lines(&cold_events),
        canonical_lines(&warm_events),
        "warm stream should differ from cold only in cache events"
    );
    let warm_stats = summarize_events(&warm_events);
    assert!(warm_stats.stage_stats(Stage::Fragment).hits > 0, "warm run must hit");
    assert_eq!(warm_stats.stage_stats(Stage::Fragment).misses, 0);
}

/// Property 4: replaying the sealed stream through the registry
/// reproduces the live counters, and the replay satisfies the store
/// conservation laws.
#[test]
fn sealed_stream_replays_to_matching_summary() {
    let binary = generate(&GenParams::small("trace-replay", Arch::Aarch64, 3)).binary;
    let instr = Instrumentation::empty(Points::EveryBlock);
    let cache = RewriteCache::with_trace(Trace::recording());
    let _ = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
        .rewrite_cached(&binary, &instr, &cache)
        .expect("rewrite");
    let events = cache.trace().sealed();
    let summary = summarize_events(&events);
    assert!(summary.violations().is_empty(), "{:?}", summary.violations());
    for stage in [Stage::Func, Stage::Fragment, Stage::Liveness] {
        let live = cache.trace().registry().stage_stats(stage);
        let replay = summary.stage_stats(stage);
        assert_eq!(live.hits, replay.hits, "{stage:?} hits");
        assert_eq!(live.misses, replay.misses, "{stage:?} misses");
    }
}

/// Run `icfgp` with `ICFGP_THREADS=threads` and return its stdout,
/// failing unless it exits with one of `exits` (1 is a degraded
/// rewrite within budget, still a valid output).
fn icfgp(threads: &str, args: &[OsString], exits: &[i32]) -> Vec<u8> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_icfgp"))
        .env("ICFGP_THREADS", threads)
        .args(args)
        .output()
        .expect("icfgp runs");
    assert!(
        out.status.code().is_some_and(|code| exits.contains(&code)),
        "icfgp {args:?} at ICFGP_THREADS={threads} exited {:?}, expected one of {exits:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn os_args(args: &[&str]) -> Vec<OsString> {
    args.iter().map(OsString::from).collect()
}

fn cli_tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("icfgp-trace-{}-{name}", std::process::id()))
}

/// How many spans the stream opens that `kind` accepts.
fn span_opens(events: &[TraceEvent], kind: impl Fn(&SpanKind) -> bool) -> usize {
    events.iter().filter(|e| matches!(e, TraceEvent::SpanOpen { span } if kind(span))).count()
}

/// One `icfgp rewrite --trace` at `ICFGP_THREADS=threads` over `raw`
/// with the extra `flags`, exiting with one of `exits`: the output
/// bytes and the sealed stream.
fn traced_rewrite(
    raw: &std::path::Path,
    threads: &str,
    flags: &[&str],
    exits: &[i32],
) -> (Vec<u8>, Vec<TraceEvent>) {
    let rw = cli_tmp(&format!("out-{threads}.json"));
    let trace = cli_tmp(&format!("stream-{threads}.jsonl"));
    let mut args = vec!["rewrite".into(), raw.into()];
    args.extend(os_args(flags));
    args.extend(["--quiet".into(), "--trace".into(), trace.clone().into()]);
    args.extend(["-o".into(), rw.clone().into()]);
    assert!(icfgp(threads, &args, exits).is_empty(), "--quiet must silence stdout");
    let events = read_jsonl(&trace).expect("trace parses");
    let bytes = std::fs::read(&rw).expect("output written");
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&trace);
    (bytes, events)
}

/// Property 1 (end-to-end): `icfgp rewrite --trace` writes streams
/// whose canonical form is byte-identical for `ICFGP_THREADS` 1, 2
/// and 8 — and so are the rewritten binaries and the `verify --json`
/// reports. Each case names its flags, the ladder rounds it must run
/// and the exit codes it may give: a clean run is one round and exits
/// 0; a faulted one runs further rounds, which verify against the
/// strict analysis computed beside the first, and may degrade within
/// budget. Every executed round holds one verify span.
#[test]
fn cli_trace_is_stable_across_icfgp_threads() {
    let raw = cli_tmp("in.json");
    let mut gen = os_args(&["gen", "--workload", "small", "--seed", "5", "-o"]);
    gen.push(raw.clone().into());
    icfgp("1", &gen, &[0]);
    let faulted = ["--mode", "func-ptr", "--fault-seed", "2", "--budget", "1.0"];
    let cases: [(&[&str], std::ops::RangeInclusive<usize>, &[i32]); 2] =
        [(&["--mode", "jt"], 1..=1, &[0]), (&faulted, 2..=MAX_ROUNDS, &[0, 1])];
    for (flags, round_range, exits) in cases {
        let mut reference: Option<(Vec<String>, Vec<u8>, Vec<u8>)> = None;
        for threads in ["1", "2", "8"] {
            let (bytes, events) = traced_rewrite(&raw, threads, flags, exits);
            let rounds = span_opens(&events, |s| matches!(s, SpanKind::Round { .. }));
            assert!(round_range.contains(&rounds), "{flags:?} ran {rounds} round(s)");
            let verifies = span_opens(&events, |s| *s == SpanKind::Verify);
            assert_eq!(verifies, rounds, "{flags:?}: one verify span per executed round");
            let mut args = vec!["verify".into(), raw.clone().into()];
            args.extend(os_args(flags));
            args.push("--json".into());
            let report = icfgp(threads, &args, exits);
            let lines = canonical_lines(&events);
            match &reference {
                None => reference = Some((lines, bytes, report)),
                Some((ref_lines, ref_bytes, ref_report)) => {
                    let at = format!("{flags:?} at ICFGP_THREADS={threads}");
                    assert_eq!(&lines, ref_lines, "trace diverged: {at}");
                    assert_eq!(&bytes, ref_bytes, "output diverged: {at}");
                    assert_eq!(&report, ref_report, "report diverged: {at}");
                }
            }
        }
    }
    let _ = std::fs::remove_file(&raw);
}
