//! Determinism properties of the structured trace spine (tentpole of
//! the unified-tracing PR):
//!
//! 1. the sealed stream's canonical (timing-free) form is
//!    byte-identical for any worker-thread count — in-process via
//!    [`Rewriter::with_threads`] and end-to-end via `ICFGP_THREADS`
//!    on the CLI with `--trace`;
//! 2. warm and cold runs of the same input agree on the structural
//!    projection (span tree, demotions, journal appends) — they take
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
    Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter, Stage, Trace,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;

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
        for stage in [Stage::Func, Stage::Fragment, Stage::Emit, Stage::Liveness] {
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
    for stage in [Stage::Func, Stage::Fragment, Stage::Emit, Stage::Liveness] {
        let live = cache.trace().registry().stage_stats(stage);
        let replay = summary.stage_stats(stage);
        assert_eq!(live.hits, replay.hits, "{stage:?} hits");
        assert_eq!(live.misses, replay.misses, "{stage:?} misses");
    }
}

/// Property 1 (end-to-end): `icfgp rewrite --trace` writes streams
/// whose canonical form is byte-identical for `ICFGP_THREADS` 1, 2
/// and 8 — and so are the rewritten binaries.
#[test]
fn cli_trace_is_stable_across_icfgp_threads() {
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("icfgp-trace-{}-{name}", std::process::id()))
    };
    let raw = tmp("in.json");
    let gen = std::process::Command::new(env!("CARGO_BIN_EXE_icfgp"))
        .args(["gen", "--workload", "small", "--seed", "5", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert_eq!(gen.status.code(), Some(0), "{}", String::from_utf8_lossy(&gen.stderr));

    let mut reference: Option<(Vec<String>, Vec<u8>)> = None;
    for threads in ["1", "2", "8"] {
        let rw = tmp(&format!("out-{threads}.json"));
        let trace = tmp(&format!("stream-{threads}.jsonl"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_icfgp"))
            .env("ICFGP_THREADS", threads)
            .args(["rewrite"])
            .arg(&raw)
            .args(["--mode", "jt", "--quiet", "--trace"])
            .arg(&trace)
            .arg("-o")
            .arg(&rw)
            .output()
            .expect("rewrite runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout.is_empty(), "--quiet must silence stdout");
        let lines = canonical_lines(&read_jsonl(&trace).expect("trace parses"));
        let bytes = std::fs::read(&rw).expect("output written");
        match &reference {
            None => reference = Some((lines, bytes)),
            Some((ref_lines, ref_bytes)) => {
                assert_eq!(&lines, ref_lines, "trace diverged at ICFGP_THREADS={threads}");
                assert_eq!(&bytes, ref_bytes, "output diverged at ICFGP_THREADS={threads}");
            }
        }
        let _ = std::fs::remove_file(&rw);
        let _ = std::fs::remove_file(&trace);
    }
    let _ = std::fs::remove_file(&raw);
}
