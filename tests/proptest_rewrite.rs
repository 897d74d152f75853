//! The headline property: **for any generated workload, rewriting in
//! any mode preserves observable behaviour** — under the strong test
//! (original `.text` poisoned), at any load bias for PIE, with the
//! block-counter payload as well as the empty one.

use incremental_cfg_patching::core::{
    FaultPlan, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter,
};
use incremental_cfg_patching::emu::{run, LoadOptions, Outcome};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::verify::verify_rewrite;
use incremental_cfg_patching::workloads::{generate, GenParams, SwitchFlavor};
use incremental_cfg_patching::asm::patterns::SwitchHardness;
use proptest::prelude::*;

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_params() -> impl Strategy<Value = GenParams> {
    (
        arb_arch(),
        any::<bool>(),
        0u64..1_000,
        1usize..4,  // compute
        0usize..4,  // switches
        2usize..8,  // cases
        0usize..3,  // fnptr tables
        any::<bool>(), // exceptions
        0usize..3,  // tiny
        0usize..3,  // tailcalls
        prop_oneof![
            Just(SwitchHardness::Easy),
            Just(SwitchHardness::CopiedBound),
            Just(SwitchHardness::SpilledIndex),
        ],
    )
        .prop_map(
            |(arch, pie, seed, compute, switches, cases, fnptr, exceptions, tiny, tails, hard)| {
                let mut p = GenParams::small("prop", arch, seed);
                p.pie = pie;
                p.compute_funcs = compute;
                p.switch_funcs = switches;
                p.switch_cases = cases;
                p.switch_hardness = vec![hard, SwitchHardness::Easy];
                p.fnptr_tables = fnptr;
                p.exceptions = exceptions;
                p.tiny_funcs = tiny;
                p.tailcall_funcs = tails;
                p.outer_iters = 24;
                // Spilled indices need absolute tables on every arch;
                // the generator handles the idiom choice, but keep the
                // PIE x64 flavour consistent.
                if pie && arch == Arch::X64 {
                    p.switch_flavor = SwitchFlavor::Relative4;
                }
                p
            },
        )
}

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rewriting_preserves_behaviour(params in arb_params(), mode in arb_mode(),
                                     bias_page in 0u64..64) {
        let w = generate(&params);
        let expected = match run(&w.binary, &LoadOptions::default()) {
            Outcome::Halted(s) => s.output,
            o => return Err(TestCaseError::fail(format!("workload invalid: {o:?}"))),
        };
        let out = Rewriter::new(RewriteConfig::new(mode))
            .rewrite(&w.binary, &Instrumentation::empty(Points::EveryBlock))
            .map_err(|e| TestCaseError::fail(format!("rewrite failed: {e}")))?;
        let bias = if params.pie { bias_page * 0x1000 } else { 0 };
        let opts = LoadOptions { preload_runtime: true, bias, ..LoadOptions::default() };
        match run(&out.binary, &opts) {
            Outcome::Halted(s) => prop_assert_eq!(s.output, expected),
            o => return Err(TestCaseError::fail(format!("{mode}: rewritten failed: {o:?}"))),
        }
    }

    #[test]
    fn counter_payload_preserves_behaviour(params in arb_params()) {
        let w = generate(&params);
        let expected = match run(&w.binary, &LoadOptions::default()) {
            Outcome::Halted(s) => s.output,
            o => return Err(TestCaseError::fail(format!("workload invalid: {o:?}"))),
        };
        let out = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
            .rewrite(&w.binary, &Instrumentation::counters(Points::EveryBlock))
            .map_err(|e| TestCaseError::fail(format!("rewrite failed: {e}")))?;
        let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
        match run(&out.binary, &opts) {
            Outcome::Halted(s) => prop_assert_eq!(s.output, expected),
            o => return Err(TestCaseError::fail(format!("counters: {o:?}"))),
        }
    }

    /// Coverage, sizes and trampoline counts are internally consistent.
    #[test]
    fn report_invariants(params in arb_params(), mode in arb_mode()) {
        let w = generate(&params);
        let out = Rewriter::new(RewriteConfig::new(mode))
            .rewrite(&w.binary, &Instrumentation::empty(Points::EveryBlock))
            .map_err(|e| TestCaseError::fail(format!("rewrite failed: {e}")))?;
        let r = &out.report;
        prop_assert!(r.coverage >= 0.0 && r.coverage <= 1.0);
        prop_assert!(r.instrumented_funcs <= r.total_funcs);
        prop_assert!(r.rewritten_size >= r.original_size, "rewriting never shrinks");
        prop_assert!(
            r.trampolines() >= r.instrumented_funcs,
            "at least an entry trampoline per instrumented function"
        );
        prop_assert_eq!(
            r.skipped.iter().filter(|(_, s)| matches!(s,
                incremental_cfg_patching::core::SkipReason::AnalysisFailed(_))).count()
                + r.instrumented_funcs,
            r.total_funcs,
            "every function is instrumented or skipped-with-reason"
        );
        // Every relocated block has a mapping.
        prop_assert!(!out.block_map.is_empty());
    }

    /// The static verifier accepts every clean rewrite: zero
    /// error-severity diagnostics in any mode on any workload
    /// (warnings — e.g. conservative over-coverage — are allowed).
    #[test]
    fn clean_rewrites_statically_verify(params in arb_params(), mode in arb_mode()) {
        let config = RewriteConfig::new(mode);
        let w = generate(&params);
        let out = Rewriter::new(config.clone())
            .rewrite(&w.binary, &Instrumentation::empty(Points::EveryBlock))
            .map_err(|e| TestCaseError::fail(format!("rewrite failed: {e}")))?;
        let report = verify_rewrite(&w.binary, &out, &config)
            .map_err(|e| TestCaseError::fail(format!("verify failed to run: {e}")))?;
        let errors: Vec<_> = report.errors().collect();
        prop_assert!(errors.is_empty(), "{}: verifier rejected a clean rewrite: {:#?}", mode, errors);
    }

    /// The incremental engine is a pure optimisation: a warm-cache
    /// re-rewrite is byte-identical to the cold rewrite it memoised,
    /// and both match the uncached path — including under injected
    /// analysis faults, which must fingerprint into the cache keys.
    #[test]
    fn warm_cache_rewrites_are_byte_identical(params in arb_params(), mode in arb_mode(),
                                              seed in 0u64..1_000) {
        let w = generate(&params);
        let mut config = RewriteConfig::new(mode);
        let plan = FaultPlan::quiet(seed);
        plan.arm(&w.binary, &mut config);
        let instr = Instrumentation::empty(Points::EveryBlock);
        let rewriter = Rewriter::new(config);
        let uncached = rewriter.rewrite(&w.binary, &instr)
            .map_err(|e| TestCaseError::fail(format!("uncached rewrite failed: {e}")))?;
        let cache = RewriteCache::new();
        let cold = rewriter.rewrite_cached(&w.binary, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;
        let warm = rewriter.rewrite_cached(&w.binary, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("warm rewrite failed: {e}")))?;
        prop_assert_eq!(&uncached.binary, &cold.binary, "cold cached != uncached");
        prop_assert_eq!(&cold.binary, &warm.binary, "warm != cold");
        // The warm run must actually have been served from the cache.
        prop_assert!(warm.stats.analysis_memo_hit, "warm run re-analysed the binary");
        prop_assert_eq!(warm.stats.fragments.misses, 0, "warm run rebuilt fragments");
    }

    /// Thread count never leaks into the output: a single-threaded
    /// rewrite and an 8-way parallel rewrite of the same binary are
    /// byte-identical, across arches, modes and fault seeds.
    #[test]
    fn parallel_rewrites_are_deterministic(params in arb_params(), mode in arb_mode(),
                                           seed in 0u64..1_000) {
        let w = generate(&params);
        let mut config = RewriteConfig::new(mode);
        FaultPlan::quiet(seed).arm(&w.binary, &mut config);
        let instr = Instrumentation::empty(Points::EveryBlock);
        let one = Rewriter::new(config.clone()).with_threads(1)
            .rewrite(&w.binary, &instr)
            .map_err(|e| TestCaseError::fail(format!("1-thread rewrite failed: {e}")))?;
        let eight = Rewriter::new(config).with_threads(8)
            .rewrite(&w.binary, &instr)
            .map_err(|e| TestCaseError::fail(format!("8-thread rewrite failed: {e}")))?;
        prop_assert_eq!(&one.binary, &eight.binary, "thread count changed the output");
        prop_assert_eq!(one.report.instrumented_funcs, eight.report.instrumented_funcs);
    }
}
