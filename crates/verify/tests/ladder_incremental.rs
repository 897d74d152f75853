//! Incremental invalidation across ladder rounds: a fault confined to
//! ONE function must only ever re-do work for that function — every
//! untouched function's analysis and fragment (with its emitted code) is served
//! from the shared [`RewriteCache`] on every round after the first.
//!
//! The checks are counter-based (via `LadderOutcome::round_stats`) and
//! fully deterministic: a hand-built single-victim fault plan, a fixed
//! workload seed, and exact hit/miss accounting per round.

use icfgp_cfg::{analyze, InjectedFault};
use icfgp_core::{Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode};
use icfgp_verify::rewrite_with_ladder_cached;

/// Build the workload and a config whose only fault is dropping all but
/// one entry of a single function's jump table — a catastrophic
/// under-approximation the verifier is guaranteed to reject, confined
/// to one victim function. Returns `(binary, config, victim_entry)`.
fn single_victim_setup() -> (icfgp_obj::Binary, RewriteConfig, u64) {
    let binary = icfgp_workloads::generate(&icfgp_workloads::GenParams::small(
        "ladder-inc",
        icfgp_isa::Arch::X64,
        11,
    ))
    .binary;
    let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
    let clean = analyze(&binary, &config.analysis);
    let (victim, jt) = clean
        .funcs
        .values()
        .find_map(|f| {
            f.jump_tables
                .iter()
                .find(|jt| jt.count > 1)
                .map(|jt| (f.entry, jt))
        })
        .expect("small workload has at least one multi-entry jump table");
    config
        .analysis
        .inject
        .push(InjectedFault::UnderApproximateTable {
            jump_addr: jt.jump_addr,
            drop: jt.count - 1,
        });
    (binary, config, victim)
}

#[test]
fn single_function_fault_leaves_rest_of_cache_hot() {
    let (binary, config, victim) = single_victim_setup();
    let cache = RewriteCache::new();
    let ladder = rewrite_with_ladder_cached(
        &binary,
        &config,
        &Instrumentation::empty(Points::EveryBlock),
        &cache,
    )
    .expect("ladder converges");

    // The fault actually bit: the victim (and only the victim) was
    // demoted, which forced at least one extra round.
    let degraded: Vec<u64> = ladder.degraded().map(|d| d.entry).collect();
    assert_eq!(degraded, vec![victim], "exactly the victim degrades");
    assert!(
        ladder.rounds >= 2,
        "demotion must cost at least one extra round"
    );
    assert_eq!(ladder.round_stats.len(), ladder.rounds);

    let funcs = ladder.round_stats[0].func_analyses.total();
    assert!(
        funcs > 1,
        "need untouched functions to make the claim meaningful"
    );

    // Round 1 is cold: nothing can hit an empty cache.
    let cold = &ladder.round_stats[0];
    assert!(!cold.analysis_memo_hit);
    assert_eq!(cold.fragments.hits, 0);

    for (i, s) in ladder.round_stats.iter().enumerate().skip(1) {
        // The whole-binary analysis is memoised: demotion changes the
        // per-function rewrite rung, not the analysis config, so no
        // round after the first re-analyses anything.
        assert!(s.analysis_memo_hit, "round {} re-ran the analysis", i + 1);
        assert_eq!(
            s.func_analyses.misses,
            0,
            "round {} re-analysed a function",
            i + 1
        );
        assert_eq!(s.liveness.misses, 0, "round {} recomputed liveness", i + 1);
        // Only the demoted victim's fragment is rebuilt; every
        // untouched function's relocation fragment is a cache hit.
        assert!(
            s.fragments.misses <= 1,
            "round {} rebuilt {} fragments, expected at most the victim",
            i + 1,
            s.fragments.misses
        );
        assert_eq!(s.fragments.hits, funcs - s.fragments.misses);
    }

    // The ladder's final outcome is clean and the victim really was
    // pushed below the full func-ptr rung.
    assert!(ladder.verify.errors().count() == 0);
}

#[test]
fn shared_cache_makes_repeat_ladders_free() {
    // Re-running the same faulted ladder on the same cache (the chaos
    // campaign's per-(workload, arch) pattern) does no per-function
    // work at all: every round of the second ladder is 100% warm.
    let (binary, config, _victim) = single_victim_setup();
    let cache = RewriteCache::new();
    let instr = Instrumentation::empty(Points::EveryBlock);
    let first = rewrite_with_ladder_cached(&binary, &config, &instr, &cache).unwrap();
    let second = rewrite_with_ladder_cached(&binary, &config, &instr, &cache).unwrap();
    assert_eq!(
        first.outcome.binary, second.outcome.binary,
        "cache reuse changed the output"
    );
    assert_eq!(first.rounds, second.rounds);
    for (i, s) in second.round_stats.iter().enumerate() {
        assert!(
            s.analysis_memo_hit,
            "second ladder round {} re-analysed",
            i + 1
        );
        assert_eq!(s.func_analyses.misses, 0);
        assert_eq!(
            s.fragments.misses,
            0,
            "second ladder round {} rebuilt a fragment",
            i + 1
        );
    }
}
