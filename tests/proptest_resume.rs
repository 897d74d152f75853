//! Crash-resume equivalence: killing a store-backed ladder run at *any*
//! round boundary and rerunning it over the same store must reproduce
//! the uninterrupted run exactly —
//!
//! 1. **Byte identity** — the rerun's binary serialises to the same
//!    bytes as the uninterrupted reference;
//! 2. **Disposition identity** — per-function `FuncDisposition`
//!    records (achieved modes, ladder steps, failures) are equal;
//! 3. **Accounting** — the rerun reports the same total round count,
//!    with at most the killed rounds replayed from the store, and
//!    exactly them when no store fault is armed;
//!
//! across workload seeds, rewrite modes, fault seeds and thread
//! counts. Every case drops one entry of a jump table, a fault the
//! verifier always catches, so every reference ladder runs at least two
//! rounds and has a kill point. Kills are the ladder's deterministic
//! abort, which lands after a round's record and results were flushed
//! — exactly the disk state SIGKILL leaves behind. Every kill point
//! runs twice: with the seed's store I/O faults armed on its stores,
//! which may cost the rerun replayed rounds (never bytes), and without
//! them, when the rerun must replay exactly the killed rounds. Both
//! passes arm the seed's patch-point corruption on every cache.

use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, InjectedFault};
use incremental_cfg_patching::core::{
    CacheStore, FaultPlan, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode,
    StoreBackend,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::verify::{
    rewrite_with_ladder_cached, rewrite_with_ladder_supervised, LadderError,
};
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icfgp-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cache over the store in `dir` with `plan`'s read-back corruption
/// armed, and its store I/O faults too when `store_faults`.
fn open(dir: &Path, plan: &FaultPlan, store_faults: bool) -> RewriteCache {
    let store = CacheStore::open(dir);
    if store_faults {
        store.arm_faults(plan.store_faults());
    }
    let cache = RewriteCache::with_store(Arc::new(store));
    cache.arm_patch_corruption(plan.seed, plan.corrupt_patch_point);
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn kill_at_any_boundary_resumes_byte_identical(
        mode in arb_mode(),
        wl_seed in 0u64..200,
        fault_seed in 0u64..500,
        threads in 1usize..5,
    ) {
        // This binary holds a single sequential proptest, so the
        // process-global override cannot race another test. Byte
        // identity must hold for any worker count.
        std::env::set_var("ICFGP_THREADS", threads.to_string());
        let w = generate(&GenParams::small("resume", Arch::X64, wl_seed));
        let mut config = RewriteConfig::new(mode);
        // Drop one entry of a jump table in a function the plan does
        // not fail, panic or stall, so the verifier sees the table.
        let plan = FaultPlan::standard(fault_seed);
        let mut armed = config.clone();
        plan.arm(&w.binary, &mut armed);
        let victims: Vec<u64> = armed
            .analysis
            .inject
            .iter()
            .filter_map(|f| match f {
                InjectedFault::FailFunction { entry }
                | InjectedFault::PanicFunction { entry }
                | InjectedFault::StallFunction { entry, .. } => Some(*entry),
                _ => None,
            })
            .collect();
        let jump_addr = analyze(&w.binary, &AnalysisConfig::default())
            .funcs
            .values()
            .filter(|f| !victims.contains(&f.entry))
            .find_map(|f| f.jump_tables.first().map(|jt| jt.jump_addr))
            .expect("a jump table the plan leaves analysable");
        config.analysis.inject.push(InjectedFault::UnderApproximateTable { jump_addr, drop: 1 });
        config.fault_plan = Some(plan.clone());
        config.degradation.max_below_floor = 1.0;
        let instr = Instrumentation::empty(Points::EveryBlock);

        // Uninterrupted reference, store-backed like the runs under
        // test.
        let scratch = tmp_dir(&format!("{mode}-{wl_seed}-{fault_seed}-{threads}"));
        let reference = rewrite_with_ladder_cached(&w.binary, &config, &instr, &open(&scratch.join("ref"), &plan, true))
            .map_err(|e| TestCaseError::fail(format!("reference ladder: {e}")))?;
        prop_assert_eq!(reference.resumed_rounds, 0, "a fresh store replays nothing");
        prop_assert!(reference.rounds >= 2, "{} round(s): no kill point", reference.rounds);
        let ref_bytes = serde_json::to_vec(&reference.outcome.binary).unwrap();

        for k in 1..reference.rounds {
            for (tag, store_faults) in [("faulted", true), ("clean", false)] {
                let case_dir = scratch.join(format!("k{k}-{tag}"));
                let cache = || open(&case_dir, &plan, store_faults);
                match rewrite_with_ladder_supervised(&w.binary, &config, &instr, &cache(), Some(k)) {
                    Err(LadderError::Interrupted { rounds }) => prop_assert_eq!(rounds, k),
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "kill point {k} ({tag}): expected interrupt, got {other:?}"
                        )))
                    }
                }
                let resumed = rewrite_with_ladder_cached(&w.binary, &config, &instr, &cache())
                    .map_err(|e| TestCaseError::fail(format!("kill point {k} ({tag}): rerun: {e}")))?;
                prop_assert_eq!(
                    serde_json::to_vec(&resumed.outcome.binary).unwrap(),
                    ref_bytes.clone(),
                    "kill point {} ({}): rerun bytes diverge",
                    k,
                    tag
                );
                prop_assert_eq!(
                    &resumed.dispositions,
                    &reference.dispositions,
                    "kill point {} ({}): rerun dispositions diverge",
                    k,
                    tag
                );
                prop_assert_eq!(resumed.rounds, reference.rounds);
                prop_assert!(resumed.resumed_rounds <= k, "kill point {} ({})", k, tag);
                if !store_faults {
                    prop_assert_eq!(resumed.resumed_rounds, k);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
