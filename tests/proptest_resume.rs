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
//! counts. Kills are the ladder's deterministic abort, which lands
//! after a round's record and results were flushed — exactly the disk
//! state SIGKILL leaves behind. Every kill point runs twice: under the
//! seed's whole plan, whose analysis faults make the multi-round
//! ladders and whose store I/O faults may cost the rerun replayed
//! rounds (never bytes), and under a copy of the plan without store
//! faults, which must replay exactly the killed rounds.

use incremental_cfg_patching::core::{
    CacheStore, FaultPlan, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode,
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

fn open(dir: &Path) -> RewriteCache {
    RewriteCache::with_store(Arc::new(CacheStore::open(dir)))
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
        // Standard intensity forces multi-round ladders on most seeds;
        // single-round cases exercise the trivial no-kill-point path.
        config.fault_plan = Some(FaultPlan::standard(fault_seed));
        config.degradation.max_below_floor = 1.0;
        let mut clean = config.clone();
        clean.fault_plan = clean.fault_plan.as_ref().map(FaultPlan::without_store_faults);
        let instr = Instrumentation::empty(Points::EveryBlock);

        // Uninterrupted reference, store-backed like the runs under
        // test.
        let scratch = tmp_dir(&format!("{mode}-{wl_seed}-{fault_seed}-{threads}"));
        let reference = rewrite_with_ladder_cached(&w.binary, &config, &instr, &open(&scratch.join("ref")))
            .map_err(|e| TestCaseError::fail(format!("reference ladder: {e}")))?;
        prop_assert_eq!(reference.resumed_rounds, 0, "a fresh store replays nothing");
        let ref_bytes = serde_json::to_vec(&reference.outcome.binary).unwrap();

        for k in 1..reference.rounds {
            for (tag, config, exact) in [("faulted", &config, false), ("clean", &clean, true)] {
                let case_dir = scratch.join(format!("k{k}-{tag}"));
                match rewrite_with_ladder_supervised(&w.binary, config, &instr, &open(&case_dir), Some(k)) {
                    Err(LadderError::Interrupted { rounds }) => prop_assert_eq!(rounds, k),
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "kill point {k} ({tag}): expected interrupt, got {other:?}"
                        )))
                    }
                }
                let resumed = rewrite_with_ladder_cached(&w.binary, config, &instr, &open(&case_dir))
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
                if exact {
                    prop_assert_eq!(resumed.resumed_rounds, k);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
