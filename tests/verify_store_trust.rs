//! The ladder's verifier does not take the store's word for a CFG.
//!
//! A store record is vouched for only by its checksum and its
//! read-set: a `cache serve` peer, a stale local record or a read-set
//! bug can hand the rewrite a CFG whose jump table is missing entries
//! while its status still says `Ok`. The rewrite then uses that CFG,
//! so the verifier's strict analysis must not: every CFG decoded from
//! a store is re-analysed, and the ladder sees the under-approximated
//! table as a `cfl-completeness` error and demotes the function.

use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, FuncCfg, FuncStatus, InjectedFault};
use incremental_cfg_patching::core::{
    CacheStore, Instrumentation, Points, RetryPolicy, RewriteCache, RewriteConfig, RewriteMode,
    Stage, StoreBackend, StoreEvent, StoreFaults, StoreStats, Trace,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::verify::{rewrite_with_ladder_cached, LadderOutcome};
use incremental_cfg_patching::workloads::switch_demo;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A store that serves `cfg` in place of the CFG of the function at
/// `cfg.entry`: the record under that function's clean key, with its
/// read-set kept, so it passes the checksum and the read-set check.
/// It also serves no stored ladder round, so every run re-verifies.
struct DoctoredStore {
    inner: CacheStore,
    cfg: FuncCfg,
}

impl StoreBackend for DoctoredStore {
    fn get(&self, stage: Stage, key: u64) -> Option<Vec<u8>> {
        let payload = self.inner.get(stage, key)?;
        match stage {
            Stage::Ladder => return None,
            Stage::Func => {}
            _ => return Some(payload),
        }
        let mut rest = &payload[..];
        let honest = FuncCfg::read_bin(&mut rest).expect("a function record leads with its CFG");
        if honest.entry != self.cfg.entry {
            return Some(payload);
        }
        let mut doctored = Vec::new();
        self.cfg.write_bin(&mut doctored);
        doctored.extend_from_slice(rest);
        Some(doctored)
    }
    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        self.inner.put(stage, key, payload);
    }
    fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        self.inner.quarantine_record(stage, key, why);
    }
    fn flush(&self) -> usize {
        self.inner.flush()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn events(&self) -> Vec<StoreEvent> {
        self.inner.events()
    }
    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }
    fn entry_counts(&self) -> Vec<(Stage, usize)> {
        self.inner.entry_counts()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn arm_faults(&self, faults: StoreFaults) {
        self.inner.arm_faults(faults);
    }
    fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.set_retry_policy(policy);
    }
    fn trace(&self) -> Arc<Trace> {
        self.inner.trace()
    }
}

/// The victim's demotion, which must come from a verify error naming
/// the target the doctored table dropped.
fn assert_demoted_for(out: &LadderOutcome, entry: u64, dropped: u64, what: &str) {
    let d = out
        .dispositions
        .iter()
        .find(|d| d.entry == entry)
        .unwrap_or_else(|| panic!("{what}: no disposition for {entry:#x}"));
    let needle = format!("{dropped:#x}");
    assert!(
        d.steps.iter().any(|s| s.reason.contains("cfl-completeness") && s.reason.contains(&needle)),
        "{what}: {entry:#x} must be demoted for a cfl-completeness error naming {needle}, got {:?}",
        d.steps
    );
    assert!(out.verify.is_clean(), "{what}: the final round verifies clean");
}

#[test]
fn doctored_store_cfg_is_a_verify_error() {
    let instr = Instrumentation::empty(Points::EveryBlock);
    let config = RewriteConfig::new(RewriteMode::FuncPtr);
    for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
        let bin = switch_demo(arch, false).binary;
        let entry = bin.function_named("dispatch").expect("demo has dispatch").addr;
        let clean = analyze(&bin, &AnalysisConfig::default());
        let desc = clean.funcs[&entry].jump_tables.first().expect("dispatch has a table").clone();
        let (_, dropped) = *desc
            .targets
            .iter()
            .find(|(i, _)| *i == desc.count - 1)
            .expect("last entry is a valid target");
        // The CFG a table-dropping analysis would have produced, with
        // nothing to show for it: status `Ok`, no fault in the config.
        let faulty = AnalysisConfig {
            inject: vec![InjectedFault::UnderApproximateTable {
                jump_addr: desc.jump_addr,
                drop: 1,
            }],
            ..AnalysisConfig::default()
        };
        let cfg = analyze(&bin, &faulty).funcs[&entry].clone();
        assert_eq!(cfg.status, FuncStatus::Ok);
        assert_ne!(cfg, clean.funcs[&entry], "the doctored CFG drops a table entry");

        for threads in [1, 4] {
            // This binary holds a single test, so the process-global
            // override cannot race another test.
            std::env::set_var("ICFGP_THREADS", threads.to_string());
            let what = format!("{arch:?}/{threads} thread(s)");
            let dir = std::env::temp_dir()
                .join(format!("icfgp-store-trust-{}-{arch:?}-{threads}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let honest = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let out = rewrite_with_ladder_cached(&bin, &config, &instr, &honest)
                .expect("the honest run converges");
            assert!(out.fully_clean(), "{what}: the honest run demotes nothing");
            honest.flush_store();
            drop(honest);

            // Cold: a new process whose analysis of dispatch is the
            // doctored record.
            let store = DoctoredStore { inner: CacheStore::open(&dir), cfg: cfg.clone() };
            let cache = RewriteCache::with_store(Arc::new(store));
            let cold = rewrite_with_ladder_cached(&bin, &config, &instr, &cache)
                .expect("the doctored run converges");
            assert_demoted_for(&cold, entry, dropped, &format!("cold {what}"));

            // Warm: the same process again, its stage maps and memos
            // holding what the store served.
            let warm = rewrite_with_ladder_cached(&bin, &config, &instr, &cache)
                .expect("the warm doctored run converges");
            assert_demoted_for(&warm, entry, dropped, &format!("warm {what}"));
            assert_eq!(cold.outcome.binary, warm.outcome.binary, "{what}: warm = cold");
            drop(cache);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
