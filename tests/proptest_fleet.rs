//! Cross-binary sharing headline property (acceptance criterion of the
//! position-independent fragments PR): **for any fleet variant pair —
//! two binaries generated from the same workload, the second with a
//! non-zero `perturb` — rewriting the second through the first's
//! persisted store produces output bytes identical to its cold
//! rewrite, across modes and thread counts, and the second binary's
//! fragment-stage misses are strictly fewer than the first's.**
//!
//! The variants differ only in a few filler functions (same-length
//! renames, reordered same-width bodies), so the weak per-function
//! keys of everything else line up across the two binaries and the
//! fixed-up shared fragments must reproduce the cold bytes exactly.

use incremental_cfg_patching::core::{
    CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn warm_from_other_binary_is_byte_identical_and_misses_less(
        arch in arb_arch(),
        mode in arb_mode(),
        seed in 0u64..200,
        perturb in 1u64..50,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut p = GenParams::small("propfleet", arch, seed);
        p.filler_funcs = 8;
        p.outer_iters = 16;
        let b1 = generate(&p).binary;
        p.perturb = perturb;
        let b2 = generate(&p).binary;
        prop_assert!(b1 != b2, "perturb must produce a distinct variant");

        let rw = Rewriter::new(RewriteConfig::new(mode)).with_threads(threads);
        let instr = Instrumentation::empty(Points::EveryBlock);

        let cold2 = rw
            .rewrite_cached(&b2, &instr, &RewriteCache::new())
            .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;

        let dir = std::env::temp_dir().join(format!(
            "icfgp-propfleet-{}-{seed}-{perturb}-{threads}-{mode:?}-{arch}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // First binary populates the store (a first `icfgp` run).
        let cold1_misses;
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let out1 = rw
                .rewrite_cached(&b1, &instr, &cache)
                .map_err(|e| TestCaseError::fail(format!("populate rewrite failed: {e}")))?;
            cold1_misses = out1.stats.fragments.misses;
            prop_assert!(cache.flush_store() > 0, "populate run must persist records");
        }

        // Second binary rewrites through the first's store.
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let out2 = rw
            .rewrite_cached(&b2, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("warm rewrite failed: {e}")))?;
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(
            &cold2.binary, &out2.binary,
            "warm-from-other-binary output must match the cold rewrite"
        );
        prop_assert!(
            out2.stats.fragments.misses < cold1_misses,
            "second binary must miss strictly fewer fragments: {} vs cold {}",
            out2.stats.fragments.misses,
            cold1_misses
        );
        prop_assert!(
            out2.stats.fragments.shared > 0 && out2.stats.emits.shared > 0,
            "cross-binary hits must be flagged shared: frags {:?} emits {:?}",
            out2.stats.fragments,
            out2.stats.emits
        );
    }
}

/// A fixed 3-variant fleet over one shared store: every output matches
/// its variant's cold rewrite, each later variant misses strictly
/// fewer fragments than the first, and variants 2..N serve at least
/// half of their fragment and emit lookups from the shared records,
/// flagged as cross-binary hits.
#[test]
fn three_variant_fleet_shares_across_variants() {
    let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
    let instr = Instrumentation::empty(Points::EveryBlock);
    let binaries: Vec<_> = (0..3u64)
        .map(|perturb| {
            let mut p = GenParams::small("fleet", Arch::X64, 11);
            p.filler_funcs = 24;
            p.perturb = perturb;
            generate(&p).binary
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("icfgp-fleet3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
    let outs: Vec<_> = binaries
        .iter()
        .map(|b| rw.rewrite_cached(b, &instr, &shared).expect("fleet variant"))
        .collect();
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);

    for (b, out) in binaries.iter().zip(&outs) {
        let cold = rw.rewrite_cached(b, &instr, &RewriteCache::new()).expect("cold variant");
        assert_eq!(cold.binary, out.binary, "fleet output must match the cold rewrite");
    }
    let first_misses = outs[0].stats.fragments.misses;
    let (mut hits, mut total, mut shared_hits) = (0u64, 0u64, 0u64);
    for o in &outs[1..] {
        assert!(
            o.stats.fragments.misses < first_misses,
            "later variants must miss less: {:?} vs {first_misses}",
            o.stats.fragments
        );
        hits += o.stats.fragments.hits + o.stats.emits.hits;
        total += o.stats.fragments.total() + o.stats.emits.total();
        shared_hits += o.stats.fragments.shared + o.stats.emits.shared;
    }
    let warm_hit_rate = if total == 0 { 1.0 } else { hits as f64 / total as f64 };
    assert!(
        warm_hit_rate >= 0.5,
        "variants 2..N must serve >= 50% of fragment+emit lookups from the shared store: \
         {hits}/{total}"
    );
    assert!(shared_hits > 0, "cross-binary hits must be flagged shared");
}
