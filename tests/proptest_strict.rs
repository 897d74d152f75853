//! The verifier's strict analysis, derived from the rewrite's
//! (`derive_strict_analysis`), equals the sequential reference
//! `analyze(binary, &config.analysis.strictened())` field by field:
//! every function's CFG, the function-pointer definitions and the
//! boundary set. Across every generator workload, all three
//! architectures, fault plans and thread counts, and on three cache
//! states: cold, warm in memory (the memo) and warm from a store (the
//! rewrite's CFGs decoded from disk).

use incremental_cfg_patching::cfg::{analyze, BinaryAnalysis};
use incremental_cfg_patching::core::{
    analyze_incremental, derive_strict_analysis, CacheStore, FaultPlan, RewriteCache,
    RewriteConfig, RewriteMode, StoreBackend,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::obj::Binary;
use incremental_cfg_patching::workloads::{
    docker_like, driverlib_like, firefox_like, generate, switch_demo, GenParams,
};
use proptest::prelude::*;
use std::sync::Arc;

const WORKLOADS: [&str; 6] = [
    "small",
    "small-pie",
    "switch_demo",
    "firefox",
    "docker",
    "driverlib",
];

fn workload(name: &str, arch: Arch, seed: u64) -> Binary {
    match name {
        "small" => generate(&GenParams::small("strict", arch, seed)).binary,
        "small-pie" => {
            let mut p = GenParams::small("strict", arch, seed);
            p.pie = true;
            generate(&p).binary
        }
        "switch_demo" => switch_demo(arch, seed % 2 == 1).binary,
        "firefox" => firefox_like(arch, 1).binary,
        "docker" => docker_like(arch, seed, 10).binary,
        "driverlib" => driverlib_like(arch, 120, 12).0.binary,
        other => unreachable!("no workload {other}"),
    }
}

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_plan() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![Just(None), Just(Some("standard")), Just(Some("aggressive"))]
}

/// Field-by-field equality, naming the first function that differs.
fn assert_same(derived: &BinaryAnalysis, reference: &BinaryAnalysis, what: &str) {
    assert_eq!(
        derived.funcs.len(),
        reference.funcs.len(),
        "{what}: function count"
    );
    for ((e, d), (_, r)) in derived.funcs.iter().zip(reference.funcs.iter()) {
        assert_eq!(d, r, "{what}: function {e:#x}");
    }
    assert_eq!(derived.fp_defs, reference.fp_defs, "{what}: fp_defs");
    assert_eq!(
        derived.boundaries, reference.boundaries,
        "{what}: boundaries"
    );
    assert_eq!(derived, reference, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn derived_strict_analysis_equals_the_sequential_reference(
        wl in 0usize..WORKLOADS.len(),
        arch in arb_arch(),
        seed in 0u64..500,
        plan in arb_plan(),
        threads in 1usize..4,
    ) {
        let name = WORKLOADS[wl];
        let binary = workload(name, arch, seed);
        let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
        if let Some(intensity) = plan {
            FaultPlan::named(intensity, seed)
                .expect("a known intensity")
                .arm(&binary, &mut config);
        }
        let reference = analyze(&binary, &config.analysis.strictened());
        let what = format!("{name}/{arch}/seed {seed}/{plan:?}/{threads} thread(s)");

        let dir = std::env::temp_dir().join(format!(
            "icfgp-strict-{}-{wl}-{seed}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CacheStore::open(&dir));
        let cold = RewriteCache::with_store(Arc::clone(&store));
        let _ = analyze_incremental(&binary, &config.analysis, &cold, threads);
        let derived = derive_strict_analysis(&binary, &config.analysis, &cold, threads);
        assert_same(&derived, &reference, &format!("cold {what}"));

        let memo = derive_strict_analysis(&binary, &config.analysis, &cold, threads);
        prop_assert!(Arc::ptr_eq(&memo, &derived), "warm-memory {what}: memo missed");
        store.flush();

        // A new process over the filled store: the rewrite's CFGs come
        // back from disk, the derivation runs again.
        let warm = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let _ = analyze_incremental(&binary, &config.analysis, &warm, threads);
        let derived = derive_strict_analysis(&binary, &config.analysis, &warm, threads);
        assert_same(&derived, &reference, &format!("warm-store {what}"));
        drop(warm);
        drop(cold);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two function symbols at one address: the rewrite's analysis keeps
/// one CFG per entry, so the derivation cannot tell the two apart and
/// falls back to the sequential reference. Here the later, one-byte
/// alias hides the jump tables of the function listed first.
#[test]
fn duplicate_function_entries_match_the_reference() {
    let mut binary = firefox_like(Arch::X64, 1).binary;
    let config = RewriteConfig::new(RewriteMode::FuncPtr).analysis;
    let with_table = analyze(&binary, &config)
        .funcs
        .values()
        .find(|f| !f.jump_tables.is_empty())
        .expect("a function with a jump table")
        .entry;
    let i = binary
        .symbols()
        .iter()
        .position(|s| s.addr == with_table)
        .expect("its symbol");
    let mut alias = binary.symbols()[i].clone();
    alias.name.push_str(".alias");
    alias.size = 1;
    binary.symbols_mut().insert(i + 1, alias);
    let cache = RewriteCache::new();
    let _ = analyze_incremental(&binary, &config, &cache, 2);
    let derived = derive_strict_analysis(&binary, &config, &cache, 2);
    assert_same(
        &derived,
        &analyze(&binary, &config.strictened()),
        "duplicate entry",
    );
}
