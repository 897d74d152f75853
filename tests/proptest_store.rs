//! The persistent store's headline property (acceptance criterion of
//! the crash-safe cache PR): **for any workload and any injected store
//! corruption, a warm run from the (possibly corrupted) persisted
//! cache produces output bytes identical to a cold run, and corrupted
//! records are quarantined — never returned as hits.**
//!
//! The second property moves the damage behind the framing: payloads
//! are truncated or extended and their checksums recomputed, so every
//! frame loads and only the record decoder can refuse them.

use incremental_cfg_patching::core::{
    store, CacheStore, CorruptKind, Instrumentation, Points, Registry, RewriteCache, RewriteConfig,
    RewriteMode, Rewriter, StoreBackend,
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

fn arb_kind() -> impl Strategy<Value = CorruptKind> {
    prop_oneof![
        Just(CorruptKind::BitFlip),
        Just(CorruptKind::Truncate),
        Just(CorruptKind::StaleVersion),
    ]
}

/// Segment header: magic, format version, key epoch.
const HEADER_LEN: usize = 20;
/// Record frame before the payload: tag, key, length, checksum.
const FRAME_LEN: usize = 21;

/// Truncate or extend roughly every other record payload in `dir`'s
/// segments (seeded), rewriting each damaged frame's length and
/// checksum so it still loads. Each segment's end frame (tag 0xFF,
/// the record count) is copied as it is. Returns how many payloads
/// were damaged.
fn damage_payloads(dir: &std::path::Path, seed: u64) -> usize {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Sorted, so the seed damages the same records on every run.
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let mut damaged = 0;
    for path in segments {
        let data = std::fs::read(&path).unwrap();
        let mut out = data[..HEADER_LEN].to_vec();
        let mut at = HEADER_LEN;
        while at < data.len() {
            let (tag, key) = (data[at], &data[at + 1..at + 9]);
            let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().unwrap()) as usize;
            let mut payload = data[at + FRAME_LEN..at + FRAME_LEN + len].to_vec();
            at += FRAME_LEN + len;
            if tag != 0xFF && next() % 2 == 0 {
                // A self-delimiting decoder can accept neither a proper
                // prefix nor trailing bytes.
                if next() % 2 == 0 && !payload.is_empty() {
                    payload.truncate((next() % payload.len() as u64) as usize);
                } else {
                    payload.extend((0..=next() % 3).map(|_| next() as u8));
                }
                damaged += 1;
            }
            out.push(tag);
            out.extend_from_slice(key);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&store::checksum64(&[&[tag], key, &payload]).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        std::fs::write(&path, out).unwrap();
    }
    damaged
}

fn arb_params() -> impl Strategy<Value = GenParams> {
    (arb_arch(), 0u64..500, 1usize..3, 0usize..3, 2usize..6).prop_map(
        |(arch, seed, compute, switches, cases)| {
            let mut p = GenParams::small("propstore", arch, seed);
            p.compute_funcs = compute;
            p.switch_funcs = switches;
            p.switch_cases = cases;
            p.outer_iters = 16;
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn corrupted_store_never_changes_output_bytes(
        params in arb_params(),
        mode in arb_mode(),
        kind in arb_kind(),
        corrupt_seed in 0u64..1_000,
    ) {
        let w = generate(&params);
        let rw = Rewriter::new(RewriteConfig::new(mode));
        let instr = Instrumentation::empty(Points::EveryBlock);

        let cold = rw
            .rewrite_cached(&w.binary, &instr, &RewriteCache::new())
            .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;

        let dir = std::env::temp_dir().join(format!(
            "icfgp-propstore-{}-{}-{corrupt_seed}",
            std::process::id(),
            params.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Populate and persist (a first `icfgp` invocation).
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let _ = rw
                .rewrite_cached(&w.binary, &instr, &cache)
                .map_err(|e| TestCaseError::fail(format!("populate rewrite failed: {e}")))?;
            prop_assert!(cache.flush_store() > 0, "populate run must persist records");
        }

        // Damage the store on disk.
        let what = store::corrupt_dir(&dir, kind, corrupt_seed)
            .map_err(TestCaseError::fail)?;

        // Warm run over the damaged store (a second invocation).
        let store = Arc::new(CacheStore::open(&dir));
        let cache = RewriteCache::with_store(store.clone());
        let warm = rw
            .rewrite_cached(&w.binary, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("warm rewrite failed ({what}): {e}")))?;

        prop_assert_eq!(
            &cold.binary, &warm.binary,
            "output bytes diverged after store corruption ({})", what
        );
        // The damage was detected, not served: at least one record or
        // segment is quarantined (open-time and lookup-time combined).
        let s = store.stats();
        prop_assert!(
            s.quarantined_records + s.quarantined_segments >= 1,
            "corruption must quarantine something ({}): {:?}", what, s
        );
        // And an offline verify sees the same damage.
        let report = store::verify_dir(&dir);
        prop_assert!(!report.is_clean(), "verify_dir must flag the damage ({})", what);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoder_catches_payload_damage_behind_valid_checksums(
        params in arb_params(),
        mode in arb_mode(),
        damage_seed in 0u64..1_000,
    ) {
        let w = generate(&params);
        let rw = Rewriter::new(RewriteConfig::new(mode));
        let instr = Instrumentation::empty(Points::EveryBlock);
        let cold = rw
            .rewrite_cached(&w.binary, &instr, &RewriteCache::new())
            .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;

        let dir = std::env::temp_dir().join(format!(
            "icfgp-propstore-payload-{}-{}-{damage_seed}",
            std::process::id(),
            params.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let _ = rw
                .rewrite_cached(&w.binary, &instr, &cache)
                .map_err(|e| TestCaseError::fail(format!("populate rewrite failed: {e}")))?;
            prop_assert!(cache.flush_store() > 0, "populate run must persist records");
        }
        let damaged = damage_payloads(&dir, damage_seed);
        prop_assert!(damaged > 0, "the seed must damage at least one payload");

        let store = Arc::new(CacheStore::open(&dir));
        let cache = RewriteCache::with_store(store.clone());
        let warm = rw
            .rewrite_cached(&w.binary, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("warm rewrite failed: {e}")))?;
        prop_assert_eq!(&cold.binary, &warm.binary, "output bytes diverged after payload damage");

        // Framing passed everywhere; the decoder quarantined at lookup.
        let s = store.stats();
        prop_assert_eq!(s.quarantined_records, s.lookup_quarantines, "framing must pass: {:?}", s);
        prop_assert!(s.lookup_quarantines > 0, "the decoder must quarantine: {:?}", s);
        let violations = Registry::check("payload-damage", &s);
        prop_assert!(violations.is_empty(), "lookup conservation: {:?}", violations);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
