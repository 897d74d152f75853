//! Persistent-store integration tests (tentpole of the crash-safe
//! cache PR):
//!
//! * a warm run from a persisted store is byte-identical to a cold run
//!   and actually hits the store;
//! * two *different* binaries sharing functions share persisted
//!   function-analysis entries (cross-binary sharing);
//! * a crash at **every write boundary** of a flushed segment — record
//!   frame edges, mid-frame, mid-payload, and before the final rename —
//!   leaves a store the next run loads cleanly, with byte-identical
//!   output;
//! * two stores open on one directory at once both persist, each flush
//!   into its own segment;
//! * the exact per-stage and store lookup accounting of a cold, warm
//!   and corrupted ladder and of the audit gate.

use incremental_cfg_patching::core::{
    CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter, Stage,
    StoreBackend, StoreOp, TraceEvent,
};
use incremental_cfg_patching::workloads::{generate, GenParams};
use incremental_cfg_patching::isa::Arch;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icfgp-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_binary(seed: u64) -> incremental_cfg_patching::obj::Binary {
    generate(&GenParams::small("persist", Arch::X64, seed)).binary
}

fn rewriter() -> Rewriter {
    Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
}

fn instr() -> Instrumentation {
    Instrumentation::empty(Points::EveryBlock)
}

#[test]
fn warm_from_disk_is_byte_identical_and_hits() {
    let dir = tmp_dir("warm");
    let binary = small_binary(7);
    let rw = rewriter();

    let cold = rw.rewrite_cached(&binary, &instr(), &RewriteCache::new()).expect("cold");

    {
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let _ = rw.rewrite_cached(&binary, &instr(), &cache).expect("populate");
        assert!(cache.flush_store() > 0, "populate run must persist records");
    }

    let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
    let warm = rw.rewrite_cached(&binary, &instr(), &cache).expect("warm");
    assert_eq!(cold.binary, warm.binary, "warm-from-disk output must match cold");
    assert!(warm.stats.store.hits > 0, "warm run must hit the store: {:?}", warm.stats.store);
    assert_eq!(warm.stats.store.quarantined_records, 0);
    assert_eq!(
        warm.stats.func_analyses.misses, 0,
        "every function analysis must be served from the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_lookups_are_not_double_counted() {
    use incremental_cfg_patching::core::{store::corrupt_dir, CorruptKind};
    let populate_dir = tmp_dir("disjoint-populate");
    let binary = small_binary(17);
    let rw = rewriter();

    // Populate, then measure a clean warm run: it fixes the total
    // persisted-lookup count for this (binary, config).
    {
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&populate_dir)));
        let _ = rw.rewrite_cached(&binary, &instr(), &cache).expect("populate");
        assert!(cache.flush_store() > 0);
    }
    let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&populate_dir)));
    let clean = rw.rewrite_cached(&binary, &instr(), &cache).expect("clean warm").stats.store;
    assert_eq!(clean.quarantined_records, 0, "{clean:?}");
    let total = clean.hits + clean.misses;

    // Damage a segment each way; the warm run over the damaged store
    // must still account for exactly `total` lookups across the two
    // lookup buckets — hits, misses and quarantines are disjoint, so a
    // record rejected by the corruption checks costs one miss and one
    // quarantine count, never a miss *and* an extra lookup entry.
    for (kind, seed) in
        [(CorruptKind::BitFlip, 3), (CorruptKind::Truncate, 5), (CorruptKind::StaleVersion, 7)]
    {
        let dir = tmp_dir("disjoint-damaged");
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&populate_dir).unwrap().flatten() {
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        corrupt_dir(&dir, kind, seed).expect("corrupt");
        let store = Arc::new(CacheStore::open(&dir));
        let cache = RewriteCache::with_store(store.clone());
        let out = rw.rewrite_cached(&binary, &instr(), &cache).expect("damaged warm");
        // Damage is caught at load time (checksum / header checks), so
        // it shows in the store's cumulative counters, not in the
        // rewrite-window delta.
        let s = store.stats();
        assert!(
            s.quarantined_records + s.quarantined_segments > 0,
            "{kind:?}: damage must be detected: {s:?}"
        );
        let d = out.stats.store;
        assert_eq!(
            d.hits + d.misses,
            total,
            "{kind:?}: lookup count must be conserved (disjoint buckets): \
             clean {clean:?} vs damaged {d:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&populate_dir);
}

#[test]
fn cross_binary_sharing_hits_function_analysis() {
    let dir = tmp_dir("xbin");
    // Two binaries that differ ONLY in `main`'s loop bound (one
    // immediate): every other function has identical bytes at
    // identical addresses — the shape of identical runtime/library
    // functions linked into different binaries.
    let mut p1 = GenParams::small("xbin", Arch::X64, 5);
    p1.outer_iters = 24;
    let mut p2 = p1.clone();
    p2.outer_iters = 25;
    let b1 = generate(&p1).binary;
    let b2 = generate(&p2).binary;
    assert_ne!(b1, b2, "the two binaries must differ");
    let n = b2.functions().count();
    assert!(n > 2);

    let rw = rewriter();
    let cold2 = rw.rewrite_cached(&b2, &instr(), &RewriteCache::new()).expect("cold b2");

    {
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let _ = rw.rewrite_cached(&b1, &instr(), &cache).expect("populate with b1");
        cache.flush_store();
    }

    let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
    let out2 = rw.rewrite_cached(&b2, &instr(), &cache).expect("b2 through b1's store");
    assert_eq!(cold2.binary, out2.binary, "sharing must not change output bytes");
    // Analysis entries are keyed per function, so everything except
    // the edited `main` is served from the other binary's store.
    assert!(
        out2.stats.func_analyses.hits >= (n as u64) - 1,
        "expected >= {} shared analysis hits, got {:?}",
        n - 1,
        out2.stats.func_analyses
    );
    assert!(
        out2.stats.func_analyses.misses >= 1,
        "the edited function must be recomputed: {:?}",
        out2.stats.func_analyses
    );
    // Fragment and emit entries are keyed on the weak cross-binary
    // identity: every function except the edited `main` is served from
    // the other binary's store, and those hits are flagged `shared`.
    assert!(
        out2.stats.emits.hits >= (n as u64) - 1,
        "expected >= {} shared emit hits, got {:?}",
        n - 1,
        out2.stats.emits
    );
    assert!(
        out2.stats.fragments.shared >= (n as u64) - 1 && out2.stats.emits.shared >= (n as u64) - 1,
        "cross-binary hits must be counted as shared: frags {:?} emits {:?}",
        out2.stats.fragments,
        out2.stats.emits
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parse the record-frame boundaries of a segment image:
/// `header | (tag u8 · key u64 · len u32 · checksum u64 · payload)*`.
fn frame_boundaries(data: &[u8]) -> Vec<usize> {
    const HEADER_LEN: usize = 20;
    const FRAME_LEN: usize = 21;
    let mut cuts = vec![HEADER_LEN];
    let mut at = HEADER_LEN;
    while at + FRAME_LEN <= data.len() {
        let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().unwrap()) as usize;
        at += FRAME_LEN + len;
        cuts.push(at.min(data.len()));
        if at >= data.len() {
            break;
        }
    }
    cuts
}

#[test]
fn crash_at_every_write_boundary_recovers_cleanly() {
    let populate_dir = tmp_dir("crash-populate");
    let binary = small_binary(11);
    let rw = rewriter();
    let cold = rw.rewrite_cached(&binary, &instr(), &RewriteCache::new()).expect("cold");

    {
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&populate_dir)));
        let _ = rw.rewrite_cached(&binary, &instr(), &cache).expect("populate");
        cache.flush_store();
    }
    let seg_name = std::fs::read_dir(&populate_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| n.starts_with("seg-") && n.ends_with(".seg"))
        .expect("one segment flushed");
    let seg = std::fs::read(populate_dir.join(&seg_name)).unwrap();

    // Every interesting crash point: nothing written, a torn header,
    // each record boundary, and several mid-frame / mid-payload cuts
    // around each boundary.
    let mut cuts: Vec<usize> = vec![0, 1, 7, 19];
    for b in frame_boundaries(&seg) {
        for delta in [0usize, 1, 5, 13, 20, 40] {
            cuts.push(b.saturating_sub(delta));
            cuts.push((b + delta).min(seg.len()));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let crash_dir = tmp_dir("crash-replay");
    for cut in cuts {
        let _ = std::fs::remove_dir_all(&crash_dir);
        std::fs::create_dir_all(&crash_dir).unwrap();
        // The crash left a prefix of the segment visible...
        std::fs::write(crash_dir.join(&seg_name), &seg[..cut]).unwrap();
        // ...plus an unfinished temp file from the interrupted rename.
        std::fs::write(
            crash_dir.join(format!("tmp-9999-{seg_name}")),
            &seg[..cut / 2],
        )
        .unwrap();
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&crash_dir)));
        let out = rw
            .rewrite_cached(&binary, &instr(), &cache)
            .unwrap_or_else(|e| panic!("rewrite after crash at byte {cut} failed: {e}"));
        assert_eq!(
            cold.binary, out.binary,
            "crash at byte {cut}: warm output must equal cold output"
        );
        assert!(
            !crash_dir.join(format!("tmp-9999-{seg_name}")).exists(),
            "crash at byte {cut}: temp leftovers must be reaped"
        );
    }
    let _ = std::fs::remove_dir_all(&populate_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn interrupted_flush_keeps_records_pending_and_retries() {
    use incremental_cfg_patching::core::StoreFaults;
    let dir = tmp_dir("retry");
    let binary = small_binary(13);
    let rw = rewriter();
    let store = Arc::new(CacheStore::open(&dir));
    let cache = RewriteCache::with_store(store.clone());
    let _ = rw.rewrite_cached(&binary, &instr(), &cache).expect("populate");
    // First flush attempt hits injected lock contention: deferred.
    store.arm_faults(StoreFaults { seed: 1, lock_contention: 1.0, ..StoreFaults::default() });
    assert_eq!(cache.flush_store(), 0, "contended flush must defer, not tear");
    assert!(store.pending_len() > 0, "deferred records must stay pending");
    // Retry without the fault: everything lands.
    store.arm_faults(StoreFaults::default());
    assert!(cache.flush_store() > 0, "retry must persist the deferred records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_writers_share_one_directory() {
    use incremental_cfg_patching::core::store::{clear_dir, compact_dir, verify_dir};
    let dir = tmp_dir("two-writers");
    let rw = rewriter();
    let binaries = [small_binary(21), small_binary(22)];
    assert_ne!(binaries[0], binaries[1]);
    let colds: Vec<_> = binaries
        .iter()
        .map(|b| rw.rewrite_cached(b, &instr(), &RewriteCache::new()).expect("cold").binary)
        .collect();

    // Both stores are open on the directory before either rewrites,
    // and both start flushing at once.
    let stores = [Arc::new(CacheStore::open(&dir)), Arc::new(CacheStore::open(&dir))];
    let barrier = std::sync::Barrier::new(stores.len());
    std::thread::scope(|s| {
        for (binary, store) in binaries.iter().zip(&stores) {
            let (rw, barrier) = (&rw, &barrier);
            s.spawn(move || {
                let cache = RewriteCache::with_store(store.clone());
                let _ = rw.rewrite_cached(binary, &instr(), &cache).expect("populate");
                barrier.wait();
                // A flush that meets the other writer's lock defers;
                // a later flush lands the records.
                for _ in 0..100 {
                    if store.pending_len() == 0 {
                        break;
                    }
                    cache.flush_store();
                }
                assert_eq!(store.pending_len(), 0, "every record must land");
            });
        }
    });
    let flushes: u64 = stores.iter().map(|s| s.stats().flushes).sum();
    drop(stores);

    let report = verify_dir(&dir);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        report.segments, flushes,
        "every flush must land in its own segment (no rename overwrote another)"
    );
    for (binary, cold) in binaries.iter().zip(&colds) {
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let warm = rw.rewrite_cached(binary, &instr(), &cache).expect("warm");
        assert_eq!(&warm.binary, cold, "warm output must match the cold rewrite");
        assert!(warm.stats.store.hits > 0, "warm run must hit the store: {:?}", warm.stats.store);
    }

    compact_dir(&dir).expect("compact");
    assert!(dir.join("LOCK").exists(), "compact must leave LOCK in place");
    clear_dir(&dir).expect("clear");
    assert!(dir.join("LOCK").exists(), "clear must leave LOCK in place");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-stage `(hits, misses, shared)` in `Stage::ALL` order, plus the
/// store's `(lookups, hits, misses, lookup_quarantines,
/// quarantined_records)`, as totals on the cache's trace.
type Accounting = ([(u64, u64, u64); 5], (u64, u64, u64, u64, u64));

fn accounting(cache: &RewriteCache) -> Accounting {
    let trace = cache.trace();
    let reg = trace.registry();
    let stages = Stage::ALL.map(|stage| {
        let s = reg.stage_stats(stage);
        (s.hits, s.misses, s.shared)
    });
    let s = cache.store_stats();
    (stages, (s.lookups, s.hits, s.misses, s.lookup_quarantines, s.quarantined_records))
}

/// Lookup-time quarantines per stage, in `Stage::ALL` order, from a
/// recorded trace stream.
fn quarantines_by_stage(events: &[TraceEvent]) -> [u64; 5] {
    let mut out = [0u64; 5];
    for ev in events {
        if let TraceEvent::Store { op: StoreOp::LookupQuarantine { stage }, .. } = ev {
            out[Stage::ALL.iter().position(|s| s == stage).expect("stage")] += 1;
        }
    }
    out
}

/// The exact lookup accounting of the cache for three scenarios: the
/// ladder over `small` (x86-64, func-ptr) cold and then warm from a
/// re-opened store; the warm run again with half the fragment and
/// emit records corrupted as they are read back; and the audit gate
/// applied twice over one cache. The figures pin which tier serves
/// every stage lookup, so a change to the lookup path that silently
/// stops hitting (or starts double-counting) fails here even when the
/// output bytes stay identical.
#[test]
fn lookup_accounting_is_pinned() {
    use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, InjectedFault};
    use incremental_cfg_patching::core::apply_audit_gate;
    use incremental_cfg_patching::verify::rewrite_with_ladder_cached;
    let dir = tmp_dir("accounting");
    let binary = small_binary(7);
    // One under-approximated jump table forces a demotion round, so
    // the later rounds exercise in-memory hits on top of the store.
    let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
    let jump_addr = analyze(&binary, &AnalysisConfig::default())
        .funcs
        .values()
        .find_map(|f| f.jump_tables.first().map(|jt| jt.jump_addr))
        .expect("small has a jump table");
    config.analysis.inject = vec![InjectedFault::UnderApproximateTable { jump_addr, drop: 1 }];
    config.degradation.max_below_floor = 1.0;
    let ladder = |cache: &RewriteCache| {
        rewrite_with_ladder_cached(&binary, &config, &instr(), cache).expect("ladder")
    };
    let open = || RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));

    // 1. Cold, then warm from the re-opened store.
    let cold = open();
    let cold_out = ladder(&cold);
    cold.flush_store();
    let cold_acc = accounting(&cold);
    drop(cold);
    let warm = open();
    let warm_out = ladder(&warm);
    assert_eq!(cold_out.outcome.binary, warm_out.outcome.binary);
    let warm_acc = accounting(&warm);
    assert_eq!(warm_out.rounds, 4, "the injected fault must cost demotion rounds");
    drop(warm);

    // 2. Warm again, with patch-point corruption armed on read-back.
    let faulty = open();
    faulty.trace().record();
    faulty.arm_patch_corruption(0x5eed, 0.5);
    let faulty_out = ladder(&faulty);
    assert_eq!(
        cold_out.outcome.binary, faulty_out.outcome.binary,
        "quarantine must not change bytes"
    );
    let faulty_acc = accounting(&faulty);
    let quarantined = quarantines_by_stage(&faulty.trace().sealed());
    drop(faulty);

    // 3. The audit gate, twice over one cache.
    let _ = std::fs::remove_dir_all(&dir);
    let gate_cache = open();
    for _ in 0..2 {
        let mut cfg = config.clone();
        let _ = apply_audit_gate(&binary, &mut cfg, &gate_cache);
    }
    let gate_acc = accounting(&gate_cache);
    drop(gate_cache);

    // Stage order: func, liveness, fragment, emit, audit.
    assert_eq!(
        cold_acc,
        ([(0, 13, 0), (39, 13, 0), (36, 16, 0), (36, 16, 0), (0, 0, 0)], (58, 0, 58, 0, 0)),
        "cold ladder"
    );
    assert_eq!(
        warm_acc,
        ([(13, 0, 0), (52, 0, 0), (52, 0, 0), (52, 0, 0), (0, 0, 0)], (58, 58, 0, 0, 0)),
        "warm ladder"
    );
    assert_eq!(
        faulty_acc,
        ([(13, 0, 0), (52, 0, 0), (47, 5, 0), (46, 6, 0), (0, 0, 0)], (58, 47, 0, 11, 11)),
        "warm ladder with patch-point corruption"
    );
    assert_eq!(quarantined, [0, 0, 5, 6, 0], "fragment and emit quarantines both fire");
    assert_eq!(
        gate_acc,
        ([(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 1, 0)], (1, 0, 1, 0, 0)),
        "audit gate twice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
