//! The incremental rewrite cache (the "analyse once, rewrite cheaply"
//! engine).
//!
//! Every expensive per-function artefact of the pipeline is memoised
//! in a [`RewriteCache`] under a **content-addressed key**:
//!
//! * per-function CFGs — keyed by `(binary fingerprint, function
//!   range, function bytes, fault-sliced analysis config, boundary
//!   prefix)`, so a fault injected into one function never invalidates
//!   its neighbours and a degradation-ladder round re-analyses
//!   nothing;
//! * relocation *fragments* (address-independent per-function entry
//!   lists, sized, each with its canonical base-0 emission) — keyed by
//!   the CFG identity plus the rewrite-config bits relocation reads and
//!   the function's ladder rung;
//! * liveness results, the boundary pre-pass, and whole
//!   [`BinaryAnalysis`] results.
//!
//! Every stage goes through one routine, `RewriteCache::lookup`:
//! memory (validated outside the map's lock), then the store, then
//! compute, then buffer for the store and insert, then one
//! [`TraceEvent::CacheLookup`]. The persisted record *is* the
//! in-memory entry (the `Record` trait: `FuncPayload`,
//! `LivenessResult`, `FragPayload`, `AuditReport`),
//! shared as an `Arc` from a per-stage map, so a lookup never converts
//! or clones between a stored and a cached form.
//!
//! The degradation ladder's demotion rounds ([`LadderRound`]) are
//! store-only records: a rerun over the same store replays them
//! ([`RewriteCache::stored_ladder_round`]) to resume a killed or
//! finished ladder.
//!
//! There is no explicit invalidation: demoting a function on the
//! ladder changes its keys (a miss) while every untouched function
//! keeps hitting. [`analyze_incremental`] is the parallel analysis
//! driver; it reproduces the sequential [`icfgp_cfg::analyze`] result
//! exactly (see its docs for the replay argument).
//!
//! All fingerprints use the zero-keyed [`DefaultHasher`], which is
//! deterministic within and across processes for a given Rust
//! release; keys are 64-bit, so a cross-content collision is
//! astronomically unlikely but not impossible — acceptable for a
//! cache whose inputs are not adversarial.
//!
//! # Persistence and cross-binary sharing
//!
//! A cache may be backed by a crash-safe on-disk
//! [`CacheStore`](crate::store::CacheStore) ([`RewriteCache::with_store`]):
//! every stage lookup falls through to the store on an in-memory miss,
//! and computed entries are buffered for the store's next flush. Store
//! records use the positional binary codec of [`serde::to_bin`]. Store
//! damage of any kind degrades to a recompute, never to different
//! bytes.
//!
//! Function-analysis entries are keyed on the *function's own
//! analysis inputs* (its address range and bytes, the environment
//! skeleton, the sliced config, the boundary prefix) rather than the
//! whole-binary fingerprint, so unchanged functions keep hitting
//! across edits to *other* functions — including across processes and
//! across different binaries sharing code. Whatever those inputs
//! cannot capture (jump-table data bytes live outside the function
//! range) is recorded as an explicit dependency read-set
//! (`FuncDep`) and re-validated against the binary at every lookup;
//! a failed validation is a miss.
//!
//! Fragment entries share across binaries too: their key derives from
//! the weak per-function analysis identity plus a content fingerprint
//! of the analysed CFG itself (so two binaries whose out-of-range
//! table data differs get different keys, with no read-set to
//! arbitrate), and the cached artefact is position-independent — the
//! fragment's entry list plus its canonical emission, base-0 bytes and
//! a patch-point list the relocation fix-up pass re-applies under the
//! real layout (see the `relocate` module). Each candidate still
//! carries its CFG fingerprint and is re-validated per lookup,
//! mirroring the analysis path: a mismatch can only mean a logically
//! corrupted record, which is quarantined and recomputed. Liveness
//! stays per-binary.
//!
//! Hits whose record was first computed for a *different* binary are
//! counted separately ([`StageStats::shared`]), so `--stats` and the
//! fleet bench can show how much cross-binary reuse happened.

use crate::config::FuncMode;
use crate::instrument::Instrumentation;
use crate::pool;
use crate::relocate::{FuncFragment, RelocEmit};
use crate::store::{Stage, StoreBackend, StoreStats};
use crate::trace::{StoreSrc, Trace, TraceEvent};
use icfgp_audit::AuditReport;
use icfgp_cfg::{
    analyze_function_isolated, assemble_analysis, prepass_boundaries, AnalysisConfig,
    BinaryAnalysis, FuncCfg, FuncMap, FuncStatus, LivenessResult,
};
use icfgp_obj::Binary;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss counters for one cached stage of the rewrite pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// The subset of `hits` whose cached record was first computed for
    /// a *different* binary (cross-binary weak-key reuse). Zero for
    /// stages that never share across binaries.
    pub shared: u64,
}

impl StageStats {
    /// Total lookups.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Wall-clock nanoseconds spent in each rewrite stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageTimings {
    /// Binary analysis (or its cache lookup).
    pub analysis_ns: u64,
    /// Relocation: fragments, layout, emission, clone fill.
    pub relocate_ns: u64,
    /// Trampoline placement over the shared scratch pool.
    pub placement_ns: u64,
    /// Output-binary assembly (sections, maps, report).
    pub assemble_ns: u64,
    /// End-to-end rewrite time.
    pub total_ns: u64,
}

/// Cache-hit and timing counters for one rewrite, attached to
/// [`RewriteOutcome`](crate::RewriteOutcome) and printed by
/// `icfgp rewrite --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RewriteStats {
    /// Worker threads the rewrite ran with.
    pub threads: usize,
    /// The whole [`BinaryAnalysis`] was served from the cache.
    pub analysis_memo_hit: bool,
    /// Parallel-analysis replay rounds (0 on a memo hit).
    pub analysis_rounds: u32,
    /// Per-function CFG analyses.
    pub func_analyses: StageStats,
    /// Per-function relocation fragments (each with its canonical
    /// emission).
    pub fragments: StageStats,
    /// A copy of `fragments`: the canonical emission lives in the
    /// fragment record, so it is served exactly when its fragment is.
    /// Kept only because the `icfgp-perf` harness reads it.
    pub emits: StageStats,
    /// Per-function liveness results.
    pub liveness: StageStats,
    /// Stage wall-clock timings.
    pub timings: StageTimings,
    /// The five slowest functions this rewrite touched, as
    /// `(entry, total_ns)` across analysis + fragment + fix-up, sorted
    /// slowest first and zero-padded — `rewrite --stats` prints these
    /// so watchdog budgets can be tuned against real offenders.
    pub slowest: [(u64, u64); 5],
    /// Persistent-store activity during this rewrite (all zero when no
    /// store is attached).
    pub store: StoreStats,
}

/// Fold per-function `(entry, ns)` samples into the top-5 `slowest`
/// array (summing samples for the same entry first).
#[must_use]
pub fn slowest_of(samples: &[(u64, u64)]) -> [(u64, u64); 5] {
    let mut per_func: BTreeMap<u64, u64> = BTreeMap::new();
    for &(entry, ns) in samples {
        *per_func.entry(entry).or_insert(0) += ns;
    }
    let mut all: Vec<(u64, u64)> = per_func.into_iter().collect();
    // Slowest first; ties broken by entry address for determinism.
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut top = [(0u64, 0u64); 5];
    for (slot, &(entry, ns)) in top.iter_mut().zip(all.iter()) {
        *slot = (entry, ns);
    }
    top
}

/// Hash a `Hash` value with the deterministic zero-keyed hasher.
pub(crate) fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// splitmix64 — used for the order-independent (XOR-folded) boundary
/// set hash, where each element must be well mixed on its own.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A key guaranteed never to collide with any content-derived key:
/// used as a fallback when a key input is unavailable, forcing a
/// cache miss instead of a wrong hit.
pub(crate) fn unique_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Fold a process-unique counter so even two caches never share it.
    mix(NEXT.fetch_add(1, Ordering::Relaxed)) ^ 0xDEAD_BEEF_0BAD_CAFE
}

/// A content fingerprint of a whole binary (all sections, symbols,
/// relocations and metadata), via its structural `Hash`. Every
/// per-item cache key folds this in, so a cache can be shared across
/// binaries without cross-talk. Cheap enough to recompute per rewrite
/// (it is the memo-lookup cost on a fully warm cache).
#[must_use]
pub fn binary_fingerprint(binary: &Binary) -> u64 {
    hash_of(binary)
}

/// A content fingerprint of one analysed CFG, **excluding the
/// function name**. Fragment construction never reads the name, so a
/// renamed-but-otherwise-identical function (the common case across
/// near-identical fleet binaries) fingerprints equal and shares its
/// fragment. Folded into the fragment key — a cached payload whose
/// recorded fingerprint disagrees with the key's can only be
/// corruption, and quarantines.
pub(crate) fn cfg_fingerprint(cfg: &FuncCfg) -> u64 {
    let mut h = DefaultHasher::new();
    0xCF97u64.hash(&mut h);
    cfg.entry.hash(&mut h);
    cfg.start.hash(&mut h);
    cfg.end.hash(&mut h);
    cfg.blocks.hash(&mut h);
    cfg.insts.hash(&mut h);
    cfg.jump_tables.hash(&mut h);
    cfg.indirect_tailcalls.hash(&mut h);
    cfg.tail_calls.hash(&mut h);
    cfg.call_sites.hash(&mut h);
    cfg.landing_pads.hash(&mut h);
    cfg.inline_data.hash(&mut h);
    cfg.has_indirect_calls.hash(&mut h);
    cfg.fp_landing_targets.hash(&mut h);
    cfg.status.hash(&mut h);
    h.finish()
}

/// The *environment* fingerprint a per-function analysis runs under:
/// everything `analyze_function_isolated` can observe about the binary
/// **outside** the function's own byte range, other than raw data
/// bytes (those are covered by [`FuncDep::Bytes`]). That is: the
/// architecture, PIE-ness, the TOC base, the Go line table, and the
/// section skeleton (ranges and flags — `section_at` classification
/// queries). Unwind entries are folded per function (analysis only
/// reads the entries inside the function's range), so one function's
/// unwind edit does not invalidate its neighbours. Two binaries with
/// equal environment fingerprints analyse a byte-identical function
/// at the same address identically, which is what lets analysis
/// entries be shared across binaries.
fn env_fingerprint(binary: &Binary) -> u64 {
    let mut h = DefaultHasher::new();
    0xE4F1u64.hash(&mut h);
    binary.arch.hash(&mut h);
    binary.meta.hash(&mut h);
    binary.toc_base.hash(&mut h);
    binary.pclntab.hash(&mut h);
    for s in binary.sections() {
        s.addr().hash(&mut h);
        s.end().hash(&mut h);
        s.flags().hash(&mut h);
    }
    h.finish()
}

/// One recorded out-of-range read of a cached function analysis — the
/// part of its input the content-addressed key cannot see. Persisted
/// alongside the CFG and re-validated against the binary at every
/// lookup; any mismatch turns the lookup into a miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum FuncDep {
    /// The analysis read `[addr, addr+len)` (jump-table data, including
    /// the one-entry extension probe) and saw bytes hashing to `hash`.
    Bytes {
        /// Read start address.
        addr: u64,
        /// Read length in bytes.
        len: u64,
        /// `hash_of` of `binary.read(addr, len).ok()` — unmapped reads
        /// only match unmapped reads.
        hash: u64,
    },
    /// The analysis outcome could depend on reads the key does not
    /// enumerate (failed analyses, unresolved jumps): only the exact
    /// same binary may reuse it.
    BinaryExact {
        /// Whole-binary fingerprint.
        fp: u64,
    },
}

/// The dependency read-set of one analysed function (see [`FuncDep`]).
fn func_deps(binary: &Binary, binary_fp: u64, cfg: &FuncCfg) -> Vec<FuncDep> {
    let mut deps = Vec::new();
    if cfg.status != FuncStatus::Ok {
        // The failure path may have read anything; pin to this binary.
        deps.push(FuncDep::BinaryExact { fp: binary_fp });
        return deps;
    }
    for jt in &cfg.jump_tables {
        if jt.in_text && jt.table_addr >= cfg.start && jt.table_addr < cfg.end {
            continue; // table data inside the function range: keyed already
        }
        // Cover the resolved entries plus the slicer's one-entry
        // extension probe past the end.
        let len = (jt.count + 1) * u64::from(jt.entry_width);
        let hash = hash_of(&binary.read(jt.table_addr, len as usize).ok());
        deps.push(FuncDep::Bytes { addr: jt.table_addr, len, hash });
    }
    deps
}

/// Whether a cached analysis' recorded reads still hold against
/// `binary`.
fn deps_hold(deps: &[FuncDep], binary: &Binary, binary_fp: u64) -> bool {
    deps.iter().all(|d| match d {
        FuncDep::Bytes { addr, len, hash } => {
            hash_of(&binary.read(*addr, *len as usize).ok()) == *hash
        }
        FuncDep::BinaryExact { fp } => *fp == binary_fp,
    })
}

/// A persisted store record: what [`RewriteCache::store_get`] reads
/// back, validates and quarantines under its stage.
pub(crate) trait Stored: Serialize + Deserialize {
    /// The stage this record is stored under.
    const STAGE: Stage;
    /// Why a store record that fails validation is quarantined.
    /// `None` makes the failure a plain miss: a weak function key
    /// legitimately reused by another binary is not corruption (and
    /// liveness and audit records have nothing to re-validate).
    const QUARANTINE: Option<&'static str> = None;
    /// Chaos: inject the logical corruption a re-validation must catch
    /// (fragment records only; see [`PatchFault`]).
    fn corrupt(&mut self) {}
}

/// A persisted stage record that is also its in-memory cache entry:
/// what [`RewriteCache::lookup`] stores, validates and hands out (as
/// an `Arc`), so no lookup converts or clones between the two forms.
pub(crate) trait Record: Stored {
    /// This stage's in-memory map.
    fn map(cache: &RewriteCache) -> &StageMap<Self>;
    /// The binary the record was first computed for, for stages that
    /// share across binaries (classifies a hit as shared).
    fn origin_fp(&self) -> Option<u64> {
        None
    }
}

/// One stage's in-memory map: key → the shared stored record.
pub(crate) type StageMap<R> = Mutex<HashMap<u64, Arc<R>>>;

/// The persisted form of one function-analysis entry: the CFG plus
/// its [`FuncDep`] read-set. The CFG is shared with every
/// [`BinaryAnalysis`] assembled from it; it encodes as a plain
/// `FuncCfg`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FuncPayload {
    pub(crate) cfg: Arc<FuncCfg>,
    deps: Vec<FuncDep>,
    /// Fingerprint of the binary this entry was first computed for —
    /// only used to classify a hit as cross-binary (shared).
    origin_fp: u64,
}

impl Stored for FuncPayload {
    const STAGE: Stage = Stage::Func;
}

impl Record for FuncPayload {
    fn map(cache: &RewriteCache) -> &StageMap<Self> {
        &cache.funcs
    }
    fn origin_fp(&self) -> Option<u64> {
        Some(self.origin_fp)
    }
}

impl Stored for LivenessResult {
    const STAGE: Stage = Stage::Liveness;
}

impl Record for LivenessResult {
    fn map(cache: &RewriteCache) -> &StageMap<Self> {
        &cache.liveness
    }
}

/// The persisted form of one relocation fragment: the fragment, its
/// canonical (position-independent) emission, and the CFG content
/// fingerprint it was built from. The fingerprint is folded into the
/// fragment key, so a well-formed record always matches; re-validation
/// at lookup (the fingerprint, mirroring the analysis path, and the
/// emission's patch points against the fragment) catches logically
/// corrupted records, which are quarantined and recomputed instead of
/// mis-relocating.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FragPayload {
    pub(crate) frag: FuncFragment,
    pub(crate) emit: RelocEmit,
    pub(crate) cfg_fp: u64,
    pub(crate) origin_fp: u64,
}

impl Stored for FragPayload {
    const STAGE: Stage = Stage::Fragment;
    const QUARANTINE: Option<&'static str> =
        Some("fragment failed CFG-fingerprint or patch-point re-validation");
    fn corrupt(&mut self) {
        self.emit.corrupt_one_patch_point();
    }
}

impl Record for FragPayload {
    fn map(cache: &RewriteCache) -> &StageMap<Self> {
        &cache.fragments
    }
    fn origin_fp(&self) -> Option<u64> {
        Some(self.origin_fp)
    }
}

impl Stored for AuditReport {
    const STAGE: Stage = Stage::Audit;
}

impl Record for AuditReport {
    fn map(cache: &RewriteCache) -> &StageMap<Self> {
        &cache.audits
    }
}

/// One rung descent of one function on the degradation ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderStep {
    /// Mode before the step.
    pub from: FuncMode,
    /// Mode after the step.
    pub to: FuncMode,
    /// The verifier diagnostic that forced the step.
    pub reason: String,
}

/// One demotion round of the degradation ladder, stored under
/// [`Stage::Ladder`] at [`ladder_key`]. Only rounds that demoted are
/// stored, never the clean final round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderRound {
    /// The step each lowered function took, by entry address.
    pub demotions: BTreeMap<u64, LadderStep>,
}

impl Stored for LadderRound {
    const STAGE: Stage = Stage::Ladder;
    const QUARANTINE: Option<&'static str> = Some("ladder round failed demotion re-validation");
}

/// The store key of demotion round `round` (1-based) of the ladder
/// over `binary_fp` under `config_fp` ([`crate::config_fingerprint`])
/// and `instr`, as decided by ladder policy version `policy`: any other
/// input, or a ladder whose verifier or demotion rule changed (a new
/// `policy`), replays nothing.
#[must_use]
pub fn ladder_key(
    binary_fp: u64,
    config_fp: u64,
    instr: &Instrumentation,
    policy: u64,
    round: usize,
) -> u64 {
    hash_of(&(0x1ADD_u64, binary_fp, config_fp, instr, policy, round as u64))
}

/// Decode a stored record payload as `stage`'s record type and
/// re-encode it. The record codec is canonical, so every payload a
/// store wrote comes back byte for byte; damaged bytes return the
/// decoder's error, the one a lookup quarantines the record on.
///
/// # Errors
///
/// The [`serde::DeError`] of [`serde::from_bin`] when `payload` is not
/// exactly one well-formed record of the stage's type.
pub fn recode_payload(stage: Stage, payload: &[u8]) -> Result<Vec<u8>, serde::DeError> {
    fn recode<R: Stored>(payload: &[u8]) -> Result<Vec<u8>, serde::DeError> {
        serde::from_bin::<R>(payload).map(|v| serde::to_bin(&v))
    }
    match stage {
        Stage::Func => recode::<FuncPayload>(payload),
        Stage::Liveness => recode::<LivenessResult>(payload),
        Stage::Fragment => recode::<FragPayload>(payload),
        Stage::Audit => recode::<AuditReport>(payload),
        Stage::Ladder => recode::<LadderRound>(payload),
    }
}

/// An armed corrupt-patch-point fault (chaos): probability of
/// deterministically corrupting a fragment record as it is read
/// back from the persistent store, *after* checksum validation — the
/// logical-corruption class the per-lookup re-validation must catch.
#[derive(Debug, Clone, Copy)]
struct PatchFault {
    seed: u64,
    probability: f64,
}

impl PatchFault {
    /// Deterministic per-key draw (same key always draws the same).
    fn fires(&self, key: u64) -> bool {
        self.probability > 0.0
            && mix(self.seed ^ key) % 10_000 < (self.probability * 10_000.0) as u64
    }
}

/// The boundary pre-pass result with its XOR-folded element hash.
struct Prepass {
    set: BTreeSet<u64>,
    hash: u64,
}

/// A memoised whole-binary analysis.
#[derive(Clone)]
struct AnalysisMemo {
    analysis: Arc<BinaryAnalysis>,
    func_keys: Arc<BTreeMap<u64, u64>>,
    weak_keys: Arc<BTreeMap<u64, u64>>,
    rounds: u32,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("cache poisoned")
}

/// The content-addressed rewrite cache. Cheap to create, safe to
/// share across threads, rewrites, ladder rounds and fault seeds —
/// keys are self-describing, so reuse never changes results, only
/// how fast they arrive. Optionally backed by a persistent
/// [`CacheStore`](crate::store::CacheStore) ([`RewriteCache::with_store`]).
///
/// Every lookup emits a [`TraceEvent::CacheLookup`] onto the cache's
/// trace spine; when the cache is backed by a store, the store's
/// trace is adopted so cache-level and store-level events share one
/// registry (and one [`RewriteStats`] projection).
#[derive(Default)]
pub struct RewriteCache {
    prepass: Mutex<HashMap<u64, Arc<Prepass>>>,
    analyses: Mutex<HashMap<(u64, u64), AnalysisMemo>>,
    funcs: StageMap<FuncPayload>,
    liveness: StageMap<LivenessResult>,
    fragments: StageMap<FragPayload>,
    audits: StageMap<AuditReport>,
    store: Option<Arc<dyn StoreBackend>>,
    trace: Arc<Trace>,
    /// Chaos: corrupt fragment records read back from the store (armed by
    /// [`RewriteCache::arm_patch_corruption`]).
    patch_fault: Mutex<Option<PatchFault>>,
}

impl std::fmt::Debug for RewriteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn len<K, V>(m: &Mutex<HashMap<K, V>>) -> usize {
            locked(m).len()
        }
        f.debug_struct("RewriteCache")
            .field("analyses", &len(&self.analyses))
            .field("funcs", &len(&self.funcs))
            .field("fragments", &len(&self.fragments))
            .field("liveness", &len(&self.liveness))
            .field("audits", &len(&self.audits))
            .finish()
    }
}

impl RewriteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> RewriteCache {
        RewriteCache::default()
    }

    /// An empty in-memory cache backed by a persistent store: lookups
    /// fall through to the store, computed entries are buffered for
    /// its next [`StoreBackend::flush`]. Takes any backend — the
    /// local [`CacheStore`](crate::store::CacheStore) or a
    /// [`RemoteStore`](crate::net::RemoteStore).
    #[must_use]
    pub fn with_store<S: StoreBackend + 'static>(store: Arc<S>) -> RewriteCache {
        RewriteCache::with_backend(store)
    }

    /// [`RewriteCache::with_store`] over an already-erased backend.
    /// The backend's trace spine is adopted as the cache's, so both
    /// layers fold into one registry.
    #[must_use]
    pub fn with_backend(store: Arc<dyn StoreBackend>) -> RewriteCache {
        RewriteCache { trace: store.trace(), store: Some(store), ..RewriteCache::default() }
    }

    /// An empty store-less cache emitting onto an existing trace
    /// spine (e.g. a chaos campaign's shared collector).
    #[must_use]
    pub fn with_trace(trace: Arc<Trace>) -> RewriteCache {
        RewriteCache { trace, ..RewriteCache::default() }
    }

    /// The trace spine this cache (and its store, if any) emits
    /// through.
    #[must_use]
    pub fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// Which registry source slot the attached store reports under
    /// (`None` without a store).
    #[must_use]
    pub fn store_src(&self) -> Option<StoreSrc> {
        self.store.as_ref().map(|s| s.trace_src())
    }

    /// Chaos: with probability `probability` (deterministic per key,
    /// seeded), corrupt each fragment record as it is read back
    /// from the persistent store — after the store's checksum passes,
    /// so only the per-lookup re-validation stands between the
    /// corrupted patch list and a mis-fixed-up branch. A detected
    /// corruption quarantines the record and recomputes; output bytes
    /// never change.
    pub fn arm_patch_corruption(&self, seed: u64, probability: f64) {
        *self.patch_fault.lock().expect("fault poisoned") =
            Some(PatchFault { seed, probability });
    }

    fn patch_fault_fires(&self, key: u64) -> bool {
        self.patch_fault
            .lock()
            .expect("fault poisoned")
            .is_some_and(|f| f.fires(key))
    }

    /// The attached persistent store backend, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<dyn StoreBackend>> {
        self.store.as_ref()
    }

    /// Flush the attached store (no-op without one). Returns the
    /// number of records persisted.
    pub fn flush_store(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.flush())
    }

    /// Counter snapshot of the attached store (zeroes without one).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map_or_else(StoreStats::default, |s| s.stats())
    }

    /// Persisted-store lookup: payloads are the positional binary
    /// encoding ([`serde::from_bin`]). A record that fails to decode
    /// is quarantined; one that fails `valid` is quarantined under
    /// [`Stored::QUARANTINE`] (or just skipped without a reason).
    /// Either way the lookup is a miss, never an error.
    fn store_get<R: Stored>(&self, key: u64, valid: impl Fn(&R) -> bool) -> Option<R> {
        let store = self.store.as_ref()?;
        let payload = store.get(R::STAGE, key)?;
        let mut record: R = match serde::from_bin(&payload) {
            Ok(r) => r,
            Err(e) => {
                store.quarantine_record(R::STAGE, key, &e.to_string());
                return None;
            }
        };
        if self.patch_fault_fires(key) {
            record.corrupt();
        }
        if valid(&record) {
            return Some(record);
        }
        if let Some(why) = R::QUARANTINE {
            store.quarantine_record(R::STAGE, key, why);
        }
        None
    }

    /// Look up or compute one stage record — the single lookup path
    /// of every stage. In order:
    ///
    /// 1. the in-memory candidate, validated outside the map's lock
    ///    (a stale one is evicted);
    /// 2. the store candidate ([`RewriteCache::store_get`]);
    /// 3. on a miss, `compute`: the fresh record is buffered for the
    ///    store and inserted (the first insert for a key wins, so
    ///    racing threads share one record).
    ///
    /// `valid` re-checks a candidate against this lookup's inputs
    /// (a function's read-set, a fragment's CFG fingerprint and its
    /// emission's patch points). The outcome is emitted as a
    /// [`TraceEvent::CacheLookup`]; a hit is `shared` when its record
    /// originated from a binary other than `binary_fp` (ignored by
    /// stages without a [`Record::origin_fp`]). Errors from `compute`
    /// are not cached.
    pub(crate) fn lookup<R: Record, E>(
        &self,
        key: u64,
        binary_fp: u64,
        valid: impl Fn(&R) -> bool,
        compute: impl FnOnce() -> Result<R, E>,
    ) -> Result<Arc<R>, E> {
        let map = R::map(self);
        let mut found = locked(map).get(&key).cloned();
        if let Some(stale) = found.take_if(|r| !valid(r)) {
            let mut m = locked(map);
            if m.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &stale)) {
                m.remove(&key);
            }
        }
        if found.is_none() {
            found = self
                .store_get(key, &valid)
                .map(|r| locked(map).entry(key).or_insert_with(|| Arc::new(r)).clone());
        }
        let hit = found.is_some();
        let got = match found {
            Some(r) => r,
            None => {
                let r = Arc::new(compute()?);
                debug_assert!(valid(&r), "a freshly computed record must validate");
                if let Some(store) = &self.store {
                    store.put(R::STAGE, key, serde::to_bin(&*r));
                }
                locked(map).entry(key).or_insert(r).clone()
            }
        };
        let shared = hit && got.origin_fp().is_some_and(|fp| fp != binary_fp);
        self.trace.emit(TraceEvent::CacheLookup { stage: R::STAGE, key, hit, shared });
        Ok(got)
    }

    /// The demotion round stored under `key` ([`ladder_key`]) if it
    /// decodes and passes `valid` (else it is quarantined), as one
    /// [`TraceEvent::CacheLookup`]. Without a store: `None`, no lookup.
    pub fn stored_ladder_round(
        &self,
        key: u64,
        valid: impl Fn(&LadderRound) -> bool,
    ) -> Option<LadderRound> {
        self.store.as_ref()?;
        let found = self.store_get(key, valid);
        let hit = found.is_some();
        self.trace.emit(TraceEvent::CacheLookup { stage: Stage::Ladder, key, hit, shared: false });
        found
    }

    /// Buffer a demotion round under `key` for the attached store's
    /// next flush (no-op without a store).
    pub fn store_ladder_round(&self, key: u64, round: &LadderRound) {
        if let Some(store) = &self.store {
            store.put(Stage::Ladder, key, serde::to_bin(round));
        }
    }

    fn prepass(&self, binary_fp: u64, binary: &Binary) -> Arc<Prepass> {
        if let Some(p) = locked(&self.prepass).get(&binary_fp) {
            return p.clone();
        }
        let set = prepass_boundaries(binary);
        let hash = set.iter().fold(0u64, |h, &a| h ^ mix(a));
        let p = Arc::new(Prepass { set, hash });
        locked(&self.prepass).entry(binary_fp).or_insert(p).clone()
    }

    /// Look up or compute a whole-binary audit report (predictive
    /// gating). Memoised in memory and — like every other stage —
    /// persisted through the attached store, under [`Stage::Audit`].
    /// Returns `(report, hit)`.
    pub fn audit(
        &self,
        key: u64,
        compute: impl FnOnce() -> AuditReport,
    ) -> (Arc<AuditReport>, bool) {
        let mut hit = true;
        let Ok(report) = self.lookup(
            key,
            0,
            |_| true,
            || {
                hit = false;
                Ok::<_, Infallible>(compute())
            },
        );
        (report, hit)
    }

    fn analysis_memo(&self, binary_fp: u64, config_fp: u64) -> Option<AnalysisMemo> {
        locked(&self.analyses).get(&(binary_fp, config_fp)).cloned()
    }

    fn store_analysis(&self, binary_fp: u64, config_fp: u64, memo: AnalysisMemo) {
        locked(&self.analyses).entry((binary_fp, config_fp)).or_insert(memo);
    }
}

/// The result of [`analyze_incremental`]: the analysis plus the cache
/// identities the relocation stages key off.
pub struct AnalysisRun {
    /// The whole-binary analysis (identical to
    /// [`icfgp_cfg::analyze`]'s result).
    pub analysis: Arc<BinaryAnalysis>,
    /// Per-function cache identity: function entry address → the key
    /// its CFG was cached under, with the whole-binary fingerprint
    /// folded in. Liveness keys derive from these (strictly
    /// per-binary).
    pub func_keys: Arc<BTreeMap<u64, u64>>,
    /// The *weak* per-function identities: like [`AnalysisRun::func_keys`]
    /// but without the whole-binary fingerprint, so they agree across
    /// binaries sharing a function's bytes, address and environment.
    /// Fragment keys derive from these (plus a CFG content
    /// fingerprint that arbitrates what the weak identity cannot see).
    pub weak_keys: Arc<BTreeMap<u64, u64>>,
    /// The whole analysis was served from the memo.
    pub memo_hit: bool,
    /// Replay rounds run (0 on a memo hit).
    pub rounds: u32,
}

/// Analyse `binary` incrementally and in parallel, reproducing the
/// sequential [`icfgp_cfg::analyze`] result **exactly**.
///
/// The sequential driver analyses functions in symbol order, and
/// function *i* sees the boundary set "pre-pass ∪ jump tables of
/// functions 0..i-1". This driver replays that prefix by iteration:
/// each round it computes every function's prefix-boundary snapshot
/// from the results known so far, re-analyses (in parallel, through
/// the per-function cache) exactly the functions whose snapshot hash
/// changed, and stops when nothing changed. By induction, after round
/// *k* the first *k* functions hold their final (sequential) results,
/// so the loop converges to the unique sequential solution; in
/// practice it takes two analysis rounds plus one check round,
/// because table addresses discovered in round one rarely change.
#[must_use]
pub fn analyze_incremental(
    binary: &Binary,
    config: &AnalysisConfig,
    cache: &RewriteCache,
    threads: usize,
) -> AnalysisRun {
    let binary_fp = binary_fingerprint(binary);
    let config_fp = config.fingerprint();
    if let Some(memo) = cache.analysis_memo(binary_fp, config_fp) {
        cache
            .trace()
            .emit(TraceEvent::AnalysisMemo { hit: true, rounds: memo.rounds });
        return AnalysisRun {
            analysis: memo.analysis,
            func_keys: memo.func_keys,
            weak_keys: memo.weak_keys,
            memo_hit: true,
            rounds: memo.rounds,
        };
    }
    let pre = cache.prepass(binary_fp, binary);
    let env_fp = env_fingerprint(binary);
    let syms: Vec<&icfgp_obj::Symbol> = binary.functions().collect();
    let n = syms.len();

    // The boundary-independent part of each function's key: the
    // function's own analysis inputs, *not* the whole-binary
    // fingerprint — so entries survive edits to other functions and
    // can be shared across binaries (out-of-range data reads are
    // covered by the entry's [`FuncDep`] read-set instead).
    let statics: Vec<u64> = syms
        .iter()
        .map(|s| {
            let mut h = DefaultHasher::new();
            0xFC02u64.hash(&mut h);
            env_fp.hash(&mut h);
            s.addr.hash(&mut h);
            s.size.hash(&mut h);
            h.write(binary.read(s.addr, s.size as usize).unwrap_or(&[]));
            config.slice_for(s.addr, s.end()).fingerprint().hash(&mut h);
            for e in binary.unwind.entries() {
                if e.start >= s.addr && e.start < s.end() {
                    e.hash(&mut h);
                }
            }
            h.finish()
        })
        .collect();

    let mut results: Vec<Option<Arc<FuncPayload>>> = vec![None; n];
    let mut analyzed: Vec<Option<u64>> = vec![None; n];
    let mut rounds = 0u32;
    let final_set: BTreeSet<u64>;
    loop {
        // Prefix snapshots from the results known so far. Consecutive
        // functions between table discoveries share one Arc'd set.
        let mut set = pre.set.clone();
        let mut h = pre.hash;
        let mut shared: Option<Arc<BTreeSet<u64>>> = None;
        let mut snaps: Vec<Option<(Arc<BTreeSet<u64>>, u64)>> = vec![None; n];
        let mut work: Vec<usize> = Vec::new();
        for i in 0..n {
            if analyzed[i] != Some(h) {
                let arc = match &shared {
                    Some(a) => a.clone(),
                    None => {
                        let a = Arc::new(set.clone());
                        shared = Some(a.clone());
                        a
                    }
                };
                snaps[i] = Some((arc, h));
                work.push(i);
            }
            if let Some(p) = &results[i] {
                for jt in &p.cfg.jump_tables {
                    if set.insert(jt.table_addr) {
                        h ^= mix(jt.table_addr);
                        shared = None;
                    }
                }
            }
        }
        if work.is_empty() {
            final_set = set;
            break;
        }
        rounds += 1;
        let outs = pool::map(threads, &work, |_, &i| {
            let (snap, input_hash) = snaps[i].as_ref().expect("snapshot for work item");
            let mut k = DefaultHasher::new();
            statics[i].hash(&mut k);
            input_hash.hash(&mut k);
            let started = std::time::Instant::now();
            let Ok(out) = cache.lookup(
                k.finish(),
                binary_fp,
                |p: &FuncPayload| deps_hold(&p.deps, binary, binary_fp),
                || {
                    let cfg = analyze_function_isolated(binary, syms[i], config, snap);
                    let deps = func_deps(binary, binary_fp, &cfg);
                    let cfg = Arc::new(cfg);
                    Ok::<_, Infallible>(FuncPayload { cfg, deps, origin_fp: binary_fp })
                },
            );
            (out, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
        });
        for (&i, (payload, ns)) in work.iter().zip(outs) {
            // Per-item timing is an orchestrator-side leaf event so the
            // stream stays deterministic across thread counts.
            cache
                .trace()
                .emit(TraceEvent::FuncSpan { entry: syms[i].addr, ns });
            analyzed[i] = Some(snaps[i].as_ref().expect("snapshot").1);
            results[i] = Some(payload);
        }
        assert!(rounds <= n as u32 + 1, "prefix replay failed to converge");
    }

    let funcs: FuncMap = syms
        .iter()
        .zip(&results)
        .map(|(s, r)| (s.addr, Arc::clone(&r.as_ref().expect("analysed").cfg)))
        .collect();
    // The liveness identity folds the whole-binary fingerprint back
    // in (strictly per-binary); the weak identity leaves it out so
    // fragment keys agree across binaries. Two binaries may
    // share a weak key while their CFGs differ (out-of-range table
    // data) — the fragment key folds a CFG content fingerprint on
    // top, so that divergence never aliases.
    let func_keys: BTreeMap<u64, u64> = syms
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut k = DefaultHasher::new();
            0xFC03u64.hash(&mut k);
            statics[i].hash(&mut k);
            analyzed[i].expect("analysed").hash(&mut k);
            binary_fp.hash(&mut k);
            (s.addr, k.finish())
        })
        .collect();
    let weak_keys: BTreeMap<u64, u64> = syms
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut k = DefaultHasher::new();
            0xFC04u64.hash(&mut k);
            statics[i].hash(&mut k);
            analyzed[i].expect("analysed").hash(&mut k);
            (s.addr, k.finish())
        })
        .collect();
    let analysis = Arc::new(assemble_analysis(binary, config, funcs, final_set));
    let func_keys = Arc::new(func_keys);
    let weak_keys = Arc::new(weak_keys);
    cache.store_analysis(
        binary_fp,
        config_fp,
        AnalysisMemo {
            analysis: analysis.clone(),
            func_keys: func_keys.clone(),
            weak_keys: weak_keys.clone(),
            rounds,
        },
    );
    cache
        .trace()
        .emit(TraceEvent::AnalysisMemo { hit: false, rounds });
    AnalysisRun {
        analysis,
        func_keys,
        weak_keys,
        memo_hit: false,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_cfg::analyze;
    use icfgp_isa::Arch;

    fn workload(name: &str, arch: Arch) -> Binary {
        match name {
            "small" => {
                icfgp_workloads::generate(&icfgp_workloads::GenParams::small("cache", arch, 5))
                    .binary
            }
            _ => icfgp_workloads::switch_demo(arch, false).binary,
        }
    }

    #[test]
    fn incremental_matches_sequential() {
        for arch in [Arch::X64, Arch::Aarch64, Arch::Ppc64le] {
            for name in ["small", "switch"] {
                let bin = workload(name, arch);
                let config = AnalysisConfig::default();
                let cache = RewriteCache::new();
                for threads in [1, 4] {
                    let run = analyze_incremental(&bin, &config, &cache, threads);
                    let seq = analyze(&bin, &config);
                    assert_eq!(*run.analysis, seq, "{name}/{arch}/{threads}");
                }
            }
        }
    }

    #[test]
    fn second_run_hits_the_memo() {
        let bin = workload("small", Arch::X64);
        let config = AnalysisConfig::default();
        let cache = RewriteCache::new();
        let cold = analyze_incremental(&bin, &config, &cache, 4);
        assert!(!cold.memo_hit);
        assert!(cache.trace().registry().stage_stats(Stage::Func).misses > 0);
        let warm = analyze_incremental(&bin, &config, &cache, 4);
        assert!(warm.memo_hit);
        assert_eq!(*cold.analysis, *warm.analysis);
    }

    #[test]
    fn faulted_function_does_not_invalidate_neighbours() {
        use icfgp_cfg::InjectedFault;
        let bin = workload("small", Arch::X64);
        let cache = RewriteCache::new();
        let clean = AnalysisConfig::default();
        let cold = analyze_incremental(&bin, &clean, &cache, 4);
        // A victim without jump tables leaves the boundary prefix of
        // every later function unchanged.
        let victim = cold
            .analysis
            .funcs
            .values()
            .find(|f| f.jump_tables.is_empty())
            .expect("has a table-free function")
            .entry;
        let mut faulty = clean.clone();
        faulty
            .inject
            .push(InjectedFault::FailFunction { entry: victim });
        let before = cache.trace().registry().stage_stats(Stage::Func);
        let run = analyze_incremental(&bin, &faulty, &cache, 4);
        // Different config fingerprint: no memo hit, but every function
        // except the victim is served from the per-function cache (the
        // victim can miss once per replay round).
        assert!(!run.memo_hit);
        let after = cache.trace().registry().stage_stats(Stage::Func);
        assert!(after.misses - before.misses <= u64::from(run.rounds));
        assert!(after.hits > before.hits);
    }

    #[test]
    fn fingerprints_are_content_addressed() {
        let a = workload("small", Arch::X64);
        let b = workload("small", Arch::X64);
        let c = workload("switch", Arch::X64);
        assert_eq!(binary_fingerprint(&a), binary_fingerprint(&b));
        assert_ne!(binary_fingerprint(&a), binary_fingerprint(&c));
        assert_ne!(unique_key(), unique_key());
    }
}
