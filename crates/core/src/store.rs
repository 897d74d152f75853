//! Crash-safe persistent backing store for
//! [`RewriteCache`](crate::cache::RewriteCache).
//!
//! The in-process cache memoises per-function analysis, liveness and
//! relocation fragments (with their canonical emissions) under
//! content-addressed 64-bit keys. This module persists those entries
//! to disk so a later `icfgp` invocation starts warm — with the hard
//! invariant that a corrupt, torn, stale or concurrently-written
//! store can **never change output bytes**, only cost a recompute.
//!
//! # On-disk format
//!
//! A store directory holds:
//!
//! * `seg-NNNNNN.seg` — append-only **segment files**, immutable once
//!   visible. Each flush serialises the pending records into a fresh
//!   segment, written to a temp file and atomically `rename`d into
//!   place, so readers only ever observe whole segments (a crash
//!   mid-flush leaves a `tmp-*` file that is ignored and reaped).
//! * `*.quarantined` — segments whose header failed validation, moved
//!   out of the scan set for post-mortem inspection.
//! * `LOCK` — an empty file that carries the directory lock (below).
//!
//! Segment layout: a 20-byte header (`magic, format version, key
//! epoch`), then records, then one end frame. Each record is framed as
//! `tag u8 · key u64 · len u32 · checksum u64 · payload[len]` with the
//! checksum (FNV-1a/64 + avalanche finaliser) taken over
//! `tag ‖ key ‖ payload`. The end frame has the same framing under a
//! tag no stage has, and its payload is the segment's record count, so
//! a segment cut at a frame boundary is still seen as torn. Payloads
//! are the positional binary encoding of the cached value
//! ([`serde::to_bin`]: fields in declaration order, no names, LEB128
//! integers), guarded by the schema fold in [`KEY_EPOCH`].
//!
//! # Failure semantics (all graceful)
//!
//! | failure | handling |
//! |---|---|
//! | bad magic / unknown format version / wrong key epoch | whole segment quarantined |
//! | per-record checksum mismatch (bit flip) | record quarantined, scan continues |
//! | torn write, unknown record tag, or no end frame counting the records | valid prefix kept, tail quarantined |
//! | payload fails to deserialise | record quarantined at lookup time |
//! | directory lock busy (another writer) | flush retried, then deferred; records stay pending |
//! | any I/O error | logged, store degrades to miss-everything |
//!
//! Every one of these produces a structured [`StoreEvent`] and bumps a
//! [`StoreStats`] counter; none of them can surface as a cache hit, so
//! a warm run over an arbitrarily damaged store produces output bytes
//! identical to a cold run.
//!
//! # One surface, one record map
//!
//! [`CacheStore`] answers only through [`StoreBackend`], the trait the
//! remote client implements too. It keeps one record map: what it
//! loaded at open and what this process put since, so a lookup serves
//! both (the remote server's `GET` is this `get`). The flush queue is
//! only the list of keys not yet written; a flush encodes them straight
//! from the map, and a key seen once is never queued again.
//!
//! # Lock protocol
//!
//! Any number of stores, in any number of processes, may have one
//! directory open. The directory changes only under an exclusive
//! kernel lock (`flock` on Linux, via [`std::fs::File::try_lock`]) on
//! `LOCK`, which is created on first use and never truncated or
//! removed. The lock is held only while the directory changes: for
//! open-time maintenance (reap `tmp-*`, sweep stale-epoch quarantine,
//! relocate bad segments), for each flush (choose the segment name,
//! write the temp file, rename), and for `compact_dir` and
//! `clear_dir`. Nobody waits for it: a busy lock skips open-time
//! maintenance (the load then only skips bad segments) and turns a
//! flush into a failed attempt that [`RetryPolicy::run`] re-attempts
//! and then defers, records kept pending for the next flush. The
//! kernel drops the lock when its holder exits, so a crashed writer
//! never blocks anyone. Readers need no lock: segments are immutable
//! after rename, so a reader racing a writer sees either the old or the
//! new segment set, both self-validating.

use crate::retry::RetryPolicy;
use crate::trace::{SpanKind, StoreOp, StoreSrc, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Segment file magic.
const MAGIC: &[u8; 8] = b"ICFGPST\x01";
/// On-disk format version; a mismatch quarantines the segment.
/// Version 2 closes every segment with an end frame.
pub const FORMAT_VERSION: u32 = 2;
/// Cache-key derivation epoch. Keys come from the standard library's
/// `DefaultHasher`, which is stable within one Rust release; bump the
/// base number when the key derivation in `cache.rs` changes (epoch 3:
/// `JumpTableDesc` gained bound evidence, `FpDef` gained pointer
/// evidence; epoch 4: `AnalysisFailure` gained the watchdog `Budget`
/// variant and `AnalysisConfig` gained budget knobs; epoch 5:
/// fragment/emit stages re-keyed on the weak cross-binary identity and
/// the emit payload became the position-independent `RelocEmit`;
/// epoch 6: payloads became the positional binary form of
/// [`serde::to_bin`]). Folding the canonical emission into the
/// fragment record (retiring the emit stage and its tag 4) changed no
/// key derivation, only the fragment payload's schema, which the fold
/// below picks up on its own; so did adding the ladder stage (tag 6).
///
/// Binary payloads carry no field names, so a reordered or retyped
/// field would decode as plausible garbage. The base number is
/// therefore folded with the [`serde::Serialize::SCHEMA`] of every
/// persisted payload type (the three per-function stages, audit reports
/// and the ladder's demotion rounds): a build whose payload shapes
/// differ has a different epoch, so its stale segments are quarantined
/// and the remote handshake rejects it — instead of silently never
/// hitting or mass-failing decode. The epoch tracks record shapes, not
/// the rule that produced them: a change to which functions the ladder
/// demotes is versioned by the policy number folded into
/// [`crate::cache::ladder_key`] instead.
pub const KEY_EPOCH: u64 = fold_epoch(
    6,
    &[
        <crate::cache::FuncPayload as Serialize>::SCHEMA,
        <icfgp_cfg::LivenessResult as Serialize>::SCHEMA,
        <crate::cache::FragPayload as Serialize>::SCHEMA,
        <icfgp_audit::AuditReport as Serialize>::SCHEMA,
        <crate::cache::LadderRound as Serialize>::SCHEMA,
    ],
);

/// Fold an epoch number with payload schemas into one 64-bit epoch.
const fn fold_epoch(epoch: u64, schemas: &[u64]) -> u64 {
    let mut h = serde::schema_mix(serde::SCHEMA_SEED, epoch);
    let mut i = 0;
    while i < schemas.len() {
        h = serde::schema_mix(h, schemas[i]);
        i += 1;
    }
    h
}

/// Segment header length: magic + version + epoch.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8;
/// Per-record frame length before the payload: tag + key + len + checksum.
pub(crate) const FRAME_LEN: usize = 1 + 8 + 4 + 8;
/// Tag of the end frame that closes every segment; no [`Stage`] has it.
const END_TAG: u8 = 0xFF;
/// End frame length: its frame plus the `u64` record count.
const END_LEN: usize = FRAME_LEN + 8;
/// Upper bound on a single record payload (corrupt length fields must
/// not cause huge allocations).
const MAX_PAYLOAD: u32 = 256 << 20;
/// Cap on retained events (past it, the oldest are dropped).
const MAX_EVENTS: usize = 512;

/// The cached pipeline stage a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Per-function CFG analyses (with their dependency read-sets).
    Func,
    /// Per-function liveness results.
    Liveness,
    /// Per-function relocation fragments, each with its canonical
    /// emission.
    Fragment,
    /// Whole-binary audit reports (predictive mode gating).
    Audit,
    /// Demotion rounds of the degradation ladder, replayed by a rerun
    /// of the same binary and configuration.
    Ladder,
}

impl Stage {
    /// Every stage, in tag order.
    pub const ALL: [Stage; 5] =
        [Stage::Func, Stage::Liveness, Stage::Fragment, Stage::Audit, Stage::Ladder];

    /// Dense index of the stage: its position in [`Stage::ALL`] (the
    /// declaration order). Per-stage counter arrays are indexed by it.
    pub(crate) fn idx(self) -> usize {
        self as usize
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            Stage::Func => 1,
            Stage::Liveness => 2,
            Stage::Fragment => 3,
            Stage::Audit => 5,
            Stage::Ladder => 6,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Stage> {
        match tag {
            1 => Some(Stage::Func),
            2 => Some(Stage::Liveness),
            3 => Some(Stage::Fragment),
            5 => Some(Stage::Audit),
            6 => Some(Stage::Ladder),
            _ => None,
        }
    }

    /// Short display name (`cache stats`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Func => "func",
            Stage::Liveness => "liveness",
            Stage::Fragment => "fragment",
            Stage::Audit => "audit",
            Stage::Ladder => "ladder",
        }
    }
}

/// 64-bit record checksum: FNV-1a with a splitmix-style avalanche
/// finaliser. Independent of the standard library hasher, so the
/// on-disk format does not move with Rust releases.
#[must_use]
pub fn checksum64(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Avalanche so single-bit flips flip ~half the checksum bits.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// What happened inside the store, for logs and `icfgp cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum StoreEventKind {
    /// Store directory opened (or created).
    Opened,
    /// A segment (or its tail) failed validation and was quarantined.
    Quarantined,
    /// A record failed its checksum and was skipped.
    ChecksumMismatch,
    /// A segment ended mid-record (torn write); the tail was dropped.
    TruncatedSegment,
    /// A segment carried an unknown format version or key epoch.
    VersionMismatch,
    /// A persisted payload failed to deserialise at lookup time.
    DecodeFailure,
    /// The directory lock was busy; the flush was deferred.
    LockTimeout,
    /// Pending records were flushed to a new segment.
    Flushed,
    /// An I/O error degraded the operation to a no-op.
    IoError,
    /// A fault-injection hook fired (chaos campaigns).
    FaultInjected,
}

/// One structured store event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreEvent {
    /// Event class.
    pub kind: StoreEventKind,
    /// Human-readable context (file name, key, error text).
    pub detail: String,
}

/// Append one event to a backend's bounded event log, dropping the
/// oldest past [`MAX_EVENTS`].
pub(crate) fn push_event(events: &mut Vec<StoreEvent>, kind: StoreEventKind, detail: String) {
    if events.len() >= MAX_EVENTS {
        events.remove(0);
    }
    events.push(StoreEvent { kind, detail });
}

impl std::fmt::Display for StoreEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Persistent-store counters — a projection of the unified trace
/// stream (see [`Registry`](crate::trace::Registry)), all
/// monotonically increasing over the store's lifetime;
/// [`RewriteStats`](crate::RewriteStats) carries the per-rewrite
/// delta. Conservation between the fields
/// (`hits + misses + lookup_quarantines == lookups`) is asserted in
/// exactly one place, [`Registry::check`](crate::trace::Registry::check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Backend lookups started (every `get` entry path, including
    /// lookups served while the store is disabled or degraded).
    #[serde(default)]
    pub lookups: u64,
    /// Lookups served from the persisted store.
    pub hits: u64,
    /// Persisted lookups that found nothing. A lookup whose payload was
    /// present but unusable counts under `lookup_quarantines` instead,
    /// never here — hits, misses and lookup-time quarantines are
    /// disjoint.
    pub misses: u64,
    /// Lookups whose payload was present but unusable (decode failure,
    /// re-validation mismatch): the earlier hit re-classified. Always a
    /// subset of `quarantined_records`.
    #[serde(default)]
    pub lookup_quarantines: u64,
    /// Records loaded from disk (across all loads/reloads).
    pub records_loaded: u64,
    /// Segments loaded cleanly.
    pub segments_loaded: u64,
    /// Records rejected by checksum, framing or decode failure.
    pub quarantined_records: u64,
    /// Whole segments rejected (bad header, version or epoch).
    pub quarantined_segments: u64,
    /// Records written out by flushes.
    pub flushed_records: u64,
    /// Flushes that produced a segment.
    pub flushes: u64,
    /// I/O errors absorbed.
    pub io_errors: u64,
    /// Flush attempts deferred because the directory lock was busy,
    /// injected contention included. Always 0 on a remote client.
    pub lock_timeouts: u64,
    /// Transient-failure retries run by the backoff policy (contended
    /// flushes re-attempted, remote requests re-sent).
    #[serde(default)]
    pub retries: u64,
    /// Lookups a remote backend answered with a hit over the wire.
    /// Always a subset of `hits`; zero on local backends.
    #[serde(default)]
    pub remote_hits: u64,
    /// Lookups the remote server answered with a definite miss (the
    /// request round-tripped; the server had no record). A lookup the
    /// *transport* failed on is not a remote miss: it counts only under
    /// `misses`.
    #[serde(default)]
    pub remote_misses: u64,
    /// Circuit-breaker trips: the remote client exhausted its
    /// consecutive-transient-failure budget, and every later lookup of
    /// the run misses.
    #[serde(default)]
    pub breaker_trips: u64,
    /// Lookups answered after a breaker trip, each one a miss. Zero on
    /// local backends and on healthy remotes.
    #[serde(default)]
    pub degraded: u64,
}

impl StoreStats {
    /// Per-rewrite delta against an earlier snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            lookup_quarantines: self.lookup_quarantines - earlier.lookup_quarantines,
            records_loaded: self.records_loaded - earlier.records_loaded,
            segments_loaded: self.segments_loaded - earlier.segments_loaded,
            quarantined_records: self.quarantined_records - earlier.quarantined_records,
            quarantined_segments: self.quarantined_segments - earlier.quarantined_segments,
            flushed_records: self.flushed_records - earlier.flushed_records,
            flushes: self.flushes - earlier.flushes,
            io_errors: self.io_errors - earlier.io_errors,
            lock_timeouts: self.lock_timeouts - earlier.lock_timeouts,
            retries: self.retries - earlier.retries,
            remote_hits: self.remote_hits - earlier.remote_hits,
            remote_misses: self.remote_misses - earlier.remote_misses,
            breaker_trips: self.breaker_trips - earlier.breaker_trips,
            degraded: self.degraded - earlier.degraded,
        }
    }

    /// Total persisted lookups.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of persisted lookups served from disk (0.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Deterministic I/O fault injection, described by the
/// [`FaultPlan`](crate::FaultPlan) store knobs and armed by whoever
/// opens the store (chaos campaigns and tests, through
/// [`StoreBackend::arm_faults`]). Faults only ever *damage*
/// persistence — they must never change rewrite output bytes, which is
/// exactly the invariant the campaigns assert.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreFaults {
    /// PRNG seed for the fault draws.
    pub seed: u64,
    /// Probability a flush writes a torn (truncated mid-record) segment.
    pub torn_write: f64,
    /// Probability a flushed segment gets one bit flipped.
    pub bit_flip: f64,
    /// Probability a flush finds the directory lock busy and defers.
    pub lock_contention: f64,
}

impl StoreFaults {
    /// Whether any fault class is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.torn_write > 0.0
            || self.bit_flip > 0.0
            || self.lock_contention > 0.0
    }
}

/// A deliberately simple seeded PRNG for the fault hooks (splitmix64);
/// the store must not depend on `rand`'s sampling details. Shared with
/// the network-fault transport in `net.rs`.
pub(crate) struct FaultRng(pub(crate) u64);

impl FaultRng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.next() % 10_000) < (p * 10_000.0) as u64
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

#[derive(Default)]
struct Inner {
    /// Every record this store can serve: loaded from disk
    /// (checksum-verified at load; deserialised lazily at lookup) or
    /// put by this process.
    records: HashMap<(Stage, u64), Vec<u8>>,
    /// Keys of `records` still to flush, in put order.
    pending: Vec<(Stage, u64)>,
    /// Keys loaded or put once: never queued again in this process.
    known: HashSet<(Stage, u64)>,
    events: Vec<StoreEvent>,
    faults: Option<(StoreFaults, FaultRng)>,
    retry: RetryPolicy,
}

/// The crash-safe persistent rewrite-cache store. Open one per cache
/// directory and attach it with
/// [`RewriteCache::with_store`](crate::RewriteCache::with_store); it
/// answers through [`StoreBackend`].
/// All counting goes through the unified [`Trace`] spine; `stats()` is
/// the registry's [`StoreSrc::Local`] projection.
pub struct CacheStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    trace: Arc<Trace>,
    /// Hard-disabled after an unrecoverable I/O error at open.
    disabled: bool,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("dir", &self.dir)
            .field("disabled", &self.disabled)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Parse an environment variable holding a millisecond count, following
/// the `ICFGP_THREADS` contract: unset, empty, or whitespace-only means
/// "no override" (`Ok(None)`); anything else must parse as a
/// non-negative integer or the value is a usage error naming the
/// variable. The CLI validates with this up front and exits 64 on
/// `Err`; library callers fall back to their default.
///
/// # Errors
///
/// A usage message naming `var` when `raw` is non-empty but not a
/// non-negative integer.
pub fn env_millis(var: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed
        .parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{var} must be a non-negative integer (milliseconds), got {raw:?}"))
}

impl CacheStore {
    /// Open (creating if necessary) the store at `dir` and load every
    /// valid record. Never fails hard: unusable directories produce a
    /// disabled store that misses everything, with the reason in
    /// [`StoreBackend::events`].
    #[must_use]
    pub fn open(dir: &Path) -> CacheStore {
        CacheStore::open_traced(dir, Trace::new())
    }

    /// Open the store onto an existing trace spine (a recorded run, or
    /// a chaos campaign sharing one collector across cases).
    #[must_use]
    pub fn open_traced(dir: &Path, trace: Arc<Trace>) -> CacheStore {
        let mut store = CacheStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner::default()),
            trace,
            disabled: false,
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            store.disabled = true;
            store.event(StoreEventKind::IoError, format!("create {}: {e}", dir.display()));
            store.emit(StoreOp::IoError);
            return store;
        }
        // Open-time maintenance: only with the lock, never waiting.
        if let Some(_lock) = store.lock_dir() {
            store.reap_temp_files();
            let swept = sweep_stale_quarantine(dir);
            if swept > 0 {
                store.event(
                    StoreEventKind::Quarantined,
                    format!("swept {swept} stale-epoch quarantined file(s)"),
                );
            }
        }
        let loaded_before = store.stats().records_loaded;
        store.load_all();
        let loaded = store.stats().records_loaded - loaded_before;
        store.event(StoreEventKind::Opened, format!("{} ({loaded} record(s))", dir.display()));
        store
    }

    /// Emit one store operation onto the trace.
    fn emit(&self, op: StoreOp) {
        self.trace.emit(TraceEvent::Store { src: StoreSrc::Local, op });
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.lock().expect("store poisoned").retry
    }

    fn event(&self, kind: StoreEventKind, detail: String) {
        push_event(&mut self.inner.lock().expect("store poisoned").events, kind, detail);
    }

    // ----- lock protocol -------------------------------------------------

    /// Take the directory lock without waiting. `None` when another
    /// holder has it or `LOCK` cannot be opened (counted as an I/O
    /// error).
    fn lock_dir(&self) -> Option<std::fs::File> {
        lock_dir(&self.dir).unwrap_or_else(|e| {
            self.emit(StoreOp::IoError);
            self.event(StoreEventKind::IoError, format!("lock: {e}"));
            None
        })
    }

    fn reap_temp_files(&self) {
        // Leftovers from a writer that crashed before rename.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with("tmp-") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    // ----- load ----------------------------------------------------------

    fn segment_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .flatten()
                .filter_map(|e| {
                    let n = e.file_name().to_string_lossy().into_owned();
                    (n.starts_with("seg-") && n.ends_with(".seg")).then_some(n)
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }

    fn load_all(&self) {
        if self.disabled {
            return;
        }
        let bad: Vec<String> = Self::segment_names(&self.dir)
            .into_iter()
            .filter(|name| !self.load_segment(name))
            .collect();
        if bad.is_empty() {
            return;
        }
        // Relocating needs the lock; without it bad segments are only
        // skipped.
        let Some(_lock) = self.lock_dir() else { return };
        for name in bad {
            let to = format!("{name}.quarantined");
            if std::fs::rename(self.dir.join(&name), self.dir.join(&to)).is_ok() {
                self.event(StoreEventKind::Quarantined, format!("{name} -> {to}"));
            }
        }
    }

    /// Load one segment's valid records. Returns `false` when its
    /// header failed validation, so the caller can relocate it.
    fn load_segment(&self, name: &str) -> bool {
        let data = match std::fs::read(self.dir.join(name)) {
            Ok(d) => d,
            Err(e) => {
                self.emit(StoreOp::IoError);
                self.event(StoreEventKind::IoError, format!("read {name}: {e}"));
                return true;
            }
        };
        match scan_segment(&data) {
            SegmentScan::BadHeader(reason) => {
                self.emit(StoreOp::SegmentQuarantined);
                let kind = if reason.contains("version") || reason.contains("epoch") {
                    StoreEventKind::VersionMismatch
                } else {
                    StoreEventKind::Quarantined
                };
                self.event(kind, format!("{name}: {reason}"));
                false
            }
            SegmentScan::Records { records, corrupt_records, truncated } => {
                let mut inner = self.inner.lock().expect("store poisoned");
                let n = records.len() as u64;
                for (stage, key, payload) in records {
                    inner.known.insert((stage, key));
                    inner.records.insert((stage, key), payload);
                }
                drop(inner);
                self.emit(StoreOp::Loaded { records: n });
                if corrupt_records > 0 {
                    self.emit(StoreOp::RecordsQuarantined { n: corrupt_records });
                    self.event(
                        StoreEventKind::ChecksumMismatch,
                        format!("{name}: {corrupt_records} corrupt record(s) quarantined"),
                    );
                }
                if truncated {
                    self.emit(StoreOp::RecordsQuarantined { n: 1 });
                    self.event(
                        StoreEventKind::TruncatedSegment,
                        format!("{name}: torn tail dropped"),
                    );
                }
                true
            }
        }
    }

    // ----- flush ---------------------------------------------------------

    /// One flush attempt: the pending records into a fresh segment
    /// (temp file + atomic rename, under the directory lock). `Err`
    /// when the lock is busy or the write fails, with the records kept
    /// pending.
    fn flush_once(&self) -> Result<usize, ()> {
        let (contended, torn_at, flip) = {
            let mut inner = self.inner.lock().expect("store poisoned");
            if inner.pending.is_empty() {
                return Ok(0);
            }
            let (mut contended, mut torn_at, mut flip) = (false, None, None);
            if let Some((f, rng)) = &mut inner.faults {
                contended = rng.chance(f.lock_contention);
                if !contended {
                    if rng.chance(f.torn_write) {
                        torn_at = Some(rng.next());
                    }
                    if rng.chance(f.bit_flip) {
                        flip = Some(rng.next());
                    }
                }
            }
            (contended, torn_at, flip)
        };
        // Injected contention takes the same path as a busy lock.
        let held = if contended { Ok(None) } else { lock_dir(&self.dir) };
        let _lock = match held {
            Ok(Some(lock)) => lock,
            Ok(None) => {
                self.emit(StoreOp::LockTimeout);
                self.event(
                    StoreEventKind::LockTimeout,
                    format!("{}: lock busy, flush deferred", self.dir.display()),
                );
                return Err(());
            }
            Err(e) => {
                self.emit(StoreOp::IoError);
                self.event(StoreEventKind::IoError, format!("lock: {e}"));
                return Err(());
            }
        };
        // Encode the pending keys straight from the record map. The
        // records stay in it, so a concurrent lookup (a server GET)
        // finds them while the segment is written; a key quarantined
        // since its put is skipped.
        let mut body = segment_header();
        let mut records = 0;
        let keys = {
            let mut inner = self.inner.lock().expect("store poisoned");
            let keys = std::mem::take(&mut inner.pending);
            for &(stage, key) in &keys {
                if let Some(payload) = inner.records.get(&(stage, key)) {
                    encode_record(&mut body, stage, key, payload);
                    records += 1;
                }
            }
            keys
        };
        if records == 0 {
            return Ok(0); // a concurrent flush took them
        }
        end_segment(&mut body, records);

        // Fault: tear the segment inside the record area.
        if let Some(r) = torn_at {
            let cut = HEADER_LEN + (r as usize % (body.len() - HEADER_LEN).max(1));
            body.truncate(cut);
            self.event(
                StoreEventKind::FaultInjected,
                format!("torn write: segment cut to {cut} byte(s)"),
            );
        }
        // Fault: flip one bit anywhere in the segment.
        if let Some(r) = flip {
            if !body.is_empty() {
                let bit = r as usize % (body.len() * 8);
                body[bit / 8] ^= 1 << (bit % 8);
                self.event(
                    StoreEventKind::FaultInjected,
                    format!("bit flip at bit {bit}"),
                );
            }
        }

        let name = next_segment_name(&Self::segment_names(&self.dir));
        match write_atomic(&self.dir, &name, &body) {
            Ok(()) => {
                self.emit(StoreOp::Flushed { records: records as u64 });
                self.event(
                    StoreEventKind::Flushed,
                    format!("{records} record(s) -> {name}"),
                );
                Ok(records)
            }
            Err(e) => {
                // Re-queue the keys; a retry or later flush re-takes them.
                self.inner.lock().expect("store poisoned").pending.extend(keys);
                self.emit(StoreOp::IoError);
                self.event(StoreEventKind::IoError, format!("flush {name}: {e}"));
                Err(())
            }
        }
    }
}

impl Drop for CacheStore {
    fn drop(&mut self) {
        // Flush-on-exit: best effort, never panics.
        self.flush();
    }
}

/// Abstraction over cache-store backends: the local segment-directory
/// store ([`CacheStore`]) and the remote TCP client
/// ([`RemoteStore`](crate::net::RemoteStore)).
/// [`RewriteCache`](crate::RewriteCache) talks to its store only
/// through this trait, so every backend inherits the same hard
/// invariant: store damage of any kind — disk corruption, a dead or
/// lying server — may only ever cost a recompute, never change output
/// bytes or hang the run.
pub trait StoreBackend: Send + Sync {
    /// Fetch a verified payload; `None` counts as a persisted miss.
    fn get(&self, stage: Stage, key: u64) -> Option<Vec<u8>>;
    /// Buffer a freshly-computed record for the next [`StoreBackend::flush`].
    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>);
    /// Convert an earlier hit whose payload proved unusable into a
    /// quarantine, and only a quarantine: the lookup is not also
    /// counted as a miss, so hits, misses and lookup quarantines stay
    /// disjoint and sum to the lookups.
    fn quarantine_record(&self, stage: Stage, key: u64, why: &str);
    /// Persist pending records; returns how many were persisted this
    /// call. Deferrals (lock contention, dead server) return 0 with
    /// the records kept pending.
    fn flush(&self) -> usize;
    /// Counter snapshot.
    fn stats(&self) -> StoreStats;
    /// Structured events so far (bounded; overflow dropped oldest).
    fn events(&self) -> Vec<StoreEvent>;
    /// Pending (unflushed) record count.
    fn pending_len(&self) -> usize;
    /// Per-stage count of the records the local store can serve,
    /// loaded or queued.
    fn entry_counts(&self) -> Vec<(Stage, usize)>;
    /// Where the records live, for logs: a directory path or a URL.
    fn describe(&self) -> String;
    /// Arm deterministic I/O fault injection (chaos campaigns).
    fn arm_faults(&self, faults: StoreFaults);
    /// Arm deterministic network fault injection. A no-op on every
    /// backend here (a faulted client is built over a
    /// [`FaultyTransport`](crate::net::FaultyTransport)); kept because
    /// the `icfgp-perf` bench's `TimedStore` forwards the whole trait.
    fn arm_net_faults(&self, faults: crate::net::NetFaults) {
        let _ = faults;
    }
    /// Replace the transient-failure retry policy.
    fn set_retry_policy(&self, policy: RetryPolicy);
    /// The trace spine this backend emits through.
    /// [`RewriteCache::with_backend`](crate::RewriteCache::with_backend)
    /// adopts it, so cache-level and store-level events share one
    /// registry.
    fn trace(&self) -> Arc<Trace>;
    /// Which [`StoreSrc`] slot this backend's events land in.
    fn trace_src(&self) -> StoreSrc {
        StoreSrc::Local
    }
}

impl StoreBackend for CacheStore {
    /// Loaded and queued records alike: a record one server client PUT
    /// is served to the next before it is flushed.
    fn get(&self, stage: Stage, key: u64) -> Option<Vec<u8>> {
        self.emit(StoreOp::Lookup { stage });
        // A disabled store holds no records: every lookup is a miss.
        let found = self.inner.lock().expect("store poisoned").records.get(&(stage, key)).cloned();
        self.emit(if found.is_some() { StoreOp::Hit { stage } } else { StoreOp::Miss { stage } });
        found
    }

    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        if self.disabled {
            return;
        }
        let mut inner = self.inner.lock().expect("store poisoned");
        if inner.known.insert((stage, key)) {
            inner.records.insert((stage, key), payload);
            inner.pending.push((stage, key));
        }
    }

    fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        self.inner.lock().expect("store poisoned").records.remove(&(stage, key));
        self.emit(StoreOp::LookupQuarantine { stage });
        self.event(
            StoreEventKind::DecodeFailure,
            format!("{}:{key:#018x}: {why}", stage.name()),
        );
    }

    /// Retries a busy lock or a failed write through
    /// [`RetryPolicy::run`]; a failed last attempt defers the flush.
    fn flush(&self) -> usize {
        if self.disabled || self.pending_len() == 0 {
            return 0;
        }
        let span = self.trace.span(SpanKind::StoreFlush);
        let (flushed, retries) = self.retry_policy().run(|_| self.flush_once());
        for _ in 0..retries {
            self.emit(StoreOp::Retry);
        }
        span.close();
        flushed.unwrap_or(0)
    }

    fn stats(&self) -> StoreStats {
        self.trace.registry().store_stats(StoreSrc::Local)
    }

    fn events(&self) -> Vec<StoreEvent> {
        self.inner.lock().expect("store poisoned").events.clone()
    }

    fn pending_len(&self) -> usize {
        self.inner.lock().expect("store poisoned").pending.len()
    }

    fn entry_counts(&self) -> Vec<(Stage, usize)> {
        let inner = self.inner.lock().expect("store poisoned");
        Stage::ALL
            .iter()
            .map(|s| (*s, inner.records.keys().filter(|(st, _)| st == s).count()))
            .collect()
    }

    fn describe(&self) -> String {
        self.dir.display().to_string()
    }

    fn arm_faults(&self, faults: StoreFaults) {
        let rng = FaultRng(faults.seed ^ 0x0051_570F_A017_u64);
        self.inner.lock().expect("store poisoned").faults = faults.any().then_some((faults, rng));
    }

    fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.lock().expect("store poisoned").retry = policy;
    }

    fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }
}

/// Take the directory lock on `dir/LOCK` without waiting: `Ok(None)`
/// when another holder (in this process or another) has it. The lock
/// lives until the returned file is dropped, or its holder exits. This
/// is the only code that touches `LOCK`; nothing truncates or removes
/// it, so every holder locks the same inode.
fn lock_dir(dir: &Path) -> std::io::Result<Option<std::fs::File>> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join("LOCK"))?;
    match file.try_lock() {
        Ok(()) => Ok(Some(file)),
        Err(std::fs::TryLockError::WouldBlock) => Ok(None),
        Err(std::fs::TryLockError::Error(e)) => Err(e),
    }
}

/// The directory lock for offline maintenance: a busy lock is an
/// error, a missing directory is `Ok(None)` (nothing to maintain).
fn lock_for_maintenance(dir: &Path) -> Result<Option<std::fs::File>, String> {
    match lock_dir(dir) {
        Ok(Some(lock)) => Ok(Some(lock)),
        Ok(None) => Err(format!("{}: store locked by another process", dir.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: lock: {e}", dir.display())),
    }
}

/// A fresh segment image holding only the header.
fn segment_header() -> Vec<u8> {
    let mut body = Vec::with_capacity(1 << 16);
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
    body
}

/// The segment name numbered above every name in `names`.
fn next_segment_name(names: &[String]) -> String {
    let next = names
        .iter()
        .filter_map(|n| n.get(4..10)?.parse::<u64>().ok())
        .max()
        .map_or(0, |n| n + 1);
    format!("seg-{next:06}.seg")
}

/// Write `body` to `dir/name` via a temp file and atomic rename.
fn write_atomic(dir: &Path, name: &str, body: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    let path = dir.join(name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)
}

fn encode_record(out: &mut Vec<u8>, stage: Stage, key: u64, payload: &[u8]) {
    encode_frame(out, stage.tag(), key, payload);
}

/// Close a segment image holding `records` records with its end frame.
fn end_segment(out: &mut Vec<u8>, records: usize) {
    encode_frame(out, END_TAG, 0, &(records as u64).to_le_bytes());
}

/// Append one checksummed record frame (`tag ‖ key ‖ len ‖ checksum ‖
/// payload`, all little-endian) — the framing shared by store segments
/// and the remote protocol.
pub(crate) fn encode_frame(out: &mut Vec<u8>, tag: u8, key: u64, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let sum = checksum64(&[&[tag], &key.to_le_bytes(), payload]);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Result of [`scan_frames`]: validated frames plus damage counts.
pub(crate) struct FrameScan {
    /// `(tag, key, payload)` for every checksum-valid frame, in order.
    pub frames: Vec<(u8, u64, Vec<u8>)>,
    /// Frames with intact framing but a failed checksum (skipped).
    pub corrupt: u64,
    /// The tail was dropped: short frame, unknown tag, or implausible
    /// length — framing is untrustworthy past that point.
    pub truncated: bool,
}

/// Scan `data` (any file header already stripped by the caller) as a
/// sequence of checksummed frames. `valid_tag` bounds the tag space:
/// an unknown tag ends the scan, because framing past it cannot be
/// trusted.
pub(crate) fn scan_frames(data: &[u8], valid_tag: impl Fn(u8) -> bool) -> FrameScan {
    let mut frames = Vec::new();
    let mut corrupt = 0u64;
    let mut truncated = false;
    let mut at = 0usize;
    while at < data.len() {
        if data.len() - at < FRAME_LEN {
            truncated = true;
            break;
        }
        let tag = data[at];
        let key = u64::from_le_bytes(data[at + 1..at + 9].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(data[at + 13..at + 21].try_into().expect("8 bytes"));
        if !valid_tag(tag) {
            truncated = true;
            break;
        }
        if len > MAX_PAYLOAD || data.len() - at - FRAME_LEN < len as usize {
            truncated = true;
            break;
        }
        let payload = &data[at + FRAME_LEN..at + FRAME_LEN + len as usize];
        if checksum64(&[&[tag], &key.to_le_bytes(), payload]) == sum {
            frames.push((tag, key, payload.to_vec()));
        } else {
            corrupt += 1;
        }
        at += FRAME_LEN + len as usize;
    }
    FrameScan { frames, corrupt, truncated }
}

/// Check the `magic ‖ version u32 ‖ KEY_EPOCH u64` header that opens
/// every store segment and quarantined segment; `Err` says what
/// differs.
fn check_header(data: &[u8]) -> Result<(), String> {
    if data.len() < HEADER_LEN {
        return Err("shorter than the header".into());
    }
    if &data[..8] != MAGIC {
        return Err("bad magic".into());
    }
    let found = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if found != FORMAT_VERSION {
        return Err(format!("format version {found} (expected {FORMAT_VERSION})"));
    }
    let epoch = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    if epoch != KEY_EPOCH {
        return Err(format!("key epoch {epoch:#x} (expected {KEY_EPOCH:#x})"));
    }
    Ok(())
}

enum SegmentScan {
    BadHeader(String),
    Records {
        records: Vec<(Stage, u64, Vec<u8>)>,
        corrupt_records: u64,
        truncated: bool,
    },
}

/// Parse one segment image: header check, then record-by-record
/// checksum validation. Framing damage (implausible length, unknown
/// tag) ends the scan with the tail dropped; a checksum mismatch with
/// intact framing skips just that record. A segment whose last frame
/// is not an intact end frame counting every frame before it lost its
/// tail, wherever the cut fell.
fn scan_segment(data: &[u8]) -> SegmentScan {
    if let Err(why) = check_header(data) {
        return SegmentScan::BadHeader(why);
    }
    let mut scan =
        scan_frames(&data[HEADER_LEN..], |tag| tag == END_TAG || Stage::from_tag(tag).is_some());
    let end = scan.frames.pop_if(|(tag, ..)| *tag == END_TAG);
    let count = (scan.frames.len() as u64 + scan.corrupt).to_le_bytes();
    let whole = end.is_some_and(|(.., payload)| payload == count);
    let records = scan
        .frames
        .into_iter()
        .filter_map(|(tag, key, payload)| Some((Stage::from_tag(tag)?, key, payload)))
        .collect();
    SegmentScan::Records {
        records,
        corrupt_records: scan.corrupt,
        truncated: scan.truncated || !whole,
    }
}

// ----- offline maintenance (icfgp cache …) -------------------------------

/// Result of [`verify_dir`]: a full checksum sweep of a store
/// directory, without taking the lock or touching any file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreVerifyReport {
    /// Segments scanned.
    pub segments: u64,
    /// Valid records across all segments.
    pub valid_records: u64,
    /// Records rejected by checksum.
    pub corrupt_records: u64,
    /// Segments with a bad header/version/epoch.
    pub bad_segments: u64,
    /// Segments with a torn tail.
    pub truncated_segments: u64,
    /// Previously-quarantined segment files present.
    pub quarantined_files: u64,
    /// Total bytes held by quarantined files (bounded by sweeps at
    /// open, `cache compact` and `cache clear`).
    #[serde(default)]
    pub quarantined_bytes: u64,
    /// Total segment bytes.
    pub total_bytes: u64,
    /// Per-segment human-readable problems.
    pub problems: Vec<String>,
}

impl StoreVerifyReport {
    /// A store with zero detected damage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt_records == 0
            && self.bad_segments == 0
            && self.truncated_segments == 0
            && self.quarantined_files == 0
    }
}

/// Integrity-check every record checksum in `dir` (read-only; safe to
/// run concurrently with a writer).
#[must_use]
pub fn verify_dir(dir: &Path) -> StoreVerifyReport {
    let mut report = StoreVerifyReport::default();
    for name in &CacheStore::segment_names(dir) {
        let path = dir.join(name);
        let Ok(data) = std::fs::read(&path) else {
            report.problems.push(format!("{name}: unreadable"));
            report.bad_segments += 1;
            continue;
        };
        report.segments += 1;
        report.total_bytes += data.len() as u64;
        match scan_segment(&data) {
            SegmentScan::BadHeader(why) => {
                report.bad_segments += 1;
                report.problems.push(format!("{name}: {why}"));
            }
            SegmentScan::Records { records, corrupt_records, truncated } => {
                report.valid_records += records.len() as u64;
                report.corrupt_records += corrupt_records;
                if corrupt_records > 0 {
                    report.problems.push(format!("{name}: {corrupt_records} corrupt record(s)"));
                }
                if truncated {
                    report.truncated_segments += 1;
                    report.problems.push(format!("{name}: torn tail"));
                }
            }
        }
    }
    (report.quarantined_files, report.quarantined_bytes) = quarantine_usage(dir);
    report
}

/// Count the `*.quarantined` files in `dir` and their total bytes
/// (read-only; `icfgp cache stats` reports this so quarantine growth
/// is observable).
#[must_use]
pub fn quarantine_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0u64;
    let mut bytes = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let n = entry.file_name().to_string_lossy().into_owned();
            if n.ends_with(".quarantined") {
                files += 1;
                if let Ok(m) = entry.metadata() {
                    bytes += m.len();
                }
            }
        }
    }
    (files, bytes)
}

/// Delete `*.quarantined` files whose embedded header belongs to an
/// older format version or key epoch, or is unreadable. Such files
/// exist only for post-mortem inspection, and once the epoch has moved
/// on there is nothing left to learn from them — without a sweep they
/// accumulate forever. Current-epoch quarantined files (recent damage)
/// are kept for inspection until `cache compact`/`clear` removes every
/// quarantined file. Runs at open, under the directory lock. Returns
/// the number removed.
pub fn sweep_stale_quarantine(dir: &Path) -> u64 {
    let mut removed = 0u64;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    for entry in entries.flatten() {
        let n = entry.file_name().to_string_lossy().into_owned();
        if !n.ends_with(".quarantined") {
            continue;
        }
        let stale = std::fs::read(entry.path())
            .map_or(true, |data| check_header(&data).is_err());
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Delete every store file in `dir` (segments, quarantined files,
/// stale temp files, and the `INDEX` an older build wrote), under the
/// directory lock. `LOCK` stays: removing it would let a later holder
/// lock a different inode than a current one. Returns the number of
/// files removed.
///
/// # Errors
///
/// A message when the lock is busy or I/O fails (a missing directory
/// counts as already clear).
pub fn clear_dir(dir: &Path) -> Result<usize, String> {
    let Some(_lock) = lock_for_maintenance(dir)? else { return Ok(0) };
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut removed = 0usize;
    for entry in entries.flatten() {
        let n = entry.file_name().to_string_lossy().into_owned();
        let is_store_file = (n.starts_with("seg-") && n.ends_with(".seg"))
            || n.ends_with(".quarantined")
            || n.starts_with("tmp-")
            || n == "INDEX";
        if is_store_file && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Result of [`compact_dir`]: every live record rewritten into one
/// fresh segment, with superseded duplicates, corrupt records, bad
/// segments and quarantined files dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactReport {
    /// Segment files present before compaction.
    pub segments_before: u64,
    /// Live records carried into the fresh segment.
    pub records_kept: u64,
    /// Records dropped because a later segment held the same key
    /// (last-writer-wins, the same rule a load applies).
    pub superseded_dropped: u64,
    /// Records dropped by checksum failure.
    pub corrupt_dropped: u64,
    /// Whole segments dropped (bad header, version or epoch).
    pub bad_segments_dropped: u64,
    /// `*.quarantined` files deleted.
    pub quarantined_files_removed: u64,
    /// Total segment bytes before compaction.
    pub bytes_before: u64,
    /// Bytes of the single fresh segment (0 when nothing was live).
    pub bytes_after: u64,
}

/// Compact the store at `dir`: merge every live record
/// (last-writer-wins across segments) into one fresh segment, publish
/// it atomically, then delete the old segments, quarantined files and
/// stale temp files.
///
/// Holds the directory lock throughout, so no flush interleaves.
/// Crash-safe at every step: the fresh segment is published (rename)
/// *above* the old ones before anything is deleted, so a crash in
/// between leaves duplicates that the normal last-writer-wins load
/// resolves to the same records.
///
/// # Errors
///
/// A message when the lock is busy or I/O fails.
pub fn compact_dir(dir: &Path) -> Result<CompactReport, String> {
    let Some(_lock) = lock_for_maintenance(dir)? else { return Ok(CompactReport::default()) };
    let names = CacheStore::segment_names(dir);
    let mut report =
        CompactReport { segments_before: names.len() as u64, ..CompactReport::default() };
    // Merge all valid records; later segments supersede earlier ones.
    let mut live: HashMap<(Stage, u64), Vec<u8>> = HashMap::new();
    for name in &names {
        let data = std::fs::read(dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        report.bytes_before += data.len() as u64;
        match scan_segment(&data) {
            SegmentScan::BadHeader(_) => report.bad_segments_dropped += 1,
            SegmentScan::Records { records, corrupt_records, .. } => {
                report.corrupt_dropped += corrupt_records;
                for (stage, key, payload) in records {
                    if live.insert((stage, key), payload).is_some() {
                        report.superseded_dropped += 1;
                    }
                }
            }
        }
    }
    report.records_kept = live.len() as u64;
    if !live.is_empty() {
        let new_name = next_segment_name(&names);
        let mut body = segment_header();
        let mut entries: Vec<((Stage, u64), Vec<u8>)> = live.into_iter().collect();
        entries.sort_by_key(|e| (e.0 .0.tag(), e.0 .1));
        for ((stage, key), payload) in &entries {
            encode_record(&mut body, *stage, *key, payload);
        }
        end_segment(&mut body, entries.len());
        report.bytes_after = body.len() as u64;
        write_atomic(dir, &new_name, &body).map_err(|e| format!("write {new_name}: {e}"))?;
    }
    for name in &names {
        let _ = std::fs::remove_file(dir.join(name));
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let n = entry.file_name().to_string_lossy().into_owned();
            if n.ends_with(".quarantined") {
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.quarantined_files_removed += 1;
                }
            } else if n.starts_with("tmp-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(report)
}

/// Deterministic store corruption for tests and the CI corruption
/// matrix (`icfgp cache corrupt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip one bit inside the records (between the header and the
    /// end frame).
    BitFlip,
    /// Truncate a segment mid-record (torn write).
    Truncate,
    /// Rewrite a segment header with a wrong format version.
    StaleVersion,
}

impl CorruptKind {
    /// Parse a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<CorruptKind> {
        match s {
            "bit-flip" => Some(CorruptKind::BitFlip),
            "truncate" => Some(CorruptKind::Truncate),
            "stale-version" => Some(CorruptKind::StaleVersion),
            _ => None,
        }
    }
}

/// Damage one segment in `dir` deterministically (seeded choice of
/// segment and position). Returns a description of what was done.
///
/// # Errors
///
/// A message when the directory holds no segments or I/O fails.
pub fn corrupt_dir(dir: &Path, kind: CorruptKind, seed: u64) -> Result<String, String> {
    let names = CacheStore::segment_names(dir);
    if names.is_empty() {
        return Err(format!("{}: no segments to corrupt", dir.display()));
    }
    let mut rng = FaultRng(seed ^ 0xC0_44_09_71);
    let name = &names[rng.below(names.len() as u64) as usize];
    let path = dir.join(name);
    let mut data = std::fs::read(&path).map_err(|e| format!("read {name}: {e}"))?;
    let what = match kind {
        CorruptKind::BitFlip => {
            if data.len() <= HEADER_LEN + END_LEN {
                return Err(format!("{name}: no record bytes to flip"));
            }
            let span = (data.len() - HEADER_LEN - END_LEN) * 8;
            let bit = HEADER_LEN * 8 + rng.below(span as u64) as usize;
            data[bit / 8] ^= 1 << (bit % 8);
            format!("{name}: flipped bit {bit}")
        }
        CorruptKind::Truncate => {
            let keep = HEADER_LEN + rng.below((data.len() - HEADER_LEN).max(1) as u64) as usize;
            data.truncate(keep);
            format!("{name}: truncated to {keep} byte(s)")
        }
        CorruptKind::StaleVersion => {
            let bogus = FORMAT_VERSION + 1 + (rng.below(7) as u32);
            data[8..12].copy_from_slice(&bogus.to_le_bytes());
            format!("{name}: header version rewritten to {bogus}")
        }
    };
    std::fs::write(&path, &data).map_err(|e| format!("write {name}: {e}"))?;
    Ok(what)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("icfgp-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A file image opening with `magic ‖ version ‖ epoch`.
    fn header(magic: &[u8; 8], version: u32, epoch: u64) -> Vec<u8> {
        let mut body = magic.to_vec();
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(&epoch.to_le_bytes());
        body
    }

    #[test]
    fn stage_idx_is_the_position_in_all() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.idx(), i, "{stage:?}");
        }
    }

    #[test]
    fn sweep_keeps_current_and_deletes_stale_quarantine() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let files = [
            ("current.quarantined", header(MAGIC, FORMAT_VERSION, KEY_EPOCH), true),
            ("old-epoch.quarantined", header(MAGIC, FORMAT_VERSION, KEY_EPOCH ^ 1), false),
            ("old-version.quarantined", header(MAGIC, FORMAT_VERSION + 1, KEY_EPOCH), false),
            ("short.quarantined", MAGIC.to_vec(), false),
            // Not a quarantined file: never swept, whatever its header.
            ("seg-000009.seg", header(MAGIC, FORMAT_VERSION, KEY_EPOCH ^ 1), true),
        ];
        for (name, body, _) in &files {
            std::fs::write(dir.join(name), body).unwrap();
        }
        assert_eq!(sweep_stale_quarantine(&dir), 3);
        for (name, _, kept) in &files {
            assert_eq!(dir.join(name).exists(), *kept, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_flush_and_reload() {
        let dir = tmp_dir("roundtrip");
        {
            let store = CacheStore::open(&dir);
            store.put(Stage::Func, 1, b"alpha".to_vec());
            store.put(Stage::Fragment, 2, b"beta".to_vec());
            assert_eq!(store.flush(), 2);
        }
        let store = CacheStore::open(&dir);
        assert_eq!(store.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get(Stage::Fragment, 2).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.get(Stage::Func, 3), None);
        let s = store.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.records_loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_are_coalesced() {
        let dir = tmp_dir("dedup");
        let store = CacheStore::open(&dir);
        store.put(Stage::Func, 9, b"x".to_vec());
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(store.pending_len(), 1);
        assert_eq!(store.flush(), 1);
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(store.pending_len(), 0, "already persisted keys are not re-queued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_quarantines_only_that_record() {
        let dir = tmp_dir("bitflip");
        {
            let store = CacheStore::open(&dir);
            for k in 0..8u64 {
                store.put(Stage::Fragment, k, format!("payload-{k}").into_bytes());
            }
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::BitFlip, 42).unwrap();
        let store = CacheStore::open(&dir);
        let loaded = store.stats().records_loaded;
        let quarantined = store.stats().quarantined_records;
        // Depending on where the bit lands, either one record dies
        // (payload/frame checksum) or framing breaks and the tail is
        // dropped — but never does a corrupt payload load.
        assert!(loaded < 8, "a corrupt record must not load (loaded {loaded})");
        assert!(quarantined >= 1);
        for k in 0..8u64 {
            if let Some(p) = store.get(Stage::Fragment, k) {
                assert_eq!(p, format!("payload-{k}").into_bytes());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let dir = tmp_dir("trunc");
        {
            let store = CacheStore::open(&dir);
            for k in 0..6u64 {
                store.put(Stage::Liveness, k, vec![k as u8; 64]);
            }
            store.flush();
        }
        // Cut the end frame and one byte more: the last record is torn.
        let name = CacheStore::segment_names(&dir).pop().unwrap();
        let path = dir.join(&name);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - END_LEN - 1]).unwrap();
        let store = CacheStore::open(&dir);
        assert_eq!(store.stats().records_loaded, 5);
        assert!(store.get(Stage::Liveness, 5).is_none());
        assert_eq!(store.get(Stage::Liveness, 0).unwrap(), vec![0u8; 64]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_quarantines_whole_segment() {
        let dir = tmp_dir("version");
        {
            let store = CacheStore::open(&dir);
            store.put(Stage::Func, 7, b"seven".to_vec());
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::StaleVersion, 1).unwrap();
        let store = CacheStore::open(&dir);
        assert_eq!(store.stats().records_loaded, 0);
        assert_eq!(store.stats().quarantined_segments, 1);
        assert!(store.get(Stage::Func, 7).is_none());
        // The open relocated the bad segment out of the scan set.
        assert!(CacheStore::segment_names(&dir).is_empty());
        let report = verify_dir(&dir);
        assert_eq!(report.quarantined_files, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_persists_once_the_first_is_gone() {
        let dir = tmp_dir("lock");
        let a = CacheStore::open(&dir);
        let b = CacheStore::open(&dir);
        b.put(Stage::Func, 1, b"from-b".to_vec());
        drop(a);
        assert!(b.flush() > 0, "a store that opened second must still persist");
        drop(b);
        let warm = CacheStore::open(&dir);
        assert_eq!(warm.get(Stage::Func, 1).as_deref(), Some(&b"from-b"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_lock_defers_the_flush_until_it_frees() {
        let dir = tmp_dir("busy");
        let store = CacheStore::open(&dir);
        store.set_retry_policy(crate::retry::RetryPolicy::none());
        store.put(Stage::Func, 1, b"one".to_vec());
        let held = lock_dir(&dir).unwrap().expect("lock is free");
        assert_eq!(store.flush(), 0, "a busy lock must defer the flush");
        assert_eq!(store.pending_len(), 1, "deferred records stay pending");
        assert_eq!(store.stats().lock_timeouts, 1);
        drop(held);
        assert_eq!(store.flush(), 1, "the next flush lands the deferred record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_writer_lock_is_broken_as_stale() {
        let dir = tmp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A lock file left by an older build, naming a PID that cannot
        // exist.
        std::fs::write(dir.join("LOCK"), "4294967294\n").unwrap();
        let store = CacheStore::open(&dir);
        store.put(Stage::Func, 1, b"one".to_vec());
        assert_eq!(store.flush(), 1, "a leftover LOCK file must not block");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_and_clear() {
        let dir = tmp_dir("verify");
        {
            let store = CacheStore::open(&dir);
            store.put(Stage::Func, 1, b"one".to_vec());
            store.put(Stage::Fragment, 2, b"two".to_vec());
            store.flush();
        }
        let clean = verify_dir(&dir);
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(clean.valid_records, 2);
        corrupt_dir(&dir, CorruptKind::BitFlip, 3).unwrap();
        let dirty = verify_dir(&dir);
        assert!(!dirty.is_clean());
        std::fs::write(dir.join("INDEX"), b"{}").unwrap();
        assert!(clear_dir(&dir).unwrap() >= 2);
        assert_eq!(CacheStore::segment_names(&dir).len(), 0);
        assert!(!dir.join("INDEX").exists(), "an older build's INDEX is cleared");
        assert!(dir.join("LOCK").exists(), "clear never removes LOCK");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hand-built segment image (bypasses the put-dedup so tests can
    /// create cross-segment duplicates the way concurrent writers do).
    fn raw_segment(records: &[(Stage, u64, &[u8])]) -> Vec<u8> {
        let mut body = segment_header();
        for (stage, key, payload) in records {
            encode_record(&mut body, *stage, *key, payload);
        }
        end_segment(&mut body, records.len());
        body
    }

    /// A flushed segment cut at any frame boundary, the end frame's
    /// own included, has a torn tail: `verify_dir` flags it, a load
    /// counts it, and every record before the cut still loads. So does
    /// a whole segment whose end frame miscounts its records.
    #[test]
    fn a_cut_at_every_frame_boundary_is_a_torn_tail() {
        let dir = tmp_dir("boundary");
        {
            let store = CacheStore::open(&dir);
            for k in 0..4u64 {
                store.put(Stage::Func, k, vec![k as u8; 10 + k as usize]);
            }
            assert_eq!(store.flush(), 4);
        }
        assert!(verify_dir(&dir).is_clean());
        let name = CacheStore::segment_names(&dir).pop().unwrap();
        let seg = std::fs::read(dir.join(&name)).unwrap();
        let mut cuts = vec![HEADER_LEN];
        for k in 0..4 {
            cuts.push(cuts[k] + FRAME_LEN + 10 + k);
        }
        assert_eq!(cuts[4] + END_LEN, seg.len(), "one end frame closes the segment");
        let mut miscounted = seg[..cuts[4]].to_vec();
        end_segment(&mut miscounted, 3);
        let images: Vec<(usize, &[u8])> = cuts
            .iter()
            .enumerate()
            .map(|(kept, &cut)| (kept, &seg[..cut]))
            .chain([(4, &miscounted[..])])
            .collect();
        for (kept, image) in images {
            let what = format!("{} of {} byte(s)", image.len(), seg.len());
            std::fs::write(dir.join(&name), image).unwrap();
            let report = verify_dir(&dir);
            let torn = (report.truncated_segments, report.valid_records);
            assert_eq!(torn, (1, kept as u64), "{what}");
            assert!(!report.is_clean(), "{what}");
            let store = CacheStore::open(&dir);
            let s = store.stats();
            assert_eq!((s.records_loaded, s.quarantined_records), (kept as u64, 1), "{what}");
            assert!(
                store.events().iter().any(|e| e.kind == StoreEventKind::TruncatedSegment),
                "{what}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_merges_last_writer_wins_and_drops_quarantined() {
        let dir = tmp_dir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("seg-000000.seg"),
            raw_segment(&[(Stage::Func, 1, b"old"), (Stage::Func, 2, b"keep2")]),
        )
        .unwrap();
        std::fs::write(
            dir.join("seg-000001.seg"),
            raw_segment(&[(Stage::Func, 1, b"new"), (Stage::Audit, 9, b"report")]),
        )
        .unwrap();
        std::fs::write(dir.join("seg-000007.seg.quarantined"), b"junk").unwrap();
        let report = compact_dir(&dir).unwrap();
        assert_eq!(report.segments_before, 2);
        assert_eq!(report.records_kept, 3);
        assert_eq!(report.superseded_dropped, 1);
        assert_eq!(report.quarantined_files_removed, 1);
        assert!(report.bytes_after < report.bytes_before);
        // Exactly one fresh segment, numbered above the old ones.
        assert_eq!(CacheStore::segment_names(&dir), vec!["seg-000002.seg".to_string()]);
        let check = verify_dir(&dir);
        assert!(check.is_clean(), "{check:?}");
        // Last writer won.
        let store = CacheStore::open(&dir);
        assert_eq!(store.get(Stage::Func, 1).as_deref(), Some(&b"new"[..]));
        assert_eq!(store.get(Stage::Func, 2).as_deref(), Some(&b"keep2"[..]));
        assert_eq!(store.get(Stage::Audit, 9).as_deref(), Some(&b"report"[..]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_corrupt_records() {
        let dir = tmp_dir("compact-corrupt");
        {
            let store = CacheStore::open(&dir);
            for k in 0..6u64 {
                store.put(Stage::Fragment, k, format!("payload-{k}").into_bytes());
            }
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::BitFlip, 42).unwrap();
        let report = compact_dir(&dir).unwrap();
        assert!(
            report.records_kept < 6,
            "corrupt/torn records must not survive compaction: {report:?}"
        );
        assert!(verify_dir(&dir).is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_refuses_while_locked() {
        let dir = tmp_dir("compact-locked");
        std::fs::create_dir_all(&dir).unwrap();
        let held = lock_dir(&dir).unwrap().expect("lock is free");
        let err = compact_dir(&dir);
        assert!(err.is_err(), "compaction must not race a live writer");
        drop(held);
        assert!(compact_dir(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_lookup_is_not_also_a_miss() {
        let dir = tmp_dir("quarantine-count");
        let store = CacheStore::open(&dir);
        store.put(Stage::Func, 5, b"payload".to_vec());
        store.flush();
        assert_eq!(store.get(Stage::Func, 5).as_deref(), Some(&b"payload"[..]));
        // Simulate the cache layer hitting an undecodable payload.
        store.quarantine_record(Stage::Func, 5, "decode failure (test)");
        let s = store.stats();
        assert_eq!(s.hits, 0, "the hit was retracted");
        assert_eq!(s.misses, 0, "a quarantine is not a miss");
        assert_eq!(s.quarantined_records, 1);
        assert_eq!(s.total(), 0);
        // The record is gone from the loaded set: the next lookup is a
        // genuine miss.
        assert!(store.get(Stage::Func, 5).is_none());
        assert_eq!(store.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_absorbed() {
        let dir = tmp_dir("faults");
        let store = CacheStore::open(&dir);
        store.arm_faults(StoreFaults {
            seed: 11,
            torn_write: 1.0,
            bit_flip: 0.0,
            lock_contention: 0.0,
        });
        for k in 0..8u64 {
            store.put(Stage::Func, k, vec![0xAB; 32]);
        }
        store.flush();
        drop(store);
        let store = CacheStore::open(&dir);
        // A torn flush loses a suffix of the records but never
        // produces a wrong payload.
        for k in 0..8u64 {
            if let Some(p) = store.get(Stage::Func, k) {
                assert_eq!(p, vec![0xAB; 32]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the retry driver's counters and events under injected
    /// lock contention (numbers captured before flush moved onto
    /// `RetryPolicy::run`).
    #[test]
    fn injected_contention_retries_through_the_policy() {
        use StoreEventKind::{Flushed, LockTimeout, Opened};
        let dir = tmp_dir("retry-pin");
        let store = CacheStore::open(&dir);
        store.set_retry_policy(crate::retry::RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 4,
            seed: 9,
        });
        for k in 0..6u64 {
            store.put(Stage::Func, k, vec![k as u8; 24]);
        }
        // Contention on every attempt: three lock timeouts, two retries,
        // then the flush is deferred with the records kept pending.
        store.arm_faults(StoreFaults { seed: 3, lock_contention: 1.0, ..StoreFaults::default() });
        assert_eq!(store.flush(), 0);
        assert_eq!(store.pending_len(), 6);
        let s = store.stats();
        assert_eq!((s.retries, s.lock_timeouts, s.flushes, s.records_loaded), (2, 3, 0, 0));
        store.arm_faults(StoreFaults::default());
        assert_eq!(store.flush(), 6);
        let s = store.stats();
        assert_eq!((s.retries, s.lock_timeouts, s.flushes, s.records_loaded), (2, 3, 1, 0));
        let kinds: Vec<StoreEventKind> = store.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [Opened, LockTimeout, LockTimeout, LockTimeout, Flushed]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tag 4 belonged to the retired emit stage. In a current-epoch
    /// segment it is an unknown tag like 0 or 7: the scan stops there,
    /// the records before it load, and the tail is dropped as torn.
    #[test]
    fn retired_and_unknown_tags_end_the_segment_scan() {
        for tag in [0u8, 4, 7] {
            let dir = tmp_dir(&format!("tag{tag}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut body = header(MAGIC, FORMAT_VERSION, KEY_EPOCH);
            encode_record(&mut body, Stage::Func, 1, b"one");
            encode_record(&mut body, Stage::Fragment, 2, b"two");
            encode_frame(&mut body, tag, 3, b"stray");
            encode_record(&mut body, Stage::Audit, 4, b"after");
            end_segment(&mut body, 4);
            std::fs::write(dir.join("seg-000001.seg"), &body).unwrap();
            let store = CacheStore::open(&dir);
            let s = store.stats();
            assert_eq!((s.records_loaded, s.quarantined_records), (2, 1), "tag {tag}");
            assert_eq!(store.get(Stage::Func, 1).as_deref(), Some(&b"one"[..]));
            assert_eq!(store.get(Stage::Fragment, 2).as_deref(), Some(&b"two"[..]));
            assert!(store.get(Stage::Audit, 4).is_none(), "tag {tag}: nothing past the stray frame");
            assert!(
                store.events().iter().any(|e| e.kind == StoreEventKind::TruncatedSegment),
                "tag {tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unusable_directory_degrades_to_disabled() {
        // A path under a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("icfgp-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let store = CacheStore::open(&file.join("sub"));
        assert!(store.get(Stage::Func, 1).is_none());
        store.put(Stage::Func, 1, b"dropped".to_vec());
        assert_eq!(store.flush(), 0);
        assert!(store.stats().io_errors >= 1);
        let _ = std::fs::remove_file(&file);
    }
}
