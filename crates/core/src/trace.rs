//! The unified structured-tracing spine.
//!
//! Every telemetry surface in the workspace — [`RewriteStats`],
//! [`StoreStats`], the `--stats` text block, the chaos/fleet JSON
//! counter sections — is a *projection* of one stream of typed
//! [`TraceEvent`]s collected by a shared [`Trace`]. Subsystems emit
//! events (cache hit/miss/quarantine, store flush, retry, breaker
//! trip, ladder demotion) and open
//! structural [`SpanKind`] spans (run, round, rewrite, pipeline stage,
//! store flush, strict analysis, verify, fault arming); the
//! [`Registry`] folds the stream into counters as it arrives and derives every legacy stats shape on demand, so the
//! conservation laws between counters are checked in exactly one place
//! ([`Registry::check`]).
//!
//! # Determinism rule
//!
//! Rewriting is byte-identical with tracing on or off: the collector
//! is always attached (it *is* the stats mechanism) and never feeds
//! back into the pipeline; "tracing off" only means nothing records
//! the stream, so no record buffer is kept.
//!
//! The *canonical* event stream is byte-stable across
//! `ICFGP_THREADS` values. Structural span open/close markers are
//! emitted only from the orchestrating thread, so they are already
//! deterministic. Worker threads emit only *leaf* records (cache
//! lookups, store operations, per-function and per-RPC timed spans),
//! whose multiset between two consecutive markers is fixed by the
//! cache state, not by scheduling. Sealing the stream sorts each
//! marker-delimited segment by the record's canonical (timing-free)
//! form — the "deterministic address-ordered merge" — which yields the
//! same byte sequence for any worker count. Wall-clock `ns` fields are
//! inherently nondeterministic, so the canonical form used for
//! ordering and comparison zeroes them; the JSONL output
//! ([`Trace::write_jsonl`]) preserves the real values in the same
//! deterministic order.

use crate::cache::{slowest_of, RewriteStats, StageStats, StageTimings};
use crate::store::{Stage, StoreStats};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which backend a store event came from. Each backend owns one
/// source slot in the registry, so a remote client and a local store
/// on one spine never pollute each other's [`StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum StoreSrc {
    /// A directory-backed [`CacheStore`](crate::store::CacheStore).
    Local,
    /// A [`RemoteStore`](crate::net::RemoteStore) TCP client.
    Remote,
}

impl StoreSrc {
    const ALL: [StoreSrc; 2] = [StoreSrc::Local, StoreSrc::Remote];

    fn idx(self) -> usize {
        match self {
            StoreSrc::Local => 0,
            StoreSrc::Remote => 1,
        }
    }

    /// Human name, for conservation messages and summaries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StoreSrc::Local => "local",
            StoreSrc::Remote => "remote",
        }
    }
}

/// A structural span: opened and closed on the orchestrating thread
/// only (worker-side work is recorded as leaf events —
/// [`TraceEvent::FuncSpan`], [`TraceEvent::RpcSpan`] — which carry
/// their own duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "span")]
pub enum SpanKind {
    /// One whole CLI command.
    Run,
    /// One `rewrite_cached` call.
    Rewrite,
    /// One degradation-ladder round.
    Round {
        /// 1-based round number.
        round: u32,
    },
    /// The analysis stage of a rewrite.
    Analysis,
    /// The relocation stage (fragments, layout, emission).
    Relocate,
    /// The trampoline-placement stage.
    Placement,
    /// One store flush.
    StoreFlush,
    /// The static verification of one executed ladder round.
    Verify,
    /// The verifier's strict analysis in one executed ladder round
    /// ([`crate::cache::derive_strict_analysis`]).
    Strict,
    /// Arming a fault plan: its victim-picking clean analysis
    /// ([`crate::FaultPlan::arm_cached`]).
    FaultArm,
}

const SPAN_N: usize = 10;

impl SpanKind {
    fn idx(self) -> usize {
        match self {
            SpanKind::Run => 0,
            SpanKind::Rewrite => 1,
            SpanKind::Round { .. } => 2,
            SpanKind::Analysis => 3,
            SpanKind::Relocate => 4,
            SpanKind::Placement => 5,
            SpanKind::StoreFlush => 6,
            SpanKind::Verify => 7,
            SpanKind::Strict => 8,
            SpanKind::FaultArm => 9,
        }
    }

    fn name(idx: usize) -> &'static str {
        [
            "run",
            "rewrite",
            "round",
            "analysis",
            "relocate",
            "placement",
            "store-flush",
            "verify",
            "strict",
            "fault-arm",
        ][idx]
    }
}

/// One store-level operation, always wrapped in
/// [`TraceEvent::Store`] with its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "op")]
pub enum StoreOp {
    /// A backend lookup started (every `get` entry path).
    Lookup {
        /// Pipeline stage of the key.
        stage: Stage,
    },
    /// The lookup found a usable payload.
    Hit {
        /// Pipeline stage of the key.
        stage: Stage,
    },
    /// The lookup found nothing.
    Miss {
        /// Pipeline stage of the key.
        stage: Stage,
    },
    /// An earlier [`StoreOp::Hit`] proved unusable (decode or
    /// re-validation failure) and was quarantined. The registry
    /// re-classifies the hit, never double-counting the lookup.
    LookupQuarantine {
        /// Pipeline stage of the key.
        stage: Stage,
    },
    /// Records rejected at load time (checksum, framing, torn tail).
    RecordsQuarantined {
        /// How many records were rejected.
        n: u64,
    },
    /// A whole segment was rejected (bad header, version or epoch).
    SegmentQuarantined,
    /// A segment loaded cleanly.
    Loaded {
        /// Usable records in the segment.
        records: u64,
    },
    /// Pending records were flushed.
    Flushed {
        /// Records persisted by this flush.
        records: u64,
    },
    /// A transient failure was retried by the backoff policy.
    Retry,
    /// An I/O error was absorbed.
    IoError,
    /// The directory lock was busy; a flush was deferred.
    LockTimeout,
    /// A remote server answered a lookup with a hit over the wire.
    RemoteHit,
    /// A remote server answered with a definite miss.
    RemoteMiss,
    /// The remote circuit breaker tripped.
    BreakerTrip,
    /// A lookup was answered after a breaker trip (always a miss).
    Degraded,
}

/// One record of the unified trace stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "ev")]
pub enum TraceEvent {
    /// A structural span opened.
    SpanOpen {
        /// Which span.
        #[serde(flatten)]
        span: SpanKind,
    },
    /// A structural span closed.
    SpanClose {
        /// Which span.
        #[serde(flatten)]
        span: SpanKind,
        /// Wall-clock duration (zeroed in the canonical form).
        ns: u64,
    },
    /// Leaf span: per-function pipeline work (analysis, fragment
    /// build or fix-up), emitted once per work item.
    FuncSpan {
        /// Function entry address.
        entry: u64,
        /// Wall-clock duration (zeroed in the canonical form).
        ns: u64,
    },
    /// Leaf span: one remote RPC exchange (including its retries).
    RpcSpan {
        /// Protocol operation name.
        op: String,
        /// Wall-clock duration (zeroed in the canonical form).
        ns: u64,
    },
    /// One in-memory rewrite-cache lookup.
    CacheLookup {
        /// Pipeline stage.
        stage: Stage,
        /// Content-addressed key.
        key: u64,
        /// Served from the cache?
        hit: bool,
        /// Hit whose record originated from a different binary.
        shared: bool,
    },
    /// Whole-binary analysis memo consulted.
    AnalysisMemo {
        /// Served from the memo?
        hit: bool,
        /// Replay rounds run (0 on a memo hit).
        rounds: u32,
    },
    /// The degradation ladder demoted one function.
    Demotion {
        /// Victim function entry address.
        entry: u64,
        /// 1-based ladder round.
        round: u32,
        /// Mode before the demotion.
        from: String,
        /// Mode after the demotion.
        to: String,
    },
    /// A persistent-store operation.
    Store {
        /// Which backend emitted it.
        src: StoreSrc,
        /// The operation.
        #[serde(flatten)]
        op: StoreOp,
    },
}

impl TraceEvent {
    fn is_marker(&self) -> bool {
        matches!(self, TraceEvent::SpanOpen { .. } | TraceEvent::SpanClose { .. })
    }

    /// The event with wall-clock fields zeroed: the form the
    /// determinism rule is stated over (and the in-segment sort key).
    #[must_use]
    pub fn canonical(&self) -> TraceEvent {
        let mut ev = self.clone();
        match &mut ev {
            TraceEvent::SpanClose { ns, .. }
            | TraceEvent::FuncSpan { ns, .. }
            | TraceEvent::RpcSpan { ns, .. } => *ns = 0,
            _ => {}
        }
        ev
    }

    /// Serialize to one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace events always serialize")
    }

    /// Parse one JSONL line.
    ///
    /// # Errors
    ///
    /// A description of the schema violation.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        serde_json::from_str(line).map_err(|e| format!("bad trace record: {e}"))
    }
}

// ----- registry ----------------------------------------------------------

/// Per-source store counters. `hits` is the *raw* hit count; the
/// [`StoreStats`] projection re-classifies lookup-time quarantines
/// out of it, so folding never has to decrement (making the fold
/// order-independent and replayable from a sealed stream).
#[derive(Debug, Default, Clone, Copy)]
struct StoreCtr {
    lookups: u64,
    hits_raw: u64,
    misses: u64,
    lookup_quarantines: u64,
    records_quarantined_load: u64,
    segments_quarantined: u64,
    records_loaded: u64,
    segments_loaded: u64,
    flushed_records: u64,
    flushes: u64,
    io_errors: u64,
    lock_timeouts: u64,
    retries: u64,
    remote_hits: u64,
    remote_misses: u64,
    breaker_trips: u64,
    degraded: u64,
}

impl StoreCtr {
    fn stats(&self) -> StoreStats {
        StoreStats {
            lookups: self.lookups,
            hits: self.hits_raw.saturating_sub(self.lookup_quarantines),
            misses: self.misses,
            lookup_quarantines: self.lookup_quarantines,
            records_loaded: self.records_loaded,
            segments_loaded: self.segments_loaded,
            quarantined_records: self.records_quarantined_load + self.lookup_quarantines,
            quarantined_segments: self.segments_quarantined,
            flushed_records: self.flushed_records,
            flushes: self.flushes,
            io_errors: self.io_errors,
            lock_timeouts: self.lock_timeouts,
            retries: self.retries,
            remote_hits: self.remote_hits,
            remote_misses: self.remote_misses,
            breaker_trips: self.breaker_trips,
            degraded: self.degraded,
        }
    }
}

/// Everything the registry has folded so far. Plain and `Clone`, so a
/// snapshot is just a copy and a per-rewrite delta is a subtraction.
#[derive(Debug, Default, Clone)]
struct RegistryInner {
    cache: [StageStats; Stage::ALL.len()],
    memo_hits: u64,
    memo_misses: u64,
    rounds: u64,
    span_ns: [u64; SPAN_N],
    span_opens: [u64; SPAN_N],
    func_spans: u64,
    func_span_ns: u64,
    rpc_spans: u64,
    rpc_ns: u64,
    store: [StoreCtr; 2],
    demotions: u64,
    /// Per-function `(entry, ns)` samples from [`TraceEvent::FuncSpan`];
    /// the `slowest:` line is derived from the per-rewrite suffix.
    func_samples: Vec<(u64, u64)>,
}

impl RegistryInner {
    /// Fold one event into the counters. This is the only place trace
    /// events become numbers — live collection and stream replay
    /// (`trace summarize`) share it.
    fn fold(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::SpanOpen { span } => self.span_opens[span.idx()] += 1,
            TraceEvent::SpanClose { span, ns } => self.span_ns[span.idx()] += ns,
            TraceEvent::FuncSpan { entry, ns } => {
                self.func_spans += 1;
                self.func_span_ns += ns;
                self.func_samples.push((*entry, *ns));
            }
            TraceEvent::RpcSpan { ns, .. } => {
                self.rpc_spans += 1;
                self.rpc_ns += ns;
            }
            TraceEvent::CacheLookup { stage, hit, shared, .. } => {
                let c = &mut self.cache[stage.idx()];
                if *hit {
                    c.hits += 1;
                    if *shared {
                        c.shared += 1;
                    }
                } else {
                    c.misses += 1;
                }
            }
            TraceEvent::AnalysisMemo { hit, rounds } => {
                if *hit {
                    self.memo_hits += 1;
                } else {
                    self.memo_misses += 1;
                }
                self.rounds += u64::from(*rounds);
            }
            TraceEvent::Demotion { .. } => self.demotions += 1,
            TraceEvent::Store { src, op } => {
                let c = &mut self.store[src.idx()];
                match op {
                    StoreOp::Lookup { .. } => c.lookups += 1,
                    StoreOp::Hit { .. } => c.hits_raw += 1,
                    StoreOp::Miss { .. } => c.misses += 1,
                    StoreOp::LookupQuarantine { .. } => c.lookup_quarantines += 1,
                    StoreOp::RecordsQuarantined { n } => c.records_quarantined_load += n,
                    StoreOp::SegmentQuarantined => c.segments_quarantined += 1,
                    StoreOp::Loaded { records } => {
                        c.records_loaded += records;
                        c.segments_loaded += 1;
                    }
                    StoreOp::Flushed { records } => {
                        c.flushes += 1;
                        c.flushed_records += records;
                    }
                    StoreOp::Retry => c.retries += 1,
                    StoreOp::IoError => c.io_errors += 1,
                    StoreOp::LockTimeout => c.lock_timeouts += 1,
                    StoreOp::RemoteHit => c.remote_hits += 1,
                    StoreOp::RemoteMiss => c.remote_misses += 1,
                    StoreOp::BreakerTrip => c.breaker_trips += 1,
                    StoreOp::Degraded => c.degraded += 1,
                }
            }
        }
    }

    fn stage_stats(&self, stage: Stage) -> StageStats {
        self.cache[stage.idx()]
    }
}

/// A point-in-time copy of the registry, for per-rewrite deltas.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    inner: RegistryInner,
    samples_len: usize,
}

/// The metrics registry: folds the event stream into counters and
/// derives every legacy stats surface from them.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("registry poisoned")
    }

    /// Cache hit/miss counters for one pipeline stage (totals since
    /// the trace was created).
    #[must_use]
    pub fn stage_stats(&self, stage: Stage) -> StageStats {
        self.lock().stage_stats(stage)
    }

    /// The [`StoreStats`] projection for one backend source (totals).
    #[must_use]
    pub fn store_stats(&self, src: StoreSrc) -> StoreStats {
        self.lock().store[src.idx()].stats()
    }

    /// **The** conservation check — the single place the counter
    /// invariants live. Returns one message per violated law:
    ///
    /// * `hits + misses + lookup_quarantines == lookups`
    /// * `remote_hits + remote_misses <= lookups`
    /// * `lookup_quarantines <= quarantined_records`
    #[must_use]
    pub fn check(label: &str, s: &StoreStats) -> Vec<String> {
        let mut v = Vec::new();
        if s.hits + s.misses + s.lookup_quarantines != s.lookups {
            v.push(format!(
                "{label}: hits ({}) + misses ({}) + lookup quarantines ({}) != lookups ({})",
                s.hits, s.misses, s.lookup_quarantines, s.lookups
            ));
        }
        if s.remote_hits + s.remote_misses > s.lookups {
            v.push(format!(
                "{label}: remote hits ({}) + remote misses ({}) > lookups ({})",
                s.remote_hits, s.remote_misses, s.lookups
            ));
        }
        if s.lookup_quarantines > s.quarantined_records {
            v.push(format!(
                "{label}: lookup quarantines ({}) > quarantined records ({})",
                s.lookup_quarantines, s.quarantined_records
            ));
        }
        v
    }
}

// ----- the collector -----------------------------------------------------

/// The shared trace collector. Cheap when not recording (a counter
/// fold per event); when recording, events are additionally
/// buffered for deterministic sealing. Share one per logical run:
/// stores adopt it at open, [`RewriteCache`](crate::RewriteCache)
/// adopts its backend's, the CLI writes it as JSONL at exit.
#[derive(Debug, Default)]
pub struct Trace {
    registry: Registry,
    buf: Mutex<Option<Vec<TraceEvent>>>,
}

impl Trace {
    /// A counting-only trace (no stream buffer).
    #[must_use]
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace::default())
    }

    /// A recording trace: counts *and* buffers the stream for output.
    #[must_use]
    pub fn recording() -> Arc<Trace> {
        let t = Trace::new();
        *t.buf.lock().expect("trace poisoned") = Some(Vec::new());
        t
    }

    /// Start buffering the stream on an existing trace (idempotent).
    /// Events emitted before this call were counted but not kept.
    pub fn record(&self) {
        let mut buf = self.buf.lock().expect("trace poisoned");
        if buf.is_none() {
            *buf = Some(Vec::new());
        }
    }

    /// Emit one event: fold it into the registry and (when recording)
    /// append it to the stream buffer.
    pub fn emit(&self, ev: TraceEvent) {
        self.registry.lock().fold(&ev);
        let mut buf = self.buf.lock().expect("trace poisoned");
        if let Some(items) = buf.as_mut() {
            items.push(ev);
        }
    }

    /// Open a structural span (orchestrating thread only — worker-side
    /// work uses leaf events). Closes on drop, or explicitly via
    /// [`SpanGuard::close`].
    #[must_use]
    pub fn span(&self, kind: SpanKind) -> SpanGuard<'_> {
        self.emit(TraceEvent::SpanOpen { span: kind });
        SpanGuard { trace: self, kind, started: Instant::now(), closed: false }
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot the registry (for a later per-rewrite delta).
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.registry.lock().clone();
        let samples_len = inner.func_samples.len();
        RegistrySnapshot { inner, samples_len }
    }

    /// Derive one rewrite's [`RewriteStats`] from the registry delta
    /// since `snap`. `store_src` selects which backend's counters feed
    /// the `store` section (`None` → zeroes). The store conservation
    /// laws are asserted here in debug builds — the rewrite boundary
    /// is quiescent, so the check can never race a half-counted
    /// lookup.
    #[must_use]
    pub fn rewrite_stats_since(
        &self,
        snap: &RegistrySnapshot,
        threads: usize,
        store_src: Option<StoreSrc>,
    ) -> RewriteStats {
        let now = self.registry.lock().clone();
        let d = |f: fn(&RegistryInner) -> u64| f(&now) - f(&snap.inner);
        let stage_delta = |stage: Stage| {
            let a = now.stage_stats(stage);
            let b = snap.inner.stage_stats(stage);
            StageStats {
                hits: a.hits - b.hits,
                misses: a.misses - b.misses,
                shared: a.shared - b.shared,
            }
        };
        let span_delta =
            |kind: SpanKind| now.span_ns[kind.idx()] - snap.inner.span_ns[kind.idx()];
        let total_ns = span_delta(SpanKind::Rewrite);
        let analysis_ns = span_delta(SpanKind::Analysis);
        let relocate_ns = span_delta(SpanKind::Relocate);
        let placement_ns = span_delta(SpanKind::Placement);
        let store = match store_src {
            Some(src) => {
                let s = now.store[src.idx()]
                    .stats()
                    .delta_since(&snap.inner.store[src.idx()].stats());
                debug_assert!(
                    Registry::check(src.name(), &s).is_empty(),
                    "store counter conservation violated: {:?}",
                    Registry::check(src.name(), &s)
                );
                s
            }
            None => StoreStats::default(),
        };
        RewriteStats {
            threads,
            analysis_memo_hit: d(|r| r.memo_hits) > 0,
            analysis_rounds: u32::try_from(d(|r| r.rounds)).unwrap_or(u32::MAX),
            func_analyses: stage_delta(Stage::Func),
            fragments: stage_delta(Stage::Fragment),
            // The emission lives in the fragment record.
            emits: stage_delta(Stage::Fragment),
            liveness: stage_delta(Stage::Liveness),
            timings: StageTimings {
                analysis_ns,
                relocate_ns,
                placement_ns,
                assemble_ns: total_ns
                    .saturating_sub(analysis_ns + relocate_ns + placement_ns),
                total_ns,
            },
            slowest: slowest_of(&now.func_samples[snap.samples_len..]),
            store,
        }
    }

    /// Seal the stream: take the buffer and return it in canonical
    /// deterministic order (each marker-delimited segment stably
    /// sorted by the records' canonical form). Recording stops —
    /// late events (e.g. a store's drop-flush) are counted but not
    /// buffered.
    #[must_use]
    pub fn sealed(&self) -> Vec<TraceEvent> {
        let items = self
            .buf
            .lock()
            .expect("trace poisoned")
            .take()
            .unwrap_or_default();
        seal(items)
    }

    /// Seal the stream and write it as newline-delimited JSON, one
    /// record per line (`--trace FILE` / `ICFGP_TRACE`).
    ///
    /// # Errors
    ///
    /// The first write or flush error.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for ev in self.sealed() {
            writeln!(w, "{}", ev.to_json())?;
        }
        w.flush()
    }
}

/// Deterministic address-ordered merge: events between two structural
/// markers are emitted by racing workers in arbitrary arrival order,
/// but their *multiset* is fixed, so a stable sort by canonical form
/// rebuilds the same byte sequence for any thread count.
fn seal(items: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(items.len());
    let mut run: Vec<TraceEvent> = Vec::new();
    for ev in items {
        if ev.is_marker() {
            run.sort_by_cached_key(|e| e.canonical().to_json());
            out.append(&mut run);
            out.push(ev);
        } else {
            run.push(ev);
        }
    }
    run.sort_by_cached_key(|e| e.canonical().to_json());
    out.append(&mut run);
    out
}

/// RAII guard for a structural span.
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    kind: SpanKind,
    started: Instant,
    closed: bool,
}

impl SpanGuard<'_> {
    /// Close the span now (instead of at drop).
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.closed {
            self.closed = true;
            let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.trace.emit(TraceEvent::SpanClose { span: self.kind, ns });
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

// ----- projections over sealed/replayed streams --------------------------

/// Canonical (timing-free) JSONL lines of a sealed stream — the byte
/// sequence the cross-thread determinism rule is stated over.
#[must_use]
pub fn canonical_lines(events: &[TraceEvent]) -> Vec<String> {
    events.iter().map(|e| e.canonical().to_json()).collect()
}

/// The structural projection: span tree plus ladder demotions,
/// with every cache-dependent record (lookups, memo consults, store
/// operations, leaf spans) removed and timings zeroed. Warm and cold
/// runs of the same input over an in-memory cache agree on this
/// projection — they take different cache paths but the same shape.
/// Over a store, a flush span appears only when there was something to
/// write, and a ladder round replayed from the store keeps its round
/// span and demotions but holds no rewrite spans.
#[must_use]
pub fn structural_lines(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::SpanOpen { .. }
                    | TraceEvent::SpanClose { .. }
                    | TraceEvent::Demotion { .. }
            )
        })
        .map(|e| e.canonical().to_json())
        .collect()
}

/// Read and schema-validate a JSONL trace file.
///
/// # Errors
///
/// The offending line number and parse error for the first record
/// that fails the schema, or the file I/O error.
pub fn read_jsonl(path: &std::path::Path) -> Result<Vec<TraceEvent>, String> {
    let data = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            TraceEvent::from_json(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(events)
}

/// A folded trace stream: the registry replayed over recorded events,
/// for `icfgp trace summarize` and `trace diff`.
pub struct TraceSummary {
    inner: RegistryInner,
    /// Total records folded.
    pub events: usize,
}

/// Fold a recorded stream back through the registry.
#[must_use]
pub fn summarize_events(events: &[TraceEvent]) -> TraceSummary {
    let mut inner = RegistryInner::default();
    for ev in events {
        inner.fold(ev);
    }
    TraceSummary { inner, events: events.len() }
}

impl TraceSummary {
    /// Conservation violations across every active store source
    /// (empty means the stream is consistent).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for src in StoreSrc::ALL {
            let s = self.inner.store[src.idx()].stats();
            if s.lookups > 0 || s.total() > 0 {
                v.extend(Registry::check(&format!("{} store", src.name()), &s));
            }
        }
        v
    }

    /// The store-stats projection for one source.
    #[must_use]
    pub fn store_stats(&self, src: StoreSrc) -> StoreStats {
        self.inner.store[src.idx()].stats()
    }

    /// The cache-stage projection.
    #[must_use]
    pub fn stage_stats(&self, stage: Stage) -> StageStats {
        self.inner.stage_stats(stage)
    }

    /// Render the human summary: top spans by total time, the
    /// per-stage cache histogram, counter totals and any conservation
    /// violations.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.inner;
        out.push_str(&format!("trace: {} record(s)\n", self.events));

        // Top spans by accumulated wall time.
        let mut spans: Vec<(usize, u64, u64)> = (0..SPAN_N)
            .filter(|&i| r.span_opens[i] > 0)
            .map(|i| (i, r.span_ns[i], r.span_opens[i]))
            .collect();
        spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str("spans:\n");
        for (i, ns, n) in &spans {
            out.push_str(&format!(
                "  {:<12} {:>4} open(s)  {:>10.3} ms\n",
                SpanKind::name(*i),
                n,
                *ns as f64 / 1e6
            ));
        }
        if r.func_spans > 0 {
            out.push_str(&format!(
                "  {:<12} {:>4} leaf(s)  {:>10.3} ms\n",
                "func",
                r.func_spans,
                r.func_span_ns as f64 / 1e6
            ));
        }
        if r.rpc_spans > 0 {
            out.push_str(&format!(
                "  {:<12} {:>4} leaf(s)  {:>10.3} ms\n",
                "rpc",
                r.rpc_spans,
                r.rpc_ns as f64 / 1e6
            ));
        }

        // Stage histogram.
        out.push_str("cache stages:\n");
        for stage in Stage::ALL {
            let s = r.stage_stats(stage);
            if s.total() > 0 {
                out.push_str(&format!(
                    "  {:<9} {:>6} hit(s) {:>6} miss(es) {:>6} shared\n",
                    stage.name(),
                    s.hits,
                    s.misses,
                    s.shared
                ));
            }
        }
        out.push_str(&format!(
            "analysis memo: {} hit(s), {} miss(es), {} replay round(s)\n",
            r.memo_hits, r.memo_misses, r.rounds
        ));

        // Store counter totals, per source.
        for src in StoreSrc::ALL {
            let s = r.store[src.idx()].stats();
            if s.lookups == 0 && s.total() == 0 && s.flushes == 0 {
                continue;
            }
            out.push_str(&format!(
                "{} store: {} lookup(s), {} hit(s), {} miss(es), {} quarantined, \
                 {} flushed in {} flush(es), {} retries, {} io error(s), \
                 {} lock timeout(s)\n",
                src.name(),
                s.lookups,
                s.hits,
                s.misses,
                s.quarantined_records,
                s.flushed_records,
                s.flushes,
                s.retries,
                s.io_errors,
                s.lock_timeouts
            ));
            if s.remote_hits + s.remote_misses + s.breaker_trips + s.degraded > 0 {
                out.push_str(&format!(
                    "  remote: {} wire hit(s), {} wire miss(es), {} breaker trip(s), \
                     {} degraded lookup(s)\n",
                    s.remote_hits, s.remote_misses, s.breaker_trips, s.degraded
                ));
            }
        }
        if r.demotions > 0 {
            out.push_str(&format!("ladder: {} demotion(s)\n", r.demotions));
        }

        let violations = self.violations();
        if violations.is_empty() {
            out.push_str("conservation: ok\n");
        } else {
            for v in violations {
                out.push_str(&format!("conservation VIOLATED: {v}\n"));
            }
        }
        out
    }
}

/// Render a side-by-side diff of two summaries (`trace diff A B`,
/// typically warm vs cold).
#[must_use]
pub fn render_diff(a: &TraceSummary, b: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12}\n",
        "counter", "A", "B", "B-A"
    ));
    let mut row = |name: &str, va: u64, vb: u64| {
        if va != 0 || vb != 0 {
            out.push_str(&format!(
                "{name:<28} {va:>12} {vb:>12} {:>12}\n",
                i128::from(vb) - i128::from(va)
            ));
        }
    };
    for stage in Stage::ALL {
        let (sa, sb) = (a.inner.stage_stats(stage), b.inner.stage_stats(stage));
        row(&format!("cache.{}.hits", stage.name()), sa.hits, sb.hits);
        row(&format!("cache.{}.misses", stage.name()), sa.misses, sb.misses);
        row(&format!("cache.{}.shared", stage.name()), sa.shared, sb.shared);
    }
    row("analysis.memo_hits", a.inner.memo_hits, b.inner.memo_hits);
    row("analysis.memo_misses", a.inner.memo_misses, b.inner.memo_misses);
    row("analysis.rounds", a.inner.rounds, b.inner.rounds);
    for src in StoreSrc::ALL {
        let (sa, sb) = (
            a.inner.store[src.idx()].stats(),
            b.inner.store[src.idx()].stats(),
        );
        let p = src.name();
        row(&format!("store.{p}.lookups"), sa.lookups, sb.lookups);
        row(&format!("store.{p}.hits"), sa.hits, sb.hits);
        row(&format!("store.{p}.misses"), sa.misses, sb.misses);
        row(
            &format!("store.{p}.quarantined"),
            sa.quarantined_records,
            sb.quarantined_records,
        );
        row(&format!("store.{p}.flushed"), sa.flushed_records, sb.flushed_records);
        row(&format!("store.{p}.retries"), sa.retries, sb.retries);
        row(&format!("store.{p}.remote_hits"), sa.remote_hits, sb.remote_hits);
        row(&format!("store.{p}.remote_misses"), sa.remote_misses, sb.remote_misses);
    }
    row("ladder.demotions", a.inner.demotions, b.inner.demotions);
    for i in 0..SPAN_N {
        row(
            &format!("span.{}.opens", SpanKind::name(i)),
            a.inner.span_opens[i],
            b.inner.span_opens[i],
        );
    }
    out
}

/// Render the `--stats` text block from registry-produced per-round
/// [`RewriteStats`] (the CLI prints this verbatim).
#[must_use]
pub fn render_stats_text(round_stats: &[RewriteStats]) -> String {
    let mut out = String::new();
    for (i, s) in round_stats.iter().enumerate() {
        let line = |name: &str, st: &StageStats| {
            if st.shared > 0 {
                format!(
                    "{name} {}/{} hits ({} shared)",
                    st.hits,
                    st.total(),
                    st.shared
                )
            } else {
                format!("{name} {}/{} hits", st.hits, st.total())
            }
        };
        out.push_str(&format!(
            "round {}: threads {}, memo {}, rounds {}; {}; {}; {}\n",
            i + 1,
            s.threads,
            if s.analysis_memo_hit { "hit" } else { "miss" },
            s.analysis_rounds,
            line("func", &s.func_analyses),
            line("frag", &s.fragments),
            line("live", &s.liveness),
        ));
        let t = &s.timings;
        out.push_str(&format!(
            "  timings: analysis {:.3} ms, relocate {:.3} ms, placement {:.3} ms, \
             assemble {:.3} ms, total {:.3} ms\n",
            t.analysis_ns as f64 / 1e6,
            t.relocate_ns as f64 / 1e6,
            t.placement_ns as f64 / 1e6,
            t.assemble_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
        ));
        let slowest: Vec<String> = s
            .slowest
            .iter()
            .filter(|(_, ns)| *ns > 0)
            .map(|(entry, ns)| format!("{entry:#x} {:.3} ms", *ns as f64 / 1e6))
            .collect();
        if !slowest.is_empty() {
            out.push_str(&format!("  slowest: {}\n", slowest.join(", ")));
        }
        let st = &s.store;
        if st.lookups > 0 || st.flushes > 0 {
            out.push_str(&format!(
                "  persisted: {}/{} store hits, {} flushed, {} quarantined\n",
                st.hits,
                st.lookups,
                st.flushed_records,
                st.quarantined_records
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            TraceEvent::SpanOpen { span: SpanKind::Round { round: 3 } },
            TraceEvent::SpanClose { span: SpanKind::Analysis, ns: 1234 },
            TraceEvent::FuncSpan { entry: 0x401000, ns: 55 },
            TraceEvent::RpcSpan { op: "get".to_string(), ns: 9 },
            TraceEvent::CacheLookup { stage: Stage::Func, key: u64::MAX, hit: true, shared: false },
            TraceEvent::AnalysisMemo { hit: false, rounds: 2 },
            TraceEvent::Demotion {
                entry: 0x1000,
                round: 1,
                from: "func-ptr".to_string(),
                to: "jt".to_string(),
            },
            TraceEvent::Store { src: StoreSrc::Remote, op: StoreOp::Flushed { records: 7 } },
            TraceEvent::Store { src: StoreSrc::Local, op: StoreOp::Lookup { stage: Stage::Audit } },
        ];
        for ev in events {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line).expect("round trip");
            assert_eq!(ev, back, "{line}");
        }
    }

    #[test]
    fn seal_is_arrival_order_independent() {
        let a = TraceEvent::CacheLookup { stage: Stage::Func, key: 1, hit: true, shared: false };
        let b = TraceEvent::CacheLookup { stage: Stage::Func, key: 2, hit: false, shared: false };
        let open = TraceEvent::SpanOpen { span: SpanKind::Analysis };
        let close = TraceEvent::SpanClose { span: SpanKind::Analysis, ns: 5 };
        let s1 = seal(vec![open.clone(), a.clone(), b.clone(), close.clone()]);
        let s2 = seal(vec![open.clone(), b.clone(), a.clone(), close.clone()]);
        assert_eq!(canonical_lines(&s1), canonical_lines(&s2));
        // Markers stay in place.
        assert_eq!(s1[0], open);
        assert_eq!(s1[3], close);
    }

    #[test]
    fn quarantine_reclassifies_the_hit() {
        let trace = Trace::new();
        let src = StoreSrc::Local;
        let stage = Stage::Fragment;
        trace.emit(TraceEvent::Store { src, op: StoreOp::Lookup { stage } });
        trace.emit(TraceEvent::Store { src, op: StoreOp::Hit { stage } });
        trace.emit(TraceEvent::Store { src, op: StoreOp::LookupQuarantine { stage } });
        let s = trace.registry().store_stats(src);
        assert_eq!(s.lookups, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.lookup_quarantines, 1);
        assert_eq!(s.quarantined_records, 1);
        assert!(Registry::check("local store", &s).is_empty());
    }

    #[test]
    fn conservation_check_catches_drift() {
        let s = StoreStats { lookups: 3, hits: 1, misses: 1, ..StoreStats::default() };
        assert_eq!(Registry::check("t", &s).len(), 1);
        let ok = StoreStats { lookups: 2, hits: 1, misses: 1, ..StoreStats::default() };
        assert!(Registry::check("t", &ok).is_empty());
    }

    #[test]
    fn summary_replay_matches_live_registry() {
        let trace = Trace::recording();
        {
            let span = trace.span(SpanKind::Rewrite);
            trace.emit(TraceEvent::CacheLookup {
                stage: Stage::Func,
                key: 9,
                hit: false,
                shared: false,
            });
            trace.emit(TraceEvent::AnalysisMemo { hit: false, rounds: 2 });
            span.close();
        }
        let live = trace.registry().stage_stats(Stage::Func);
        let sealed = trace.sealed();
        let summary = summarize_events(&sealed);
        assert_eq!(summary.stage_stats(Stage::Func), live);
        assert!(summary.violations().is_empty());
        assert!(summary.render().contains("rewrite"));
    }
}
