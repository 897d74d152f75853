//! Bench-side spans: timings taken around calls into each layer's
//! public functions, kept in memory and written as JSONL when the
//! benchmark ends. Nothing here adds spans inside the program.

use icfgp_core::{
    NetFaults, RetryPolicy, Stage, StoreBackend, StoreEvent, StoreFaults, StoreSrc, StoreStats,
    Trace,
};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `parent` links it to the span that caused it;
/// the root span of each traced pass has none.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one [`Recorder`].
    pub id: u32,
    /// The enclosing span.
    pub parent: Option<u32>,
    /// `layer.call`, named after the module it times.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span collector, safe to share with worker threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::default(),
        }
    }
}

impl Recorder {
    /// Reserve the id of a span about to open, so callees can name it
    /// as their parent before it closes.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Close a span with a reserved id that opened at `start_ns`;
    /// returns its duration in milliseconds.
    pub fn push(&self, id: u32, parent: Option<u32>, name: &'static str, start_ns: u64) -> f64 {
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        let ms = span.ms();
        self.spans.lock().expect("span buffer poisoned").push(span);
        ms
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// so it can parent further spans. Returns `f`'s result and the
    /// span's duration in milliseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> T,
    ) -> (T, f64) {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f(id);
        (out, self.push(id, parent, name, start))
    }

    /// How many spans named `name` sit directly under `parent`, and
    /// their summed milliseconds.
    #[must_use]
    pub fn sum(&self, parent: u32, name: &str) -> (u64, f64) {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .fold((0, 0.0), |(n, ms), s| (n + 1, ms + s.ms()))
    }

    /// Every span recorded so far, in close order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON object per line (see the crate
    /// docs for the fields).
    ///
    /// # Errors
    ///
    /// Creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.id,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
            )?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap (worker threads), so
/// the covered part is the union of their intervals, not their sum.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Which store tier a [`TimedStore`] wraps; picks its span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `icfgp_core::store::CacheStore`.
    Store,
    /// `icfgp_core::net::RemoteStore`.
    Net,
}

/// The span names of one tier: its `get`, `put` and `flush` calls, and
/// the rewrite that drives them.
#[derive(Debug, Clone, Copy)]
pub struct TierNames {
    /// One span per `get`.
    pub get: &'static str,
    /// One span per `put`.
    pub put: &'static str,
    /// One span per `flush`.
    pub flush: &'static str,
    /// The rewrite through the tier.
    pub rewrite: &'static str,
}

impl Tier {
    /// This tier's span names.
    #[must_use]
    pub fn names(self) -> TierNames {
        match self {
            Tier::Store => TierNames {
                get: "store.get",
                put: "store.put",
                flush: "store.flush",
                rewrite: "store.rewrite",
            },
            Tier::Net => TierNames {
                get: "net.get",
                put: "net.put",
                flush: "net.flush",
                rewrite: "net.rewrite",
            },
        }
    }
}

/// A [`StoreBackend`] that delegates every call to an inner backend and
/// records one span per `get`, `put` and `flush`, parented to the span
/// set with [`TimedStore::set_parent`]. Call counts are the spans
/// themselves ([`Recorder::sum`]); only what a span cannot hold (hits,
/// bytes) is counted here.
pub struct TimedStore {
    inner: Arc<dyn StoreBackend>,
    tier: Tier,
    rec: Arc<Recorder>,
    parent: AtomicU32,
    get_hits: AtomicU64,
    get_bytes: AtomicU64,
}

impl TimedStore {
    /// Wrap `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: Arc<dyn StoreBackend>, tier: Tier, rec: Arc<Recorder>) -> TimedStore {
        TimedStore {
            inner,
            tier,
            rec,
            parent: AtomicU32::new(0),
            get_hits: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
        }
    }

    /// Parent the spans of later calls to `span`.
    pub fn set_parent(&self, span: u32) {
        self.parent.store(span, Ordering::Relaxed);
    }

    /// `get` calls that returned a payload.
    #[must_use]
    pub fn get_hits(&self) -> u64 {
        self.get_hits.load(Ordering::Relaxed)
    }

    /// Payload bytes `get` returned.
    #[must_use]
    pub fn get_bytes(&self) -> u64 {
        self.get_bytes.load(Ordering::Relaxed)
    }

    /// The wrapped tier.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.rec.reserve();
        let start = self.rec.now_ns();
        let out = f();
        let parent = self.parent.load(Ordering::Relaxed);
        self.rec.push(id, Some(parent), name, start);
        out
    }
}

impl StoreBackend for TimedStore {
    fn get(&self, stage: Stage, key: u64) -> Option<Vec<u8>> {
        let out = self.timed(self.tier.names().get, || self.inner.get(stage, key));
        if let Some(p) = &out {
            self.get_hits.fetch_add(1, Ordering::Relaxed);
            self.get_bytes.fetch_add(p.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        self.timed(self.tier.names().put, || {
            self.inner.put(stage, key, payload)
        });
    }

    fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        self.inner.quarantine_record(stage, key, why);
    }

    fn flush(&self) -> usize {
        self.timed(self.tier.names().flush, || self.inner.flush())
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

    fn arm_net_faults(&self, faults: NetFaults) {
        self.inner.arm_net_faults(faults);
    }

    fn set_retry_policy(&self, policy: RetryPolicy) {
        self.inner.set_retry_policy(policy);
    }

    fn trace(&self) -> Arc<Trace> {
        self.inner.trace()
    }

    fn trace_src(&self) -> StoreSrc {
        self.inner.trace_src()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::{
        CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter,
    };
    use icfgp_isa::Arch;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = crate::target_dir()
            .join("icfgp-perf")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wrapped_cache_store_is_byte_identical_and_counts_every_get() {
        let bin =
            icfgp_workloads::generate(&icfgp_workloads::GenParams::small("perf", Arch::X64, 3))
                .binary;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
        let plain = rw.rewrite(&bin, &instr).expect("plain rewrite");
        let dir = test_dir("timed-store");
        // Cold fill, then a warm reopen: both through the wrapper.
        for round in 0..2 {
            let rec = Arc::new(Recorder::default());
            let timed = Arc::new(TimedStore::new(
                Arc::new(CacheStore::open(&dir)),
                Tier::Store,
                Arc::clone(&rec),
            ));
            let (out, _) = rec.time("store.rewrite", None, |id| {
                timed.set_parent(id);
                let cache = RewriteCache::with_backend(timed.clone());
                let out = rw
                    .rewrite_cached(&bin, &instr, &cache)
                    .expect("stored rewrite");
                cache.flush_store();
                out
            });
            assert_eq!(
                serde_json::to_vec(&out.binary).unwrap(),
                serde_json::to_vec(&plain.binary).unwrap(),
                "round {round}: wrapped store changed output bytes"
            );
            let s = timed.stats();
            let get_calls = rec
                .spans()
                .iter()
                .filter(|sp| sp.name == "store.get")
                .count() as u64;
            let all_gets: u64 = s.hits + s.misses + s.lookup_quarantines;
            assert_eq!(get_calls, all_gets, "round {round}: {s:?}");
            assert_eq!(timed.get_hits(), s.hits, "round {round}");
            if round == 1 {
                assert!(s.hits > 0, "warm reopen must hit: {s:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
            span(0, None, 0, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 100 - 50 - 10]);
    }
}
