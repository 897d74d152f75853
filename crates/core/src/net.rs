//! Remote cache-store backend: a std-only, length-prefixed TCP
//! protocol sharing one [`CacheStore`] between many rewriting clients.
//!
//! # Wire protocol
//!
//! Every message — request or response — is one length-prefixed
//! checksummed frame: a `u32` little-endian byte count followed by
//! exactly one record frame in the store's segment encoding
//! (`tag u8 · key u64 · len u32 · checksum u64 · payload[len]`, see
//! `store.rs`). Reusing its `encode_frame`/`scan_frames` means a torn
//! or bit-flipped response fails validation exactly like a damaged
//! segment would — and gets the same answer: quarantine the exchange
//! (a transport error), never trust the bytes.
//!
//! Requests: `GET` (key = record key, payload = stage tag ‖ key
//! epoch), `PUT` (key = record key, payload = stage tag ‖ key epoch ‖
//! record bytes), `STATS`. Responses: `HIT`/`MISS`, `OK`, `STATS`
//! (JSON [`ServerStats`]), `ERR`.
//!
//! # Write protocol
//!
//! The server process is the only writer of its directory, and it
//! writes through the same [`CacheStore`] protocol as any local store:
//! a `PUT` only queues the record, and the store takes the directory's
//! kernel lock itself when it flushes — once `flush_threshold` records
//! are queued, when a connection closes, and when the server stops
//! cleanly. `GET`s see queued records before they are flushed. Any
//! number of clients write at once: records are content-addressed and
//! re-validated at lookup, so there is nothing to arbitrate. A `GET` or
//! `PUT` whose header is short, names an unknown stage or carries a
//! foreign key epoch is answered `ERR` and writes nothing.
//!
//! # Degradation ladder
//!
//! A dead or lying server must only ever cost cache misses — never
//! wrong bytes, never a hung run:
//!
//! 1. transient faults (timeout, refused connection, short read, torn
//!    frame, checksum mismatch) get deterministically jittered bounded
//!    retries ([`RetryPolicy`]);
//! 2. enough *consecutive* transport failures or unexpected replies
//!    trip the per-connection **circuit breaker**: for the rest of the
//!    run every lookup misses and records not yet sent are dropped.

use crate::retry::RetryPolicy;
use crate::store::{
    checksum64, encode_frame, push_event, scan_frames, CacheStore, FaultRng, Stage, StoreBackend,
    StoreEvent, StoreEventKind, StoreFaults, StoreStats, FORMAT_VERSION, FRAME_LEN, KEY_EPOCH,
};
use crate::trace::{StoreOp, StoreSrc, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ----- message tags ------------------------------------------------------

const OP_GET: u8 = 0x10;
const OP_PUT: u8 = 0x11;
const OP_STATS: u8 = 0x15;

const RE_HIT: u8 = 0x20;
const RE_MISS: u8 = 0x21;
const RE_OK: u8 = 0x22;
const RE_STATS: u8 = 0x26;
const RE_ERR: u8 = 0x27;

/// Upper bound on one wire message (a corrupt length prefix must not
/// cause a huge allocation).
const MAX_MESSAGE: u32 = 260 << 20;

/// Length of the `stage ‖ key epoch` header that opens every `GET` and
/// `PUT` payload.
const RECORD_HEADER: usize = 1 + 8;

/// Request frames carry a tag in `OP_GET..=OP_STATS`. The unused tags
/// inside that range (`0x12..=0x14`, an older protocol's writer-lease
/// ops) still frame cleanly and are answered `ERR`, so an old client
/// degrades through its breaker instead of timing out.
fn request_tag(tag: u8) -> bool {
    (OP_GET..=OP_STATS).contains(&tag)
}

fn response_tag(tag: u8) -> bool {
    (RE_HIT..=RE_ERR).contains(&tag)
}

/// The `stage ‖ KEY_EPOCH` header followed by `record`: the payload of
/// a `GET` (empty `record`) or a `PUT`.
fn record_body(stage: Stage, record: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(RECORD_HEADER + record.len());
    body.push(stage.tag());
    body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
    body.extend_from_slice(record);
    body
}

/// Split a `GET`/`PUT` payload into its stage and the bytes after the
/// header. A short header, an unknown stage or a foreign key epoch is
/// the `ERR` reason.
fn split_record_body(payload: &[u8]) -> Result<(Stage, &[u8]), String> {
    if payload.len() < RECORD_HEADER {
        return Err(format!("{}-byte header (want {RECORD_HEADER})", payload.len()));
    }
    let Some(stage) = Stage::from_tag(payload[0]) else {
        return Err(format!("unknown stage {:#04x}", payload[0]));
    };
    let epoch = u64::from_le_bytes(payload[1..RECORD_HEADER].try_into().expect("8 bytes"));
    if epoch != KEY_EPOCH {
        return Err(format!("key epoch {epoch:#x} (server has {KEY_EPOCH:#x})"));
    }
    Ok((stage, &payload[RECORD_HEADER..]))
}

// ----- framing -----------------------------------------------------------

/// Write one length-prefixed checksummed frame.
fn write_message(w: &mut impl std::io::Write, tag: u8, key: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
    encode_frame(&mut frame, tag, key, payload);
    w.write_all(&u32::try_from(frame.len()).expect("frame fits u32").to_le_bytes())?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame and validate it with the store's
/// segment scanner. Anything short, torn, over-long, checksum-bad or
/// carrying an unknown tag is an `InvalidData` error — the caller
/// treats it exactly like a connection fault.
fn read_message(
    r: &mut impl std::io::Read,
    valid_tag: impl Fn(u8) -> bool,
) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len < FRAME_LEN as u32 || len > MAX_MESSAGE {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("implausible message length {len}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    let mut scan = scan_frames(&buf, valid_tag);
    if scan.frames.len() != 1 || scan.corrupt != 0 || scan.truncated {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "torn or corrupt frame",
        ));
    }
    Ok(scan.frames.pop().expect("one frame"))
}

// ----- store URLs --------------------------------------------------------

/// A parsed `icfgp://host:port` store URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreUrl {
    /// Server host (name or address; `[...]` for IPv6 literals).
    pub host: String,
    /// Server TCP port.
    pub port: u16,
}

impl std::fmt::Display for StoreUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "icfgp://{}:{}", self.host, self.port)
    }
}

/// Parse a store URL of the form `icfgp://host:port`.
///
/// The CLI validates `--store-url` / `ICFGP_STORE_URL` with this up
/// front and exits 64 (usage) on `Err`, matching the `ICFGP_THREADS`
/// contract.
///
/// # Errors
///
/// A usage message when the scheme is not `icfgp://`, the port is
/// missing or unparsable, or the host is empty or malformed.
pub fn parse_store_url(raw: &str) -> Result<StoreUrl, String> {
    let trimmed = raw.trim();
    let Some(rest) = trimmed.strip_prefix("icfgp://") else {
        return Err(format!(
            "store URL must use the icfgp://host:port scheme, got {raw:?}"
        ));
    };
    let rest = rest.strip_suffix('/').unwrap_or(rest);
    // IPv6 literals keep their colons inside brackets.
    let (host, port) = if let Some(v6) = rest.strip_prefix('[') {
        let Some((host, after)) = v6.split_once(']') else {
            return Err(format!("unterminated IPv6 literal in store URL {raw:?}"));
        };
        let Some(port) = after.strip_prefix(':') else {
            return Err(format!("store URL {raw:?} is missing a :port"));
        };
        (format!("[{host}]"), port)
    } else {
        let Some((host, port)) = rest.rsplit_once(':') else {
            return Err(format!("store URL {raw:?} is missing a :port"));
        };
        (host.to_string(), port)
    };
    let bare = host.trim_start_matches('[').trim_end_matches(']');
    if bare.is_empty()
        || !bare
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | ':'))
    {
        return Err(format!("store URL {raw:?} has an unparsable host"));
    }
    let port: u16 = port
        .parse()
        .map_err(|_| format!("store URL {raw:?} has an unparsable port (want 1-65535)"))?;
    if port == 0 {
        return Err(format!("store URL {raw:?} has an unparsable port (want 1-65535)"));
    }
    Ok(StoreUrl { host: bare.to_string(), port })
}

// ----- fault injection ---------------------------------------------------

/// Deterministic network fault injection for the remote-store
/// transport, described by the [`FaultPlan`](crate::FaultPlan) `net_*`
/// knobs and armed by whoever builds the transport (a
/// [`FaultyTransport`] in chaos campaigns and tests). Faults only ever
/// damage the *transport* — the client's retry/breaker ladder must
/// absorb every one of them without changing output bytes or hanging.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetFaults {
    /// PRNG seed for the fault draws.
    pub seed: u64,
    /// Probability an exchange is delayed before sending.
    pub delay: f64,
    /// How long an injected delay sleeps, in milliseconds.
    pub delay_ms: u64,
    /// Probability the connection drops before the request is sent.
    pub drop: f64,
    /// Probability the response arrives torn: the encoded reply is cut
    /// short and decoded, surfacing as the error a real short read
    /// produces.
    pub torn_response: f64,
    /// Probability one bit of the encoded response is flipped (a lying
    /// server or an on-path bit flip) before it is decoded; frame
    /// validation must catch it.
    pub bit_flip_reply: f64,
    /// Probability the server dies mid-`PUT`: the reply never arrives
    /// and (with an in-process server) every later connection is
    /// refused.
    pub kill_mid_put: f64,
}

// ----- transports --------------------------------------------------------

/// One request/response exchange with the store server.
/// Implementations own their connection state; an error invalidates
/// the connection and the next exchange reconnects.
pub trait Transport: Send {
    /// Send one request frame; receive one response frame.
    ///
    /// # Errors
    ///
    /// Any transport fault: connect/read/write failure, timeout, torn
    /// or checksum-invalid response. All are treated as transient by
    /// the client's retry policy.
    fn exchange(&mut self, tag: u8, key: u64, payload: &[u8])
        -> std::io::Result<(u8, u64, Vec<u8>)>;
}

/// The real TCP transport: one lazily-(re)connected stream with
/// connect/read/write timeouts so a dead server costs a bounded wait,
/// never a hang.
pub struct TcpTransport {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl TcpTransport {
    /// A transport to `addr` with the given per-operation timeout.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> TcpTransport {
        TcpTransport { addr, timeout, stream: None }
    }

    fn connected(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            let _ = s.set_nodelay(true);
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }
}

impl Transport for TcpTransport {
    fn exchange(
        &mut self,
        tag: u8,
        key: u64,
        payload: &[u8],
    ) -> std::io::Result<(u8, u64, Vec<u8>)> {
        let run = (|| {
            let s = self.connected()?;
            write_message(s, tag, key, payload)?;
            read_message(s, response_tag)
        })();
        if run.is_err() {
            // The stream may hold a half-written request or a
            // half-read reply; never reuse it.
            self.stream = None;
        }
        run
    }
}

/// A transport to a host that could not even be resolved: every
/// exchange fails immediately. The client's breaker trips after the
/// usual budget.
struct UnresolvedTransport(String);

impl Transport for UnresolvedTransport {
    fn exchange(&mut self, _: u8, _: u64, _: &[u8]) -> std::io::Result<(u8, u64, Vec<u8>)> {
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unresolvable store host {}", self.0),
        ))
    }
}

/// A fault-injecting wrapper around any [`Transport`] (chaos
/// campaigns). Draws are deterministic in [`NetFaults::seed`]. A torn
/// or bit-flipped reply is damaged on its encoded bytes, which then go
/// through the frame decoder like a reply off the wire.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    faults: NetFaults,
    rng: FaultRng,
    /// Exchanges so far: with the seed, it picks where a reply is
    /// damaged, leaving the fault decisions to `rng` alone.
    exchanges: u64,
    injected: Arc<AtomicU64>,
    kill: Option<Arc<AtomicBool>>,
}

impl FaultyTransport {
    /// Wrap `inner` with `faults`; `kill` is the in-process server's
    /// stop flag, set when a `kill_mid_put` fault fires (pass `None`
    /// for a real out-of-process server — the reply is still dropped).
    #[must_use]
    pub fn new(
        inner: Box<dyn Transport>,
        faults: NetFaults,
        kill: Option<Arc<AtomicBool>>,
    ) -> FaultyTransport {
        FaultyTransport {
            inner,
            rng: FaultRng(faults.seed ^ 0x0051_570F_4E45_5400_u64),
            exchanges: 0,
            faults,
            injected: Arc::new(AtomicU64::new(0)),
            kill,
        }
    }

    /// Shared counter of faults injected so far (campaign reporting).
    #[must_use]
    pub fn injected_counter(&self) -> Arc<AtomicU64> {
        self.injected.clone()
    }

    fn inject(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
}

impl Transport for FaultyTransport {
    fn exchange(
        &mut self,
        tag: u8,
        key: u64,
        payload: &[u8],
    ) -> std::io::Result<(u8, u64, Vec<u8>)> {
        let f = self.faults;
        self.exchanges += 1;
        if self.rng.chance(f.delay) && f.delay_ms > 0 {
            self.inject();
            std::thread::sleep(Duration::from_millis(f.delay_ms));
        }
        if self.rng.chance(f.drop) {
            self.inject();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection drop",
            ));
        }
        if tag == OP_PUT && self.rng.chance(f.kill_mid_put) {
            self.inject();
            if let Some(k) = &self.kill {
                k.store(true, Ordering::SeqCst);
            }
            // The request may or may not have been applied; the reply
            // is gone either way.
            let _ = self.inner.exchange(tag, key, payload);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected server kill mid-PUT",
            ));
        }
        let reply = self.inner.exchange(tag, key, payload)?;
        let torn = self.rng.chance(f.torn_response);
        if !torn && !self.rng.chance(f.bit_flip_reply) {
            return Ok(reply);
        }
        self.inject();
        let mut wire = Vec::new();
        write_message(&mut wire, reply.0, reply.1, &reply.2)?;
        let at = checksum64(&[&f.seed.to_le_bytes(), &self.exchanges.to_le_bytes()]) as usize;
        if torn {
            wire.truncate(at % wire.len());
        } else {
            let bit = at % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        read_message(&mut wire.as_slice(), response_tag)
    }
}

// ----- server ------------------------------------------------------------

/// Server tuning knobs for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Flush the backing store once this many PUTs are pending.
    pub flush_threshold: usize,
    /// Per-connection read timeout (idle connections poll the stop
    /// flag at this cadence).
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { flush_threshold: 64, read_timeout: Duration::from_millis(250) }
    }
}

/// Server-side counters and store shape, JSON-encoded for `STATS`
/// responses and `icfgp cache stats --store-url`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (all kinds).
    pub requests: u64,
    /// `GET`s answered with a record.
    pub get_hits: u64,
    /// `GET`s answered with a miss.
    pub get_misses: u64,
    /// `PUT`s queued into the store.
    pub puts_accepted: u64,
    /// `PUT`s answered `ERR` (short header, unknown stage or foreign
    /// key epoch). A rejected `PUT` writes nothing.
    pub puts_rejected: u64,
    /// Always 0: no write is ever refused as busy. Kept because the
    /// `icfgp-perf` benchmark reads it.
    pub leases_busy: u64,
    /// Messages dropped for framing or checksum damage.
    pub bad_frames: u64,
    /// Segment files in the store directory.
    pub segments: u64,
    /// Records the store can serve, loaded or queued.
    pub records: u64,
    /// Quarantined segment files kept for inspection.
    pub quarantined_files: u64,
    /// Bytes held by quarantined files.
    pub quarantined_bytes: u64,
    /// The server's key-derivation epoch.
    pub key_epoch: u64,
    /// The server's on-disk format version.
    pub format_version: u32,
    /// The backing store's own counters.
    pub store: StoreStats,
}

#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    get_hits: AtomicU64,
    get_misses: AtomicU64,
    puts_accepted: AtomicU64,
    puts_rejected: AtomicU64,
    bad_frames: AtomicU64,
}

struct ServerShared {
    store: CacheStore,
    dir: PathBuf,
    c: ServerCounters,
    opts: ServeOptions,
    stop: Arc<AtomicBool>,
}

impl ServerShared {
    fn stats(&self) -> ServerStats {
        let (qfiles, qbytes) = crate::store::quarantine_usage(&self.dir);
        let segments = std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        let n = e.file_name().to_string_lossy().into_owned();
                        n.starts_with("seg-") && n.ends_with(".seg")
                    })
                    .count() as u64
            })
            .unwrap_or(0);
        // Records the server can serve, flushed or still queued.
        let records = self.store.entry_counts().iter().map(|(_, n)| *n as u64).sum::<u64>();
        ServerStats {
            connections: self.c.connections.load(Ordering::Relaxed),
            requests: self.c.requests.load(Ordering::Relaxed),
            get_hits: self.c.get_hits.load(Ordering::Relaxed),
            get_misses: self.c.get_misses.load(Ordering::Relaxed),
            puts_accepted: self.c.puts_accepted.load(Ordering::Relaxed),
            puts_rejected: self.c.puts_rejected.load(Ordering::Relaxed),
            leases_busy: 0,
            bad_frames: self.c.bad_frames.load(Ordering::Relaxed),
            segments,
            records,
            quarantined_files: qfiles,
            quarantined_bytes: qbytes,
            key_epoch: KEY_EPOCH,
            format_version: FORMAT_VERSION,
            store: self.store.stats(),
        }
    }

    /// Dispatch one request to its reply.
    fn handle(&self, tag: u8, key: u64, payload: &[u8]) -> (u8, u64, Vec<u8>) {
        self.c.requests.fetch_add(1, Ordering::Relaxed);
        match tag {
            OP_GET => match split_record_body(payload) {
                Ok((stage, [])) => match self.store.get(stage, key) {
                    Some(p) => {
                        self.c.get_hits.fetch_add(1, Ordering::Relaxed);
                        (RE_HIT, key, p)
                    }
                    None => {
                        self.c.get_misses.fetch_add(1, Ordering::Relaxed);
                        (RE_MISS, key, Vec::new())
                    }
                },
                Ok(_) => (RE_ERR, 0, b"GET carries a record".to_vec()),
                Err(why) => (RE_ERR, 0, why.into_bytes()),
            },
            OP_PUT => match split_record_body(payload) {
                Ok((stage, record)) => {
                    self.store.put(stage, key, record.to_vec());
                    self.c.puts_accepted.fetch_add(1, Ordering::Relaxed);
                    if self.store.pending_len() >= self.opts.flush_threshold {
                        self.store.flush();
                    }
                    (RE_OK, key, Vec::new())
                }
                Err(why) => {
                    self.c.puts_rejected.fetch_add(1, Ordering::Relaxed);
                    (RE_ERR, 0, why.into_bytes())
                }
            },
            OP_STATS => (RE_STATS, 0, serde_json::to_vec(&self.stats()).unwrap_or_default()),
            _ => (RE_ERR, 0, format!("unknown request {tag:#04x}").into_bytes()),
        }
    }
}

/// Handle to a running store server. Dropping it stops the server and
/// joins its threads.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with a `:0` ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `icfgp://` URL clients should use.
    #[must_use]
    pub fn url(&self) -> String {
        format!("icfgp://{}", self.addr)
    }

    /// The stop flag; setting it "kills" the server (stops accepting,
    /// closes connections). [`FaultyTransport`] takes this for
    /// `kill_mid_put`.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.shared.stop.clone()
    }

    /// Stop the server without waiting for in-flight connections.
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Current server-side stats (in-process view).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Block until the server is stopped (`kill`, or the stop flag set
    /// by a signal handler or fault).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.kill();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve the store directory `dir` over TCP at `addr` (e.g.
/// `127.0.0.1:0`). Returns a handle once the listener is bound; the
/// accept loop and per-connection handlers run on background threads.
///
/// # Errors
///
/// Binding the listener.
pub fn serve(addr: &str, dir: &Path, opts: ServeOptions) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        store: CacheStore::open(dir),
        dir: dir.to_path_buf(),
        c: ServerCounters::default(),
        opts,
        stop: Arc::new(AtomicBool::new(false)),
    });
    let accept_shared = shared.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !accept_shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    accept_shared.c.connections.fetch_add(1, Ordering::Relaxed);
                    let conn_shared = accept_shared.clone();
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(&conn_shared, stream);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        // A clean stop persists what clients sent; a "kill" (flag set
        // by a fault or signal) leaves pending records unflushed, like
        // a real SIGKILL would.
    });
    Ok(ServeHandle { addr: bound, shared, accept_thread: Some(accept_thread) })
}

fn serve_connection(shared: &ServerShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Killed: drop the connection mid-stream; clients see EOF
            // or a torn frame, both transient.
            return;
        }
        match read_message(&mut stream, request_tag) {
            Ok((tag, key, payload)) => {
                let (rtag, rkey, rbody) = shared.handle(tag, key, &payload);
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if write_message(&mut stream, rtag, rkey, &rbody).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: poll the stop flag again.
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Torn or corrupt request: unrecoverable framing,
                // close so the client reconnects cleanly.
                shared.c.bad_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break, // EOF or connection fault
        }
    }
    // Connection closed cleanly (or client died): make what this
    // client sent durable and visible to fresh loads.
    if !shared.stop.load(Ordering::SeqCst) {
        shared.store.flush();
    }
}

// ----- remote client -----------------------------------------------------

/// Client construction knobs for [`RemoteStore`].
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Per-exchange connect/read/write timeout.
    pub timeout: Duration,
    /// Consecutive transport failures before the circuit breaker
    /// trips and every later lookup misses.
    pub breaker_threshold: u32,
    /// Retry policy for transient transport faults.
    pub retry: RetryPolicy,
    /// Emit onto an existing trace spine instead of a private one
    /// (chaos campaigns share one collector across clients).
    pub trace: Option<Arc<Trace>>,
}

impl Default for RemoteOptions {
    fn default() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(1000),
            breaker_threshold: 4,
            retry: RetryPolicy::default(),
            trace: None,
        }
    }
}

fn op_name(tag: u8) -> &'static str {
    match tag {
        OP_GET => "get",
        OP_PUT => "put",
        OP_STATS => "stats",
        _ => "other",
    }
}

/// The remote store backend: a [`StoreBackend`] whose records live on
/// an `icfgp cache serve` server, with bounded retries and a circuit
/// breaker (see the module docs for the ladder).
pub struct RemoteStore {
    url: String,
    transport: Mutex<Box<dyn Transport>>,
    retry: Mutex<RetryPolicy>,
    breaker_threshold: u32,
    consecutive: AtomicU32,
    degraded: AtomicBool,
    pending: Mutex<Vec<(Stage, u64, Vec<u8>)>>,
    known: Mutex<HashSet<(Stage, u64)>>,
    /// Keys quarantined this run: never re-served from the server, so
    /// a poisoned record cannot hit-quarantine-hit forever.
    poisoned: Mutex<HashSet<(Stage, u64)>>,
    /// The unified trace spine; all counting is its registry's
    /// `StoreSrc::Remote` projection.
    trace: Arc<Trace>,
    events: Mutex<Vec<StoreEvent>>,
}

impl RemoteStore {
    /// Connect lazily to `url`. Never fails: an unresolvable host
    /// yields a client whose breaker trips on first use.
    #[must_use]
    pub fn connect(url: &StoreUrl, opts: RemoteOptions) -> RemoteStore {
        let transport: Box<dyn Transport> =
            match format!("{}:{}", url.host.trim_matches(['[', ']']), url.port)
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
            {
                Some(addr) => Box::new(TcpTransport::new(addr, opts.timeout)),
                None => Box::new(UnresolvedTransport(url.to_string())),
            };
        RemoteStore::with_transport(transport, url.to_string(), opts)
    }

    /// A client over an explicit transport (chaos campaigns wrap a
    /// [`TcpTransport`] in a [`FaultyTransport`] here: the code that
    /// builds the transport is the code that arms its faults).
    #[must_use]
    pub fn with_transport(
        transport: Box<dyn Transport>,
        url: String,
        opts: RemoteOptions,
    ) -> RemoteStore {
        let trace = opts.trace.unwrap_or_default();
        let store = RemoteStore {
            url,
            transport: Mutex::new(transport),
            retry: Mutex::new(opts.retry),
            breaker_threshold: opts.breaker_threshold.max(1),
            consecutive: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            pending: Mutex::new(Vec::new()),
            known: Mutex::new(HashSet::new()),
            poisoned: Mutex::new(HashSet::new()),
            trace,
            events: Mutex::new(Vec::new()),
        };
        store.event(StoreEventKind::Opened, store.url.clone());
        store
    }

    /// Whether the circuit breaker has tripped (every lookup misses).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn event(&self, kind: StoreEventKind, detail: String) {
        push_event(&mut self.events.lock().expect("events poisoned"), kind, detail);
    }

    fn emit(&self, op: StoreOp) {
        self.trace.emit(TraceEvent::Store { src: StoreSrc::Remote, op });
    }

    /// One request with bounded, jittered retries, answered by one of
    /// the `expect`ed reply tags. Any `Err` — a transport fault, or a
    /// reply outside `expect` (an `ERR`, epoch skew included) — has
    /// already been counted against the circuit breaker.
    fn request(
        &self,
        tag: u8,
        key: u64,
        payload: &[u8],
        expect: &[u8],
    ) -> std::io::Result<(u8, Vec<u8>)> {
        let policy = *self.retry.lock().expect("retry poisoned");
        let mut transport = self.transport.lock().expect("transport poisoned");
        let started = Instant::now();
        let (result, retries) = policy.run(|_| transport.exchange(tag, key, payload));
        drop(transport);
        self.trace.emit(TraceEvent::RpcSpan {
            op: op_name(tag).to_string(),
            ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        for _ in 0..retries {
            self.emit(StoreOp::Retry);
        }
        match result {
            Ok((rtag, _, body)) if expect.contains(&rtag) => {
                self.consecutive.store(0, Ordering::SeqCst);
                Ok((rtag, body))
            }
            Ok((rtag, _, why)) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "unexpected {} reply {rtag:#04x}: {}",
                        op_name(tag),
                        String::from_utf8_lossy(&why)
                    ),
                );
                self.note_failure(&e);
                Err(e)
            }
            Err(e) => {
                self.note_failure(&e);
                Err(e)
            }
        }
    }

    fn note_failure(&self, e: &std::io::Error) {
        self.emit(StoreOp::IoError);
        self.event(StoreEventKind::IoError, format!("{}: {e}", self.url));
        let failures = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.breaker_threshold && !self.degraded.swap(true, Ordering::SeqCst) {
            self.emit(StoreOp::BreakerTrip);
            self.event(
                StoreEventKind::IoError,
                format!(
                    "circuit breaker tripped after {failures} consecutive transport \
                     failure(s); every later lookup misses"
                ),
            );
        }
    }

    /// Fetch the server's stats (the `icfgp cache stats --store-url`
    /// path).
    ///
    /// # Errors
    ///
    /// Transport faults, or an unparsable reply.
    pub fn server_stats(&self) -> Result<ServerStats, String> {
        let (_, body) =
            self.request(OP_STATS, 0, &[], &[RE_STATS]).map_err(|e| format!("{}: {e}", self.url))?;
        serde_json::from_slice(&body).map_err(|e| format!("unparsable server stats: {e}"))
    }
}

impl StoreBackend for RemoteStore {
    fn get(&self, stage: Stage, key: u64) -> Option<Vec<u8>> {
        self.emit(StoreOp::Lookup { stage });
        if self.poisoned.lock().expect("poisoned poisoned").contains(&(stage, key)) {
            self.emit(StoreOp::Miss { stage });
            return None;
        }
        if self.is_degraded() {
            self.emit(StoreOp::Degraded);
            self.emit(StoreOp::Miss { stage });
            return None;
        }
        match self.request(OP_GET, key, &record_body(stage, &[]), &[RE_HIT, RE_MISS]) {
            Ok((RE_HIT, payload)) => {
                self.emit(StoreOp::RemoteHit);
                self.emit(StoreOp::Hit { stage });
                Some(payload)
            }
            outcome => {
                // A definite remote miss, or a transport fault or lying
                // or incompatible server already charged to the breaker.
                if outcome.is_ok() {
                    self.emit(StoreOp::RemoteMiss);
                }
                self.emit(StoreOp::Miss { stage });
                None
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        if !self.known.lock().expect("known poisoned").insert((stage, key)) {
            return;
        }
        self.pending.lock().expect("pending poisoned").push((stage, key, payload));
    }

    fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        self.poisoned.lock().expect("poisoned poisoned").insert((stage, key));
        self.emit(StoreOp::LookupQuarantine { stage });
        self.event(
            StoreEventKind::DecodeFailure,
            format!("{}:{key:#018x}: {why}", stage.name()),
        );
    }

    /// Sends the pending records to the server. Unsent or
    /// unacknowledged records stay pending, or are dropped once the
    /// breaker has tripped.
    fn flush(&self) -> usize {
        let mut records = std::mem::take(&mut *self.pending.lock().expect("pending poisoned"));
        if records.is_empty() || self.is_degraded() {
            return 0;
        }
        let mut sent = 0usize;
        for (stage, key, payload) in &records {
            if self.request(OP_PUT, *key, &record_body(*stage, payload), &[RE_OK]).is_err() {
                break;
            }
            sent += 1;
        }
        if !self.is_degraded() {
            self.pending.lock().expect("pending poisoned").extend(records.split_off(sent));
        }
        if sent > 0 {
            self.emit(StoreOp::Flushed { records: sent as u64 });
        }
        sent
    }

    fn stats(&self) -> StoreStats {
        self.trace.registry().store_stats(StoreSrc::Remote)
    }

    fn events(&self) -> Vec<StoreEvent> {
        self.events.lock().expect("events poisoned").clone()
    }

    fn pending_len(&self) -> usize {
        self.pending.lock().expect("pending poisoned").len()
    }

    /// A client keeps no records of its own.
    fn entry_counts(&self) -> Vec<(Stage, usize)> {
        Stage::ALL.iter().map(|s| (*s, 0)).collect()
    }

    fn describe(&self) -> String {
        if self.is_degraded() {
            format!("{} (degraded)", self.url)
        } else {
            self.url.clone()
        }
    }

    /// A client writes no segments, so there is no I/O to damage.
    fn arm_faults(&self, _: StoreFaults) {}

    fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock().expect("retry poisoned") = policy;
    }

    fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    fn trace_src(&self) -> StoreSrc {
        StoreSrc::Remote
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        // Best-effort: persist what we computed.
        StoreBackend::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icfgp-net-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn client(handle: &ServeHandle) -> RemoteStore {
        let url = parse_store_url(&handle.url()).unwrap();
        RemoteStore::connect(
            &url,
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(500),
                breaker_threshold: 3,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::seeded(7) },
            },
        )
    }

    #[test]
    fn url_parsing_accepts_good_and_rejects_garbage() {
        let u = parse_store_url("icfgp://cache.example:9009").unwrap();
        assert_eq!((u.host.as_str(), u.port), ("cache.example", 9009));
        assert_eq!(u.to_string(), "icfgp://cache.example:9009");
        let v6 = parse_store_url("icfgp://[::1]:80").unwrap();
        assert_eq!((v6.host.as_str(), v6.port), ("::1", 80));
        for bad in [
            "http://host:1",
            "icfgp://host",
            "icfgp://:9009",
            "icfgp://ho st:9009",
            "icfgp://host:port",
            "icfgp://host:0",
            "icfgp://host:99999",
            "",
        ] {
            assert!(parse_store_url(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn roundtrip_and_warm_second_client() {
        let dir = tmp_dir("roundtrip");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        {
            let a = client(&server);
            assert_eq!(a.get(Stage::Func, 1), None, "cold lookup misses");
            a.put(Stage::Func, 1, b"alpha".to_vec());
            a.put(Stage::Fragment, 2, b"beta".to_vec());
            assert_eq!(StoreBackend::flush(&a), 2);
            assert_eq!(a.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
            let s = a.stats();
            assert_eq!(s.hits + s.misses, 2, "lookup conservation");
            assert_eq!(s.remote_hits, 1);
            assert_eq!(s.breaker_trips, 0);
        }
        let b = client(&server);
        assert_eq!(b.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(b.get(Stage::Fragment, 2).as_deref(), Some(&b"beta"[..]));
        let stats = server.stats();
        assert!(stats.puts_accepted == 2 && stats.puts_rejected == 0, "{stats:?}");
    }

    #[test]
    fn dead_server_degrades_without_hanging() {
        // Port 1 on localhost: connection refused immediately.
        let url = parse_store_url("icfgp://127.0.0.1:1").unwrap();
        let store = RemoteStore::connect(
            &url,
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(100),
                breaker_threshold: 2,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::none() },
            },
        );
        let start = Instant::now();
        for key in 0..8 {
            assert_eq!(store.get(Stage::Func, key), None);
        }
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(StoreBackend::flush(&store), 0, "nowhere to persist");
        assert!(store.is_degraded(), "breaker must trip");
        let s = store.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 8, "dead server only costs misses");
        assert!(s.degraded > 0, "post-trip lookups count as degraded");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded, no hang");
    }

    #[test]
    fn foreign_epoch_put_is_rejected_and_writes_nothing() {
        let dir = tmp_dir("epoch");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        // Drive the PUT raw: a well-behaved client always sends the
        // build's own epoch.
        let mut raw = TcpTransport::new(server.addr(), Duration::from_millis(500));
        let mut body = vec![Stage::Func.tag()];
        body.extend_from_slice(&(KEY_EPOCH ^ 1).to_le_bytes());
        body.extend_from_slice(b"stale");
        let (tag, ..) = raw.exchange(OP_PUT, 3, &body).unwrap();
        assert_eq!(tag, RE_ERR, "a foreign epoch must be rejected");
        let stats = server.stats();
        assert_eq!((stats.puts_rejected, stats.puts_accepted), (1, 0), "{stats:?}");
        assert_eq!(stats.records, 0, "a rejected PUT must write nothing");
        assert_eq!(stats.store.quarantined_records, 0, "rejections quarantine nothing");
        let (tag, ..) = raw.exchange(OP_GET, 3, &record_body(Stage::Func, &[])).unwrap();
        assert_eq!(tag, RE_MISS, "a rejected PUT must write nothing");
    }

    #[test]
    fn two_live_clients_both_persist() {
        let dir = tmp_dir("two-clients");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let a = client(&server);
        let b = client(&server);
        a.put(Stage::Func, 1, b"one".to_vec());
        b.put(Stage::Func, 2, b"two".to_vec());
        assert_eq!(StoreBackend::flush(&a), 1);
        assert_eq!(StoreBackend::flush(&b), 1, "a live first client must not defer the second");
        assert_eq!((a.pending_len(), b.pending_len()), (0, 0));
        assert_eq!(a.stats().lock_timeouts + b.stats().lock_timeouts, 0);
        assert_eq!(b.get(Stage::Func, 1).as_deref(), Some(&b"one"[..]));
        assert_eq!(a.get(Stage::Func, 2).as_deref(), Some(&b"two"[..]));
        let stats = server.stats();
        assert_eq!((stats.puts_accepted, stats.puts_rejected), (2, 0), "{stats:?}");
    }

    #[test]
    fn queued_put_is_served_before_the_server_flushes() {
        let dir = tmp_dir("queued");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let a = client(&server);
        let b = client(&server);
        a.put(Stage::Func, 1, b"one".to_vec());
        a.put(Stage::Fragment, 2, b"two".to_vec());
        assert_eq!(StoreBackend::flush(&a), 2);
        // Both connections stay open and the flush threshold is not
        // reached, so the server has only queued the records.
        assert_eq!(b.get(Stage::Func, 1).as_deref(), Some(&b"one"[..]));
        assert_eq!(b.get(Stage::Fragment, 2).as_deref(), Some(&b"two"[..]));
        assert_eq!(b.get(Stage::Func, 3), None);
        let stats = server.stats();
        assert_eq!((stats.segments, stats.store.flushes), (0, 0), "{stats:?}");
        assert_eq!(stats.records, 2, "queued records count as servable");
        assert_eq!((stats.get_hits, stats.get_misses), (2, 1));
        assert_eq!((stats.store.hits, stats.store.misses), (2, 1));
    }

    /// A server that answers everything `ERR`, like one built with a
    /// different key epoch.
    struct ErrServer;

    impl Transport for ErrServer {
        fn exchange(&mut self, _: u8, _: u64, _: &[u8]) -> std::io::Result<(u8, u64, Vec<u8>)> {
            Ok((RE_ERR, 0, b"key epoch mismatch".to_vec()))
        }
    }

    #[test]
    fn err_replies_trip_the_breaker_as_io_errors() {
        let store = RemoteStore::with_transport(
            Box::new(ErrServer),
            "icfgp://err:1".to_string(),
            RemoteOptions { breaker_threshold: 3, ..RemoteOptions::default() },
        );
        store.put(Stage::Func, 1, b"x".to_vec());
        assert_eq!(StoreBackend::flush(&store), 0, "an ERR reply is not an acknowledgement");
        assert_eq!(store.pending_len(), 1, "unacknowledged records stay pending");
        for key in 0..2 {
            assert_eq!(store.get(Stage::Func, key), None);
        }
        assert!(store.is_degraded(), "three ERR replies in a row trip the breaker");
        let s = store.stats();
        assert_eq!((s.breaker_trips, s.io_errors, s.lock_timeouts), (1, 3, 0), "{s:?}");
        let events = store.events();
        assert!(
            events.iter().any(|e| e.kind == StoreEventKind::IoError
                && e.detail.starts_with("circuit breaker tripped")),
            "{events:?}"
        );
        assert!(events.iter().all(|e| e.kind != StoreEventKind::LockTimeout), "{events:?}");
    }

    /// Every single-bit flip and every strict prefix of an encoded
    /// reply fails `read_message`: the damage `FaultyTransport` does
    /// to replies can never decode as a reply.
    #[test]
    fn damaged_reply_bytes_never_decode() {
        let reply = wire(RE_HIT, 7, b"payload");
        assert_eq!(
            read_message(&mut reply.as_slice(), response_tag).unwrap(),
            (RE_HIT, 7, b"payload".to_vec())
        );
        for bit in 0..reply.len() * 8 {
            let mut flipped = reply.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(read_message(&mut flipped.as_slice(), response_tag).is_err(), "bit {bit}");
        }
        for len in 0..reply.len() {
            assert!(read_message(&mut &reply[..len], response_tag).is_err(), "prefix {len}");
        }
    }

    /// One length-prefixed request as a client writes it.
    fn wire(tag: u8, key: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_message(&mut out, tag, key, payload).unwrap();
        out
    }

    /// Stage tags no stage has: 4 belonged to the retired emit stage.
    const UNKNOWN_STAGE_TAGS: [u8; 3] = [0, 4, 7];

    #[test]
    fn hostile_request_frames_get_a_protocol_reply_or_a_closed_connection() {
        let dir = tmp_dir("hostile");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let shared = &server.shared;
        let mut rng = FaultRng(0x4057_11E5);
        let (mut answered, mut closed, mut rejected_puts) = (0u32, 0u32, 0u32);
        for _ in 0..3000 {
            // A well-framed request: a good GET, PUT or STATS, a
            // retired lease op, a short GET/PUT header, a stage tag no
            // stage has (4 is the retired emit stage's) or a foreign
            // key epoch.
            let key = rng.below(16);
            let stage = Stage::ALL[rng.below(Stage::ALL.len() as u64) as usize];
            let record = vec![rng.next() as u8; rng.below(24) as usize];
            let get_or_put = if rng.below(2) == 0 { OP_GET } else { OP_PUT };
            let (tag, payload) = match rng.below(7) {
                0 => (OP_GET, record_body(stage, &[])),
                1 => (OP_PUT, record_body(stage, &record)),
                2 => (OP_STATS, Vec::new()),
                3 => (0x12 + rng.below(3) as u8, KEY_EPOCH.to_le_bytes().to_vec()),
                4 => {
                    let short = rng.below(RECORD_HEADER as u64) as usize;
                    (get_or_put, record_body(stage, &record)[..short].to_vec())
                }
                5 => {
                    let mut body = record_body(stage, &record);
                    body[0] = UNKNOWN_STAGE_TAGS[rng.below(3) as usize];
                    (get_or_put, body)
                }
                _ => {
                    let mut body = record_body(stage, &record);
                    let foreign = KEY_EPOCH ^ rng.next().max(1);
                    body[1..RECORD_HEADER].copy_from_slice(&foreign.to_le_bytes());
                    (get_or_put, body)
                }
            };
            // Then damage it on the way in.
            let mut frame = wire(tag, key, &payload);
            match rng.below(5) {
                0 => {}
                1 => {
                    for _ in 0..=rng.below(3) {
                        let bit = rng.below(frame.len() as u64 * 8) as usize;
                        frame[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                2 => frame.truncate(rng.below(frame.len() as u64) as usize),
                3 => {
                    let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
                    let inflated = len + 1 + rng.below(1 << 16) as u32;
                    frame[..4].copy_from_slice(&inflated.to_le_bytes());
                }
                _ => {
                    let inflated = u32::MAX - rng.below(1 << 16) as u32;
                    frame[..4].copy_from_slice(&inflated.to_le_bytes());
                }
            }
            let before = shared.stats();
            let Ok((tag, key, payload)) = read_message(&mut frame.as_slice(), request_tag) else {
                closed += 1; // the connection would be dropped
                continue;
            };
            answered += 1;
            let (reply, ..) = shared.handle(tag, key, &payload);
            assert!(
                [RE_HIT, RE_MISS, RE_OK, RE_STATS, RE_ERR].contains(&reply),
                "reply {reply:#04x} to request {tag:#04x}"
            );
            if tag == OP_PUT && reply == RE_ERR {
                rejected_puts += 1;
                let after = shared.stats();
                assert_eq!(after.puts_rejected, before.puts_rejected + 1);
                assert_eq!(after.records, before.records, "a rejected PUT must write nothing");
            }
        }
        assert!(answered > 0 && closed > 0 && rejected_puts > 0, "{answered} {closed}");

        // An intact GET or PUT naming an unknown stage tag gets ERR and
        // writes nothing.
        for bad in UNKNOWN_STAGE_TAGS {
            for op in [OP_GET, OP_PUT] {
                let before = shared.stats();
                let mut body = record_body(Stage::Func, if op == OP_PUT { b"rec" } else { b"" });
                body[0] = bad;
                let frame = wire(op, 1, &body);
                let (tag, key, payload) = read_message(&mut frame.as_slice(), request_tag).unwrap();
                let (reply, _, why) = shared.handle(tag, key, &payload);
                assert_eq!(reply, RE_ERR, "op {op:#04x} stage tag {bad}");
                assert!(
                    String::from_utf8_lossy(&why).contains("stage"),
                    "op {op:#04x}"
                );
                let after = shared.stats();
                assert_eq!(
                    after.records, before.records,
                    "stage tag {bad} wrote a record"
                );
            }
        }

        // Over the wire, a retired lease op is answered, not dropped:
        // an old client degrades through its breaker instead of timing
        // out.
        let mut raw = TcpTransport::new(server.addr(), Duration::from_millis(500));
        for retired in 0x12..=0x14 {
            let (tag, ..) = raw.exchange(retired, 1, &KEY_EPOCH.to_le_bytes()).unwrap();
            assert_eq!(tag, RE_ERR);
        }
        let (tag, ..) = raw.exchange(OP_STATS, 0, &[]).unwrap();
        assert_eq!(tag, RE_STATS, "the connection survives ERR replies");
    }

    #[test]
    fn killed_server_mid_run_costs_misses_only() {
        let dir = tmp_dir("kill");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let url = parse_store_url(&server.url()).unwrap();
        let addr = server.addr();
        let faults = NetFaults { seed: 3, kill_mid_put: 1.0, ..NetFaults::default() };
        let transport = FaultyTransport::new(
            Box::new(TcpTransport::new(addr, Duration::from_millis(200))),
            faults,
            Some(server.stop_flag()),
        );
        let store = RemoteStore::with_transport(
            Box::new(transport),
            url.to_string(),
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(200),
                breaker_threshold: 2,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::none() },
            },
        );
        assert_eq!(store.get(Stage::Func, 1), None, "works before the kill");
        store.put(Stage::Func, 1, b"doomed".to_vec());
        let start = Instant::now();
        assert_eq!(StoreBackend::flush(&store), 0, "kill mid-PUT persists nothing");
        for key in 10..14 {
            assert_eq!(store.get(Stage::Func, key), None);
        }
        assert!(store.is_degraded(), "dead server trips the breaker");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded");
    }

    #[test]
    fn torn_and_bitflipped_replies_are_transient() {
        let dir = tmp_dir("torn");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let url = parse_store_url(&server.url()).unwrap();
        let faults = NetFaults {
            seed: 11,
            torn_response: 0.4,
            bit_flip_reply: 0.3,
            drop: 0.2,
            ..NetFaults::default()
        };
        let transport = FaultyTransport::new(
            Box::new(TcpTransport::new(server.addr(), Duration::from_millis(500))),
            faults,
            None,
        );
        let store = RemoteStore::with_transport(
            Box::new(transport),
            url.to_string(),
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(500),
                breaker_threshold: 1_000_000, // never trip: isolate retry behaviour
                retry: RetryPolicy {
                    max_attempts: 10,
                    base_delay_ms: 0,
                    max_delay_ms: 0,
                    seed: 11,
                },
            },
        );
        store.put(Stage::Func, 1, b"payload".to_vec());
        while StoreBackend::flush(&store) == 0 && store.pending_len() > 0 {}
        let mut hits = 0;
        for _ in 0..12 {
            if store.get(Stage::Func, 1).as_deref() == Some(&b"payload"[..]) {
                hits += 1;
            }
        }
        assert!(hits > 0, "faulty transport still serves through retries");
        let s = store.stats();
        assert!(s.retries > 0, "faults must have caused retries: {s:?}");
        assert_eq!(s.hits + s.misses, 12, "conservation under faults");
    }
}
