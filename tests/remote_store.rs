//! End-to-end integration of the remote store backend through the
//! public API: a server warmed by one client serves a second client
//! byte-identically, a dead server costs misses, never failures, and
//! the CLI's `--fault-seed` never damages the wire to a user's server.
//! Protocol-level behavior (frames, key epochs, breaker edges)
//! is covered by unit tests in `icfgp_core::net` — this file pins the
//! composition a build farm actually runs.

use incremental_cfg_patching::core::{
    parse_store_url, serve, store, Instrumentation, Points, RemoteOptions, RemoteStore,
    RewriteCache, RewriteConfig, RewriteMode, Rewriter, ServeOptions, StoreBackend,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::workloads::{generate, GenParams};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("icfgp-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two clients against one server: the first warms it, the second is
/// served entirely from the wire and produces identical bytes.
#[test]
fn second_client_is_served_warm_and_byte_identical() {
    let params = GenParams::small("remote-int", Arch::X64, 41);
    let w = generate(&params);
    let rw = Rewriter::new(RewriteConfig::new(RewriteMode::Jt));
    let instr = Instrumentation::empty(Points::EveryBlock);
    let cold = rw.rewrite_cached(&w.binary, &instr, &RewriteCache::new()).expect("cold");

    let dir = temp_dir("warm");
    let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).expect("serve");
    let url = parse_store_url(&server.url()).expect("url");

    let first = Arc::new(RemoteStore::connect(&url, RemoteOptions::default()));
    let cache1 = RewriteCache::with_store(first.clone());
    let out1 = rw.rewrite_cached(&w.binary, &instr, &cache1).expect("client 1");
    assert_eq!(out1.binary, cold.binary);
    let s1 = first.stats();
    assert_eq!(s1.remote_hits, 0, "cold server must serve no hits: {s1:?}");
    assert!(s1.remote_misses > 0);
    drop(cache1);
    drop(first); // closing the connection flushes its queued PUTs

    let second = Arc::new(RemoteStore::connect(&url, RemoteOptions::default()));
    let cache2 = RewriteCache::with_store(second.clone());
    let out2 = rw.rewrite_cached(&w.binary, &instr, &cache2).expect("client 2");
    assert_eq!(out2.binary, cold.binary, "warm bytes must match cold");
    let s2 = second.stats();
    assert!(s2.remote_hits > 0, "second client must be served warm: {s2:?}");
    assert_eq!(s2.degraded, 0);
    assert_eq!(s2.breaker_trips, 0);
    drop(cache2);
    drop(second);

    let srv = server.stats();
    assert!(srv.records > 0, "server must hold the warmed records: {srv:?}");
    assert_eq!(srv.store.quarantined_records, 0);
    server.kill();

    let report = store::verify_dir(&dir);
    assert_eq!(report.corrupt_records, 0, "{report:?}");
    assert_eq!(report.bad_segments, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server nobody is listening on: the breaker trips, every lookup
/// misses, and output bytes are still identical.
#[test]
fn dead_server_degrades_to_local_misses_only() {
    let params = GenParams::small("remote-dead", Arch::Aarch64, 7);
    let w = generate(&params);
    let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
    let instr = Instrumentation::empty(Points::EveryBlock);
    let cold = rw.rewrite_cached(&w.binary, &instr, &RewriteCache::new()).expect("cold");

    // Port 9 (discard) is reliably closed in test environments.
    let url = parse_store_url("icfgp://127.0.0.1:9").expect("url");
    let store = Arc::new(RemoteStore::connect(
        &url,
        RemoteOptions { timeout: Duration::from_millis(100), ..RemoteOptions::default() },
    ));
    let cache = RewriteCache::with_store(store.clone());
    let out = rw.rewrite_cached(&w.binary, &instr, &cache).expect("dead server rewrite");
    assert_eq!(out.binary, cold.binary, "a dead server must only cost misses");
    let s = store.stats();
    assert_eq!(s.remote_hits, 0);
    assert!(s.breaker_trips > 0, "the breaker must trip on a dead server: {s:?}");
    assert!(s.degraded > 0, "post-trip lookups must count as degraded: {s:?}");
}

/// `--fault-seed` injects analysis and placement faults only: the
/// user's server sees a clean wire and clean read-back, so neither the
/// cold nor the warm run retries or quarantines anything, and both
/// write the bytes of a storeless run under the same seed.
#[test]
fn fault_seed_never_damages_the_users_wire() {
    let dir = temp_dir("fault-seed");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let icfgp = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_icfgp"))
            .args(args)
            .env_remove("ICFGP_CACHE_DIR")
            .env_remove("ICFGP_STORE_URL")
            .output()
            .expect("icfgp runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // `--budget 1.0` keeps the seed's degradations inside the budget.
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{args:?}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let input = path("in.icfgp");
    icfgp(&["gen", "--workload", "small", "--seed", "2", "-o", &input]);
    let rewrite = ["rewrite", &input, "--fault-seed", "1", "--budget", "1.0", "--stats"];
    let cold = path("cold.rw");
    icfgp(&[&rewrite[..], &["-o", &cold]].concat());

    let server = serve("127.0.0.1:0", &dir.join("srv"), ServeOptions::default()).expect("serve");
    let url = server.url();
    for run in ["first", "rerun"] {
        let out = path(&format!("{run}.rw"));
        let stdout = icfgp(&[&rewrite[..], &["--store-url", &url, "-o", &out]].concat());
        assert!(stdout.contains(", 0 retries,"), "{run}: {stdout}");
        let quarantines: Vec<&str> = stdout.lines().filter(|l| l.contains("quarantined")).collect();
        assert!(!quarantines.is_empty(), "{run}: {stdout}");
        assert!(quarantines.iter().all(|l| l.ends_with(" 0 quarantined")), "{run}: {stdout}");
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&cold).unwrap(), "{run}");
    }
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
