//! Concurrent-writer property of the remote store: **for any workload,
//! arch and rewrite mode, two clients rewriting different fleet
//! variants at the same time against one `serve` both persist
//! everything on their first flush, produce the storeless bytes, and
//! leave a store that serves a third client every record.**
//!
//! The server is the only writer of its directory: client `PUT`s only
//! queue into its store, which takes the directory lock itself when it
//! flushes. So no client ever waits for another, and nothing a client
//! sends is deferred or lost.

use incremental_cfg_patching::core::{
    parse_store_url, serve, store, Instrumentation, Points, RemoteOptions, RemoteStore,
    RewriteCache, RewriteConfig, RewriteMode, RewriteStats, Rewriter, ServeOptions, StoreBackend,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

fn arb_params() -> impl Strategy<Value = GenParams> {
    (arb_arch(), 0u64..500, 1usize..3, 0usize..3, 2usize..6).prop_map(
        |(arch, seed, compute, switches, cases)| {
            let mut p = GenParams::small("propremote", arch, seed);
            p.compute_funcs = compute;
            p.switch_funcs = switches;
            p.switch_cases = cases;
            p.filler_funcs = 6;
            p.outer_iters = 16;
            p
        },
    )
}

fn stage_misses(s: &RewriteStats) -> u64 {
    s.func_analyses.misses + s.fragments.misses + s.liveness.misses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_clients_both_persist_and_warm_a_third(
        params in arb_params(),
        mode in arb_mode(),
        perturb in 1u64..50,
    ) {
        let binaries: Vec<_> = [0, perturb]
            .into_iter()
            .map(|v| generate(&GenParams { perturb: v, ..params.clone() }).binary)
            .collect();
        let rw = Rewriter::new(RewriteConfig::new(mode));
        let instr = Instrumentation::empty(Points::EveryBlock);
        let colds: Vec<_> = binaries
            .iter()
            .map(|b| rw.rewrite_cached(b, &instr, &RewriteCache::new()).expect("cold").binary)
            .collect();

        let dir = std::env::temp_dir().join(format!(
            "icfgp-propremote-{}-{}-{perturb}-{mode}",
            std::process::id(),
            params.seed,
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).expect("serve");
        let url = parse_store_url(&server.url()).expect("url");
        let connect = || Arc::new(RemoteStore::connect(&url, RemoteOptions::default()));

        // Both clients are connected before either rewrites, and both
        // flush at once.
        let clients = [connect(), connect()];
        let barrier = Barrier::new(clients.len());
        let outputs: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = binaries
                .iter()
                .zip(&clients)
                .map(|(binary, client)| {
                    let (rw, instr, barrier) = (&rw, &instr, &barrier);
                    s.spawn(move || {
                        let cache = RewriteCache::with_store(client.clone());
                        let out = rw.rewrite_cached(binary, instr, &cache).expect("client rewrite");
                        barrier.wait();
                        cache.flush_store();
                        out.binary
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().expect("client thread")).collect()
        });
        for (client, (out, cold)) in clients.iter().zip(outputs.iter().zip(&colds)) {
            prop_assert_eq!(out, cold, "a remote client must produce the storeless bytes");
            prop_assert_eq!(client.pending_len(), 0, "the first flush must land every record");
            let s = client.stats();
            prop_assert_eq!(s.lock_timeouts, 0, "no client waits for another: {:?}", s);
            prop_assert_eq!(s.breaker_trips, 0);
        }
        drop(clients);

        // A fresh third client is served every record from the wire.
        let third = connect();
        for (binary, cold) in binaries.iter().zip(&colds) {
            let cache = RewriteCache::with_store(third.clone());
            let out = rw.rewrite_cached(binary, &instr, &cache).expect("warm rewrite");
            prop_assert_eq!(&out.binary, cold);
            prop_assert!(out.stats.store.remote_hits > 0, "{:?}", out.stats.store);
            prop_assert_eq!(stage_misses(&out.stats), 0, "{:?}", out.stats);
        }
        drop(third);
        let stats = server.stats();
        prop_assert_eq!(stats.puts_rejected, 0);
        prop_assert_eq!(stats.store.quarantined_records, 0);
        drop(server);

        let report = store::verify_dir(&dir);
        prop_assert!(report.is_clean(), "nothing corrupt or quarantined: {:?}", report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
