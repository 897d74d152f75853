//! The shared scoped-thread worker pool.
//!
//! One pool implementation serves every fan-out site in the workspace:
//! the incremental rewrite engine (per-function analysis, fragment
//! building, emission) and the benchmark harness (`icfgp-bench`
//! Table 3). [`join`] is the one fork/join of two unlike tasks: the
//! degradation ladder runs its first rewrite beside the verifier's
//! strict re-analysis. Work is distributed by an atomic cursor — idle
//! workers steal the next unclaimed item — so load balances dynamically, while
//! results are returned **in item order**, which keeps every consumer
//! deterministic regardless of scheduling or thread count.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! capped at 16 and can be overridden with the `ICFGP_THREADS`
//! environment variable. `ICFGP_THREADS` must be an integer in
//! `1..=16`; `0` and garbage are rejected with an error (the CLI
//! exits with usage code 64) rather than silently defaulted, and
//! values above the cap are clamped to 16.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on worker threads.
pub const MAX_THREADS: usize = 16;

/// The default worker count: the `ICFGP_THREADS` environment override
/// when valid, otherwise `available_parallelism` capped at
/// [`MAX_THREADS`]. An *invalid* override (zero, garbage) also falls
/// back, with a one-line warning on stderr — library callers keep
/// working; the CLI validates the variable up front via
/// [`threads_from_env`] and refuses to start instead.
#[must_use]
pub fn default_threads() -> usize {
    match threads_from_env(std::env::var("ICFGP_THREADS").ok().as_deref()) {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(e) => eprintln!("warning: {e}; using the automatic thread count"),
    }
    std::thread::available_parallelism()
        .map_or(4, usize::from)
        .min(MAX_THREADS)
}

/// Parse an `ICFGP_THREADS`-style override.
///
/// `Ok(None)` for unset or empty values (no override); parsed values
/// are clamped to at most [`MAX_THREADS`].
///
/// # Errors
///
/// A usage message for `0` and non-integer values — an explicit but
/// invalid override must be reported, not silently replaced with a
/// default the user did not ask for.
pub fn threads_from_env(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<usize>() {
        Ok(0) => Err(format!(
            "ICFGP_THREADS must be between 1 and {MAX_THREADS}, got 0"
        )),
        Ok(n) => Ok(Some(n.min(MAX_THREADS))),
        Err(_) => Err(format!(
            "ICFGP_THREADS must be an integer between 1 and {MAX_THREADS}, got {raw:?}"
        )),
    }
}

/// Run `f` over every item of `items` on up to `threads` scoped worker
/// threads and return the results in item order.
///
/// Items are claimed through a shared atomic cursor (work stealing by
/// self-scheduling): a fast worker drains more items than a slow one,
/// but the output `Vec` is always `[f(0, &items[0]), f(1, &items[1]),
/// ...]` — callers observe identical results for any thread count.
/// With `threads <= 1` or fewer than two items everything runs on the
/// calling thread. A panicking `f` propagates to the caller.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.clamp(1, MAX_THREADS).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slot_ptr = SendPtr(slots.as_mut_ptr());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                let slot_ptr = &slot_ptr;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i]);
                    // SAFETY: each index is claimed by exactly one
                    // worker (fetch_add), so writes are disjoint, and
                    // `slots` outlives the scope.
                    unsafe { *slot_ptr.0.add(i) = Some(r) };
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Run `a` and `b` and return both results: `a` on one scoped worker
/// thread and `b` on the calling thread at the same time. With
/// `threads <= 1` both run on the caller, `a` first, and no thread
/// starts. A panic on either side propagates to the caller once both
/// sides have stopped.
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(a);
        let rb = b();
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// A raw pointer wrapper that is `Sync` so workers can write disjoint
/// result slots without locking.
struct SendPtr<R>(*mut Option<R>);
unsafe impl<R: Send> Sync for SendPtr<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8, 16] {
            let out = map(threads, &items, |i, v| (i as u64) * 1000 + v * 2);
            let expect: Vec<u64> = (0..100).map(|v| v * 1000 + v * 2).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(map(8, &none, |_, v| *v).is_empty());
        assert_eq!(map(8, &[7u32], |_, v| v + 1), vec![8]);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 8] {
            assert_eq!(join(threads, || 6 * 7, || "caller"), (42, "caller"), "threads = {threads}");
        }
    }

    #[test]
    fn join_forks_only_above_one_thread() {
        let caller = std::thread::current().id();
        let on = || std::thread::current().id();
        assert_eq!(join(1, on, on), (caller, caller));
        let (a, b) = join(2, on, on);
        assert_ne!(a, caller, "`a` runs on the worker");
        assert_eq!(b, caller, "`b` runs on the caller");
    }

    #[test]
    fn join_reraises_a_panic_from_either_side() {
        let message = |r: std::thread::Result<(u8, u8)>| {
            let panic = r.expect_err("the panic must reach the caller");
            panic.downcast_ref::<&str>().map(|s| s.to_string())
        };
        for threads in [1, 2] {
            let worker = std::panic::catch_unwind(|| join(threads, || panic!("worker side"), || 1));
            assert_eq!(message(worker).as_deref(), Some("worker side"), "threads = {threads}");
            let caller = std::panic::catch_unwind(|| join(threads, || 1, || panic!("caller side")));
            assert_eq!(message(caller).as_deref(), Some("caller side"), "threads = {threads}");
        }
    }

    #[test]
    fn env_override_parses_clamps_and_rejects() {
        assert_eq!(threads_from_env(None), Ok(None));
        assert_eq!(threads_from_env(Some("")), Ok(None));
        assert_eq!(threads_from_env(Some("  ")), Ok(None));
        assert_eq!(threads_from_env(Some("4")), Ok(Some(4)));
        assert_eq!(threads_from_env(Some(" 8 ")), Ok(Some(8)));
        assert_eq!(threads_from_env(Some("999")), Ok(Some(MAX_THREADS)));
        // Explicit-but-invalid overrides are errors, not silent defaults.
        assert!(threads_from_env(Some("0")).is_err());
        assert!(threads_from_env(Some("banana")).is_err());
        assert!(threads_from_env(Some("-2")).is_err());
        assert!(threads_from_env(Some("1.5")).is_err());
    }

    #[test]
    fn default_threads_in_range() {
        let n = default_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
