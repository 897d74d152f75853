//! The shared scoped-thread worker pool.
//!
//! One pool implementation serves every fan-out site in the workspace:
//! the incremental rewrite engine (per-function analysis, fragment
//! building, emission) and the benchmark harness (`icfgp-bench`
//! Table 3). The degradation ladder forks nothing of its own: the
//! verifier's strict analysis is derived from the rewrite's after it
//! ([`crate::cache::derive_strict_analysis`]), whose re-analyses run
//! on [`map`]. Work is distributed
//! by an atomic cursor — idle workers steal the next unclaimed item —
//! so load balances dynamically, while results are returned **in item
//! order**, which keeps every consumer deterministic regardless of
//! scheduling or thread count.
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
