//! Bounded retry with deterministic jittered backoff.
//!
//! [`RetryPolicy::run`] is the one retry driver: the local store's
//! flush (a busy directory lock, a failed segment write) and the remote
//! client's request exchange both run their attempts through it. Every failure an attempt reports is
//! worth retrying; a failure no retry can fix (a checksum mismatch, a
//! version or epoch skew) is not reported as one, but handled where it
//! is found, by quarantining the bad bytes.
//!
//! Jitter is drawn from a seeded [splitmix64] stream keyed on
//! `(seed, attempt)`, so tests can pin the exact delay schedule and
//! two runs with the same seed behave identically.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use serde::{Deserialize, Serialize};

/// A bounded, seeded, jittered-backoff retry policy.
///
/// `max_attempts` counts *total* attempts including the first one, so
/// `max_attempts == 1` disables retrying entirely. Delays grow
/// exponentially from `base_delay_ms`, are capped at `max_delay_ms`,
/// and carry ±50% deterministic jitter keyed on `(seed, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff base delay in milliseconds (attempt 1 retries after
    /// roughly this long).
    pub base_delay_ms: u64,
    /// Upper bound on any single backoff delay.
    pub max_delay_ms: u64,
    /// Jitter seed: same seed, same delay schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_delay_ms: 2, max_delay_ms: 50, seed: 0 }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no delays).
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The default policy re-seeded — chaos campaigns key the jitter on
    /// the fault-plan seed so a campaign case replays exactly.
    #[must_use]
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy { seed, ..RetryPolicy::default() }
    }

    /// The backoff delay before retry number `attempt` (1-based: the
    /// delay slept after the first failed attempt is `delay_ms(1)`).
    /// Exponential in `attempt` with ±50% deterministic jitter, capped
    /// at `max_delay_ms`.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self.base_delay_ms.saturating_mul(1u64 << attempt.min(16)) / 2;
        let capped = exp.min(self.max_delay_ms);
        if capped == 0 {
            return 0;
        }
        // ±50% jitter: delay in [capped/2, capped + capped/2].
        let jitter_span = capped.max(1);
        let draw = splitmix64(self.seed ^ (u64::from(attempt) << 32)) % jitter_span;
        (capped / 2 + draw).min(self.max_delay_ms)
    }

    /// Run `op` with bounded retries: every failed attempt but the last
    /// is retried after sleeping the jittered backoff delay. `op`
    /// receives the 0-based attempt number, so it can tell the last
    /// attempt from the others. Returns the first success or the last
    /// error, plus how many retries ran.
    ///
    /// # Errors
    ///
    /// The final error once the attempt budget is exhausted.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> (Result<T, E>, u32) {
        let last = self.max_attempts.max(1) - 1;
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Err(_) if attempt < last => {
                    attempt += 1;
                    let delay = self.delay_ms(attempt);
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                }
                result => return (result, attempt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_capped() {
        let p = RetryPolicy { max_attempts: 5, base_delay_ms: 2, max_delay_ms: 10, seed: 42 };
        let a: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        let b: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().all(|&d| d <= 10), "capped: {a:?}");
        let other = RetryPolicy { seed: 43, ..p };
        let c: Vec<u64> = (1..=4).map(|i| other.delay_ms(i)).collect();
        assert_ne!(a, c, "different seeds jitter differently");
    }

    #[test]
    fn transient_errors_retry_until_budget() {
        let p = RetryPolicy { max_attempts: 3, base_delay_ms: 0, max_delay_ms: 0, seed: 1 };
        let mut calls = 0;
        let (out, retries) = p.run(|_| {
            calls += 1;
            if calls < 3 {
                Err("contended")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        assert_eq!(retries, 2);

        let mut calls = 0;
        let (out, retries) = p.run(|attempt| -> Result<(), &str> {
            assert_eq!(attempt, calls, "attempts are numbered from 0");
            calls += 1;
            Err("still contended")
        });
        assert_eq!(out, Err("still contended"));
        assert_eq!(calls, 3, "budget is total attempts");
        assert_eq!(retries, 2);
    }

    #[test]
    fn one_attempt_policy_never_retries() {
        let p = RetryPolicy::none();
        let mut calls = 0;
        let (out, _) = p.run(|_| -> Result<(), &str> {
            calls += 1;
            Err("nope")
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }
}
