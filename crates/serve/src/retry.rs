//! Client-side retry with exponential backoff and deterministic jitter.
//!
//! The server's half of load shedding is the typed
//! [`Overloaded`](crate::ServeError::Overloaded) refusal; this is the
//! client's half. [`RetryPolicy`] computes capped exponential backoff with
//! *deterministic* jitter (a splitmix64 hash of the policy seed and the
//! attempt index — two clients with different seeds desynchronize, one
//! client replays identically), and [`RetryPolicy::run`] drives an
//! operation through it, honoring the server's `retry_after_ms` hint when
//! it exceeds the local backoff. Only `Overloaded` is retried: every other
//! refusal is a fact a retry cannot change.

use crate::error::{ServeError, ServeResult};

/// Exponential-backoff retry schedule with deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First-retry backoff, in milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per attempt (2 = classic doubling).
    pub factor: u64,
    /// Cap on the pre-jitter backoff.
    pub max_backoff_ms: u64,
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Seed for the jitter stream; distinct per client.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 10,
            factor: 2,
            max_backoff_ms: 500,
            max_attempts: 5,
            jitter_seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based: attempt 1 is
    /// the first retry). Deterministic in `(self, attempt)`.
    fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(self.factor.saturating_pow(attempt.saturating_sub(1)))
            .min(self.max_backoff_ms);
        // Full jitter over [exp/2, exp]: keeps the cap meaningful while
        // decorrelating clients that shed at the same instant.
        let half = exp / 2;
        if half == 0 {
            return exp;
        }
        let r =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407));
        half + r % (exp - half + 1)
    }

    /// Run `op`, retrying on [`ServeError::Overloaded`] up to
    /// `max_attempts` total attempts. Each wait is
    /// `max(backoff_ms(attempt), server retry_after hint)` and is performed
    /// by `sleep`, injected so tests can count waits instead of waiting.
    pub fn run<T>(
        &self,
        mut sleep: impl FnMut(u64),
        mut op: impl FnMut() -> ServeResult<T>,
    ) -> ServeResult<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match op() {
                Err(ServeError::Overloaded { retry_after_ms }) if attempt < attempts => {
                    sleep(self.backoff_ms(attempt).max(retry_after_ms));
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_replays() {
        let p = RetryPolicy {
            base_ms: 10,
            factor: 2,
            max_backoff_ms: 80,
            max_attempts: 8,
            jitter_seed: 42,
        };
        let seq: Vec<u64> = (1..=6).map(|a| p.backoff_ms(a)).collect();
        let again: Vec<u64> = (1..=6).map(|a| p.backoff_ms(a)).collect();
        assert_eq!(seq, again, "jitter is deterministic per (seed, attempt)");
        for (i, &b) in seq.iter().enumerate() {
            let exp = (10u64 << i).min(80);
            assert!(
                b >= exp / 2 && b <= exp,
                "attempt {}: {} not in [{}, {}]",
                i + 1,
                b,
                exp / 2,
                exp
            );
        }
        let other = RetryPolicy {
            jitter_seed: 43,
            ..p
        };
        assert_ne!(
            (1..=6).map(|a| other.backoff_ms(a)).collect::<Vec<_>>(),
            seq,
            "different seeds desynchronize"
        );
    }

    #[test]
    fn run_retries_only_overloaded_and_honors_hint() {
        let p = RetryPolicy {
            base_ms: 10,
            factor: 2,
            max_backoff_ms: 80,
            max_attempts: 4,
            jitter_seed: 7,
        };
        // Succeeds on the third attempt; second shed carries a large hint.
        let mut calls = 0;
        let mut waits = Vec::new();
        let out = p.run(
            |ms| waits.push(ms),
            || {
                calls += 1;
                match calls {
                    1 => Err(ServeError::Overloaded { retry_after_ms: 0 }),
                    2 => Err(ServeError::Overloaded {
                        retry_after_ms: 1000,
                    }),
                    _ => Ok(calls),
                }
            },
        );
        assert_eq!(out.unwrap(), 3);
        assert_eq!(waits.len(), 2);
        assert_eq!(waits[0], p.backoff_ms(1));
        assert_eq!(waits[1], 1000, "server hint dominates local backoff");

        // Non-overload errors surface immediately.
        let mut calls = 0;
        let err = p.run(
            |_| panic!("must not sleep"),
            || -> ServeResult<()> {
                calls += 1;
                Err(ServeError::SessionLimit { capacity: 1 })
            },
        );
        assert!(matches!(err, Err(ServeError::SessionLimit { .. })));
        assert_eq!(calls, 1);

        // Exhaustion returns the last Overloaded.
        let mut calls = 0;
        let err = p.run(
            |_| {},
            || -> ServeResult<()> {
                calls += 1;
                Err(ServeError::Overloaded { retry_after_ms: 1 })
            },
        );
        assert!(matches!(err, Err(ServeError::Overloaded { .. })));
        assert_eq!(calls, 4, "max_attempts total attempts");
    }
}
