//! Bounded retry with exponential backoff.
//!
//! The sweep engine retries transient store-write failures a bounded
//! number of times with a doubling delay between attempts.
//! [`BackoffPolicy`] is that loop:
//!
//! - `attempts` is the **total** number of tries (a policy of 3 sleeps at
//!   most twice),
//! - the delay starts at `initial` and doubles after every failed
//!   attempt,
//! - the caller's `on_retry` observer runs before each sleep.
//!
//! ```
//! use pipe_experiments::BackoffPolicy;
//! use std::time::Duration;
//!
//! let policy = BackoffPolicy::new(3, Duration::from_millis(1));
//! let mut calls = 0;
//! let result: Result<u32, &str> = policy.run(
//!     |_attempt| {
//!         calls += 1;
//!         if calls < 3 {
//!             Err("transient")
//!         } else {
//!             Ok(42)
//!         }
//!     },
//!     |_attempt, _err| {},
//! );
//! assert_eq!(result, Ok(42));
//! assert_eq!(calls, 3);
//! ```

use std::time::Duration;

/// A bounded exponential-backoff retry policy: up to `attempts` total
/// tries, sleeping `initial`, `2·initial`, `4·initial`, ... between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    attempts: u32,
    initial: Duration,
}

impl BackoffPolicy {
    /// A policy of `attempts` total tries (clamped to at least 1) with a
    /// first inter-attempt delay of `initial`.
    pub fn new(attempts: u32, initial: Duration) -> BackoffPolicy {
        BackoffPolicy {
            attempts: attempts.max(1),
            initial,
        }
    }

    /// The policy the sweep engine has always used for store writes:
    /// 3 attempts starting at 10 ms.
    pub fn store_default() -> BackoffPolicy {
        BackoffPolicy::new(3, Duration::from_millis(10))
    }

    /// Total number of tries this policy makes.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The delay slept after failed attempt `attempt` (1-based):
    /// `initial · 2^(attempt-1)`, saturating.
    pub fn delay_after(&self, attempt: u32) -> Duration {
        self.initial
            .saturating_mul(2u32.saturating_pow(attempt.saturating_sub(1)))
    }

    /// Runs `op` until it succeeds or the attempts are exhausted.
    ///
    /// `op` receives the 1-based attempt number. After each failure that
    /// is not the last attempt, `on_retry` observes the attempt number
    /// and the error, then the policy delay is slept. The final
    /// attempt's error is returned as-is.
    ///
    /// # Errors
    ///
    /// The last error `op` produced, when no attempt succeeded.
    pub fn run<T, E>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, E>,
        mut on_retry: impl FnMut(u32, &E),
    ) -> Result<T, E> {
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    if attempt >= self.attempts {
                        return Err(e);
                    }
                    on_retry(attempt, &e);
                    std::thread::sleep(self.delay_after(attempt));
                }
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(attempts: u32) -> BackoffPolicy {
        BackoffPolicy::new(attempts, Duration::from_millis(1))
    }

    #[test]
    fn first_success_returns_immediately() {
        let mut calls = 0;
        let r: Result<_, ()> = fast(5).run(
            |_| {
                calls += 1;
                Ok("done")
            },
            |_, _| panic!("no retry on success"),
        );
        assert_eq!(r, Ok("done"));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhaustion_returns_the_last_error() {
        let mut retries = Vec::new();
        let r: Result<(), String> = fast(3).run(
            |attempt| Err(format!("fail {attempt}")),
            |attempt, _| retries.push(attempt),
        );
        assert_eq!(r, Err("fail 3".to_string()));
        // on_retry runs after every failure except the last.
        assert_eq!(retries, vec![1, 2]);
    }

    #[test]
    fn delays_double_and_saturate() {
        let p = BackoffPolicy::new(4, Duration::from_millis(10));
        assert_eq!(p.delay_after(1), Duration::from_millis(10));
        assert_eq!(p.delay_after(2), Duration::from_millis(20));
        assert_eq!(p.delay_after(3), Duration::from_millis(40));
        let huge = BackoffPolicy::new(2, Duration::from_secs(u64::MAX / 2));
        assert!(p.delay_after(200) >= p.delay_after(3));
        assert_eq!(huge.delay_after(100), Duration::MAX);
    }

    #[test]
    fn attempts_clamp_to_one() {
        assert_eq!(BackoffPolicy::new(0, Duration::ZERO).attempts(), 1);
        let mut calls = 0;
        let r: Result<(), &str> = BackoffPolicy::new(0, Duration::ZERO).run(
            |_| {
                calls += 1;
                Err("once")
            },
            |_, _| panic!("a single attempt never retries"),
        );
        assert_eq!(r, Err("once"));
        assert_eq!(calls, 1);
    }
}
