//! Error classification and retry/degradation pricing for the serving
//! stack's reliability layer (RELIABILITY.md).
//!
//! The store's fetch path (`tahoma_imagery::store`) retries *transient*
//! I/O errors with bounded jittered backoff and quarantines records whose
//! errors are permanent or whose retries are exhausted, degrading those
//! fetches to a transcode-from-source. Both halves of that policy are
//! priceable with the same discipline the rest of this crate applies to
//! transforms and I/O: classification says *which* branch an error takes,
//! and [`RetryPolicy`] prices what the branch costs in expectation —
//! extra attempts and backoff sleeps for transients, the source fetch +
//! transcode surcharge for degraded records. Nothing outside this crate
//! uses these expectations yet: the serve layer's deadline check
//! (`QueryService::check_deadline`) stops at predicate boundaries without
//! pricing retries. Whether this module gains that consumer (deadline
//! admission) or is deleted is ROADMAP direction 4(c).
//!
//! The numeric constants mirror the store's actual retry loop (4 total
//! attempts, 32 µs exponential base, ~32 µs mean jitter) so expectations
//! track the executing code rather than an idealized policy.

use tahoma_imagery::ImageryError;

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The same operation may succeed if repeated: interrupted syscall,
    /// timeout, would-block. Retried with bounded backoff.
    Transient,
    /// Retrying cannot help: corruption, decode failure, missing file,
    /// permission. Fed straight to the degradation ladder (quarantine,
    /// fallback, or explicit error).
    Permanent,
}

/// Classify an [`ImageryError`] for the retry layer.
pub fn classify(e: &ImageryError) -> ErrorClass {
    if e.is_transient() {
        ErrorClass::Transient
    } else {
        ErrorClass::Permanent
    }
}

/// Classify a raw [`std::io::ErrorKind`] — the same partition
/// `ImageryError::from::<std::io::Error>` applies, exposed for callers
/// still holding the io error.
pub fn classify_io(kind: std::io::ErrorKind) -> ErrorClass {
    use std::io::ErrorKind;
    match kind {
        ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            ErrorClass::Transient
        }
        _ => ErrorClass::Permanent,
    }
}

/// The store's bounded-retry policy, priced: `max_attempts` total tries
/// per operation with exponential backoff between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff_s << (k-1)`
    /// plus ~`jitter_mean_s` of decorrelation jitter.
    pub base_backoff_s: f64,
    /// Mean of the per-retry jitter term.
    pub jitter_mean_s: f64,
}

impl RetryPolicy {
    /// The policy the representation store actually runs (see
    /// `tahoma_imagery::store`): 4 attempts, 32 µs base doubling per
    /// retry, jitter uniform in [0, 64) µs.
    pub fn store_fetch() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 32e-6,
            jitter_mean_s: 32e-6,
        }
    }

    /// Probability the operation eventually succeeds, given independent
    /// per-attempt transient-failure probability `p` (clamped to [0, 1]).
    pub fn success_probability(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        1.0 - p.powi(self.max_attempts as i32)
    }

    /// Probability the operation exhausts its budget and degrades.
    pub fn degraded_rate(&self, p: f64) -> f64 {
        p.clamp(0.0, 1.0).powi(self.max_attempts as i32)
    }

    /// Expected number of attempts executed (truncated geometric).
    pub fn expected_attempts(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // sum_{k=1..m} p^(k-1) = (1 - p^m) / (1 - p); m at p == 1.
        if (1.0 - p).abs() < 1e-12 {
            self.max_attempts as f64
        } else {
            (1.0 - p.powi(self.max_attempts as i32)) / (1.0 - p)
        }
    }

    /// Expected backoff sleep per operation: retry `k` happens with
    /// probability `p^k` and sleeps `base << (k-1)` plus mean jitter.
    pub fn expected_backoff_s(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let mut total = 0.0;
        for k in 1..self.max_attempts {
            let sleep =
                self.base_backoff_s * f64::from(1u32 << (k - 1).min(8)) + self.jitter_mean_s;
            total += p.powi(k as i32) * sleep;
        }
        total
    }

    /// Expected wall-clock of one operation under the policy: `op_s` per
    /// attempt plus backoff sleeps. Excludes the degradation surcharge —
    /// add [`degraded_fetch_surcharge_s`] weighted by
    /// [`RetryPolicy::degraded_rate`] for the full ladder expectation.
    pub fn expected_cost_s(&self, op_s: f64, p: f64) -> f64 {
        self.expected_attempts(p) * op_s + self.expected_backoff_s(p)
    }
}

/// Extra latency a *degraded* fetch pays over a direct one: the stored
/// representation is quarantined, so the serving fallback fetches the
/// source representation and transcodes (`core::exec`'s materialize path).
/// Negative results are clamped to zero — degrading is never priced as a
/// speedup.
pub fn degraded_fetch_surcharge_s(
    direct_fetch_s: f64,
    source_fetch_s: f64,
    transcode_s: f64,
) -> f64 {
    (source_fetch_s + transcode_s - direct_fetch_s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_partitions_errors() {
        let transient: ImageryError =
            std::io::Error::new(std::io::ErrorKind::Interrupted, "eintr").into();
        let permanent: ImageryError =
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(classify(&transient), ErrorClass::Transient);
        assert_eq!(classify(&permanent), ErrorClass::Permanent);
        assert_eq!(
            classify(&ImageryError::Decode("bad".into())),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify_io(std::io::ErrorKind::TimedOut),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_io(std::io::ErrorKind::UnexpectedEof),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn retry_expectations_are_sane() {
        let rp = RetryPolicy::store_fetch();
        // Fault-free: exactly one attempt, no backoff, full success.
        assert_eq!(rp.expected_attempts(0.0), 1.0);
        assert_eq!(rp.expected_backoff_s(0.0), 0.0);
        assert_eq!(rp.success_probability(0.0), 1.0);
        assert_eq!(rp.degraded_rate(0.0), 0.0);
        // Always-failing: every attempt runs, the operation degrades.
        assert_eq!(rp.expected_attempts(1.0), rp.max_attempts as f64);
        assert_eq!(rp.degraded_rate(1.0), 1.0);
        // Monotone in p.
        assert!(rp.expected_attempts(0.5) > rp.expected_attempts(0.1));
        assert!(rp.expected_cost_s(1e-3, 0.5) > rp.expected_cost_s(1e-3, 0.1));
        // Success + degraded partition the outcome space.
        let p = 0.3;
        assert!((rp.success_probability(p) + rp.degraded_rate(p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_surcharge_clamps_at_zero() {
        assert_eq!(degraded_fetch_surcharge_s(1e-3, 2e-3, 3e-3), 4e-3);
        assert_eq!(degraded_fetch_surcharge_s(9.0, 1e-3, 1e-3), 0.0);
    }
}
