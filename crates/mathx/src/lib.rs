//! Small deterministic math utilities shared across the TAHOMA reproduction.
//!
//! Everything in the reproduction must be seed-reproducible: the synthetic
//! corpora, the surrogate classifier scores, and the experiment harnesses all
//! derive their randomness from a single root seed through [`split_seed`].
//! This crate also provides normal sampling (the approved crate set does not
//! include `rand_distr`) and the handful of descriptive statistics the
//! evaluation needs.
//!
//! As the lowest crate in the workspace it additionally hosts [`simd_policy`]:
//! the one ordered kernel-tier enum ([`SimdTier`]), its cached feature
//! detection and the `TAHOMA_KERNEL_POLICY` ceiling that the SIMD
//! dispatchers in `tahoma-nn` and `tahoma-imagery` resolve unpinned
//! requests through; and [`pool`]: the persistent scoped worker pool every
//! data-parallel loop in the workspace (threaded GEMM, batched
//! convolution, the query service) spawns onto instead of creating OS
//! threads per call.
//!
//! [`checked`] hosts the kernel invariant assertions: statements the
//! workspace's unsafe SIMD kernels make before every raw pointer
//! operation, asserted in debug builds and compiled out of release ones.
//!
//! [`lock`] is the workspace's one poison-tolerant mutex acquisition, and
//! [`Ranked`] the ranked mutex built on it: every lock of the serving stack
//! carries a rank from [`rank`], and debug builds check that each thread
//! takes them in ascending order.

pub mod checked;
pub mod pool;
mod ranked;
pub mod rng;
pub mod simd_policy;
pub mod stats;

pub use ranked::{rank, Ranked, RankedGuard};
pub use rng::{hash64, split_seed, DetRng};
pub use simd_policy::SimdTier;
pub use stats::{logistic, mean, normal_cdf, normal_quantile, percentile, std_dev, Summary};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock. A holder that panicked must not wedge every later
/// caller with a secondary panic: each critical section in the workspace
/// publishes fully formed values (or state its owner is about to discard),
/// so a poisoned guard still holds consistent state (SAFETY.md).
#[inline]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut r = DetRng::new(split_seed(42, 1));
        let x = r.normal(0.0, 1.0);
        assert!(x.is_finite());
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
    }
}
