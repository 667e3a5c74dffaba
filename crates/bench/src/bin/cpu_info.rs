//! CPU facts for CI logs.
//!
//! ```text
//! cpu_info            # parallelism, kernel tier ceiling, morsel fan-out
//!                     # width and MORSEL_ROWS
//! ```
//!
//! The 1-core CI step runs it under `taskset -c 0` so the log shows the
//! suite tested the inline path (one lane, zero pool workers).
//!
//! The forced-tier CI matrix runs this *before* its tests and asserts the
//! printed ceiling is the tier it asked for: the runtime only warns about
//! an unrecognised `TAHOMA_KERNEL_POLICY` (no panic on a hot path), so
//! this is where a typo fails — exit status 2 — instead of the job going
//! green having tested the default tier.

use tahoma_mathx::simd_policy::{SimdTier, TIER_ENV};
use tahoma_nn::{InferScratch, MORSEL_ROWS};

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!("available_parallelism: {cores}");
    let env = std::env::var(TIER_ENV).ok();
    if let Err(e) = SimdTier::parse_ceiling(env.as_deref()) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!(
        "kernel tier ceiling: {} (detected {}, env {})",
        SimdTier::ceiling().name(),
        SimdTier::detected().name(),
        env.as_deref().unwrap_or("unset")
    );
    println!(
        "morsel fan-out: {} lanes ({} pool workers + caller), MORSEL_ROWS {}",
        InferScratch::default().morsel_lanes(),
        tahoma_mathx::pool::workers(),
        MORSEL_ROWS
    );
}
