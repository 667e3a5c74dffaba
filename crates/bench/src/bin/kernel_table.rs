//! The kernel tier table: DESIGN.md §6's survival rule, computed.
//!
//! ```text
//! kernel_table        # no arguments; a few seconds in release
//! ```
//!
//! For every op in `tahoma_bench::kernel_table::OPS`, the tiers this CPU
//! runs take turns in each of `ROUNDS` rounds (the starting tier rotates),
//! so host drift hits every tier of an op alike. Each row prints the
//! tier's median µs per call, its speedup over the next-narrower runnable
//! tier of the same op, and whether that speedup clears the 10% margin.

use std::time::{Duration, Instant};
use tahoma_bench::kernel_table::{Workload, OPS};
use tahoma_bench::Table;
use tahoma_mathx::SimdTier;

/// Timed rounds per op; each tier of the op takes one sample per round.
const ROUNDS: usize = 21;
/// Target length of one sample.
const SAMPLE: Duration = Duration::from_millis(10);
/// A wider tier survives only above this speedup over the next-narrower.
const MARGIN: f64 = 1.10;

/// Calls per sample: enough calls to fill `SAMPLE`, judged from a warm-up
/// of the same length.
fn calls_per_sample(work: &mut Workload) -> u32 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < SAMPLE {
        work();
        calls += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / f64::from(calls);
    (SAMPLE.as_secs_f64() / per_call).ceil().max(1.0) as u32
}

/// µs per call over one sample of `calls` calls.
fn sample_us(work: &mut Workload, calls: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        work();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    println!(
        "kernel tier table: detected {}, {ROUNDS} interleaved rounds of {} ms samples",
        SimdTier::detected().name(),
        SAMPLE.as_millis()
    );
    let mut table = Table::new(vec!["op", "tier", "median us", "vs narrower", "verdict"]);
    for op in OPS {
        let tiers = SimdTier::runnable(op.tiers);
        let mut work: Vec<Workload> = tiers.iter().map(|&t| (op.build)(t)).collect();
        let calls: Vec<u32> = work.iter_mut().map(calls_per_sample).collect();
        let mut samples = vec![Vec::with_capacity(ROUNDS); tiers.len()];
        for round in 0..ROUNDS {
            for turn in 0..tiers.len() {
                let i = (round + turn) % tiers.len();
                samples[i].push(sample_us(&mut work[i], calls[i]));
            }
        }
        let medians: Vec<f64> = samples.into_iter().map(median).collect();
        for (i, tier) in tiers.iter().enumerate() {
            let (ratio, verdict) = match i.checked_sub(1) {
                None => ("-".to_string(), "baseline"),
                Some(narrower) => {
                    let speedup = medians[narrower] / medians[i];
                    let verdict = if speedup > MARGIN {
                        "stays (> 10%)"
                    } else {
                        "<= 10%: deletion candidate"
                    };
                    (format!("{speedup:.2}x"), verdict)
                }
            };
            table.row(vec![
                op.name.to_string(),
                tier.name().to_string(),
                format!("{:.2}", medians[i]),
                ratio,
                verdict.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
}
