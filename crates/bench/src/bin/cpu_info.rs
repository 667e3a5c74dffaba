//! CPU facts for CI logs.
//!
//! ```text
//! cpu_info            # parallelism, kernel tier ceiling, morsel fan-out
//!                     # width, MORSEL_ROWS and how calls of a few sizes
//!                     # split into morsels on this machine
//! ```
//!
//! The 1-core CI step runs it under `taskset -c 0` so the log shows the
//! suite tested the inline path (one lane, zero pool workers): there no
//! call under `MORSEL_ROWS` rows splits, where two lanes split a 64-row
//! call into eight morsels of 8.
//!
//! The forced-tier CI matrix runs this *before* its tests and asserts the
//! printed ceiling is the tier it asked for: the runtime only warns about
//! an unrecognised `TAHOMA_KERNEL_POLICY` (no panic on a hot path), so
//! this is where a typo fails — exit status 2 — instead of the job going
//! green having tested the default tier.

use std::ops::Range;
use std::sync::Mutex;
use tahoma_mathx::simd_policy::{SimdTier, TIER_ENV};
use tahoma_nn::{CnnSpec, InferScratch, RowSource, Shape, MORSEL_ROWS};

/// Zero rows of a given count that record the row count of every pass
/// `Sequential::infer_rows` feeds: the morsels a call was cut into.
struct Recorder {
    rows: usize,
    passes: Mutex<Vec<usize>>,
}

impl RowSource for Recorder {
    type Error = std::convert::Infallible;

    fn rows(&self) -> usize {
        self.rows
    }

    fn row_len(&self) -> usize {
        16
    }

    fn visit_rows(
        &self,
        range: Range<usize>,
        buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), Self::Error> {
        self.passes.lock().unwrap().push(range.len());
        buf.fill(0.0);
        range.for_each(|_| visit(buf));
        Ok(())
    }
}

/// How a call of `rows` rows runs on a default scratch, e.g. "1 pass" or
/// "8 morsels of 8".
fn split_of(rows: usize) -> String {
    let spec = CnnSpec {
        input: Shape::new(1, 4, 4),
        conv_channels: vec![1],
        kernel: 3,
        dense_units: 2,
    };
    let model = spec.build(1).expect("valid spec");
    let source = Recorder {
        rows,
        passes: Mutex::default(),
    };
    model
        .infer_rows(&source, &mut InferScratch::default())
        .unwrap_or_else(|never| match never {});
    // Every morsel but a ragged last one has the same size.
    let mut passes = source.passes.into_inner().unwrap();
    passes.sort_unstable_by(|a, b| b.cmp(a));
    let (first, last) = (passes[0], passes[passes.len() - 1]);
    match passes.len() {
        1 => "1 pass".to_string(),
        n if first == last => format!("{n} morsels of {first}"),
        n => format!("{n} morsels of {first}, the last {last}"),
    }
}

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
    for rows in [16, 32, 64, 85, 127, 128, 2048] {
        println!("split rule: {rows}-row call -> {}", split_of(rows));
    }
}
