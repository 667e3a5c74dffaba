//! The kernel workloads behind DESIGN.md §6's tier survival rule: one
//! workload per (op, tier) the op implements, on the op's serving shape.
//!
//! The `kernel_table` bin times every runnable (op, tier) pair and prints
//! each tier's ratio to the next-narrower runnable tier of its op. The rule:
//! a tier stays only if it beats that tier by > 10% on measured hardware,
//! or moves an end-to-end metric of `benchmark/run.sh`.
//!
//! The shapes mirror the serving path (a first-layer conv row sweep,
//! m0's dense head, 224px transform sweeps, one stored 32px row read into
//! an inference row). One call of a workload runs tens of
//! microseconds over pre-built state.

use std::hint::black_box;
use tahoma_imagery::engine::{self, ResizePlan, TranscodeEngine};
use tahoma_imagery::{ColorMode, Image};
use tahoma_mathx::{DetRng, SimdTier};
use tahoma_nn::gemm::{self, GemmScratch};
use tahoma_nn::{kernels, InferScratch, Layer, MaxPool2, Shape};

/// One call of an op's workload on one tier.
pub type Workload = Box<dyn FnMut()>;

/// An op: its name in the table, the tiers it implements, and its
/// workload builder.
pub struct Op {
    /// Row label.
    pub name: &'static str,
    /// Every tier the op's dispatcher lists.
    pub tiers: &'static [SimdTier],
    /// Builds the op's workload pinned to one tier.
    pub build: fn(SimdTier) -> Workload,
}

/// Ops with a single (portable) implementation still get a row, so the
/// number a future explicit tier must beat is printed beside the others.
const PORTABLE_ONLY: &[SimdTier] = &[SimdTier::Portable];

/// Every op in the table.
pub const OPS: &[Op] = &[
    Op {
        name: "dense-head",
        tiers: gemm::TIERS,
        build: dense_head,
    },
    Op {
        name: "gemm-wide-k",
        tiers: gemm::TIERS,
        build: gemm_wide_k,
    },
    Op {
        name: "relu",
        tiers: PORTABLE_ONLY,
        build: relu,
    },
    Op {
        name: "pool",
        tiers: PORTABLE_ONLY,
        build: pool,
    },
    Op {
        name: "resize-h-gather",
        tiers: engine::TIERS,
        build: resize_h,
    },
    Op {
        name: "resize-v",
        tiers: engine::TIERS,
        build: resize_v,
    },
    Op {
        name: "luma",
        tiers: PORTABLE_ONLY,
        build: luma,
    },
    Op {
        name: "standardize",
        tiers: engine::TIERS,
        build: standardize,
    },
    Op {
        name: "dequantize-standardize",
        tiers: engine::DEQUANTIZE_TIERS,
        build: dequantize_standardize,
    },
];

fn rng_for(tier: SimdTier) -> DetRng {
    DetRng::new(0x1E55 ^ tier.name().len() as u64)
}

fn rand_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect()
}

/// m0's served dense head: a 64-row morsel of 1152-float feature rows
/// against the 256-unit weight panels `Dense` packs once.
fn dense_head(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let (m, n, k) = (64usize, 256usize, 1152usize);
    let a = rand_vec(&mut rng, m * k);
    let packed = gemm::PackedB::new(&rand_vec(&mut rng, n * k), gemm::Trans::T, k, n);
    let mut c = vec![0.0f32; m * n];
    let mut scratch = GemmScratch::with_kernel(tier);
    Box::new(move || {
        c.fill(0.0);
        gemm::gemm_prepacked(&mut scratch, m, &a, &packed, &mut c);
        black_box(c[0]);
    })
}

/// A first-layer conv (k_total = 27, short enough that per-tile fixed
/// costs show) through the conv row sweep, bias epilogue, on a filter
/// packed once as `Conv2d` keeps it.
fn gemm_wide_k(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let (c_in, h, w, kk, out_c) = (3usize, 30usize, 30usize, 3usize, 16usize);
    let input = rand_vec(&mut rng, c_in * h * w);
    let k_total = c_in * kk * kk;
    let filter = gemm::PackedA::new(&rand_vec(&mut rng, out_c * k_total), out_c, k_total);
    let bias = rand_vec(&mut rng, out_c);
    let mut out = vec![0.0f32; out_c * h * w];
    let mut scratch = GemmScratch::with_kernel(tier);
    Box::new(move || {
        gemm::conv2d_forward_packed(
            &mut scratch,
            &input,
            c_in,
            h,
            w,
            kk,
            &filter,
            &bias,
            gemm::ConvEpilogue::Bias,
            &mut out,
        );
        black_box(out[0]);
    })
}

/// The dominant serving activation sweep (16ch x 30x30) — small enough
/// that per-sweep overheads are part of what is measured.
fn relu(tier: SimdTier) -> Workload {
    let src = rand_vec(&mut rng_for(tier), 16 * 30 * 30);
    let mut dst = vec![0.0f32; src.len()];
    Box::new(move || {
        for _ in 0..16 {
            kernels::relu(&src, &mut dst);
            black_box(dst[0]);
        }
    })
}

/// 16 channel planes of 30x30 -> 15x15 through `MaxPool2::infer_shared`,
/// the portable loop a pool no conv feeds runs (a served pool runs in the
/// conv epilogue, inside `gemm-wide-k`'s kind of sweep).
fn pool(_tier: SimdTier) -> Workload {
    let shape = Shape::new(16, 30, 30);
    let planes = rand_vec(&mut rng_for(SimdTier::Portable), shape.len());
    let pool = MaxPool2::new(shape);
    let (mut out, mut scratch) = (Vec::new(), InferScratch::default());
    Box::new(move || {
        pool.infer_shared(&planes, 1, &mut out, &mut scratch);
        black_box(out[0]);
    })
}

/// The horizontal half of the 224 -> 120 resize: every source row
/// gathered through the span tables once.
fn resize_h(tier: SimdTier) -> Workload {
    let plan = ResizePlan::new(224, 224, 120, 120);
    let src = rand_vec(&mut rng_for(tier), 224 * 224);
    let mut dst = vec![0.0f32; 120];
    Box::new(move || {
        for row in src.chunks_exact(224) {
            engine::hlerp_span(Some(tier), row, &plan, &mut dst);
        }
        black_box(dst[0]);
    })
}

/// The vertical half: 240 output-row lerps of 120-wide rows.
fn resize_v(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let top = rand_vec(&mut rng, 120);
    let bot = rand_vec(&mut rng, 120);
    let mut dst = vec![0.0f32; 120];
    Box::new(move || {
        for i in 0..240 {
            let w1 = (i % 7) as f32 / 7.0;
            engine::vlerp_rows(Some(tier), &top, &bot, 1.0 - w1, w1, &mut dst);
        }
        black_box(dst[0]);
    })
}

/// One full-frame 224px RGB -> gray reduction.
fn luma(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let r = rand_vec(&mut rng, 224 * 224);
    let g = rand_vec(&mut rng, 224 * 224);
    let b = rand_vec(&mut rng, 224 * 224);
    let mut dst = vec![0.0f32; 224 * 224];
    Box::new(move || {
        engine::luma_sweep(&r, &g, &b, &mut dst);
        black_box(dst[0]);
    })
}

/// Full-frame standardize (mean/variance reductions + normalize), with the
/// output buffer recycled so the sweeps are measured, not the allocator.
fn standardize(tier: SimdTier) -> Workload {
    let src = Image::from_fn(224, 224, ColorMode::Rgb, |c, y, x| {
        ((c * 13 + y * 7 + x * 3) % 17) as f32 / 17.0
    })
    .expect("valid frame");
    let mut engine = TranscodeEngine::with_kernel(tier);
    Box::new(move || {
        let img = engine.standardize(&src);
        black_box(img.data()[0]);
        engine.recycle([img]);
    })
}

/// One stored 32 px RGB row (m1's input) dequantized and standardized
/// straight into an inference row, the query path's fused read.
fn dequantize_standardize(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let samples: Vec<u8> = (0..32 * 32 * 3).map(|_| rng.index(256) as u8).collect();
    let mut row = vec![0.0f32; samples.len()];
    let engine = TranscodeEngine::with_kernel(tier);
    Box::new(move || {
        engine.standardize_stored(&samples, &mut row);
        black_box(row[0]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_runnable_workload_runs() {
        for op in OPS {
            for tier in SimdTier::runnable(op.tiers) {
                (op.build)(tier)();
            }
        }
    }

    #[test]
    fn every_dispatched_tier_has_a_row() {
        let dispatched = [gemm::TIERS, engine::TIERS, engine::DEQUANTIZE_TIERS];
        for &tier in dispatched.into_iter().flatten() {
            assert!(
                OPS.iter().any(|op| op.tiers.contains(&tier)),
                "no op lists tier {}",
                tier.name()
            );
        }
    }
}
