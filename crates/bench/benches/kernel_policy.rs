//! Criterion bench: every surviving (op, tier) kernel pair on its serving
//! shape — the measurement behind DESIGN.md's "Deletion ledger".
//!
//! One group, `kernel_class`, with one `kernel_class/<op>/<tier>` id per
//! op and per tier the op implements (and this CPU runs): the
//! machine-readable trend signal the CI bench-trend job archives
//! (`--json`), and the table to re-measure before adding a tier back. The
//! survival rule: a tier stays only if it beats the next-narrower
//! surviving tier of its op by > 10% here on measured hardware, or moves an
//! end-to-end metric of `benchmark/run.sh`.
//!
//! The workload shapes mirror the serving path (first-layer and deep-layer
//! convs, the post-pool dense matvec, 224px transform sweeps). Each
//! iteration runs tens of microseconds over pre-built state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tahoma_imagery::engine::{self, ResizePlan, TranscodeEngine};
use tahoma_imagery::{ColorMode, Image};
use tahoma_mathx::{DetRng, SimdTier};
use tahoma_nn::gemm::{self, GemmScratch};
use tahoma_nn::kernels;

/// One iteration of an op's workload on one tier.
type Workload = Box<dyn FnMut()>;

/// Ops with a single (portable) implementation still get an id, so the
/// baseline a future explicit tier must beat is on record.
const PORTABLE_ONLY: &[SimdTier] = &[SimdTier::Portable];

/// An op: its `kernel_class` name, the tiers it implements, and its
/// workload builder.
type Op = (&'static str, &'static [SimdTier], fn(SimdTier) -> Workload);

const OPS: &[Op] = &[
    ("gemm", gemm::TIERS, gemm_deep),
    ("gemm-wide-k", gemm::TIERS, gemm_wide_k),
    ("matvec", kernels::MATVEC_TIERS, matvec),
    ("relu", PORTABLE_ONLY, relu),
    ("pool", kernels::POOL_TIERS, pool),
    ("resize-h-gather", engine::TIERS, resize_h),
    ("resize-v", engine::TIERS, resize_v),
    ("luma", PORTABLE_ONLY, luma),
    ("standardize", engine::TIERS, standardize),
];

fn rng_for(tier: SimdTier) -> DetRng {
    DetRng::new(0x1E55 ^ tier.name().len() as u64)
}

fn rand_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect()
}

/// The deep-layer conv product: 16x900 against k = 144.
fn gemm_deep(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let (m, n, k) = (16usize, 900usize, 144usize);
    let a = rand_vec(&mut rng, m * k);
    let b = rand_vec(&mut rng, k * n);
    let mut c = vec![0.0f32; m * n];
    let mut scratch = GemmScratch::with_kernel(tier);
    scratch.threads = Some(1);
    Box::new(move || {
        c.fill(0.0);
        gemm::gemm_nn(&mut scratch, m, n, k, &a, &b, &mut c);
        black_box(c[0]);
    })
}

/// A first-layer conv: k_total = 27 <= SMALL_K_MAX, the shape where the
/// AVX-512 wide tile applies.
fn gemm_wide_k(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let (c_in, h, w, kk, out_c) = (3usize, 30usize, 30usize, 3usize, 16usize);
    let input = rand_vec(&mut rng, c_in * h * w);
    let weights = rand_vec(&mut rng, out_c * c_in * kk * kk);
    let bias = rand_vec(&mut rng, out_c);
    let mut out = vec![0.0f32; out_c * h * w];
    let mut scratch = GemmScratch::with_kernel(tier);
    scratch.threads = Some(1);
    Box::new(move || {
        gemm::conv2d_forward(
            &mut scratch,
            &input,
            c_in,
            h,
            w,
            kk,
            &weights,
            &bias,
            out_c,
            &mut out,
        );
        black_box(out[0]);
    })
}

/// The post-pool dense layer of the 30px family, batch 1, repeated to a
/// measurable duration.
fn matvec(tier: SimdTier) -> Workload {
    let mut rng = rng_for(tier);
    let (n_out, n_in) = (16usize, 3600usize);
    let weights = rand_vec(&mut rng, n_out * n_in);
    let bias = rand_vec(&mut rng, n_out);
    let x = rand_vec(&mut rng, n_in);
    let mut out = vec![0.0f32; n_out];
    Box::new(move || {
        for _ in 0..16 {
            kernels::matvec(Some(tier), &weights, &bias, &x, &mut out);
            black_box(out[0]);
        }
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

/// 16 channel planes of the serving shape (30x30 -> 15x15): narrow rows,
/// so the deinterleave overhead the vector tier pays is measured, not
/// hidden by a wide-plane workload.
fn pool(tier: SimdTier) -> Workload {
    let (h, w) = (30usize, 30usize);
    let planes = rand_vec(&mut rng_for(tier), 16 * h * w);
    let mut out = vec![0.0f32; (h / 2) * (w / 2)];
    Box::new(move || {
        for plane in planes.chunks_exact(h * w) {
            kernels::maxpool2_plane(Some(tier), plane, h, w, &mut out);
            black_box(out[0]);
        }
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

fn bench_kernel_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_class");
    for &(op, tiers, build) in OPS {
        for tier in SimdTier::runnable(tiers) {
            let mut work = build(tier);
            group.bench_with_input(BenchmarkId::new(op, tier.name()), &tier, |b, _| {
                b.iter(&mut work)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_classes);
criterion_main!(benches);
