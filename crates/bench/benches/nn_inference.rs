//! Criterion bench: real CNN inference across the architecture axis.
//!
//! Views of the hot path (the non-GEMM layer sweeps are measured per tier
//! in `benches/kernel_policy.rs`):
//! * `conv_forward`: a single convolution layer, scalar reference loop vs
//!   the im2col+GEMM inference forward (`infer_shared`) at batch 1 — the
//!   kernel-level speedup;
//! * `conv_forward_batch`: the GEMM conv's inference forward
//!   (`infer_shared` on default scratch, images one after another) across
//!   batch sizes (per-image throughput must not degrade as the batch
//!   grows);
//! * `gemm_dispatch` / `conv_dispatch`: every runtime-dispatchable kernel
//!   tier pinned explicitly (portable / avx2 / avx512 / auto) so a tier
//!   regression shows as its own line — the explicit-SIMD tiers must beat
//!   the portable auto-vectorized kernel in the default (non-native)
//!   build, and `conv_dispatch` includes the small-k first-layer shape the
//!   AVX-512 wide tile targets;
//! * `nn_forward`: whole-model inference through `predict_proba_shared` on
//!   one default scratch, per image (`Dense` as a 1-row GEMM) vs 8/32-image
//!   minibatches; plus `morsel64`, one 64-row morsel of each of the serving
//!   fixture's two models on one-thread scratch — the unit of work a `scan`
//!   lane repeats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tahoma_imagery::{ColorMode, Representation};
use tahoma_mathx::SimdTier;
use tahoma_nn::gemm::{self, GemmScratch, Trans};
use tahoma_nn::{Conv2d, InferScratch, Layer, Shape, MORSEL_ROWS};
use tahoma_zoo::ArchSpec;

/// Conv layers representative of the paper family's hot spots: early layers
/// see few channels over many pixels, deep layers many channels over few.
fn conv_cases() -> Vec<(&'static str, Shape, usize)> {
    vec![
        ("3ch-30px-16f", Shape::new(3, 30, 30), 16),
        ("16ch-30px-16f", Shape::new(16, 30, 30), 16),
        ("3ch-120px-32f", Shape::new(3, 120, 120), 32),
        ("32ch-60px-32f", Shape::new(32, 60, 60), 32),
    ]
}

fn bench_conv_scalar_vs_gemm(c: &mut Criterion) {
    let mut rng = tahoma_mathx::DetRng::new(0xC0);
    let mut group = c.benchmark_group("conv_forward");
    for (name, shape, out_c) in conv_cases() {
        let mut conv = Conv2d::new(shape, out_c, 3, &mut rng);
        let mut scratch = InferScratch::default();
        let mut out = Vec::new();
        let input: Vec<f32> = (0..shape.len()).map(|i| (i % 97) as f32 / 97.0).collect();
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("scalar", name), &name, |b, _| {
            b.iter(|| black_box(conv.forward_scalar(black_box(&input))))
        });
        group.bench_with_input(BenchmarkId::new("gemm", name), &name, |b, _| {
            b.iter(|| {
                conv.infer_shared(black_box(&input), 1, &mut out, &mut scratch);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_conv_batch_sweep(c: &mut Criterion) {
    let mut rng = tahoma_mathx::DetRng::new(0xC1);
    let shape = Shape::new(16, 30, 30);
    let conv = Conv2d::new(shape, 16, 3, &mut rng);
    let mut scratch = InferScratch::default();
    let mut group = c.benchmark_group("conv_forward_batch/16ch-30px-16f");
    for batch in [1usize, 8, 32] {
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|i| (i % 89) as f32 / 89.0)
            .collect();
        let mut out = Vec::new();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                conv.infer_shared(black_box(&input), batch, &mut out, &mut scratch);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

/// Kernel tiers to sweep, as `(label, scratch)`: every runnable GEMM tier
/// pinned, plus the unpinned default `auto` (what production callers run).
fn kernel_cases() -> Vec<(&'static str, GemmScratch)> {
    let mut cases: Vec<_> = SimdTier::runnable(gemm::TIERS)
        .into_iter()
        .map(|tier| (tier.name(), GemmScratch::with_kernel(tier)))
        .collect();
    cases.push(("auto", GemmScratch::default()));
    cases
}

fn bench_gemm_dispatch(c: &mut Criterion) {
    let mut rng = tahoma_mathx::DetRng::new(0xD1);
    // A conv-shaped direct-path product and a fat packed-path product.
    let shapes = [
        ("16x900x144", 16usize, 900usize, 144usize),
        ("64x2048x256", 64, 2048, 256),
    ];
    let mut group = c.benchmark_group("gemm_dispatch");
    for (name, m, n, k) in shapes {
        let a: Vec<f32> = (0..m * k)
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let mut cbuf = vec![0.0f32; m * n];
        group.throughput(Throughput::Elements((2 * m * n * k) as u64));
        for (tier, mut scratch) in kernel_cases() {
            group.bench_with_input(BenchmarkId::new(tier, name), &name, |bch, _| {
                bch.iter(|| {
                    cbuf.fill(0.0);
                    gemm::gemm(
                        &mut scratch,
                        m,
                        n,
                        k,
                        black_box(&a),
                        Trans::N,
                        black_box(&b),
                        Trans::N,
                        &mut cbuf,
                    );
                    black_box(cbuf[0])
                })
            });
        }
    }
    group.finish();
}

fn bench_conv_dispatch(c: &mut Criterion) {
    let mut rng = tahoma_mathx::DetRng::new(0xD2);
    // 16ch is the deep-layer shape; 1ch/3ch are the short-k first-layer
    // shapes, where a row tile's fixed costs weigh most.
    let cases = [
        ("1ch-30px-16f", Shape::new(1, 30, 30), 16usize),
        ("3ch-30px-16f", Shape::new(3, 30, 30), 16),
        ("16ch-30px-16f", Shape::new(16, 30, 30), 16),
    ];
    let mut group = c.benchmark_group("conv_dispatch");
    for (name, shape, out_c) in cases {
        let k_total = shape.c * 9;
        let weights: Vec<f32> = (0..out_c * k_total)
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let bias: Vec<f32> = (0..out_c)
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let input: Vec<f32> = (0..shape.len()).map(|i| (i % 97) as f32 / 97.0).collect();
        let mut out = vec![0.0f32; out_c * shape.h * shape.w];
        group.throughput(Throughput::Elements(
            (2 * out_c * k_total * shape.h * shape.w) as u64,
        ));
        for (tier, mut scratch) in kernel_cases() {
            group.bench_with_input(BenchmarkId::new(tier, name), &name, |bch, _| {
                bch.iter(|| {
                    gemm::conv2d_forward(
                        &mut scratch,
                        black_box(&input),
                        shape.c,
                        shape.h,
                        shape.w,
                        3,
                        &weights,
                        &bias,
                        out_c,
                        &mut out,
                    );
                    black_box(out[0])
                })
            });
        }
    }
    group.finish();
}

fn bench_model_inference(c: &mut Criterion) {
    let cases = [
        (
            "c1x16-d16@30gray",
            ArchSpec {
                conv_layers: 1,
                conv_nodes: 16,
                dense_nodes: 16,
            },
            Representation::new(30, ColorMode::Gray),
        ),
        (
            "c2x16-d32@60rgb",
            ArchSpec {
                conv_layers: 2,
                conv_nodes: 16,
                dense_nodes: 32,
            },
            Representation::new(60, ColorMode::Rgb),
        ),
        (
            "c4x32-d64@120rgb",
            ArchSpec {
                conv_layers: 4,
                conv_nodes: 32,
                dense_nodes: 64,
            },
            Representation::new(120, ColorMode::Rgb),
        ),
    ];
    let mut group = c.benchmark_group("nn_forward");
    for (name, arch, rep) in cases {
        let model = arch.cnn_spec(rep).build(7).unwrap();
        let mut scratch = InferScratch::default();
        let input = vec![0.5f32; rep.value_count()];
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("single", name), &name, |b, _| {
            b.iter(|| black_box(model.predict_proba_shared(black_box(&input), 1, &mut scratch)))
        });
        for batch in [8usize, 32] {
            let batch_input: Vec<f32> = input
                .iter()
                .cycle()
                .take(batch * rep.value_count())
                .copied()
                .collect();
            group.throughput(Throughput::Elements(batch as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("batch{batch}"), name),
                &batch,
                |b, &batch| {
                    b.iter(|| {
                        black_box(model.predict_proba_shared(
                            black_box(&batch_input),
                            batch,
                            &mut scratch,
                        ))
                    })
                },
            );
        }
    }
    // The serving fixture's two architectures at the unit a `scan` lane
    // runs: one MORSEL_ROWS-row morsel, on the calling thread.
    let serving = [
        (
            "c1x8-d256@24gray",
            ArchSpec {
                conv_layers: 1,
                conv_nodes: 8,
                dense_nodes: 256,
            },
            Representation::new(24, ColorMode::Gray),
        ),
        (
            "c2x8-d320@32rgb",
            ArchSpec {
                conv_layers: 2,
                conv_nodes: 8,
                dense_nodes: 320,
            },
            Representation::new(32, ColorMode::Rgb),
        ),
    ];
    for (name, arch, rep) in serving {
        let model = arch.cnn_spec(rep).build(7).unwrap();
        let mut scratch = InferScratch::single_threaded();
        let rows = MORSEL_ROWS;
        let input: Vec<f32> = (0..rows * rep.value_count())
            .map(|i| (i % 101) as f32 / 101.0)
            .collect();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("morsel64", name), &name, |b, _| {
            b.iter(|| black_box(model.predict_proba_shared(black_box(&input), rows, &mut scratch)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conv_scalar_vs_gemm,
    bench_conv_batch_sweep,
    bench_gemm_dispatch,
    bench_conv_dispatch,
    bench_model_inference
);
criterion_main!(benches);
