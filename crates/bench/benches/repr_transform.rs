//! Criterion bench: the SIMD transcode engine vs the seed scalar pipeline.
//!
//! Per-kernel numbers for the three per-frame sweeps (separable resize,
//! RGB→gray luma, standardize) across every tier the host supports, plus
//! the end-to-end number the ONGOING scenario lives on: materializing the
//! full 20-representation `paper_set()` from one RGB frame (120px — the
//! reduced-scale serving shape — and 224px, the paper's full size),
//! scalar-reference loop vs lattice-planned engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tahoma_imagery::engine::{TranscodeEngine, TranscodePlan, TIERS};
use tahoma_imagery::repr::apply_reference;
use tahoma_imagery::transform::{resize_bilinear_reference, standardize};
use tahoma_imagery::{ColorMode, Image, Representation};
use tahoma_mathx::SimdTier;

fn frame(size: usize) -> Image {
    Image::from_fn(size, size, ColorMode::Rgb, |c, y, x| {
        ((c * 13 + y * 7 + x * 3) % 17) as f32 / 17.0
    })
    .unwrap()
}

/// Per-kernel-tier resize: 224px gray plane to 120px and 30px.
fn bench_resize_kernels(c: &mut Criterion) {
    let src = frame(224);
    let gray = Representation::new(224, ColorMode::Gray)
        .apply(&src)
        .unwrap();
    let mut group = c.benchmark_group("resize_224gray");
    for out in [120usize, 30] {
        group.bench_with_input(BenchmarkId::new("scalar_ref", out), &out, |b, &out| {
            b.iter(|| black_box(resize_bilinear_reference(&gray, out, out).unwrap()))
        });
        for kernel in SimdTier::runnable(TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            group.bench_with_input(BenchmarkId::new(kernel.name(), out), &out, |b, &out| {
                b.iter(|| black_box(e.resize_bilinear(&gray, out, out).unwrap()))
            });
        }
        // The unpinned engine: the widest implemented tier, so this line
        // must track the avx2 line above wherever AVX2 exists.
        let mut e = TranscodeEngine::new();
        group.bench_with_input(BenchmarkId::new("auto_policy", out), &out, |b, &out| {
            b.iter(|| black_box(e.resize_bilinear(&gray, out, out).unwrap()))
        });
    }
    group.finish();
}

/// The luma reduction, and per-kernel-tier standardize, on a 224px frame.
fn bench_sweep_kernels(c: &mut Criterion) {
    let src = frame(224);
    let gray_rep = Representation::new(224, ColorMode::Gray);
    let mut group = c.benchmark_group("sweeps_224");
    group.bench_function("luma/scalar_ref", |b| {
        b.iter(|| {
            black_box(
                tahoma_imagery::transform::convert_mode_reference(&src, ColorMode::Gray).unwrap(),
            )
        })
    });
    // Luma has one (portable) implementation; the engine adds pooling.
    let mut e = TranscodeEngine::new();
    group.bench_function("luma/portable", |b| {
        b.iter(|| black_box(e.apply(&src, gray_rep).unwrap()))
    });
    for kernel in SimdTier::runnable(TIERS) {
        let mut e = TranscodeEngine::with_kernel(kernel);
        group.bench_function(format!("standardize/{}", kernel.name()), |b| {
            b.iter(|| black_box(e.standardize(&src)))
        });
    }
    group.bench_function("standardize/thread_local_auto", |b| {
        b.iter(|| black_box(standardize(&src)))
    });
    group.finish();
}

/// End-to-end: the full paper_set materialized from one RGB frame.
fn bench_paper_set(c: &mut Criterion) {
    let reps = Representation::paper_set();
    let mut group = c.benchmark_group("paper_set_materialize");
    for src_size in [120usize, 224] {
        let src = frame(src_size);
        group.bench_with_input(BenchmarkId::new("scalar_ref", src_size), &src, |b, src| {
            b.iter(|| {
                for &rep in &reps {
                    black_box(apply_reference(src, rep).unwrap());
                }
            })
        });
        for kernel in SimdTier::runnable(TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            let plan = TranscodePlan::new(src_size, src_size, &reps);
            group.bench_with_input(
                BenchmarkId::new(format!("engine_{}", kernel.name()), src_size),
                &src,
                |b, src| b.iter(|| black_box(e.apply_planned(src, &plan).unwrap())),
            );
        }
        // The unplanned engine path (per-rep apply): isolates the lattice's
        // contribution from the kernels'.
        let mut e = TranscodeEngine::new();
        group.bench_with_input(
            BenchmarkId::new("engine_auto_unplanned", src_size),
            &src,
            |b, src| {
                b.iter(|| {
                    for &rep in &reps {
                        black_box(e.apply(src, rep).unwrap());
                    }
                })
            },
        );
        // Steady-state serving: outputs recycled after each frame, so the
        // whole set materializes with zero large allocations.
        let mut e = TranscodeEngine::new();
        let plan = TranscodePlan::new(src_size, src_size, &reps);
        group.bench_with_input(
            BenchmarkId::new("engine_auto_recycled", src_size),
            &src,
            |b, src| {
                b.iter(|| {
                    let v = e.apply_planned(src, &plan).unwrap();
                    black_box(&v);
                    e.recycle(v);
                })
            },
        );
    }
    group.finish();
}

/// End-to-end ONGOING ingest: paper_set materialization + raw encoding per
/// frame through the representation store.
fn bench_store_ingest(c: &mut Criterion) {
    let src = frame(224);
    let mut group = c.benchmark_group("store_ingest_paper_set");
    group.bench_function("engine", |b| {
        let store =
            tahoma_imagery::RepresentationStore::temporary(Representation::paper_set()).unwrap();
        // Constant id: each iteration appends the same records again (the
        // index keeps the last), so the loop measures steady-state ingest
        // and the index does not grow.
        b.iter(|| store.ingest(7, &src).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_resize_kernels,
    bench_sweep_kernels,
    bench_paper_set,
    bench_store_ingest
);
criterion_main!(benches);
