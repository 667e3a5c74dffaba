//! The kernel invariant assertions (`tahoma_mathx::checked`) must be
//! bitwise-transparent: they only observe, never compute, so every kernel
//! produces identical bits in debug builds (checks on) and release builds
//! (checks compiled out).
//!
//! The proof is by reference equality in both profiles: these tests
//! compare each instrumented kernel against an independent scalar
//! reference to the bit, under both `cargo test` and `cargo test
//! --release`. The conv row sweep's ReLU and max-pool epilogues are
//! compared with the training layers to the bit in `tests/row_sweep.rs`,
//! and ReLU with its scalar select in `tahoma_nn::kernels`' unit tests.

use tahoma_mathx::DetRng;
use tahoma_nn::gemm::{conv2d_forward, gemm, GemmScratch, Trans};

fn fill(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.normal(0.0, 1.0) as f32).collect()
}

/// Naive triple loop, same `mul_add` chain per output element as the
/// kernels' per-element reduction order.
fn gemm_reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

#[test]
fn gemm_matches_reference_under_audit_config() {
    let mut rng = DetRng::new(7);
    // Shapes spanning the direct path (small k), the blocked path (large
    // k), and ragged tails.
    for &(m, n, k) in &[(3, 5, 4), (6, 33, 12), (13, 130, 40), (7, 64, 200)] {
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let mut c = vec![0.0f32; m * n];
        let mut want = c.clone();
        gemm_reference(m, n, k, &a, &b, &mut want);
        let mut scratch = GemmScratch::default();
        gemm(&mut scratch, m, n, k, &a, Trans::N, &b, Trans::N, &mut c);
        assert_eq!(c, want, "gemm {m}x{n}x{k} diverged from reference");
    }
}

#[test]
fn conv_matches_direct_gemm_under_audit_config() {
    let mut rng = DetRng::new(11);
    let (c_in, h, w, kk, out_c) = (2, 9, 9, 3, 4);
    let hw = h * w;
    let k_total = c_in * kk * kk;
    let input = fill(&mut rng, c_in * hw);
    let weights = fill(&mut rng, out_c * k_total);
    let bias = fill(&mut rng, out_c);
    let mut out = vec![0.0f32; out_c * hw];
    let mut scratch = GemmScratch::default();
    conv2d_forward(
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
    // Reference: materialize the zero-padded patch matrix and multiply.
    let pad = kk / 2;
    let mut col = vec![0.0f32; k_total * hw];
    for ci in 0..c_in {
        for ky in 0..kk {
            for kx in 0..kk {
                let row = (ci * kk + ky) * kk + kx;
                for y in 0..h {
                    for x in 0..w {
                        let (sy, sx) = (y + ky, x + kx);
                        col[row * hw + y * w + x] =
                            if sy >= pad && sy < h + pad && sx >= pad && sx < w + pad {
                                input[ci * hw + (sy - pad) * w + sx - pad]
                            } else {
                                0.0
                            };
                    }
                }
            }
        }
    }
    // The bias is fused as a write-only epilogue (`bias + sum`, with the
    // fma chain seeded from zero), so the reference must add it last.
    let mut want = vec![0.0f32; out_c * hw];
    gemm_reference(out_c, hw, k_total, &weights, &col, &mut want);
    for (o, row) in want.chunks_exact_mut(hw).enumerate() {
        for v in row {
            *v += bias[o];
        }
    }
    assert_eq!(
        out, want,
        "conv diverged from materialized-im2col reference"
    );
}
