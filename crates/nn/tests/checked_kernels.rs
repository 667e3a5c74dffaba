//! The `checked-kernels` audit feature must be bitwise-transparent: the
//! invariant assertions only observe, never compute, so every kernel
//! produces identical bits with the feature on and off.
//!
//! The proof is by reference equality in both configurations: these tests
//! compare each instrumented kernel against an independent scalar
//! reference, and CI runs the full suite twice — once plain, once with
//! `--features checked-kernels`. A checked build that perturbed any result
//! would diverge from the reference and fail here.

use tahoma_mathx::DetRng;
use tahoma_nn::gemm::{conv2d_forward, gemm, GemmScratch, Trans};
use tahoma_nn::kernels::{matvec, maxpool2_plane, relu};

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
    // k), ragged tails, and the threaded column partition.
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

#[test]
fn layer_sweeps_match_reference_under_audit_config() {
    let mut rng = DetRng::new(23);
    // matvec
    let (n_out, n_in) = (7, 37);
    let weights = fill(&mut rng, n_out * n_in);
    let bias = fill(&mut rng, n_out);
    let x = fill(&mut rng, n_in);
    let mut out = vec![0.0f32; n_out];
    matvec(None, &weights, &bias, &x, &mut out);
    for o in 0..n_out {
        // Reference replays the lane accumulation + fixed fold the
        // dispatcher documents; equality must be exact.
        let row = &weights[o * n_in..(o + 1) * n_in];
        let mut lanes = [0.0f32; 16];
        for (i, (&wv, &xv)) in row.iter().zip(&x).enumerate() {
            lanes[i % 16] = wv.mul_add(xv, lanes[i % 16]);
        }
        let a = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        let b = ((lanes[8] + lanes[9]) + (lanes[10] + lanes[11]))
            + ((lanes[12] + lanes[13]) + (lanes[14] + lanes[15]));
        assert_eq!(out[o], bias[o] + (a + b), "matvec row {o}");
    }
    // relu
    let src = fill(&mut rng, 100);
    let mut dst = vec![0.0f32; 100];
    relu(&src, &mut dst);
    for (d, &s) in dst.iter().zip(&src) {
        assert_eq!(*d, if s > 0.0 { s } else { 0.0 });
    }
    // maxpool
    let (h, w) = (10, 14);
    let plane = fill(&mut rng, h * w);
    let mut pooled = vec![0.0f32; (h / 2) * (w / 2)];
    maxpool2_plane(None, &plane, h, w, &mut pooled);
    for oy in 0..h / 2 {
        for ox in 0..w / 2 {
            let mut best = f32::NEG_INFINITY;
            for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let v = plane[(2 * oy + dy) * w + 2 * ox + dx];
                if v > best {
                    best = v;
                }
            }
            assert_eq!(pooled[oy * (w / 2) + ox], best);
        }
    }
}

/// Guards the CI wiring itself: the audit job's `--features
/// checked-kernels` must actually reach this crate's dependency on
/// `tahoma-mathx`, and the plain job must not.
#[test]
fn audit_configuration_is_what_the_build_requested() {
    assert_eq!(
        tahoma_mathx::checked::active(),
        cfg!(feature = "checked-kernels")
    );
}
