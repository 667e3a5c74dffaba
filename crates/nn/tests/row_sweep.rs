//! The conv row sweep against the training layers, bit for bit.
//!
//! Each of the sweep's three epilogues is compared, on every runnable
//! tier, with what training computes unfused: `im2col` + `gemm_nn_bias`,
//! then the `Relu` layer, then `MaxPool2::forward_batch`. Shapes cover
//! every height and width from 1 to 34 and 47, 60, 64 and 120 (odd sizes
//! make the pool drop a last row and column), every `c_in` in
//! {1, 3, 8, 16} with every `out_c` in {1, 5, 8, 9, 16, 32}, and inputs
//! carry NaN, ±∞ and `-0.0`, with one filter whose sums round to `-0.0`.
//! One scratch per tier runs every shape, in both orders.

use tahoma_mathx::{DetRng, SimdTier};
use tahoma_nn::gemm::{self, ConvEpilogue, GemmScratch, PackedA};
use tahoma_nn::{Layer, MaxPool2, Relu, Shape};

const EPILOGUES: [ConvEpilogue; 3] = [
    ConvEpilogue::Bias,
    ConvEpilogue::Relu,
    ConvEpilogue::ReluPool,
];

/// One conv shape with its operands and the training layers' outputs,
/// one per epilogue.
struct Case {
    c_in: usize,
    h: usize,
    w: usize,
    input: Vec<f32>,
    filter: PackedA,
    bias: Vec<f32>,
    want: [Vec<f32>; 3],
}

fn case(i: usize, sides: &[usize]) -> Case {
    let (w, h) = (sides[i], sides[(11 * i + 5) % sides.len()]);
    let c_in = [1, 3, 8, 16][i % 4];
    let out_c = [1, 5, 8, 9, 16, 32][(i / 4) % 6];
    let (kk, k_total, hw) = (3, c_in * 9, h * w);
    let mut rng = DetRng::new(0x5EED + i as u64);
    let mut input: Vec<f32> = match i % 3 {
        // Taps of 1e-30 under weights of 1e-30 round to -0.0 under fma.
        0 => vec![-1e-30; c_in * hw],
        _ => (0..c_in * hw)
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect(),
    };
    let len = input.len();
    for (at, v) in [
        (len / 3, f32::NAN),
        (len / 2, f32::INFINITY),
        (2 * len / 3, f32::NEG_INFINITY),
        (len - 1, -0.0),
    ] {
        input[at] = v;
    }
    let mut weights: Vec<f32> = (0..out_c * k_total)
        .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
        .collect();
    weights[..k_total].fill(1e-30);
    let mut bias: Vec<f32> = (0..out_c)
        .map(|_| rng.uniform_in(-0.5, 0.5) as f32)
        .collect();
    bias[0] = -0.0;

    let mut col = Vec::new();
    gemm::im2col(&input, c_in, h, w, kk, &mut col);
    let mut plain = vec![0.0f32; out_c * hw];
    gemm::gemm_nn_bias(
        &mut GemmScratch::default(),
        out_c,
        hw,
        k_total,
        &weights,
        &col,
        &bias,
        &mut plain,
    );
    let shape = Shape::new(out_c, h, w);
    let mut relu = Vec::new();
    Relu::new(shape).forward_batch(&plain, 1, &mut relu);
    let mut pooled = Vec::new();
    if h >= 2 && w >= 2 {
        MaxPool2::new(shape).forward_batch(&relu, 1, &mut pooled);
    }
    Case {
        c_in,
        h,
        w,
        input,
        filter: PackedA::new(&weights, out_c, k_total),
        bias,
        want: [plain, relu, pooled],
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn row_sweep_matches_training_layers_bitwise() {
    let sides: Vec<usize> = (1..=34).chain([47, 60, 64, 120]).collect();
    let cases: Vec<Case> = (0..sides.len()).map(|i| case(i, &sides)).collect();
    let negative_zero = cases
        .iter()
        .any(|c| c.want[0].iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));
    assert!(negative_zero, "no sum rounded to -0.0");
    for kernel in SimdTier::runnable(gemm::TIERS) {
        let mut scratch = GemmScratch::with_kernel(kernel);
        for c in cases.iter().chain(cases.iter().rev()) {
            for (epilogue, want) in EPILOGUES.iter().zip(&c.want) {
                let mut got = vec![f32::NAN; want.len()];
                gemm::conv2d_forward_packed(
                    &mut scratch,
                    &c.input,
                    c.c_in,
                    c.h,
                    c.w,
                    3,
                    &c.filter,
                    &c.bias,
                    *epilogue,
                    &mut got,
                );
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "tier {} {epilogue:?} c{} {}x{} out{}",
                    kernel.name(),
                    c.c_in,
                    c.h,
                    c.w,
                    c.bias.len()
                );
            }
        }
    }
}
