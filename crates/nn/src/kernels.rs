//! The ReLU inference sweep. `Dense` runs the GEMM at every batch size
//! (`gemm::gemm_prepacked`), and a served conv applies its ReLU and 2x2
//! max-pool in the row sweep's epilogue (`gemm::ConvEpilogue`), so no
//! dense or pool kernel lives here; `MaxPool2::infer_shared` runs its own
//! portable loop for a pool no conv feeds.
//!
//! A SIMD tier exists only where it beats the next-narrower one on
//! measured hardware (DESIGN.md, "Deletion ledger"). **ReLU** is the
//! portable loop alone — the compiler's baseline vectorization of a
//! compare-and-select ties the explicit AVX2 kernel and beats the AVX-512
//! one, so there is nothing to dispatch. It is the strict select
//! `if x > 0.0 { x } else { 0.0 }` (the exact semantics of the training
//! path's mask): NaN and `-0.0` inputs map to `+0.0`.

/// `dst[i] = if src[i] > 0.0 { src[i] } else { 0.0 }` — the ReLU inference
/// sweep (NaN and `-0.0` both map to `+0.0`). One portable loop: no
/// explicit tier beats what the compiler makes of it.
pub fn relu(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "relu buffer length");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = if v > 0.0 { v } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_tiers_agree_and_handle_specials() {
        // One tier left, so "agree" is agreement with the defining select.
        let mut src: Vec<f32> = (-40..40).map(|i| i as f32 / 7.0).collect();
        src.extend([f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY]);
        let mut dst = vec![f32::NAN; src.len()];
        relu(&src, &mut dst);
        for (&s, &d) in src.iter().zip(&dst) {
            let want = if s > 0.0 { s } else { 0.0 };
            assert_eq!(d.to_bits(), want.to_bits(), "relu({s})");
        }
    }
}
