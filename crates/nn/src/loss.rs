//! Binary cross-entropy on logits — the training objective for the paper's
//! sigmoid-output binary classifiers, in the numerically stable "with
//! logits" formulation.

use tahoma_mathx::logistic;

/// BCE loss for a single logit `z` against target `y` in {0, 1}:
/// `max(z, 0) - z*y + ln(1 + exp(-|z|))`.
pub fn bce_with_logits(z: f32, y: bool) -> f32 {
    let z = z as f64;
    let t = if y { 1.0 } else { 0.0 };
    (z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln()) as f32
}

/// Gradient of [`bce_with_logits`] with respect to the logit:
/// `sigmoid(z) - y`.
pub fn bce_with_logits_grad(z: f32, y: bool) -> f32 {
    (logistic(z as f64) - if y { 1.0 } else { 0.0 }) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_low_for_confident_correct() {
        assert!(bce_with_logits(8.0, true) < 0.01);
        assert!(bce_with_logits(-8.0, false) < 0.01);
    }

    #[test]
    fn loss_is_high_for_confident_wrong() {
        assert!(bce_with_logits(8.0, false) > 5.0);
        assert!(bce_with_logits(-8.0, true) > 5.0);
    }

    #[test]
    fn loss_at_zero_logit_is_ln2() {
        let ln2 = std::f32::consts::LN_2;
        assert!((bce_with_logits(0.0, true) - ln2).abs() < 1e-6);
        assert!((bce_with_logits(0.0, false) - ln2).abs() < 1e-6);
    }

    #[test]
    fn grad_matches_finite_difference() {
        for &z in &[-3.0f32, -0.5, 0.0, 0.5, 3.0] {
            for &y in &[true, false] {
                let eps = 1e-3;
                let numeric =
                    (bce_with_logits(z + eps, y) - bce_with_logits(z - eps, y)) / (2.0 * eps);
                let analytic = bce_with_logits_grad(z, y);
                assert!(
                    (numeric - analytic).abs() < 1e-3,
                    "z={z} y={y}: numeric {numeric}, analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn stable_for_extreme_logits() {
        assert!(bce_with_logits(500.0, false).is_finite());
        assert!(bce_with_logits(-500.0, true).is_finite());
        assert!(bce_with_logits_grad(500.0, true).abs() < 1e-6);
    }
}
