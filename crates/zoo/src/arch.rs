//! Architecture specifications **A** (paper §VII-A).
//!
//! The paper varies: conv layers in {1, 2, 4}, conv nodes per layer in
//! {16, 32}, dense nodes in {16, 32, 64} — 18 architectures.

use tahoma_imagery::Representation;
use tahoma_nn::{CnnSpec, Shape};

/// Paper values for the number of convolutional layers.
pub const PAPER_CONV_LAYERS: [usize; 3] = [1, 2, 4];
/// Paper values for convolutional nodes per layer.
pub const PAPER_CONV_NODES: [usize; 2] = [16, 32];
/// Paper values for dense-layer nodes.
pub const PAPER_DENSE_NODES: [usize; 3] = [16, 32, 64];

/// One point in the architecture hyperparameter space.
#[allow(clippy::disallowed_methods, reason = "total: no float fields")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchSpec {
    /// Number of conv->relu->maxpool blocks.
    pub conv_layers: usize,
    /// Output channels of every conv layer.
    pub conv_nodes: usize,
    /// Units in the fully connected ReLU layer.
    pub dense_nodes: usize,
}

impl ArchSpec {
    /// The paper's 18 architectures, in deterministic order.
    pub fn all_paper() -> Vec<ArchSpec> {
        let mut out = Vec::with_capacity(18);
        for &conv_layers in &PAPER_CONV_LAYERS {
            for &conv_nodes in &PAPER_CONV_NODES {
                for &dense_nodes in &PAPER_DENSE_NODES {
                    out.push(ArchSpec {
                        conv_layers,
                        conv_nodes,
                        dense_nodes,
                    });
                }
            }
        }
        out
    }

    /// Stable identifier like `"c4x32-d64"`.
    pub fn tag(&self) -> String {
        format!(
            "c{}x{}-d{}",
            self.conv_layers, self.conv_nodes, self.dense_nodes
        )
    }

    /// Relative representational capacity used by the surrogate accuracy
    /// model: grows with depth fastest (each block both adds nonlinearity
    /// and doubles the receptive field), then width, then the dense head.
    /// Normalized so the smallest paper architecture scores 1.0.
    pub fn capacity_score(&self) -> f64 {
        (self.conv_layers as f64).powf(0.55)
            * (self.conv_nodes as f64 / 16.0).powf(0.30)
            * (self.dense_nodes as f64 / 16.0).powf(0.12)
    }

    /// The `tahoma-nn` spec for this architecture on a given input
    /// representation.
    pub fn cnn_spec(&self, input: Representation) -> CnnSpec {
        CnnSpec {
            input: Shape::new(input.mode.channels(), input.size, input.size),
            conv_channels: vec![self.conv_nodes; self.conv_layers],
            kernel: 3,
            dense_units: self.dense_nodes,
        }
    }

    /// Inference FLOPs on a given input (delegates to the `CnnSpec` FLOPs
    /// model, which is tested to agree with built networks).
    pub fn flops(&self, input: Representation) -> u64 {
        self.cnn_spec(input).flops()
    }
}

impl std::fmt::Display for ArchSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::ColorMode;

    #[test]
    fn eighteen_paper_architectures() {
        let all = ArchSpec::all_paper();
        assert_eq!(all.len(), 18);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 18);
    }

    #[test]
    fn capacity_is_monotone_in_each_axis() {
        let base = ArchSpec {
            conv_layers: 1,
            conv_nodes: 16,
            dense_nodes: 16,
        };
        assert!((base.capacity_score() - 1.0).abs() < 1e-12);
        let deeper = ArchSpec {
            conv_layers: 2,
            ..base
        };
        let wider = ArchSpec {
            conv_nodes: 32,
            ..base
        };
        let denser = ArchSpec {
            dense_nodes: 64,
            ..base
        };
        assert!(deeper.capacity_score() > base.capacity_score());
        assert!(wider.capacity_score() > base.capacity_score());
        assert!(denser.capacity_score() > base.capacity_score());
        // Depth matters more than width, width more than the dense head.
        assert!(deeper.capacity_score() > wider.capacity_score());
        assert!(wider.capacity_score() > denser.capacity_score());
    }

    #[test]
    fn flops_increase_with_input_size_and_depth() {
        let arch = ArchSpec {
            conv_layers: 2,
            conv_nodes: 16,
            dense_nodes: 32,
        };
        let small = arch.flops(Representation::new(30, ColorMode::Gray));
        let big = arch.flops(Representation::new(224, ColorMode::Rgb));
        assert!(big > small * 50, "{big} vs {small}");
        let deep = ArchSpec {
            conv_layers: 4,
            conv_nodes: 16,
            dense_nodes: 32,
        };
        assert!(
            deep.flops(Representation::new(60, ColorMode::Rgb))
                > arch.flops(Representation::new(60, ColorMode::Rgb))
        );
    }

    #[test]
    fn grayscale_deep_vs_color_shallow_tradeoff_exists() {
        // The paper's §I M1/M2 example: a deeper grayscale model can cost
        // fewer FLOPs than a shallower full-color one at the same size.
        let m1 = ArchSpec {
            conv_layers: 1,
            conv_nodes: 32,
            dense_nodes: 32,
        }; // color, shallow
        let m2 = ArchSpec {
            conv_layers: 2,
            conv_nodes: 16,
            dense_nodes: 32,
        }; // gray, deeper
        let f1 = m1.flops(Representation::new(120, ColorMode::Rgb));
        let f2 = m2.flops(Representation::new(120, ColorMode::Gray));
        assert!(
            f2 < f1,
            "gray-deep {f2} should cost less than color-shallow {f1}"
        );
    }

    #[test]
    fn cnn_spec_builds_across_the_design_space() {
        // Full 360-point weight initialization is exercised (in release) by
        // the trainer integration tests; here cover the extremes of both
        // axes, which is where pooling/shape bugs would appear.
        let small = Representation::new(30, ColorMode::Gray);
        for arch in ArchSpec::all_paper() {
            assert!(arch.cnn_spec(small).build(1).is_ok(), "{arch} on {small}");
        }
        let tiny_arch = ArchSpec {
            conv_layers: 4,
            conv_nodes: 16,
            dense_nodes: 16,
        };
        for rep in Representation::paper_set() {
            assert!(
                tiny_arch.cnn_spec(rep).build(1).is_ok(),
                "{tiny_arch} on {rep}"
            );
        }
    }

    #[test]
    fn tag_format() {
        let a = ArchSpec {
            conv_layers: 4,
            conv_nodes: 32,
            dense_nodes: 64,
        };
        assert_eq!(a.tag(), "c4x32-d64");
    }
}
