//! Model variants: the cross product of architectures and representations,
//! plus the reference deep models.

use crate::arch::ArchSpec;
use tahoma_costmodel::calibration;
use tahoma_costmodel::DeviceProfile;
use tahoma_imagery::Representation;

/// Index of a model within its repository. Dense and stable: specialized
/// models first (arch-major over the cross product), then references.
#[allow(clippy::disallowed_methods, reason = "total: no float fields")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u32);

impl ModelId {
    /// Usable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of classifier a variant is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// A specialized small CNN from the paper's design space.
    Cnn(ArchSpec),
    /// Fine-tuned ResNet50 (the paper's expensive image classifier).
    ResNet50,
    /// YOLOv2-class detector (terminal classifier in the NoScope study).
    YoloV2,
}

/// One classifier in the zoo: a kind plus the representation it consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelVariant {
    /// Repository index.
    pub id: ModelId,
    /// Architecture / reference kind.
    pub kind: ModelKind,
    /// Physical input representation.
    pub input: Representation,
}

impl ModelVariant {
    /// Inference FLOPs.
    pub fn flops(&self) -> u64 {
        match self.kind {
            ModelKind::Cnn(arch) => arch.flops(self.input),
            ModelKind::ResNet50 => calibration::RESNET50_FLOPS,
            ModelKind::YoloV2 => calibration::YOLOV2_FLOPS,
        }
    }

    /// Device-level inference seconds. Reference models with published
    /// measured throughput use their anchor instead of the generic FLOPs
    /// fit (YOLO's fused layers beat it).
    pub fn infer_s(&self, device: &DeviceProfile) -> f64 {
        match self.kind {
            ModelKind::YoloV2 => 1.0 / calibration::YOLOV2_MEASURED_FPS,
            _ => device.infer_time(self.flops(), self.input.value_count()),
        }
    }

    /// True for the expensive reference models.
    pub fn is_reference(&self) -> bool {
        !matches!(self.kind, ModelKind::Cnn(_))
    }

    /// Stable display tag, e.g. `"c1x16-d16@30x30-gray"` or `"resnet50"`.
    pub fn tag(&self) -> String {
        match self.kind {
            ModelKind::Cnn(arch) => format!("{}@{}", arch.tag(), self.input.tag()),
            ModelKind::ResNet50 => "resnet50".to_string(),
            ModelKind::YoloV2 => "yolov2".to_string(),
        }
    }
}

/// Build the paper's 360 specialized variants (arch-major order), with ids
/// starting at 0.
pub fn paper_variants() -> Vec<ModelVariant> {
    let mut out = Vec::with_capacity(360);
    let mut next = 0u32;
    for arch in ArchSpec::all_paper() {
        for input in Representation::paper_set() {
            out.push(ModelVariant {
                id: ModelId(next),
                kind: ModelKind::Cnn(arch),
                input,
            });
            next += 1;
        }
    }
    out
}

/// Build variants over arbitrary architecture / representation sets (used by
/// the transform-ablation experiment and the scaled-down real trainer).
pub fn cross_variants(archs: &[ArchSpec], inputs: &[Representation]) -> Vec<ModelVariant> {
    let mut out = Vec::with_capacity(archs.len() * inputs.len());
    let mut next = 0u32;
    for &arch in archs {
        for &input in inputs {
            out.push(ModelVariant {
                id: ModelId(next),
                kind: ModelKind::Cnn(arch),
                input,
            });
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::ColorMode;

    #[test]
    fn paper_space_has_360_models() {
        let vs = paper_variants();
        assert_eq!(vs.len(), 360);
        // ids are dense 0..360
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(v.id.index(), i);
        }
    }

    #[test]
    fn variants_are_unique() {
        let vs = paper_variants();
        let set: std::collections::HashSet<String> = vs.iter().map(|v| v.tag()).collect();
        assert_eq!(set.len(), 360);
    }

    #[test]
    fn resnet_anchor_throughput() {
        let dev = DeviceProfile::k80();
        let resnet = ModelVariant {
            id: ModelId(360),
            kind: ModelKind::ResNet50,
            input: Representation::full(),
        };
        let fps = 1.0 / resnet.infer_s(&dev);
        assert!((70.0..80.0).contains(&fps), "{fps}");
    }

    #[test]
    fn yolo_uses_measured_anchor() {
        let dev = DeviceProfile::k80();
        let yolo = ModelVariant {
            id: ModelId(361),
            kind: ModelKind::YoloV2,
            input: Representation::full(),
        };
        let fps = 1.0 / yolo.infer_s(&dev);
        assert!((66.0..68.0).contains(&fps), "{fps}");
    }

    #[test]
    fn smallest_variant_near_paper_ceiling() {
        let dev = DeviceProfile::k80();
        let vs = paper_variants();
        let fastest = vs
            .iter()
            .map(|v| 1.0 / v.infer_s(&dev))
            .fold(0.0f64, f64::max);
        assert!(
            (15_000.0..30_000.0).contains(&fastest),
            "fastest specialized model {fastest:.0} fps (paper ~20.9k)"
        );
    }

    #[test]
    fn full_res_models_are_ingest_bound() {
        // 224x224 RGB shallow models must sit well under the small-input
        // ceiling (this is what keeps the CAMERA frontier near the paper's
        // ~1.5k fps).
        let dev = DeviceProfile::k80();
        let v = ModelVariant {
            id: ModelId(0),
            kind: ModelKind::Cnn(ArchSpec {
                conv_layers: 1,
                conv_nodes: 16,
                dense_nodes: 16,
            }),
            input: Representation::new(224, ColorMode::Rgb),
        };
        let fps = 1.0 / v.infer_s(&dev);
        assert!(fps < 2_500.0, "full-res shallow model too fast: {fps:.0}");
    }

    #[test]
    fn cross_variants_respects_inputs() {
        let archs = [ArchSpec {
            conv_layers: 1,
            conv_nodes: 16,
            dense_nodes: 16,
        }];
        let inputs = [
            Representation::new(16, ColorMode::Gray),
            Representation::new(32, ColorMode::Rgb),
        ];
        let vs = cross_variants(&archs, &inputs);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[1].input.size, 32);
    }
}
