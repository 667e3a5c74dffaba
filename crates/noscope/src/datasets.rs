//! The two public NoScope video datasets, reconstructed synthetically
//! (DESIGN.md §2.5).

use tahoma_imagery::ObjectKind;
use tahoma_video::StreamConfig;
use tahoma_zoo::PredicateSpec;

/// A video dataset: stream dynamics plus task hardness.
#[derive(Debug, Clone)]
pub struct VideoDataset {
    /// Stream generator configuration.
    pub stream: StreamConfig,
    /// Predicate hardness driving the surrogate classifiers on this stream.
    pub pred: PredicateSpec,
    /// Total frames before frame skipping.
    pub n_frames: usize,
    /// Difference-detector MSE threshold.
    pub dd_threshold: f64,
}

impl VideoDataset {
    /// The `coral` dataset: an easy, slow-changing reef camera. NoScope
    /// reported high difference-detector reuse (25.2%) and high throughput.
    pub fn coral(seed: u64, n_frames: usize) -> VideoDataset {
        VideoDataset {
            stream: StreamConfig::coral(seed),
            pred: PredicateSpec {
                kind: ObjectKind::Coho,
                // An easy task: NoScope's own specialized model rarely
                // falls through to YOLOv2 on coral (its 3,494 fps implies
                // near-zero fallthrough).
                d_max: 6.0,
            },
            n_frames,
            dd_threshold: 2.6e-4,
        }
    }

    /// The `jackson` dataset: a busy intersection. Low reuse (3.8%), a hard
    /// task that forces NoScope to call YOLOv2 often (footnote 2).
    pub fn jackson(seed: u64, n_frames: usize) -> VideoDataset {
        VideoDataset {
            stream: StreamConfig::jackson(seed),
            pred: PredicateSpec {
                kind: ObjectKind::Wallet,
                // Hard enough that a single fixed specialized model is
                // uncertain on a sizable fraction of frames (NoScope's 260
                // fps implies ~25% YOLOv2 fallthrough).
                d_max: 4.2,
            },
            n_frames,
            dd_threshold: 6.3e-4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::TranscodeEngine;
    use tahoma_video::{Frame, StreamIngest, VideoStream};

    #[test]
    fn coral_is_easier_than_jackson() {
        let c = VideoDataset::coral(1, 100);
        let j = VideoDataset::jackson(1, 100);
        assert!(c.pred.d_max > j.pred.d_max);
        assert!(c.stream.drift < j.stream.drift);
    }

    #[test]
    fn rendered_frames_carry_stream_labels_and_real_thumbs() {
        let ds = VideoDataset::coral(11, 40);
        let mut engine = TranscodeEngine::new();
        // A stream's live feed renders the dataset's frames: the stream
        // decides each label, the planted-object renderer the pixels.
        let frames: Vec<Frame> = StreamIngest::new(ds.stream.clone(), ds.pred.kind, 32, 0)
            .take_ingest(40, &mut engine)
            .into_iter()
            .map(|f| f.frame)
            .collect();
        assert_eq!(frames.len(), 40);
        // Labels match the underlying stream dynamics.
        let reference = VideoStream::new(ds.stream.clone()).take_frames(40);
        for (f, r) in frames.iter().zip(&reference) {
            assert_eq!(f.label, r.label);
            assert_eq!(f.thumb.len(), ds.stream.thumb_side * ds.stream.thumb_side);
            assert!(f.thumb.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // Rendered thumbnails reflect content, not a constant fill.
        let spread = frames
            .iter()
            .map(|f| {
                let mean = f.thumb.iter().sum::<f32>() / f.thumb.len() as f32;
                f.thumb.iter().map(|v| (v - mean).abs()).sum::<f32>() / f.thumb.len() as f32
            })
            .sum::<f32>()
            / frames.len() as f32;
        assert!(spread > 1e-3, "thumbnails look constant: {spread}");
        // The batched DD runner agrees with the sequential one on real
        // imagery-backed frames too.
        struct Oracle;
        impl crate::runner::FrameClassifier for Oracle {
            fn classify(&self, frame: &Frame) -> (bool, f64) {
                (frame.label, 1e-3)
            }
            fn name(&self) -> &str {
                "oracle"
            }
        }
        let mut dd_seq = tahoma_video::DifferenceDetector::new(ds.dd_threshold);
        let seq = crate::runner::run_with_dd(
            &frames,
            tahoma_video::FrameSkipper { stride: 1 },
            &mut dd_seq,
            &Oracle,
        );
        let mut dd_bat = tahoma_video::DifferenceDetector::new(ds.dd_threshold);
        let bat = crate::runner::run_with_dd_batched(
            &frames,
            tahoma_video::FrameSkipper { stride: 1 },
            &mut dd_bat,
            &Oracle,
        );
        assert_eq!(seq.frames, bat.frames);
        assert_eq!(seq.processed, bat.processed);
        assert_eq!(seq.accuracy, bat.accuracy);
    }
}
