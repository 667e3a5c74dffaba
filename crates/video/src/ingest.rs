//! Stream → ingest glue: turn a [`VideoStream`]'s abstract frames into
//! full raster images ready for representation-store ingest.
//!
//! [`VideoStream`] generates the *dynamics* of a camera feed (Markov
//! object presence, drifting background, difficulty walk) and a small DD
//! thumbnail per frame; the continuous-query pipeline additionally needs
//! each arriving frame as a full-resolution raster so the store can run
//! its lattice-planned transcode at ingest (the paper's §V ingest-time
//! materialization). [`StreamIngest`] composes the two deterministic
//! generators the same way `tahoma_noscope::datasets` does for its batch
//! datasets: the stream decides *whether* the object is present and how
//! hard the frame is, the scene renderer decides *what the pixels look
//! like* for that `(frame index, label)` pair — so replaying a stream
//! config reproduces the identical frame sequence, which is what makes
//! the streaming smoke test and benches assertable.
//!
//! Frames are numbered `id_base + idx` so several camera streams can
//! ingest into one shared store without id collisions (the serve layer
//! hands each registered stream a disjoint base).

use crate::stream::{Frame, StreamConfig, VideoStream};
use tahoma_imagery::engine::with_local_engine;
use tahoma_imagery::{Image, ObjectKind, SceneParams, SceneRenderer, TranscodeEngine};

/// Seed perturbation tying a stream's renderer to its config seed (same
/// constant as the NoScope datasets, so a `StreamIngest` over
/// `StreamConfig::coral(seed)` renders the exact frames the batch dataset
/// would).
const RENDER_SEED_XOR: u64 = 0xF8A3E;

/// One arriving frame, ready for ingest: the store-wide id, the stream
/// frame (label, difficulty, DD thumbnail), and the full raster.
#[derive(Debug, Clone)]
pub struct IngestFrame {
    /// Store-wide frame id (`id_base + frame.idx`).
    pub id: u64,
    /// The stream frame (ground-truth label, difficulty, thumbnail).
    pub frame: Frame,
    /// Full-resolution rendered raster (what the store materializes from).
    pub image: Image,
}

/// A live camera feed producing ingest-ready frames: a [`VideoStream`]
/// for dynamics plus a [`SceneRenderer`] for pixels.
#[derive(Debug, Clone)]
pub struct StreamIngest {
    stream: VideoStream,
    renderer: SceneRenderer,
    id_base: u64,
}

impl StreamIngest {
    /// Create a feed. `kind` is the object the scene renderer plants when
    /// the stream says the frame is positive; `scene_size` is the square
    /// raster side in pixels; `id_base` offsets frame ids so streams
    /// sharing a store stay disjoint.
    pub fn new(
        config: StreamConfig,
        kind: ObjectKind,
        scene_size: usize,
        id_base: u64,
    ) -> StreamIngest {
        let renderer = SceneRenderer::new(
            kind,
            SceneParams::small(scene_size),
            config.seed ^ RENDER_SEED_XOR,
        );
        StreamIngest {
            stream: VideoStream::new(config),
            renderer,
            id_base,
        }
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        self.stream.config()
    }

    /// The kind the renderer plants.
    pub fn kind(&self) -> ObjectKind {
        self.renderer.kind()
    }

    /// The id the next produced frame will get.
    pub fn next_id(&self) -> u64 {
        self.id_base + self.stream.position()
    }

    /// Produce the next arriving frame: [`StreamIngest::take_ingest`] of
    /// one.
    pub fn next_ingest(&mut self, engine: &mut TranscodeEngine) -> IngestFrame {
        self.take_ingest(1, engine)
            .pop()
            .expect("take_ingest(1) yields one frame")
    }

    /// Produce the next `n` arriving frames, in id order.
    ///
    /// The stream advances serially (its RNG is consumed in frame order),
    /// and each frame's raster renders on a `tahoma_mathx::pool` lane as
    /// soon as the stream has produced it: a render is a pure function of
    /// `(seed, idx, label)`, so the rasters are bitwise the ones a serial
    /// loop renders. The caller keeps advancing the stream while lanes
    /// render, then helps until every raster is in; thumbnails are built
    /// afterwards in id order through `engine` (pass the same engine across
    /// calls so the resize plan and buffer pool amortize — the rasters
    /// themselves are fresh allocations handed to the store).
    pub fn take_ingest(&mut self, n: usize, engine: &mut TranscodeEngine) -> Vec<IngestFrame> {
        let thumb_side = self.stream.config().thumb_side;
        self.render_on_lanes(n, |f, image| (f, image))
            .into_iter()
            .map(|(f, image)| Self::build_frame(self.id_base, f, image, thumb_side, engine))
            .collect()
    }

    /// [`StreamIngest::take_ingest`] with each frame's whole preparation on
    /// its lane: the render job also builds the frame's thumbnail and runs
    /// `per_frame` on it (e.g. the store's ingest preparation), both on the
    /// lane's own engine. Returns the frames in id order, each with its
    /// `per_frame` result; the frames are bitwise those of `take_ingest`.
    /// `per_frame` runs inside [`with_local_engine`], so it must use the
    /// engine it is handed rather than call that function again.
    pub fn take_ingest_with<T: Send>(
        &mut self,
        n: usize,
        per_frame: impl Fn(&IngestFrame, &mut TranscodeEngine) -> T + Sync,
    ) -> Vec<(IngestFrame, T)> {
        let thumb_side = self.stream.config().thumb_side;
        let id_base = self.id_base;
        self.render_on_lanes(n, |f, image| {
            with_local_engine(|engine| {
                let frame = Self::build_frame(id_base, f, image, thumb_side, engine);
                let extra = per_frame(&frame, engine);
                (frame, extra)
            })
        })
    }

    /// Advance the stream `n` frames and render each on a pool lane,
    /// running `job` on the stream frame and its raster there. Results come
    /// back in id order.
    fn render_on_lanes<T: Send>(
        &mut self,
        n: usize,
        job: impl Fn(Frame, Image) -> T + Sync,
    ) -> Vec<T> {
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let (stream, renderer, job) = (&mut self.stream, &self.renderer, &job);
        tahoma_mathx::pool::scope(|s| {
            for slot in out.iter_mut() {
                let f = stream.next_frame();
                s.spawn(move || {
                    let image = renderer.render(f.idx, f.label).0;
                    *slot = Some(job(f, image));
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("every spawned render ran"))
            .collect()
    }

    /// An ingest frame from a stream frame and its raster: the thumbnail is
    /// rebuilt from the raster through `engine`.
    fn build_frame(
        id_base: u64,
        f: Frame,
        image: Image,
        thumb_side: usize,
        engine: &mut TranscodeEngine,
    ) -> IngestFrame {
        let frame = Frame::from_image(f.idx, f.label, f.difficulty, &image, thumb_side, engine);
        IngestFrame {
            id: id_base + frame.idx,
            frame,
            image,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-at-a-time serial render `take_ingest` must reproduce: step
    /// the stream, render on this thread, thumbnail, id.
    fn serial_next(feed: &mut StreamIngest, engine: &mut TranscodeEngine) -> IngestFrame {
        let f = feed.stream.next_frame();
        let (image, _) = feed.renderer.render(f.idx, f.label);
        let thumb_side = feed.stream.config().thumb_side;
        let frame = Frame::from_image(f.idx, f.label, f.difficulty, &image, thumb_side, engine);
        IngestFrame {
            id: feed.id_base + frame.idx,
            frame,
            image,
        }
    }

    fn assert_same_frame(got: &IngestFrame, want: &IngestFrame, what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.id, want.id, "{what}: id");
        assert_eq!(got.frame.idx, want.frame.idx, "{what}: idx");
        assert_eq!(got.frame.label, want.frame.label, "{what}: label");
        assert_eq!(
            got.frame.difficulty.to_bits(),
            want.frame.difficulty.to_bits(),
            "{what}: difficulty"
        );
        assert_eq!(
            bits(&got.frame.thumb),
            bits(&want.frame.thumb),
            "{what}: thumb"
        );
        assert_eq!(
            (got.image.width(), got.image.height(), got.image.mode()),
            (want.image.width(), want.image.height(), want.image.mode()),
            "{what}: raster shape"
        );
        assert_eq!(
            bits(got.image.data()),
            bits(want.image.data()),
            "{what}: raster"
        );
    }

    #[test]
    fn take_ingest_equals_serial_render_for_every_batch_shape() {
        let feed = || StreamIngest::new(StreamConfig::jackson(11), ObjectKind::Fence, 32, 7 << 32);
        let mut engine = TranscodeEngine::new();
        let mut serial_engine = TranscodeEngine::new();
        for n in [1, 2, 15, 16, 17] {
            let mut batched = feed();
            let mut twin = feed();
            let got = batched.take_ingest(n, &mut engine);
            assert_eq!(got.len(), n);
            for (i, g) in got.iter().enumerate() {
                let want = serial_next(&mut twin, &mut serial_engine);
                assert_same_frame(g, &want, &format!("n={n} frame {i}"));
            }
            assert_eq!(batched.next_id(), twin.next_id(), "n={n}: stream position");
        }
        // One stream cut into uneven batches continues exactly where the
        // previous batch stopped.
        let mut batched = feed();
        let mut twin = feed();
        let mut pos = 0;
        for n in [5, 11, 16, 1] {
            for g in batched.take_ingest(n, &mut engine) {
                let want = serial_next(&mut twin, &mut serial_engine);
                assert_same_frame(&g, &want, &format!("uneven batch {n}, frame {pos}"));
                pos += 1;
            }
        }
        assert_eq!(pos, 33);
        assert!(batched.take_ingest(0, &mut engine).is_empty());
        assert_eq!(batched.next_id(), twin.next_id());
    }

    #[test]
    fn replay_is_deterministic_and_ids_offset() {
        let mut engine = TranscodeEngine::new();
        let mut a = StreamIngest::new(StreamConfig::coral(42), ObjectKind::Coho, 48, 0);
        let mut b = StreamIngest::new(StreamConfig::coral(42), ObjectKind::Coho, 48, 1 << 32);
        for i in 0..6u64 {
            let fa = a.next_ingest(&mut engine);
            let fb = b.next_ingest(&mut engine);
            assert_eq!(fa.id, i);
            assert_eq!(fb.id, (1u64 << 32) + i);
            assert_eq!(fa.frame.label, fb.frame.label);
            assert_eq!(fa.image.data(), fb.image.data(), "frame {i}");
        }
    }

    #[test]
    fn labels_match_stream_replay() {
        // The glue must not perturb the stream: labels equal a bare
        // VideoStream replay of the same config.
        let mut engine = TranscodeEngine::new();
        let mut fed = StreamIngest::new(StreamConfig::jackson(7), ObjectKind::Wallet, 32, 0);
        let mut bare = VideoStream::new(StreamConfig::jackson(7));
        for _ in 0..20 {
            let f = fed.next_ingest(&mut engine);
            let g = bare.next_frame();
            assert_eq!(f.frame.idx, g.idx);
            assert_eq!(f.frame.label, g.label);
        }
    }
}
