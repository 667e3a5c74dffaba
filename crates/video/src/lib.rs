//! Video substrate: temporally coherent synthetic streams, frame skipping,
//! and the NoScope-style difference detector (paper §VII-C).
//!
//! The NoScope comparison needs video with the property that makes
//! difference detection useful: *temporal coherence* — object presence
//! persists across runs of frames, and consecutive frames look alike unless
//! the scene changes. [`stream::VideoStream`] generates such streams
//! deterministically (presence follows a two-state Markov chain; each frame
//! carries a small rendered thumbnail); [`diff::DifferenceDetector`]
//! replicates NoScope's mechanism of reusing the previous label when the
//! current frame is close enough to the last labeled one.

pub mod diff;
pub mod ingest;
pub mod skip;
pub mod stream;

pub use diff::DifferenceDetector;
pub use ingest::{IngestFrame, StreamIngest};
pub use skip::FrameSkipper;
pub use stream::{Frame, StreamConfig, VideoStream};
