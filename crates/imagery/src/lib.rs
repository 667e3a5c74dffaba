//! Image substrate for the TAHOMA reproduction.
//!
//! TAHOMA's central idea is that the *physical representation* of a
//! classifier's input — its resolution and color depth — is part of the query
//! plan. This crate supplies everything the optimizer manipulates at the data
//! layer:
//!
//! * [`image::Image`] — planar `f32` rasters with [`color::ColorMode`]s
//!   (full RGB, single R/G/B channels, grayscale);
//! * [`transform`] — the input transformation functions **F** from §V-B of
//!   the paper: resolution scaling, channel extraction, grayscale reduction,
//!   plus flip augmentation and normalization;
//! * [`engine`] — the runtime-dispatched SIMD transcode engine behind those
//!   transforms (separable resize with cached span tables, AVX-512/AVX2
//!   kernels, reusable scratch) and the representation-lattice
//!   [`engine::TranscodePlan`] that shares work when one frame is
//!   materialized into many representations;
//! * [`repr::Representation`] — a (size, color-mode) pair, the unit the cost
//!   model and cascade evaluator reason about;
//! * [`codec`] — the raw planar storage encoding, so that load/decode
//!   costs in the ONGOING deployment scenario are grounded in real byte
//!   counts and real decode work;
//! * [`store`] — the representation store behind the ONGOING scenario's
//!   ingest-time materialization, always segment files: in a named
//!   directory a restart reopens, or temporary; the caller lists the
//!   representations every item materializes (the serving fixture lists
//!   its models' inputs and the source representation);
//! * [`segment`] — the store's substrate: item-id-sharded
//!   append-only segment files with CRC-framed records, positioned-read
//!   access, and crash recovery to the last complete record;
//! * [`synth`] — the synthetic planted-object corpus that substitutes for
//!   ImageNet categories (see DESIGN.md §2), and
//! * [`dataset`] — labeled datasets with the paper's train/config/eval split
//!   protocol and left-right flip augmentation.

// The store's locks carry ranks (`tahoma_mathx::Ranked`, ranks in
// `tahoma_mathx::rank`), so a plain `std::sync::Mutex` fails clippy here.
#![deny(clippy::disallowed_types)]

pub mod codec;
pub mod color;
pub mod dataset;
pub mod engine;
pub mod error;
pub mod image;
pub mod repr;
pub mod segment;
pub mod store;
pub mod synth;
pub mod transform;

pub use codec::RawCodec;
pub use color::ColorMode;
pub use dataset::{Dataset, DatasetBundle, DatasetSpec, LabeledImage};
pub use engine::{TranscodeEngine, TranscodePlan};
pub use error::ImageryError;
pub use image::Image;
pub use repr::Representation;
pub use segment::{RecoveryReport, SegmentStore};
pub use store::{Fetched, PreparedFrame, ReliabilityStats, RepresentationStore};
pub use synth::{ObjectKind, SceneParams, SceneRenderer};
