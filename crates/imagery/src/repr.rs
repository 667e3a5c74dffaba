//! Physical representations: the (resolution, color mode) pairs that define
//! TAHOMA's input transformation space.
//!
//! A [`Representation`] is the unit the whole system reasons about: models
//! declare the representation they consume, the cost model prices producing
//! or loading one, and the cascade evaluator charges each representation
//! *once per image* even when several cascade levels share it (§VII-A:
//! "Data handling costs ... only occur once for a given input").
//!
//! Representations also form the derivation *lattice* the transcode engine
//! plans over (see [`crate::engine`]): when several of them are
//! materialized from one frame, single-channel planes are borrowed from the
//! source and the luma plane is computed once and shared, so
//! [`Representation::apply`] — which routes through the thread-local engine
//! — is only the single-target entry point of that machinery.

use crate::color::ColorMode;
use crate::engine::with_local_engine;
use crate::error::ImageryError;
use crate::image::Image;
use crate::transform::{convert_mode_reference, resize_bilinear_reference};
use std::fmt;

/// The full-resolution source size used throughout the paper's experiments.
pub const FULL_SIZE: usize = 224;

/// The paper's four resolution settings (§VII-A).
pub const PAPER_SIZES: [usize; 4] = [30, 60, 120, 224];

/// A physical input representation: square resolution plus color mode.
#[allow(clippy::disallowed_methods, reason = "total: no float fields")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Representation {
    /// Side length in pixels (images are square, as in the paper).
    pub size: usize,
    /// Color depth / channel selection.
    pub mode: ColorMode,
}

impl Representation {
    /// Construct a representation.
    pub const fn new(size: usize, mode: ColorMode) -> Representation {
        Representation { size, mode }
    }

    /// The full-resolution, full-color source representation.
    pub const fn full() -> Representation {
        Representation::new(FULL_SIZE, ColorMode::Rgb)
    }

    /// All 20 representations used in the paper (4 sizes x 5 color modes).
    pub fn paper_set() -> Vec<Representation> {
        let mut out = Vec::with_capacity(PAPER_SIZES.len() * ColorMode::ALL.len());
        for &size in &PAPER_SIZES {
            for &mode in &ColorMode::ALL {
                out.push(Representation::new(size, mode));
            }
        }
        out
    }

    /// Number of scalar input values this representation feeds to a model.
    #[inline]
    pub fn value_count(&self) -> usize {
        self.size * self.size * self.mode.channels()
    }

    /// Bytes occupied when materialized with one byte per sample (the layout
    /// the ONGOING scenario stores on SSD).
    #[inline]
    pub fn stored_bytes(&self) -> usize {
        self.value_count()
    }

    /// Whether producing this representation from a full RGB source is a
    /// no-op (no resize, no color change).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.size == FULL_SIZE && self.mode == ColorMode::Rgb
    }

    /// Materialize this representation from a full-resolution RGB source.
    ///
    /// Pipeline: color reduction first (cheaper: the resize then reads a
    /// single plane), then bilinear resize. Both operations are linear, so
    /// the result equals the resize-then-reduce order. Runs on the
    /// thread-local [`crate::engine::TranscodeEngine`] (SIMD kernels,
    /// cached resize tables, no intermediate reduced image); bitwise
    /// identical to [`apply_reference`].
    pub fn apply(&self, full: &Image) -> Result<Image, ImageryError> {
        with_local_engine(|e| e.apply(full, *self))
    }

    /// Stable identifier, e.g. `"60x60-gray"`.
    pub fn tag(&self) -> String {
        format!("{0}x{0}-{1}", self.size, self.mode.tag())
    }

    /// Parse a tag produced by [`Representation::tag`].
    pub fn from_tag(tag: &str) -> Option<Representation> {
        let (dims, mode) = tag.split_once('-')?;
        let (w, h) = dims.split_once('x')?;
        if w != h {
            return None;
        }
        Some(Representation::new(
            w.parse().ok()?,
            ColorMode::from_tag(mode)?,
        ))
    }
}

/// Scalar reference for [`Representation::apply`] — the seed pipeline
/// (allocating color reduction, then the direct per-pixel bilinear loop).
/// Property tests pin the engine against this bitwise.
pub fn apply_reference(full: &Image, rep: Representation) -> Result<Image, ImageryError> {
    if full.mode() != ColorMode::Rgb {
        return Err(ImageryError::NotRgbSource);
    }
    let reduced = convert_mode_reference(full, rep.mode)?;
    if reduced.width() == rep.size && reduced.height() == rep.size {
        return Ok(reduced);
    }
    resize_bilinear_reference(&reduced, rep.size, rep.size)
}

impl fmt::Display for Representation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_twenty_entries() {
        let set = Representation::paper_set();
        assert_eq!(set.len(), 20);
        let unique: std::collections::HashSet<_> = set.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn value_counts_match_paper() {
        // §VII-E: 30x30 RGB = 2,700 values; 224x224 RGB = 150,528 values.
        assert_eq!(Representation::new(30, ColorMode::Rgb).value_count(), 2_700);
        assert_eq!(
            Representation::new(224, ColorMode::Rgb).value_count(),
            150_528
        );
        assert_eq!(Representation::new(30, ColorMode::Gray).value_count(), 900);
    }

    #[test]
    fn apply_produces_requested_shape() {
        let full = Image::from_fn(FULL_SIZE, FULL_SIZE, ColorMode::Rgb, |c, y, x| {
            ((c + y + x) % 7) as f32 / 7.0
        })
        .unwrap();
        for rep in Representation::paper_set() {
            let out = rep.apply(&full).unwrap();
            assert_eq!(out.width(), rep.size);
            assert_eq!(out.height(), rep.size);
            assert_eq!(out.mode(), rep.mode);
        }
    }

    #[test]
    fn apply_identity_representation() {
        let full = Image::zeros(FULL_SIZE, FULL_SIZE, ColorMode::Rgb).unwrap();
        let rep = Representation::full();
        assert!(rep.is_identity());
        let out = rep.apply(&full).unwrap();
        assert_eq!(out.value_count(), full.value_count());
    }

    #[test]
    fn apply_requires_rgb_source() {
        let gray = Image::zeros(8, 8, ColorMode::Gray).unwrap();
        let rep = Representation::new(4, ColorMode::Gray);
        assert!(matches!(rep.apply(&gray), Err(ImageryError::NotRgbSource)));
    }

    #[test]
    fn reduce_then_resize_equals_resize_then_reduce() {
        use crate::transform::{convert_mode, resize_bilinear};
        let full = Image::from_fn(32, 32, ColorMode::Rgb, |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 11) as f32 / 11.0
        })
        .unwrap();
        let a = {
            let reduced = convert_mode(&full, ColorMode::Gray).unwrap();
            resize_bilinear(&reduced, 8, 8).unwrap()
        };
        let b = {
            let resized = resize_bilinear(&full, 8, 8).unwrap();
            convert_mode(&resized, ColorMode::Gray)
                .unwrap()
                .into_owned()
        };
        assert!(a.mean_abs_diff(&b).unwrap() < 1e-5);
    }

    #[test]
    fn apply_matches_reference_bitwise() {
        let full = Image::from_fn(FULL_SIZE, FULL_SIZE, ColorMode::Rgb, |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 11) as f32 / 11.0
        })
        .unwrap();
        for rep in Representation::paper_set() {
            let fast = rep.apply(&full).unwrap();
            let slow = apply_reference(&full, rep).unwrap();
            assert_eq!(fast.data(), slow.data(), "{rep}");
        }
    }

    #[test]
    fn tag_roundtrip() {
        for rep in Representation::paper_set() {
            assert_eq!(Representation::from_tag(&rep.tag()), Some(rep));
        }
        assert_eq!(Representation::from_tag("bogus"), None);
        assert_eq!(Representation::from_tag("30x60-rgb"), None);
    }
}
