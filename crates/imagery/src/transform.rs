//! Input transformation functions **F** (paper §V-B, Definition 6).
//!
//! A transformation function maps a raw full-resolution RGB image into the
//! physical representation a particular model consumes: some combination of
//! resolution scaling and color-depth reduction. Resizing and channel
//! reduction are both linear, so their order does not change the output;
//! we reduce color first because it is cheaper (the resize then touches one
//! plane instead of three). The cost model in `tahoma-costmodel` accounts
//! for exactly this pipeline.
//!
//! The hot-path implementations live in [`crate::engine`]: the one-shot
//! functions here route through the thread-local [`TranscodeEngine`]
//! (runtime-dispatched SIMD kernels, cached resize tables), and each keeps
//! a `*_reference` scalar twin — the seed implementation — that the
//! property tests pin the engine against bitwise.
//!
//! [`TranscodeEngine`]: crate::engine::TranscodeEngine

use crate::color::{ColorMode, LUMA_WEIGHTS};
use crate::engine::with_local_engine;
use crate::error::ImageryError;
use crate::image::Image;
use std::borrow::Cow;

/// Convert an image to another color mode.
///
/// Defined conversions: RGB -> any mode (extraction / luma), identity for
/// every mode, and any single-channel mode -> Gray (reinterpretation, the
/// samples are already one plane). Everything else is an error.
///
/// The identity conversion borrows the source (`Cow::Borrowed`) instead of
/// cloning the full buffer; only real conversions allocate.
pub fn convert_mode(src: &Image, target: ColorMode) -> Result<Cow<'_, Image>, ImageryError> {
    with_local_engine(|e| e.convert_mode(src, target))
}

/// Scalar reference for [`convert_mode`] — the seed implementation,
/// allocation per call included. Kept as the reference
/// [`crate::repr::apply_reference`] reduces colour with.
pub fn convert_mode_reference(src: &Image, target: ColorMode) -> Result<Image, ImageryError> {
    if src.mode() == target {
        return Ok(src.clone());
    }
    match (src.mode(), target) {
        (ColorMode::Rgb, t) => {
            let (w, h) = (src.width(), src.height());
            if let Some(c) = t.source_channel() {
                let plane = src.plane(c).to_vec();
                return Image::from_planar(w, h, t, plane);
            }
            // Gray: weighted sum of planes.
            let n = w * h;
            let mut out = vec![0.0f32; n];
            let (r, g, b) = (src.plane(0), src.plane(1), src.plane(2));
            for i in 0..n {
                out[i] = LUMA_WEIGHTS[0] * r[i] + LUMA_WEIGHTS[1] * g[i] + LUMA_WEIGHTS[2] * b[i];
            }
            Image::from_planar(w, h, ColorMode::Gray, out)
        }
        (from, ColorMode::Gray) if from.channels() == 1 => Image::from_planar(
            src.width(),
            src.height(),
            ColorMode::Gray,
            src.data().to_vec(),
        ),
        (from, to) => Err(ImageryError::UnsupportedConversion {
            from: from.tag(),
            to: to.tag(),
        }),
    }
}

/// Bilinear resize to `(out_w, out_h)`. Uses edge clamping; this is the
/// resize the paper's resolution-scaling transforms perform. Runs the
/// engine's separable two-pass sweep (bitwise identical to
/// [`resize_bilinear_reference`]).
pub fn resize_bilinear(src: &Image, out_w: usize, out_h: usize) -> Result<Image, ImageryError> {
    with_local_engine(|e| e.resize_bilinear(src, out_w, out_h))
}

/// Scalar reference for [`resize_bilinear`] — the seed's direct per-pixel
/// loop. The engine's separable sweep evaluates the identical lerp chain
/// per output pixel, so the two agree bitwise (property-tested).
pub fn resize_bilinear_reference(
    src: &Image,
    out_w: usize,
    out_h: usize,
) -> Result<Image, ImageryError> {
    if out_w == 0 || out_h == 0 {
        return Err(ImageryError::InvalidDimensions {
            width: out_w,
            height: out_h,
        });
    }
    let (in_w, in_h) = (src.width(), src.height());
    let mut out = Image::zeros(out_w, out_h, src.mode())?;
    // Align pixel centers: map output center to input center.
    let sx = in_w as f32 / out_w as f32;
    let sy = in_h as f32 / out_h as f32;
    for c in 0..src.channels() {
        let plane = src.plane(c);
        for oy in 0..out_h {
            let fy = ((oy as f32 + 0.5) * sy - 0.5).max(0.0);
            let y0 = (fy as usize).min(in_h - 1);
            let y1 = (y0 + 1).min(in_h - 1);
            let wy = fy - y0 as f32;
            for ox in 0..out_w {
                let fx = ((ox as f32 + 0.5) * sx - 0.5).max(0.0);
                let x0 = (fx as usize).min(in_w - 1);
                let x1 = (x0 + 1).min(in_w - 1);
                let wx = fx - x0 as f32;
                let top = plane[y0 * in_w + x0] * (1.0 - wx) + plane[y0 * in_w + x1] * wx;
                let bot = plane[y1 * in_w + x0] * (1.0 - wx) + plane[y1 * in_w + x1] * wx;
                out.set(c, oy, ox, top * (1.0 - wy) + bot * wy);
            }
        }
    }
    Ok(out)
}

/// Horizontal flip — the data augmentation the paper applies to double its
/// training sets (§VII-A).
pub fn flip_horizontal(src: &Image) -> Image {
    let (w, h) = (src.width(), src.height());
    let mut out = Image::zeros(w, h, src.mode()).expect("source image has valid dims");
    for c in 0..src.channels() {
        let plane = src.plane(c);
        for y in 0..h {
            for x in 0..w {
                out.set(c, y, x, plane[y * w + (w - 1 - x)]);
            }
        }
    }
    out
}

/// Standardize samples to zero mean / unit variance per image (a common CNN
/// input normalization). Constant images come back all-zero.
///
/// Runs the engine's eight-lane f64 reduction (SIMD on supporting CPUs);
/// every kernel tier agrees bitwise, and the result differs from a naive
/// sequential f64 sum only by float reassociation of the mean/variance.
pub fn standardize(src: &Image) -> Image {
    with_local_engine(|e| e.standardize(src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorMode;

    fn gradient_rgb(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, ColorMode::Rgb, |c, y, x| {
            (c as f32 * 0.1 + y as f32 * 0.01 + x as f32 * 0.001).min(1.0)
        })
        .unwrap()
    }

    #[test]
    fn convert_identity_is_borrow() {
        let img = gradient_rgb(4, 4);
        let out = convert_mode(&img, ColorMode::Rgb).unwrap();
        assert!(matches!(out, std::borrow::Cow::Borrowed(_)));
        assert_eq!(out.as_ref(), &img);
    }

    #[test]
    fn convert_extracts_channels() {
        let img = gradient_rgb(4, 4);
        for (mode, c) in [
            (ColorMode::Red, 0),
            (ColorMode::Green, 1),
            (ColorMode::Blue, 2),
        ] {
            let out = convert_mode(&img, mode).unwrap();
            assert_eq!(out.mode(), mode);
            assert_eq!(out.plane(0), img.plane(c));
        }
    }

    #[test]
    fn convert_gray_uses_luma() {
        // One unit channel at a time reads back each BT.601 weight.
        for (channel, weight) in [(0, 0.299), (1, 0.587), (2, 0.114)] {
            let img = Image::from_fn(
                1,
                1,
                ColorMode::Rgb,
                |c, _, _| {
                    if c == channel {
                        1.0
                    } else {
                        0.0
                    }
                },
            )
            .unwrap();
            let g = convert_mode(&img, ColorMode::Gray).unwrap();
            assert!((g.get(0, 0, 0) - weight).abs() < 1e-6, "channel {channel}");
        }
    }

    #[test]
    fn convert_matches_reference() {
        let img = gradient_rgb(9, 5);
        for mode in ColorMode::ALL {
            let got = convert_mode(&img, mode).unwrap();
            let want = convert_mode_reference(&img, mode).unwrap();
            assert_eq!(got.as_ref(), &want, "mode {mode}");
        }
    }

    #[test]
    fn convert_rejects_undefined() {
        let gray = Image::zeros(2, 2, ColorMode::Gray).unwrap();
        assert!(convert_mode(&gray, ColorMode::Red).is_err());
        let red = Image::zeros(2, 2, ColorMode::Red).unwrap();
        // single channel -> gray is a reinterpretation and allowed
        assert!(convert_mode(&red, ColorMode::Gray).is_ok());
        assert!(convert_mode(&red, ColorMode::Rgb).is_err());
        assert!(convert_mode_reference(&gray, ColorMode::Red).is_err());
    }

    #[test]
    fn bilinear_preserves_constant_images() {
        let img = Image::from_fn(8, 8, ColorMode::Gray, |_, _, _| 0.42).unwrap();
        let out = resize_bilinear(&img, 3, 5).unwrap();
        assert!(out.data().iter().all(|&v| (v - 0.42).abs() < 1e-6));
    }

    #[test]
    fn bilinear_identity_size_is_near_noop() {
        let img = gradient_rgb(6, 6);
        let out = resize_bilinear(&img, 6, 6).unwrap();
        let d = img.mean_abs_diff(&out).unwrap();
        assert!(d < 1e-6, "diff {d}");
    }

    #[test]
    fn bilinear_downsample_averages() {
        // 2x2 checkerboard of 0/1 downsampled to 1x1 must give ~0.5.
        let img = Image::from_planar(2, 2, ColorMode::Gray, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let out = resize_bilinear(&img, 1, 1).unwrap();
        assert!((out.get(0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bilinear_values_stay_in_range() {
        let img = gradient_rgb(16, 16);
        let out = resize_bilinear(&img, 7, 11).unwrap();
        for &v in out.data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn bilinear_matches_reference_bitwise() {
        let img = gradient_rgb(19, 13);
        for (ow, oh) in [(7, 11), (19, 13), (32, 5), (1, 1)] {
            let got = resize_bilinear(&img, ow, oh).unwrap();
            let want = resize_bilinear_reference(&img, ow, oh).unwrap();
            assert_eq!(got.data(), want.data(), "{ow}x{oh}");
        }
    }

    #[test]
    fn resize_rejects_zero_target() {
        let img = gradient_rgb(4, 4);
        assert!(resize_bilinear(&img, 0, 4).is_err());
        assert!(resize_bilinear_reference(&img, 0, 4).is_err());
    }

    #[test]
    fn flip_is_involution() {
        let img = gradient_rgb(5, 3);
        let twice = flip_horizontal(&flip_horizontal(&img));
        assert_eq!(img, twice);
    }

    #[test]
    fn flip_mirrors_columns() {
        let img = Image::from_planar(3, 1, ColorMode::Gray, vec![0.1, 0.2, 0.3]).unwrap();
        let f = flip_horizontal(&img);
        assert_eq!(f.data(), &[0.3, 0.2, 0.1]);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let img = gradient_rgb(8, 8);
        let s = standardize(&img);
        let data = s.data();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn standardize_constant_image_is_zero() {
        let img = Image::from_fn(4, 4, ColorMode::Gray, |_, _, _| 0.7).unwrap();
        let s = standardize(&img);
        assert!(s.data().iter().all(|&v| v == 0.0));
    }
}
