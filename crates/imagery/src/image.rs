//! Planar floating-point raster images.
//!
//! Pixels are stored channel-planar (`[c][y][x]`) as `f32` in `[0, 1]`.
//! Planar layout makes channel extraction a `memcpy`, keeps convolution
//! kernels cache-friendly, and matches the layout the `tahoma-nn` tensors
//! use, so feeding a representation into a CNN is a reshape, not a shuffle.

use crate::color::ColorMode;
use crate::error::ImageryError;

/// A raster image: `mode.channels()` planes of `width * height` f32 samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    mode: ColorMode,
    data: Vec<f32>,
}

impl Image {
    /// Create a zero-filled image.
    pub fn zeros(width: usize, height: usize, mode: ColorMode) -> Result<Image, ImageryError> {
        let len = Self::sample_count(width, height, mode)?;
        Ok(Image {
            width,
            height,
            mode,
            data: vec![0.0; len],
        })
    }

    /// Create an image from an existing planar buffer.
    pub fn from_planar(
        width: usize,
        height: usize,
        mode: ColorMode,
        data: Vec<f32>,
    ) -> Result<Image, ImageryError> {
        let expected = Self::sample_count(width, height, mode)?;
        if data.len() != expected {
            return Err(ImageryError::BufferSizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            mode,
            data,
        })
    }

    /// Build an image by evaluating `f(channel, y, x)` at every sample.
    pub fn from_fn<F>(
        width: usize,
        height: usize,
        mode: ColorMode,
        mut f: F,
    ) -> Result<Image, ImageryError>
    where
        F: FnMut(usize, usize, usize) -> f32,
    {
        let mut img = Image::zeros(width, height, mode)?;
        for c in 0..mode.channels() {
            for y in 0..height {
                for x in 0..width {
                    let v = f(c, y, x);
                    img.set(c, y, x, v);
                }
            }
        }
        Ok(img)
    }

    /// `width * height * channels`, or `InvalidDimensions` when a side is
    /// zero or the product does not fit a `usize`.
    fn sample_count(width: usize, height: usize, mode: ColorMode) -> Result<usize, ImageryError> {
        width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(mode.channels()))
            .filter(|&n| n > 0)
            .ok_or(ImageryError::InvalidDimensions { width, height })
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Color mode.
    #[inline]
    pub fn mode(&self) -> ColorMode {
        self.mode
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.mode.channels()
    }

    /// Total number of scalar input values (`w * h * c`) — the quantity the
    /// paper uses when discussing input-size reduction (§VII-E: 224x224x3 =
    /// 150,528 values vs 30x30x3 = 2,700).
    #[inline]
    pub fn value_count(&self) -> usize {
        self.data.len()
    }

    /// Borrow the full planar buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the full planar buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the image, returning the planar buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Borrow one channel plane.
    #[inline]
    pub fn plane(&self, c: usize) -> &[f32] {
        let n = self.width * self.height;
        &self.data[c * n..(c + 1) * n]
    }

    /// Sample accessor. Debug-asserted bounds; hot paths index planes
    /// directly.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert!(c < self.channels() && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Sample setter.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        debug_assert!(c < self.channels() && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x] = v;
    }

    /// Mean sample value across all channels.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Mean absolute difference against another image of identical shape.
    /// Returns `None` when shapes differ.
    pub fn mean_abs_diff(&self, other: &Image) -> Option<f32> {
        if self.width != other.width || self.height != other.height || self.mode != other.mode {
            return None;
        }
        let n = self.data.len() as f32;
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape() {
        let img = Image::zeros(4, 3, ColorMode::Rgb).unwrap();
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.channels(), 3);
        assert_eq!(img.value_count(), 36);
        assert!(img.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(matches!(
            Image::zeros(0, 3, ColorMode::Gray),
            Err(ImageryError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Image::zeros(3, 0, ColorMode::Gray),
            Err(ImageryError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn overflowing_sample_count_rejected() {
        // w * h fits a usize; w * h * 3 does not.
        let err = Image::from_planar(usize::MAX / 2, 1, ColorMode::Rgb, Vec::new()).unwrap_err();
        assert!(matches!(err, ImageryError::InvalidDimensions { .. }));
    }

    #[test]
    fn from_planar_checks_length() {
        let err = Image::from_planar(2, 2, ColorMode::Rgb, vec![0.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            ImageryError::BufferSizeMismatch {
                expected: 12,
                actual: 5
            }
        ));
        assert!(Image::from_planar(2, 2, ColorMode::Gray, vec![0.5; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::zeros(5, 4, ColorMode::Rgb).unwrap();
        img.set(2, 3, 4, 0.75);
        assert_eq!(img.get(2, 3, 4), 0.75);
        assert_eq!(img.get(0, 0, 0), 0.0);
    }

    #[test]
    fn from_fn_addresses_correctly() {
        let img = Image::from_fn(3, 2, ColorMode::Gray, |_, y, x| (y * 3 + x) as f32).unwrap();
        assert_eq!(img.get(0, 0, 0), 0.0);
        assert_eq!(img.get(0, 1, 2), 5.0);
    }

    #[test]
    fn plane_slices_are_disjoint_views() {
        let img = Image::from_fn(2, 2, ColorMode::Rgb, |c, _, _| c as f32).unwrap();
        assert!(img.plane(0).iter().all(|&v| v == 0.0));
        assert!(img.plane(1).iter().all(|&v| v == 1.0));
        assert!(img.plane(2).iter().all(|&v| v == 2.0));
    }

    #[test]
    fn mean_abs_diff_detects_shape_mismatch() {
        let a = Image::zeros(2, 2, ColorMode::Gray).unwrap();
        let b = Image::zeros(3, 2, ColorMode::Gray).unwrap();
        assert!(a.mean_abs_diff(&b).is_none());
        let c = Image::from_fn(2, 2, ColorMode::Gray, |_, _, _| 0.5).unwrap();
        assert!((a.mean_abs_diff(&c).unwrap() - 0.5).abs() < 1e-6);
    }
}
