//! Color modes: the color-depth axis of TAHOMA's physical representations.
//!
//! The paper's experiments use five color variations per image size: full
//! 3-channel color, each individual R/G/B channel, and single-channel
//! grayscale (§VII-A). Reducing three channels to one cuts a CNN's input
//! tensor — and the leading convolution's work — by two thirds, which is one
//! of the two data-handling levers the optimizer exploits.

use std::fmt;

/// ITU-R BT.601 luma weights used for grayscale reduction.
pub const LUMA_WEIGHTS: [f32; 3] = [0.299, 0.587, 0.114];

/// The color depth / channel selection of a physical representation.
#[allow(clippy::disallowed_methods, reason = "total: no float fields")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ColorMode {
    /// Full 3-channel color.
    Rgb,
    /// Red channel only.
    Red,
    /// Green channel only.
    Green,
    /// Blue channel only.
    Blue,
    /// Luma grayscale (BT.601 weighted sum).
    Gray,
}

impl ColorMode {
    /// All five modes in the paper's order.
    pub const ALL: [ColorMode; 5] = [
        ColorMode::Rgb,
        ColorMode::Red,
        ColorMode::Green,
        ColorMode::Blue,
        ColorMode::Gray,
    ];

    /// Number of channels in this mode.
    #[inline]
    pub fn channels(self) -> usize {
        match self {
            ColorMode::Rgb => 3,
            _ => 1,
        }
    }

    /// Index of the extracted source channel, if this mode is a plain
    /// channel extraction from RGB.
    #[inline]
    pub fn source_channel(self) -> Option<usize> {
        match self {
            ColorMode::Red => Some(0),
            ColorMode::Green => Some(1),
            ColorMode::Blue => Some(2),
            _ => None,
        }
    }

    /// Short stable identifier (used in model names and serialization).
    pub fn tag(self) -> &'static str {
        match self {
            ColorMode::Rgb => "rgb",
            ColorMode::Red => "r",
            ColorMode::Green => "g",
            ColorMode::Blue => "b",
            ColorMode::Gray => "gray",
        }
    }

    /// Parse a tag produced by [`ColorMode::tag`].
    pub fn from_tag(tag: &str) -> Option<ColorMode> {
        match tag {
            "rgb" => Some(ColorMode::Rgb),
            "r" => Some(ColorMode::Red),
            "g" => Some(ColorMode::Green),
            "b" => Some(ColorMode::Blue),
            "gray" => Some(ColorMode::Gray),
            _ => None,
        }
    }

    /// Relative information retention of this mode versus full color, used
    /// by the surrogate accuracy model. Grayscale keeps overall luminance
    /// structure (higher) while a single channel discards two primaries.
    pub fn information_factor(self) -> f64 {
        match self {
            ColorMode::Rgb => 1.0,
            ColorMode::Gray => 0.88,
            ColorMode::Green => 0.80, // green carries most luma energy
            ColorMode::Red => 0.76,
            ColorMode::Blue => 0.72,
        }
    }
}

impl fmt::Display for ColorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_counts() {
        assert_eq!(ColorMode::Rgb.channels(), 3);
        for m in [
            ColorMode::Red,
            ColorMode::Green,
            ColorMode::Blue,
            ColorMode::Gray,
        ] {
            assert_eq!(m.channels(), 1);
        }
    }

    #[test]
    fn tag_roundtrip() {
        for m in ColorMode::ALL {
            assert_eq!(ColorMode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(ColorMode::from_tag("nope"), None);
    }

    #[test]
    fn source_channels() {
        assert_eq!(ColorMode::Red.source_channel(), Some(0));
        assert_eq!(ColorMode::Green.source_channel(), Some(1));
        assert_eq!(ColorMode::Blue.source_channel(), Some(2));
        assert_eq!(ColorMode::Rgb.source_channel(), None);
        assert_eq!(ColorMode::Gray.source_channel(), None);
    }

    #[test]
    fn luma_weights_sum_to_one() {
        let s: f32 = LUMA_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn information_ordering() {
        assert!(ColorMode::Rgb.information_factor() > ColorMode::Gray.information_factor());
        assert!(ColorMode::Gray.information_factor() > ColorMode::Green.information_factor());
        assert!(ColorMode::Green.information_factor() > ColorMode::Blue.information_factor());
    }
}
