//! Image codecs: the on-disk formats behind the deployment scenarios.
//!
//! §VI of the paper argues that load and decode costs are a first-class part
//! of query cost. To keep those costs honest in this reproduction, the
//! storage scenarios are backed by real encoders/decoders with real byte
//! counts:
//!
//! * [`RawCodec`] — one byte per sample, planar (`TAH1`). This is the layout
//!   the ONGOING scenario stores pre-transformed representations in: decode
//!   is a straight dequantization pass.
//! * [`PpmCodec`] — binary PPM (P6) / PGM (P5), for interoperability with
//!   external tools when dumping synthetic corpora.
//! * [`BlockCodec`] — a lossy 8x8 block codec (`TAHB`): per-block mean plus
//!   quality-quantized residuals with zero-run-length coding. It stands in
//!   for JPEG in the ARCHIVE scenario: compressed full-frame storage whose
//!   decode requires real per-pixel work and whose size depends on image
//!   complexity.

use crate::color::ColorMode;
use crate::error::ImageryError;
use crate::image::Image;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A bidirectional image codec.
pub trait Codec {
    /// Codec name for diagnostics and cost-model labels.
    fn name(&self) -> &'static str;
    /// Encode an image into bytes.
    fn encode(&self, img: &Image) -> Bytes;
    /// Decode bytes produced by [`Codec::encode`].
    fn decode(&self, bytes: &[u8]) -> Result<Image, ImageryError>;
}

/// 2²³: adding it to an `f32` in `[0, 2²³)` rounds the value to an integer.
const TWO_POW_23: f32 = 8_388_608.0;

/// The storage quantizer: equal to `(v.clamp(0.0, 1.0) * 255.0).round()
/// as u8` for every `f32` bit pattern, with no `round` libcall, no branch
/// and no float-to-int cast, so slice loops over it vectorize (a
/// saturating `as` cast does not vectorize on the portable x86-64 target).
///
/// Exactness: NaN and `v <= 0` (±0, −∞) give `x = 0`; `v >= 1` (+∞) gives
/// `x = 255`; otherwise `x` is the reference's own `v * 255.0`. For `x` in
/// `[0, 255]`, `y = x + 2²³` is exact up to rounding `x` to the nearest
/// integer `r`, ties to even, so `y`'s low bits are `r`. `y − 2²³ = r` is
/// exact (Sterbenz), and so is `x − r`: both are multiples of `ulp(x)` and
/// `|x − r| <= 0.5`. `round` differs from ties-to-even only on a tie
/// rounded down (`x − r == 0.5`), which the last step sends up. Pinned
/// over the u8 grid's boundaries and specials in tier-1, and over all 2³²
/// patterns by the `#[ignore]`d `quantize_all_bits` test.
#[inline]
fn quantize(v: f32) -> u8 {
    // NaN and everything at or below 0 go to 0, everything at or above 1
    // to 1: one max and one min, no NaN left.
    let c = if v > 0.0 { v } else { 0.0 };
    let x = if c < 1.0 { c } else { 1.0 } * 255.0;
    // Adding 2²³ rounds `x` to the nearest integer `r` (ties to even) and
    // leaves it in the low mantissa bits: `y.to_bits() == 0x4B00_0000 + r`.
    let y = x + TWO_POW_23;
    // Half away from zero: a tie that went down to the even `r` goes up.
    let tie = x - (y - TWO_POW_23) == 0.5;
    (y.to_bits() + u32::from(tie)) as u8
}

#[inline]
fn dequantize(b: u8) -> f32 {
    b as f32 / 255.0
}

/// Quantize-roundtrip every sample through the storage quantizer, in
/// place: afterwards the image is exactly what encoding then decoding it
/// produces (the u8 grid is a fixed point: `quantize(dequantize(b)) == b`).
/// A representation re-derived from the decoded stored source lands on the
/// stored record's grid through this — the quarantine degradation path's
/// exactness guarantee (RELIABILITY.md).
pub fn quantize_roundtrip(img: &mut Image) {
    for v in img.data_mut() {
        *v = dequantize(quantize(*v));
    }
}

pub(crate) fn mode_code(mode: ColorMode) -> u8 {
    match mode {
        ColorMode::Rgb => 0,
        ColorMode::Red => 1,
        ColorMode::Green => 2,
        ColorMode::Blue => 3,
        ColorMode::Gray => 4,
    }
}

pub(crate) fn mode_from_code(code: u8) -> Result<ColorMode, ImageryError> {
    Ok(match code {
        0 => ColorMode::Rgb,
        1 => ColorMode::Red,
        2 => ColorMode::Green,
        3 => ColorMode::Blue,
        4 => ColorMode::Gray,
        other => return Err(ImageryError::Decode(format!("unknown mode code {other}"))),
    })
}

/// Uncompressed planar u8 codec (`TAH1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

const RAW_MAGIC: &[u8; 4] = b"TAH1";

/// Byte length of the `TAH1` header (magic + width + height + mode). A raw
/// blob for representation `r` is exactly `RAW_HEADER_LEN +
/// r.value_count()` bytes; the storage-budget planner in `tahoma-costmodel`
/// prices stored bytes with this.
pub const RAW_HEADER_LEN: usize = 13;

impl Codec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn encode(&self, img: &Image) -> Bytes {
        let mut buf = Vec::new();
        self.encode_into(img, &mut buf);
        buf.into()
    }

    fn decode(&self, bytes: &[u8]) -> Result<Image, ImageryError> {
        self.decode_into(bytes, Vec::new())
    }
}

impl RawCodec {
    /// Encode into a caller-owned byte buffer (cleared first), so a writer
    /// that encodes frame after frame reuses one allocation. Produces
    /// exactly the bytes of [`Codec::encode`].
    pub fn encode_into(&self, img: &Image, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(RAW_HEADER_LEN + img.value_count());
        buf.put_slice(RAW_MAGIC);
        buf.put_u32_le(img.width() as u32);
        buf.put_u32_le(img.height() as u32);
        buf.put_u8(mode_code(img.mode()));
        buf.extend(img.data().iter().map(|&v| quantize(v)));
    }

    /// Decode into a caller-provided buffer (typically recycled from a
    /// [`crate::engine::TranscodeEngine`] pool), so steady-state decoding
    /// of same-shaped blobs performs no large allocations. `data` is
    /// resized to the payload length and fully overwritten; its previous
    /// contents are irrelevant. The returned [`Image`] owns the buffer —
    /// hand it back to the pool when done to close the loop.
    pub fn decode_into(&self, bytes: &[u8], mut data: Vec<f32>) -> Result<Image, ImageryError> {
        let mut buf = bytes;
        if buf.len() < RAW_HEADER_LEN || &buf[..4] != RAW_MAGIC {
            return Err(ImageryError::Decode("bad TAH1 header".into()));
        }
        buf.advance(4);
        let w = buf.get_u32_le() as usize;
        let h = buf.get_u32_le() as usize;
        let mode = mode_from_code(buf.get_u8())?;
        let expected = w * h * mode.channels();
        if buf.remaining() != expected {
            return Err(ImageryError::Decode(format!(
                "TAH1 payload length {} != expected {expected}",
                buf.remaining()
            )));
        }
        data.clear();
        data.extend(buf.chunk()[..expected].iter().map(|&b| dequantize(b)));
        Image::from_planar(w, h, mode, data)
    }
}

/// Binary PPM (P6 for RGB, P5 for single-channel modes).
///
/// Single-channel modes decode as [`ColorMode::Gray`] — PGM does not carry
/// which primary a plane came from.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpmCodec;

impl Codec for PpmCodec {
    fn name(&self) -> &'static str {
        "ppm"
    }

    fn encode(&self, img: &Image) -> Bytes {
        let rgb = img.mode() == ColorMode::Rgb;
        let header = format!(
            "{}\n{} {}\n255\n",
            if rgb { "P6" } else { "P5" },
            img.width(),
            img.height()
        );
        let mut buf = BytesMut::with_capacity(header.len() + img.value_count());
        buf.put_slice(header.as_bytes());
        // PPM is pixel-interleaved; our layout is planar.
        let (w, h) = (img.width(), img.height());
        for y in 0..h {
            for x in 0..w {
                for c in 0..img.channels() {
                    buf.put_u8(quantize(img.get(c, y, x)));
                }
            }
        }
        buf.freeze()
    }

    fn decode(&self, bytes: &[u8]) -> Result<Image, ImageryError> {
        let header_err = || ImageryError::Decode("bad PPM header".into());
        // Parse "P6\nW H\n255\n" allowing arbitrary whitespace between tokens.
        let mut pos = 0usize;
        let mut next_token = |bytes: &[u8]| -> Result<String, ImageryError> {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err(header_err());
            }
            Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
        };
        let magic = next_token(bytes)?;
        let channels = match magic.as_str() {
            "P6" => 3,
            "P5" => 1,
            _ => return Err(header_err()),
        };
        let w: usize = next_token(bytes)?.parse().map_err(|_| header_err())?;
        let h: usize = next_token(bytes)?.parse().map_err(|_| header_err())?;
        let maxval: usize = next_token(bytes)?.parse().map_err(|_| header_err())?;
        if maxval != 255 {
            return Err(ImageryError::Decode(format!("unsupported maxval {maxval}")));
        }
        // Exactly one whitespace byte separates the header from pixel data.
        pos += 1;
        let expected = w * h * channels;
        if bytes.len() < pos || bytes.len() - pos < expected {
            return Err(ImageryError::Decode("truncated PPM payload".into()));
        }
        let payload = &bytes[pos..pos + expected];
        let mode = if channels == 3 {
            ColorMode::Rgb
        } else {
            ColorMode::Gray
        };
        let mut img = Image::zeros(w, h, mode)?;
        let mut i = 0;
        for y in 0..h {
            for x in 0..w {
                for c in 0..channels {
                    img.set(c, y, x, dequantize(payload[i]));
                    i += 1;
                }
            }
        }
        Ok(img)
    }
}

/// Lossy 8x8 block codec (`TAHB`) standing in for JPEG.
///
/// Per block: the quantized block mean, then residuals quantized by a step
/// derived from `quality` (1..=100), with runs of zero residuals run-length
/// coded. Smooth synthetic scenes compress to a fraction of raw size, and
/// decoding does real per-pixel arithmetic — both properties the ARCHIVE
/// cost scenario depends on.
#[derive(Debug, Clone, Copy)]
pub struct BlockCodec {
    /// Quality 1..=100; higher keeps more residual detail (larger files).
    pub quality: u8,
}

const BLOCK_MAGIC: &[u8; 4] = b"TAHB";
const BLOCK: usize = 8;

impl BlockCodec {
    /// Construct with a clamped quality setting.
    pub fn new(quality: u8) -> BlockCodec {
        BlockCodec {
            quality: quality.clamp(1, 100),
        }
    }

    /// Quantization step in sample units (0..=255 scale).
    fn step(quality: u8) -> f32 {
        // quality 100 -> step 2 (near-lossless); quality 1 -> step 64.
        let q = quality.clamp(1, 100) as f32;
        2.0 + (100.0 - q) * 62.0 / 99.0
    }
}

impl Default for BlockCodec {
    fn default() -> Self {
        BlockCodec::new(75)
    }
}

impl Codec for BlockCodec {
    fn name(&self) -> &'static str {
        "block"
    }

    fn encode(&self, img: &Image) -> Bytes {
        let step = Self::step(self.quality);
        let mut buf = BytesMut::with_capacity(img.value_count() / 3 + 64);
        buf.put_slice(BLOCK_MAGIC);
        buf.put_u32_le(img.width() as u32);
        buf.put_u32_le(img.height() as u32);
        buf.put_u8(mode_code(img.mode()));
        buf.put_u8(self.quality);
        let (w, h) = (img.width(), img.height());
        for c in 0..img.channels() {
            let plane = img.plane(c);
            for by in (0..h).step_by(BLOCK) {
                for bx in (0..w).step_by(BLOCK) {
                    let bh = BLOCK.min(h - by);
                    let bw = BLOCK.min(w - bx);
                    // Block mean.
                    let mut sum = 0.0f32;
                    for y in 0..bh {
                        for x in 0..bw {
                            sum += plane[(by + y) * w + bx + x];
                        }
                    }
                    let mean = sum / (bh * bw) as f32;
                    let mean_q = quantize(mean);
                    buf.put_u8(mean_q);
                    // Residuals, zero-run-length coded.
                    // Token stream: 0x00 <run_len:u8> for zero runs,
                    // else a nonzero i8 residual written as u8 (offset 128).
                    let mut zero_run = 0u8;
                    let flush_zeros = |buf: &mut BytesMut, zero_run: &mut u8| {
                        while *zero_run > 0 {
                            let chunk = *zero_run;
                            buf.put_u8(0);
                            buf.put_u8(chunk);
                            *zero_run -= chunk;
                        }
                    };
                    for y in 0..bh {
                        for x in 0..bw {
                            let v = plane[(by + y) * w + bx + x];
                            let r = ((v - dequantize(mean_q)) * 255.0 / step).round();
                            let r = r.clamp(-127.0, 127.0) as i8;
                            if r == 0 {
                                if zero_run == 255 {
                                    flush_zeros(&mut buf, &mut zero_run);
                                }
                                zero_run += 1;
                            } else {
                                flush_zeros(&mut buf, &mut zero_run);
                                buf.put_u8((r as i16 + 128) as u8);
                            }
                        }
                    }
                    flush_zeros(&mut buf, &mut zero_run);
                }
            }
        }
        buf.freeze()
    }

    fn decode(&self, bytes: &[u8]) -> Result<Image, ImageryError> {
        let mut buf = bytes;
        if buf.len() < 14 || &buf[..4] != BLOCK_MAGIC {
            return Err(ImageryError::Decode("bad TAHB header".into()));
        }
        buf.advance(4);
        let w = buf.get_u32_le() as usize;
        let h = buf.get_u32_le() as usize;
        let mode = mode_from_code(buf.get_u8())?;
        let quality = buf.get_u8();
        let step = Self::step(quality);
        let mut img = Image::zeros(w, h, mode)?;
        for c in 0..mode.channels() {
            for by in (0..h).step_by(BLOCK) {
                for bx in (0..w).step_by(BLOCK) {
                    let bh = BLOCK.min(h - by);
                    let bw = BLOCK.min(w - bx);
                    if !buf.has_remaining() {
                        return Err(ImageryError::Decode("truncated TAHB block".into()));
                    }
                    let mean = dequantize(buf.get_u8());
                    let total = bh * bw;
                    let mut filled = 0usize;
                    while filled < total {
                        if !buf.has_remaining() {
                            return Err(ImageryError::Decode("truncated TAHB residuals".into()));
                        }
                        let tok = buf.get_u8();
                        if tok == 0 {
                            if !buf.has_remaining() {
                                return Err(ImageryError::Decode("truncated zero run".into()));
                            }
                            let run = buf.get_u8() as usize;
                            if run == 0 || filled + run > total {
                                return Err(ImageryError::Decode("invalid zero run".into()));
                            }
                            for _ in 0..run {
                                let y = filled / bw;
                                let x = filled % bw;
                                img.set(c, by + y, bx + x, mean.clamp(0.0, 1.0));
                                filled += 1;
                            }
                        } else {
                            let r = tok as i16 - 128;
                            let v = mean + r as f32 * step / 255.0;
                            let y = filled / bw;
                            let x = filled % bw;
                            img.set(c, by + y, bx + x, v.clamp(0.0, 1.0));
                            filled += 1;
                        }
                    }
                }
            }
        }
        Ok(img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_mathx::DetRng;

    fn noisy_scene(w: usize, h: usize, mode: ColorMode, seed: u64) -> Image {
        let mut rng = DetRng::new(seed);
        Image::from_fn(w, h, mode, |c, y, x| {
            let base =
                0.4 + 0.2 * ((x as f32 / w as f32) + (y as f32 / h as f32)) + c as f32 * 0.05;
            (base + rng.normal(0.0, 0.02) as f32).clamp(0.0, 1.0)
        })
        .unwrap()
    }

    /// The quantizer's specification.
    fn reference_quantize(v: f32) -> u8 {
        (v.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    fn assert_quantize_matches(v: f32) {
        assert_eq!(
            quantize(v),
            reference_quantize(v),
            "{v:?} (bits {:#010x})",
            v.to_bits()
        );
    }

    #[test]
    fn quantize_matches_reference_on_boundaries_and_specials() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffbf_ffff),
            f32::from_bits(1), // smallest subnormal
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff), // largest subnormal
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -1.0,
            2.0,
            1.0,
            f32::MAX,
            f32::MIN,
        ];
        // Every grid point and every half-way point, each with its float
        // neighbours: the only places the rounding decision can flip.
        for k in 0..=255u16 {
            for v in [f32::from(k) / 255.0, (f32::from(k) + 0.5) / 255.0] {
                inputs.extend([v, v.next_up(), v.next_down()]);
            }
        }
        for &v in &inputs {
            assert_quantize_matches(v);
        }
        // The same values through the encoder's vectorized loop.
        let want: Vec<u8> = inputs.iter().map(|&v| reference_quantize(v)).collect();
        let row = Image::from_planar(inputs.len(), 1, ColorMode::Gray, inputs).unwrap();
        let mut buf = Vec::new();
        RawCodec.encode_into(&row, &mut buf);
        assert_eq!(&buf[RAW_HEADER_LEN..], &want[..]);
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 f32 bit patterns; run in release"]
    fn quantize_all_bits() {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32) / lanes + 1;
        std::thread::scope(|s| {
            for lane in 0..lanes {
                s.spawn(move || {
                    let end = ((lane + 1) * span).min(1 << 32);
                    for bits in lane * span..end {
                        let v = f32::from_bits(bits as u32);
                        if quantize(v) != reference_quantize(v) {
                            assert_quantize_matches(v);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn raw_encode_into_matches_encode() {
        // One buffer for both images, the larger first: no stale byte of
        // the first may survive into the second.
        let mut buf = Vec::new();
        for (seed, (w, h, mode)) in [(17, 11, ColorMode::Rgb), (5, 9, ColorMode::Gray)]
            .into_iter()
            .enumerate()
        {
            let img = noisy_scene(w, h, mode, seed as u64 + 10);
            RawCodec.encode_into(&img, &mut buf);
            assert_eq!(&buf[..], &RawCodec.encode(&img)[..]);
            let samples = &buf[RAW_HEADER_LEN..];
            assert!(samples
                .iter()
                .zip(img.data())
                .all(|(&b, &v)| b == reference_quantize(v)));
        }
    }

    #[test]
    fn raw_roundtrip_is_quantization_exact() {
        let img = noisy_scene(17, 11, ColorMode::Rgb, 1);
        let codec = RawCodec;
        let out = codec.decode(&codec.encode(&img)).unwrap();
        assert_eq!(out.width(), 17);
        assert_eq!(out.mode(), ColorMode::Rgb);
        // error bounded by quantization half-step
        assert!(img.mean_abs_diff(&out).unwrap() < 0.5 / 255.0 + 1e-6);
    }

    #[test]
    fn raw_size_is_header_plus_samples() {
        let img = Image::zeros(10, 10, ColorMode::Gray).unwrap();
        assert_eq!(RawCodec.encode(&img).len(), 13 + 100);
    }

    #[test]
    fn raw_rejects_garbage() {
        assert!(RawCodec.decode(b"nope").is_err());
        assert!(RawCodec.decode(b"TAH1aaaaaaaaaaaaaa").is_err());
    }

    #[test]
    fn raw_rejects_truncated_payload() {
        let img = Image::zeros(4, 4, ColorMode::Gray).unwrap();
        let enc = RawCodec.encode(&img);
        assert!(RawCodec.decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn ppm_roundtrip_rgb() {
        let img = noisy_scene(9, 7, ColorMode::Rgb, 2);
        let out = PpmCodec.decode(&PpmCodec.encode(&img)).unwrap();
        assert_eq!(out.mode(), ColorMode::Rgb);
        assert!(img.mean_abs_diff(&out).unwrap() < 0.5 / 255.0 + 1e-6);
    }

    #[test]
    fn ppm_roundtrip_gray() {
        let img = noisy_scene(8, 8, ColorMode::Gray, 3);
        let out = PpmCodec.decode(&PpmCodec.encode(&img)).unwrap();
        assert_eq!(out.mode(), ColorMode::Gray);
        assert!(img.mean_abs_diff(&out).unwrap() < 0.5 / 255.0 + 1e-6);
    }

    #[test]
    fn ppm_header_is_ascii() {
        let img = Image::zeros(3, 2, ColorMode::Rgb).unwrap();
        let enc = PpmCodec.encode(&img);
        assert!(enc.starts_with(b"P6\n3 2\n255\n"));
    }

    #[test]
    fn ppm_rejects_bad_magic() {
        assert!(PpmCodec.decode(b"P9\n1 1\n255\nxxx").is_err());
    }

    #[test]
    fn block_roundtrip_error_bounded_by_step() {
        let img = noisy_scene(32, 32, ColorMode::Rgb, 4);
        for quality in [25u8, 50, 75, 95] {
            let codec = BlockCodec::new(quality);
            let out = codec.decode(&codec.encode(&img)).unwrap();
            let bound = BlockCodec::step(quality) / 255.0 + 0.5 / 255.0 + 1e-5;
            let mad = img.mean_abs_diff(&out).unwrap();
            assert!(mad < bound, "q={quality}: mad {mad} >= bound {bound}");
        }
    }

    #[test]
    fn block_compresses_smooth_images() {
        // A smooth gradient should compress well below raw size.
        let img = Image::from_fn(64, 64, ColorMode::Rgb, |_, y, x| {
            0.5 + 0.001 * (x as f32) + 0.001 * (y as f32)
        })
        .unwrap();
        let raw = RawCodec.encode(&img).len();
        let block = BlockCodec::new(60).encode(&img).len();
        assert!(
            (block as f64) < raw as f64 * 0.5,
            "block {block} not < half of raw {raw}"
        );
    }

    #[test]
    fn block_quality_monotone_in_size() {
        let img = noisy_scene(64, 64, ColorMode::Rgb, 5);
        let low = BlockCodec::new(20).encode(&img).len();
        let high = BlockCodec::new(95).encode(&img).len();
        assert!(
            low < high,
            "low-q {low} should be smaller than high-q {high}"
        );
    }

    #[test]
    fn block_handles_non_multiple_of_eight() {
        let img = noisy_scene(13, 21, ColorMode::Gray, 6);
        let codec = BlockCodec::default();
        let out = codec.decode(&codec.encode(&img)).unwrap();
        assert_eq!(out.width(), 13);
        assert_eq!(out.height(), 21);
    }

    #[test]
    fn block_rejects_truncation() {
        let img = noisy_scene(16, 16, ColorMode::Gray, 7);
        let codec = BlockCodec::default();
        let enc = codec.encode(&img);
        for cut in [3usize, 13, enc.len() / 2] {
            assert!(codec.decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn codec_names() {
        assert_eq!(RawCodec.name(), "raw");
        assert_eq!(PpmCodec.name(), "ppm");
        assert_eq!(BlockCodec::default().name(), "block");
    }
}
