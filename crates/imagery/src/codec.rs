//! The storage codec: the on-disk format of stored representations.
//!
//! §VI of the paper argues that load and decode costs are a first-class part
//! of query cost. [`RawCodec`] stores one byte per sample, planar (`TAH1`):
//! the layout the ONGOING scenario keeps pre-transformed representations in
//! and the persistent store's record format, whose decode is a straight
//! dequantization pass.

use crate::color::ColorMode;
use crate::error::ImageryError;
use crate::image::Image;
use crate::repr::Representation;

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

/// The storage dequantizer's definition: the value a stored byte decodes
/// to. Slices dequantize through `engine::dequantize_sum`, whose every
/// tier equals this bit for bit.
#[inline]
pub(crate) fn dequantize(b: u8) -> f32 {
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

/// Split `N` bytes off the front of `buf`; `None` when fewer remain.
pub(crate) fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
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
/// r.value_count()` bytes; the store's record framing sizes its records
/// with this.
pub const RAW_HEADER_LEN: usize = 13;

impl RawCodec {
    /// Encode an image into a fresh byte buffer.
    pub fn encode(&self, img: &Image) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(img, &mut buf);
        buf
    }

    /// Decode bytes produced by [`RawCodec::encode`].
    pub fn decode(&self, bytes: &[u8]) -> Result<Image, ImageryError> {
        self.decode_into(bytes, Vec::new())
    }

    /// Encode into a caller-owned byte buffer (cleared first), so a writer
    /// that encodes frame after frame reuses one allocation. Produces
    /// exactly the bytes of [`RawCodec::encode`].
    pub fn encode_into(&self, img: &Image, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(RAW_HEADER_LEN + img.value_count());
        buf.extend_from_slice(RAW_MAGIC);
        buf.extend_from_slice(&(img.width() as u32).to_le_bytes());
        buf.extend_from_slice(&(img.height() as u32).to_le_bytes());
        buf.push(mode_code(img.mode()));
        buf.extend(img.data().iter().map(|&v| quantize(v)));
    }

    /// Decode into a caller-provided buffer (typically recycled from a
    /// [`crate::engine::TranscodeEngine`] pool), so steady-state decoding
    /// of same-shaped blobs performs no large allocations. `data` is
    /// resized to the payload length and fully overwritten; its previous
    /// contents are irrelevant. The returned [`Image`] owns the buffer —
    /// hand it back to the pool when done to close the loop.
    pub fn decode_into(&self, bytes: &[u8], mut data: Vec<f32>) -> Result<Image, ImageryError> {
        let (w, h, mode, samples) = parse(bytes)?;
        data.resize(samples.len(), 0.0);
        crate::engine::dequantize_sum(None, samples, &mut data);
        Image::from_planar(w, h, mode, data)
    }

    /// The samples of a blob stored for `rep`: the header must name
    /// exactly `rep`'s shape, so the payload is `rep.value_count()` bytes.
    /// A blob of any other shape is a `Decode` error, like a bad header.
    pub(crate) fn samples_for<'a>(
        &self,
        bytes: &'a [u8],
        rep: Representation,
    ) -> Result<&'a [u8], ImageryError> {
        let (w, h, mode, samples) = parse(bytes)?;
        if (w, h, mode) != (rep.size, rep.size, rep.mode) {
            return Err(ImageryError::Decode(format!(
                "TAH1 header {w}x{h} {mode} where {rep} is stored"
            )));
        }
        Ok(samples)
    }
}

/// Split a `TAH1` blob into its header's width, height and mode and its
/// samples, checking that the sample count is the header's.
fn parse(bytes: &[u8]) -> Result<(usize, usize, ColorMode, &[u8]), ImageryError> {
    let mut buf = bytes;
    let (Some(_), Some(w), Some(h), Some([mode])) = (
        take(&mut buf).filter(|magic| magic == RAW_MAGIC),
        take(&mut buf),
        take(&mut buf),
        take(&mut buf),
    ) else {
        return Err(ImageryError::Decode("bad TAH1 header".into()));
    };
    let w = u32::from_le_bytes(w) as usize;
    let h = u32::from_le_bytes(h) as usize;
    let mode = mode_from_code(mode)?;
    // The header is input from outside the program: its sample count
    // may not fit a usize.
    let expected = w
        .checked_mul(h)
        .and_then(|n| n.checked_mul(mode.channels()));
    if expected != Some(buf.len()) {
        return Err(ImageryError::Decode(format!(
            "TAH1 payload length {} != {w}x{h} {mode}",
            buf.len()
        )));
    }
    Ok((w, h, mode, buf))
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
        for rep in crate::Representation::paper_set() {
            let img = Image::zeros(rep.size, rep.size, rep.mode).unwrap();
            assert_eq!(
                RawCodec.encode(&img).len(),
                RAW_HEADER_LEN + rep.value_count(),
                "{rep}"
            );
        }
    }

    #[test]
    fn raw_rejects_garbage() {
        assert!(RawCodec.decode(b"nope").is_err());
        assert!(RawCodec.decode(b"TAH1aaaaaaaaaaaaaa").is_err());
    }

    #[test]
    fn raw_rejects_overflowing_header() {
        let mut blob = RAW_MAGIC.to_vec();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        blob.push(mode_code(ColorMode::Rgb));
        assert!(RawCodec.decode(&blob).is_err());
    }

    #[test]
    fn raw_rejects_truncated_payload() {
        let img = Image::zeros(4, 4, ColorMode::Gray).unwrap();
        let enc = RawCodec.encode(&img);
        assert!(RawCodec.decode(&enc[..enc.len() - 1]).is_err());
    }
}
