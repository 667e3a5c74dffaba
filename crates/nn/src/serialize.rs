//! Self-contained binary serialization of trained models (`TAHN` format).
//!
//! The paper's system initializes a model repository per predicate and keeps
//! it for query time; persisting weights makes that repository durable. The
//! format is deliberately simple: header, layer count, then per layer a type
//! code, geometry, and raw little-endian f32 parameters.

use crate::layer::{Conv2d, Dense, Layer, MaxPool2, Relu};
use crate::model::Sequential;
use crate::tensor::Shape;

const MAGIC: &[u8; 4] = b"TAHN";
const VERSION: u8 = 1;

const TAG_CONV: u8 = 1;
const TAG_POOL: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_DENSE: u8 = 4;

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Stream is not a TAHN model, is truncated, or describes a layer
    /// whose geometry no layer can have.
    Malformed(String),
    /// Version newer than this library understands.
    UnsupportedVersion(u8),
    /// A layer kind that the format cannot express.
    UnsupportedLayer(&'static str),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Malformed(m) => write!(f, "malformed model stream: {m}"),
            SerializeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SerializeError::UnsupportedLayer(n) => write!(f, "unsupported layer {n}"),
        }
    }
}

impl std::error::Error for SerializeError {}

fn malformed(what: &str) -> SerializeError {
    SerializeError::Malformed(what.into())
}

fn put_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_shape(buf: &mut Vec<u8>, s: Shape) {
    put_u32(buf, s.c);
    put_u32(buf, s.h);
    put_u32(buf, s.w);
}

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    put_u32(buf, xs.len());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N], SerializeError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| malformed(&format!("truncated {what}")))?;
    *buf = rest;
    Ok(*head)
}

fn get_u32(buf: &mut &[u8], what: &str) -> Result<usize, SerializeError> {
    Ok(u32::from_le_bytes(take(buf, what)?) as usize)
}

fn get_shape(buf: &mut &[u8]) -> Result<Shape, SerializeError> {
    Ok(Shape::new(
        get_u32(buf, "shape")?,
        get_u32(buf, "shape")?,
        get_u32(buf, "shape")?,
    ))
}

/// `s`, when its element count fits a `usize`. Checked for the model's
/// input and each conv's output: a pool shrinks its input, a ReLU keeps
/// it, and a dense output is one `u32` count long.
fn fits(s: Shape) -> Result<Shape, SerializeError> {
    s.c.checked_mul(s.h)
        .and_then(|n| n.checked_mul(s.w))
        .ok_or_else(|| malformed(&format!("shape {s} overflows")))?;
    Ok(s)
}

fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, SerializeError> {
    let n = get_u32(buf, "f32 count")?;
    if buf.len() / 4 < n {
        return Err(malformed("truncated f32 payload"));
    }
    let (payload, rest) = buf.split_at(n * 4);
    *buf = rest;
    Ok(payload
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&b| f32::from_le_bytes(b))
        .collect())
}

/// A layer's input must be the shape the layer before it outputs.
fn chained(input: Shape, at: Shape) -> Result<(), SerializeError> {
    if input == at {
        Ok(())
    } else {
        Err(malformed(&format!("layer input {input} after output {at}")))
    }
}

/// Serialize a model to bytes.
///
/// Only layers produced by `CnnSpec::build` (conv/pool/relu/dense) are
/// supported; an unknown layer kind yields `UnsupportedLayer`.
pub fn save(model: &Sequential) -> Result<Vec<u8>, SerializeError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_shape(&mut buf, model.input_shape());
    put_u32(&mut buf, model.layers().len());
    for layer in model.layers() {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            buf.push(TAG_CONV);
            let (input, out_c, k) = conv.geometry();
            put_shape(&mut buf, input);
            put_u32(&mut buf, out_c);
            put_u32(&mut buf, k);
            let (w, b) = conv.weights_bias();
            put_f32s(&mut buf, w);
            put_f32s(&mut buf, b);
        } else if let Some(pool) = any.downcast_ref::<MaxPool2>() {
            buf.push(TAG_POOL);
            put_shape(&mut buf, pool.input_shape());
        } else if let Some(relu) = any.downcast_ref::<Relu>() {
            buf.push(TAG_RELU);
            put_shape(&mut buf, relu.output_shape());
        } else if let Some(dense) = any.downcast_ref::<Dense>() {
            buf.push(TAG_DENSE);
            let (n_in, n_out) = dense.geometry();
            put_u32(&mut buf, n_in);
            put_u32(&mut buf, n_out);
            let (w, b) = dense.weights_bias();
            put_f32s(&mut buf, w);
            put_f32s(&mut buf, b);
        } else {
            return Err(SerializeError::UnsupportedLayer(layer.name()));
        }
    }
    Ok(buf)
}

/// Deserialize a model saved with [`save`]. Bytes from outside the
/// program are checked before any layer is built: a truncated stream, a
/// geometry product that overflows, parameters of the wrong length, a
/// pool over less than 2x2 or a layer whose input is not the previous
/// layer's output is `Malformed`, never a panic.
pub fn load(bytes: &[u8]) -> Result<Sequential, SerializeError> {
    let mut buf = bytes;
    if take::<4>(&mut buf, "magic").ok() != Some(*MAGIC) {
        return Err(malformed("bad magic"));
    }
    let [version] = take(&mut buf, "version")?;
    if version != VERSION {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    let input = fits(get_shape(&mut buf)?)?;
    let n_layers = get_u32(&mut buf, "layer count")?;
    let mut model = Sequential::new(input);
    for _ in 0..n_layers {
        let at = model.output_shape();
        let [tag] = take(&mut buf, "layer tag")?;
        match tag {
            TAG_CONV => {
                let input = get_shape(&mut buf)?;
                chained(input, at)?;
                let out_c = get_u32(&mut buf, "conv geom")?;
                let k = get_u32(&mut buf, "conv geom")?;
                let w = get_f32s(&mut buf)?;
                let b = get_f32s(&mut buf)?;
                let n_w = [input.c, k, k]
                    .into_iter()
                    .try_fold(out_c, usize::checked_mul);
                if k % 2 == 0 || out_c == 0 {
                    return Err(malformed(&format!("conv out_c {out_c}, kernel {k}")));
                }
                if n_w != Some(w.len()) || b.len() != out_c {
                    return Err(malformed("conv param size"));
                }
                fits(Shape::new(out_c, input.h, input.w))?;
                model.push(Box::new(Conv2d::from_parts(input, out_c, k, w, b)));
            }
            TAG_POOL => {
                let input = get_shape(&mut buf)?;
                chained(input, at)?;
                if input.h < 2 || input.w < 2 {
                    return Err(malformed(&format!("pool input {input} under 2x2")));
                }
                model.push(Box::new(MaxPool2::new(input)));
            }
            TAG_RELU => {
                let shape = get_shape(&mut buf)?;
                chained(shape, at)?;
                model.push(Box::new(Relu::new(shape)));
            }
            TAG_DENSE => {
                let n_in = get_u32(&mut buf, "dense geom")?;
                let n_out = get_u32(&mut buf, "dense geom")?;
                chained(Shape::flat(n_in), Shape::flat(at.len()))?;
                let w = get_f32s(&mut buf)?;
                let b = get_f32s(&mut buf)?;
                if n_in.checked_mul(n_out) != Some(w.len()) || b.len() != n_out {
                    return Err(malformed("dense param size"));
                }
                model.push(Box::new(Dense::from_parts(n_in, n_out, w, b)));
            }
            tag => return Err(malformed(&format!("unknown layer tag {tag}"))),
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CnnSpec;

    fn model() -> Sequential {
        CnnSpec {
            input: Shape::new(1, 8, 8),
            conv_channels: vec![3],
            kernel: 3,
            dense_units: 4,
        }
        .build(77)
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let mut m = model();
        let bytes = save(&m).unwrap();
        let mut m2 = load(&bytes).unwrap();
        let input: Vec<f32> = (0..64).map(|i| (i % 9) as f32 / 9.0).collect();
        assert_eq!(m.forward(&input), m2.forward(&input));
        assert_eq!(m.flops(), m2.flops());
        assert_eq!(m.param_count(), m2.param_count());
    }

    #[test]
    fn roundtrip_preserves_architecture() {
        let m = model();
        let m2 = load(&save(&m).unwrap()).unwrap();
        assert_eq!(m.summary(), m2.summary());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(load(b"NOPE"), Err(SerializeError::Malformed(_))));
    }

    #[test]
    fn rejects_future_version() {
        let m = model();
        let mut bytes = save(&m).unwrap();
        bytes[4] = 99;
        assert!(matches!(
            load(&bytes),
            Err(SerializeError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let m = model();
        let bytes = save(&m).unwrap();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                load(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// A stream of one layer over an input of `c` x 1 x 1.
    fn one_layer(c: u32, tag: u8, body: &[u32]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        for v in [c, 1, 1, 1] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(tag);
        for &v in body {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn rejects_impossible_geometry() {
        // A pool over 1x1 planes; a conv whose weight count overflows
        // (c = out_c = k = u32::MAX, empty weights and bias).
        let pool = one_layer(1, TAG_POOL, &[1, 1, 1]);
        let max = u32::MAX;
        let conv = one_layer(max, TAG_CONV, &[max, 1, 1, max, max, 0, 0]);
        // A ReLU over 2 values after a 1-value input.
        let relu = one_layer(1, TAG_RELU, &[2, 1, 1]);
        for bytes in [pool, conv, relu] {
            assert!(matches!(load(&bytes), Err(SerializeError::Malformed(_))));
        }
    }
}
