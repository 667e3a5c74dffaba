//! Self-contained binary serialization of trained models (`TAHN` format).
//!
//! The paper's system initializes a model repository per predicate and keeps
//! it for query time; persisting weights makes that repository durable. The
//! format is deliberately simple: header, layer count, then per layer a type
//! code, geometry, and raw little-endian f32 parameters.

use crate::layer::{Conv2d, Dense, Layer, MaxPool2, Relu};
use crate::model::Sequential;
use crate::tensor::Shape;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"TAHN";
const VERSION: u8 = 1;

const TAG_CONV: u8 = 1;
const TAG_POOL: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_DENSE: u8 = 4;

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Stream is not a TAHN model or is truncated.
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

fn put_shape(buf: &mut BytesMut, s: Shape) {
    buf.put_u32_le(s.c as u32);
    buf.put_u32_le(s.h as u32);
    buf.put_u32_le(s.w as u32);
}

fn get_shape(buf: &mut &[u8]) -> Result<Shape, SerializeError> {
    if buf.remaining() < 12 {
        return Err(SerializeError::Malformed("truncated shape".into()));
    }
    Ok(Shape::new(
        buf.get_u32_le() as usize,
        buf.get_u32_le() as usize,
        buf.get_u32_le() as usize,
    ))
}

fn put_f32s(buf: &mut BytesMut, xs: &[f32]) {
    buf.put_u32_le(xs.len() as u32);
    for &x in xs {
        buf.put_f32_le(x);
    }
}

fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, SerializeError> {
    if buf.remaining() < 4 {
        return Err(SerializeError::Malformed("truncated f32 count".into()));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return Err(SerializeError::Malformed("truncated f32 payload".into()));
    }
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

/// Serialize a model to bytes.
///
/// Only layers produced by `CnnSpec::build` (conv/pool/relu/dense) are
/// supported; an unknown layer kind yields `UnsupportedLayer`.
pub fn save(model: &Sequential) -> Result<Bytes, SerializeError> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_shape(&mut buf, model.input_shape());
    buf.put_u32_le(model.layers().len() as u32);
    for layer in model.layers() {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            buf.put_u8(TAG_CONV);
            let (input, out_c, k) = conv.geometry();
            put_shape(&mut buf, input);
            buf.put_u32_le(out_c as u32);
            buf.put_u32_le(k as u32);
            let (w, b) = conv.weights_bias();
            put_f32s(&mut buf, w);
            put_f32s(&mut buf, b);
        } else if let Some(pool) = any.downcast_ref::<MaxPool2>() {
            buf.put_u8(TAG_POOL);
            put_shape(&mut buf, pool.input_shape());
        } else if let Some(relu) = any.downcast_ref::<Relu>() {
            buf.put_u8(TAG_RELU);
            put_shape(&mut buf, relu.output_shape());
        } else if let Some(dense) = any.downcast_ref::<Dense>() {
            buf.put_u8(TAG_DENSE);
            let (n_in, n_out) = dense.geometry();
            buf.put_u32_le(n_in as u32);
            buf.put_u32_le(n_out as u32);
            let (w, b) = dense.weights_bias();
            put_f32s(&mut buf, w);
            put_f32s(&mut buf, b);
        } else {
            return Err(SerializeError::UnsupportedLayer(layer.name()));
        }
    }
    Ok(buf.freeze())
}

/// Deserialize a model saved with [`save`].
pub fn load(bytes: &[u8]) -> Result<Sequential, SerializeError> {
    let mut buf = bytes;
    if buf.remaining() < 5 || &buf[..4] != MAGIC {
        return Err(SerializeError::Malformed("bad magic".into()));
    }
    buf.advance(4);
    let version = buf.get_u8();
    if version != VERSION {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    let input = get_shape(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(SerializeError::Malformed("truncated layer count".into()));
    }
    let n_layers = buf.get_u32_le() as usize;
    let mut model = Sequential::new(input);
    for _ in 0..n_layers {
        if buf.remaining() < 1 {
            return Err(SerializeError::Malformed("truncated layer tag".into()));
        }
        match buf.get_u8() {
            TAG_CONV => {
                let input = get_shape(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(SerializeError::Malformed("truncated conv geom".into()));
                }
                let out_c = buf.get_u32_le() as usize;
                let k = buf.get_u32_le() as usize;
                let w = get_f32s(&mut buf)?;
                let b = get_f32s(&mut buf)?;
                if w.len() != out_c * input.c * k * k || b.len() != out_c {
                    return Err(SerializeError::Malformed("conv param size".into()));
                }
                model.push(Box::new(Conv2d::from_parts(input, out_c, k, w, b)));
            }
            TAG_POOL => {
                let input = get_shape(&mut buf)?;
                model.push(Box::new(MaxPool2::new(input)));
            }
            TAG_RELU => {
                let shape = get_shape(&mut buf)?;
                model.push(Box::new(Relu::new(shape)));
            }
            TAG_DENSE => {
                if buf.remaining() < 8 {
                    return Err(SerializeError::Malformed("truncated dense geom".into()));
                }
                let n_in = buf.get_u32_le() as usize;
                let n_out = buf.get_u32_le() as usize;
                let w = get_f32s(&mut buf)?;
                let b = get_f32s(&mut buf)?;
                if w.len() != n_in * n_out || b.len() != n_out {
                    return Err(SerializeError::Malformed("dense param size".into()));
                }
                model.push(Box::new(Dense::from_parts(n_in, n_out, w, b)));
            }
            tag => {
                return Err(SerializeError::Malformed(format!(
                    "unknown layer tag {tag}"
                )));
            }
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
        let mut bytes = save(&m).unwrap().to_vec();
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
}
