//! Byte-identity pins for the write side: a fixed ingest script into a
//! persistent 8-shard store must produce exactly these segment files, and
//! the scene renderer must produce exactly these rasters. Ingest may get
//! faster; what it writes may not change (answers stay representation-
//! independent: same bytes, different cost).

use std::fs;
use std::path::PathBuf;
use tahoma_imagery::{ColorMode, Image, ObjectKind, Representation, RepresentationStore};
use tahoma_imagery::{SceneParams, SceneRenderer};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fnv1a_f32(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The serve fixture's source frame: a `mod 13` ramp (replicated here so
/// this crate's tests need no `tahoma-serve`).
fn ramp_frame(seed: u64, size: usize) -> Image {
    Image::from_fn(size, size, ColorMode::Rgb, |c, y, x| {
        (((c as u64 * 31 + y as u64 * 7 + x as u64 * 3 + seed) % 13) as f32) / 13.0
    })
    .unwrap()
}

/// One frame of every value the quantizer must agree on: NaN (both signs,
/// with payload), ±∞, ±0, subnormals, out-of-range, exact halves of the
/// u8 grid and their float neighbours.
fn edge_frame(size: usize) -> Image {
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -1.0,
        2.0,
        1.0,
        f32::MAX,
        f32::MIN,
    ];
    Image::from_fn(size, size, ColorMode::Rgb, |c, y, x| {
        let i = (c * size + y) * size + x;
        let k = (i / 4) % 256;
        match i % 4 {
            0 => specials[(i / 4) % specials.len()],
            1 => (k as f32 + 0.5) / 255.0,
            2 => f32::from_bits(((k as f32 + 0.5) / 255.0).to_bits() + 1),
            _ => f32::from_bits(((k as f32 + 0.5) / 255.0).to_bits().saturating_sub(1)),
        }
    })
    .unwrap()
}

fn served_reps() -> Vec<Representation> {
    vec![
        Representation::new(24, ColorMode::Gray),
        Representation::new(32, ColorMode::Rgb),
        Representation::new(64, ColorMode::Rgb),
    ]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tahoma-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn ingest_script_writes_pinned_segment_files() {
    let dir = tmp_dir("store-bytes");
    let store = RepresentationStore::persistent(served_reps(), &dir, 8).unwrap();
    let mut id = 0u64;
    for seed in 0..256u64 {
        store.ingest(id, &ramp_frame(seed, 64)).unwrap();
        id += 1;
    }
    for kind in [ObjectKind::Fence, ObjectKind::Wallet] {
        let renderer = SceneRenderer::new(kind, SceneParams::small(64), 0x5eed);
        for k in 0..64u64 {
            let (img, _) = renderer.render(k, k % 3 == 0);
            store.ingest(id, &img).unwrap();
            id += 1;
        }
    }
    store.ingest(id, &edge_frame(64)).unwrap();
    store.sync().unwrap();

    // 24²·1 + 32²·3 + 64²·3 samples plus three 13-byte headers.
    let per_item = store.total_bytes() as u64 / store.frames();
    assert_eq!(per_item, 15_975, "bytes_per_item");
    assert_eq!(store.frames(), 385);

    let want: [(&str, u64); 9] = [
        ("manifest.tsm", 0x5d92_351d_ed7d_b5df),
        ("shard-0000.seg", 0x58e0_e899_2fe8_1ea5),
        ("shard-0001.seg", 0xfdf6_fb81_f8be_064c),
        ("shard-0002.seg", 0x100e_6528_b7e7_2488),
        ("shard-0003.seg", 0x34b3_09f5_d809_7640),
        ("shard-0004.seg", 0x1465_5780_ecef_5db8),
        ("shard-0005.seg", 0xe4a1_9a54_0939_23b1),
        ("shard-0006.seg", 0x47d2_3b1f_faae_f80c),
        ("shard-0007.seg", 0xa304_9050_2ddf_8bc5),
    ];
    for (name, h) in want {
        let got = fnv1a(&fs::read(dir.join(name)).unwrap());
        assert_eq!(got, h, "{name}: FNV-1a {got:#018x}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scene_renderer_output_is_pinned() {
    // (kind, seed, id, label) -> (FNV-1a of the raster's f32 bits,
    // difficulty bits).
    let cases = [
        (
            ObjectKind::Fence,
            0x5eed_u64,
            0u64,
            true,
            0x3a70_f951_e8a7_62f5_u64,
            0x3ef6_19d0_u32,
        ),
        (
            ObjectKind::Fence,
            0x5eed,
            17,
            false,
            0x7ae8_1ba7_1d34_bb90,
            0x3f1a_a2ad,
        ),
        (
            ObjectKind::Wallet,
            7,
            3,
            true,
            0x3453_408c_defa_296d,
            0x3ddc_434e,
        ),
        (
            ObjectKind::Wallet,
            7,
            1000,
            false,
            0x2c19_6523_259d_aca2,
            0x3ed5_0e7a,
        ),
    ];
    for (kind, seed, id, label, raster, difficulty) in cases {
        let (img, d) = SceneRenderer::new(kind, SceneParams::small(64), seed).render(id, label);
        let case = format!("{kind:?} seed {seed} id {id} label {label}");
        assert_eq!(fnv1a_f32(img.data()), raster, "{case}: raster");
        assert_eq!(d.to_bits(), difficulty, "{case}: difficulty");
    }
}
