//! Lane-prepared ingest writes the bytes of a one-frame-at-a-time loop.
//!
//! `RepresentationStore::prepare` runs on any thread and `commit` appends
//! in the caller's order, so a batch prepared on the process pool's lanes
//! and committed in id order must leave every shard file and the manifest
//! byte-identical to `ingest` called on each id in turn. Two batch shapes
//! are covered: a boot-shaped corpus (`ingest_on_lanes`, several waves on
//! the machine's lanes) and a tick-shaped batch (one frame per pool job, as
//! a standing query's tick prepares its arrivals). With zero pool workers
//! (a process pinned to one core, one lane) every job runs inline on the
//! caller, which is the serial order itself. A frame prepared and
//! committed by hand is also checked against bytes computed without the
//! store.

use std::fs;
use std::path::{Path, PathBuf};
use tahoma_imagery::codec::quantize_roundtrip;
use tahoma_imagery::engine::with_local_engine;
use tahoma_imagery::repr::apply_reference;
use tahoma_imagery::{
    ColorMode, Image, ObjectKind, RawCodec, Representation, RepresentationStore, SceneParams,
    SceneRenderer,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The serve fixture's stored representations.
fn served_reps() -> Vec<Representation> {
    vec![
        Representation::new(24, ColorMode::Gray),
        Representation::new(32, ColorMode::Rgb),
        Representation::new(64, ColorMode::Rgb),
    ]
}

/// The serve fixture's source frame: a `mod 13` ramp.
fn ramp_frame(seed: u64) -> Image {
    Image::from_fn(64, 64, ColorMode::Rgb, |c, y, x| {
        (((c as u64 * 31 + y as u64 * 7 + x as u64 * 3 + seed) % 13) as f32) / 13.0
    })
    .unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tahoma-lane-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a of the manifest and every shard file, by name.
fn file_hashes(dir: &Path) -> Vec<(String, u64)> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 9, "manifest + 8 shards: {names:?}");
    names
        .into_iter()
        .map(|n| {
            let h = fnv1a(&fs::read(dir.join(&n)).unwrap());
            (n, h)
        })
        .collect()
}

/// Ingest `ids` into a fresh 8-shard store under `dir` with `ingest`, one
/// frame at a time, and return the synced files' hashes.
fn serial(dir: &Path, ids: &[u64], make: &dyn Fn(u64) -> Image) -> Vec<(String, u64)> {
    let store = RepresentationStore::persistent(served_reps(), dir, 8).unwrap();
    for &id in ids {
        store.ingest(id, &make(id)).unwrap();
    }
    store.sync().unwrap();
    file_hashes(dir)
}

#[test]
fn boot_shaped_batch_on_lanes_writes_the_serial_bytes() {
    // Several waves at any lane count up to 4 (16 frames a lane a wave),
    // and a ragged last job.
    let ids: Vec<u64> = (0..301).collect();
    let make = |id: u64| ramp_frame(id ^ 1);
    let base = tmp_dir("boot-serial");
    let want = serial(&base, &ids, &make);
    let dir = tmp_dir("boot-lanes");
    let store = RepresentationStore::persistent(served_reps(), &dir, 8).unwrap();
    store.ingest_on_lanes(&ids, make).unwrap();
    assert_eq!(store.frames(), ids.len() as u64);
    store.sync().unwrap();
    assert_eq!(file_hashes(&dir), want);
    for d in [base, dir] {
        fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn tick_shaped_batch_prepared_per_frame_writes_the_serial_bytes() {
    // A standing query's tick: 16 rendered arrivals with stream ids, each
    // prepared in its own pool job, then committed in id order.
    let renderer = SceneRenderer::new(ObjectKind::Fence, SceneParams::small(64), 0xBEEF);
    let ids: Vec<u64> = (0..16).map(|k| (3 << 32) | k).collect();
    let make = |id: u64| renderer.render(id & 0xffff_ffff, id.is_multiple_of(3)).0;
    let base = tmp_dir("tick-serial");
    let want = serial(&base, &ids, &make);

    let dir = tmp_dir("tick-lanes");
    let store = RepresentationStore::persistent(served_reps(), &dir, 8).unwrap();
    let mut prepared: Vec<Option<_>> = ids.iter().map(|_| None).collect();
    tahoma_mathx::pool::scope(|s| {
        for (&id, slot) in ids.iter().zip(prepared.iter_mut()) {
            let (store, make) = (&store, &make);
            s.spawn(move || {
                *slot = Some(with_local_engine(|e| store.prepare(id, &make(id), e)).unwrap());
            });
        }
    });
    for p in &prepared {
        store.commit(p.as_ref().unwrap()).unwrap();
    }
    store.sync().unwrap();
    assert_eq!(file_hashes(&dir), want);

    // The same batch through `ingest_on_lanes` (jobs of four frames, one
    // wave) writes them too.
    let dir2 = tmp_dir("tick-batch");
    let store = RepresentationStore::persistent(served_reps(), &dir2, 8).unwrap();
    store.ingest_on_lanes(&ids, make).unwrap();
    store.sync().unwrap();
    assert_eq!(file_hashes(&dir2), want);
    for d in [base, dir, dir2] {
        fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn a_prepared_frame_commits_the_direct_apply_bytes() {
    // Oracle: the direct per-representation transform of the frame snapped
    // to the storage quantizer's grid, then the raw encoding.
    let store = RepresentationStore::temporary(served_reps()).unwrap();
    let mut want_total = 0;
    for id in 0..5u64 {
        let f = ramp_frame(id);
        let p = with_local_engine(|e| store.prepare(id, &f, e)).unwrap();
        store.commit(&p).unwrap();
        let mut f_q = f.clone();
        quantize_roundtrip(&mut f_q);
        for &rep in store.representations() {
            let want = RawCodec.encode(&apply_reference(&f_q, rep).unwrap());
            want_total += want.len();
            let got = store.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
            assert_eq!(got, want.as_ref(), "id {id} rep {rep}");
        }
    }
    assert_eq!(store.total_bytes(), want_total);
    assert_eq!(store.frames(), 5);
}
