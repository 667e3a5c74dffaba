//! A temporary store is ordinary segment files whose directory is gone
//! before the first write: it serves, syncs and verifies like a persistent
//! one, and leaves nothing under the temp dir. Its own test binary, so no
//! other store is being created in this process while the directory
//! listing is read.

use std::fs;
use tahoma_imagery::{ColorMode, Image, Representation, RepresentationStore, TranscodeEngine};

fn temp_dirs_of_this_process() -> Vec<String> {
    let prefix = format!("tahoma-temp-store-{}-", std::process::id());
    fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn temporary_store_serves_from_files_that_no_directory_names() {
    let reps = vec![
        Representation::new(16, ColorMode::Gray),
        Representation::new(32, ColorMode::Rgb),
    ];
    let store = RepresentationStore::temporary(reps.clone()).unwrap();
    if cfg!(unix) {
        assert_eq!(temp_dirs_of_this_process(), Vec::<String>::new());
    }
    for id in 0..40u64 {
        let frame = Image::from_fn(32, 32, ColorMode::Rgb, |c, y, x| {
            ((c * 5 + y * 3 + x + id as usize) % 7) as f32 / 7.0
        })
        .unwrap();
        store.ingest(id, &frame).unwrap();
    }
    store.sync().unwrap();
    assert_eq!(store.verify().unwrap(), 80);
    assert_eq!(store.frames(), 40);
    let mut engine = TranscodeEngine::new();
    for id in 0..40u64 {
        for &rep in &reps {
            let img = store.fetch(id, rep, &mut engine).unwrap().unwrap();
            assert_eq!((img.width(), img.mode()), (rep.size, rep.mode));
            engine.recycle([img]);
        }
    }
}
