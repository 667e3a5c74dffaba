//! Hard-kill durability: SIGKILL `tahoma-serve` while it is ingesting the
//! persistent store, then reopen the directory and check that open-time
//! recovery (a) comes back clean — every surviving record passes CRC —
//! and (b) every survivor is byte-identical to the record a clean,
//! uninterrupted ingest of the same deterministic corpus produces. A
//! torn tail may be truncated; nothing may be silently corrupted.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tahoma_imagery::{ObjectKind, RepresentationStore};
use tahoma_serve::fixture::{nn_service, NnFixtureConfig};

const CORPUS: usize = 512;
const SEED: u64 = 0x7A40;

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

#[test]
fn sigkill_mid_ingest_recovers_with_byte_identical_survivors() {
    let root = std::env::temp_dir().join(format!("tahoma-hardkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let victim_dir = root.join("victim");
    let ref_dir = root.join("reference");

    // Launch the real server binary pointed at the victim store and
    // SIGKILL it as soon as the ingest has visibly written segment bytes
    // — squarely mid-ingest for a corpus this size.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tahoma-serve"))
        .args([
            "--backend",
            "nn",
            "--addr",
            "127.0.0.1:0",
            "--kinds",
            "fence,wallet",
            "--corpus",
            &CORPUS.to_string(),
            "--seed",
            &SEED.to_string(),
            "--store-dir",
        ])
        .arg(&victim_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tahoma-serve");
    let deadline = Instant::now() + Duration::from_secs(120);
    while dir_bytes(&victim_dir) < 256 * 1024 {
        assert!(
            Instant::now() < deadline,
            "ingest never wrote segment bytes"
        );
        if let Ok(Some(status)) = child.try_wait() {
            panic!("server exited before the kill: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Clean reference ingest of the identical deterministic corpus.
    drop(nn_service(&NnFixtureConfig {
        kinds: vec![ObjectKind::Fence, ObjectKind::Wallet],
        corpus_n: CORPUS,
        seed: SEED,
        store_dir: Some(ref_dir.clone()),
        ..Default::default()
    }));
    let (reference, ref_report) = RepresentationStore::open(&ref_dir).expect("open reference");
    assert_eq!(ref_report.reinitialized_shards, 0);

    // Reopen the killed store: recovery must succeed, and the full CRC
    // sweep must find zero bad survivors (torn tails were truncated).
    let (survivor, report) = RepresentationStore::open(&victim_dir).expect("recovery failed");
    let verified = survivor
        .verify()
        .expect("CRC sweep found a corrupt survivor");
    assert_eq!(verified, report.records, "verify() missed records");

    let keys = survivor.segments().keys();
    assert!(
        !keys.is_empty(),
        "kill landed before any complete record; nothing to compare"
    );
    assert!(
        (keys.len() as u64) < (CORPUS as u64) * 3,
        "kill landed after ingest finished; not a mid-ingest test (got {} records)",
        keys.len()
    );
    for (id, rep) in keys {
        let survivor_bytes = survivor
            .with_blob(id, rep, |b| b.to_vec())
            .expect("survivor read errored")
            .expect("indexed record unreadable");
        let reference_bytes = reference
            .with_blob(id, rep, |b| b.to_vec())
            .expect("reference read errored")
            .expect("survivor record absent from clean ingest");
        assert_eq!(
            survivor_bytes, reference_bytes,
            "record ({id}, {rep:?}) diverged from the clean ingest"
        );
    }

    drop(survivor);
    drop(reference);
    let _ = std::fs::remove_dir_all(&root);
}
