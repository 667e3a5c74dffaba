//! Persistence smoke driver: ingest a deterministic corpus into the
//! segment store in one process, verify it byte-for-byte from another.
//!
//! ```text
//! store_persist_smoke ingest DIR [N]   # build a persistent store under DIR
//! store_persist_smoke verify DIR [N]   # reopen DIR, CRC-verify, compare
//! ```
//!
//! CI runs `ingest` and `verify` as two separate processes — a real
//! process drop between write and read. `verify` recomputes every expected blob from the same
//! deterministic frames (seeded by the id, independent of the store) and
//! exits non-zero on any divergence, missing record, or CRC failure.

use std::path::Path;
use std::process::exit;
use tahoma_imagery::codec::quantize_roundtrip;
use tahoma_imagery::repr::apply_reference;
use tahoma_imagery::{ColorMode, Image, RawCodec, Representation, RepresentationStore};

const SHARDS: usize = 4;
const DEFAULT_N: u64 = 512;

fn reps() -> Vec<Representation> {
    vec![
        Representation::new(24, ColorMode::Gray),
        Representation::new(32, ColorMode::Rgb),
    ]
}

fn frame(id: u64) -> Image {
    Image::from_fn(64, 64, ColorMode::Rgb, move |c, y, x| {
        let h = (x as u64 * 31 + y as u64 * 7 + c as u64 * 97 + id * 13) % 19;
        h as f32 / 18.0
    })
    .expect("valid dims")
}

fn usage() -> ! {
    eprintln!("usage: store_persist_smoke <ingest|verify> DIR [N]");
    exit(2);
}

fn ingest(dir: &Path, n: u64) {
    let store = RepresentationStore::persistent(reps(), dir, SHARDS).unwrap_or_else(|e| {
        eprintln!("create {}: {e}", dir.display());
        exit(1);
    });
    for id in 0..n {
        if let Err(e) = store.ingest(id, &frame(id)) {
            eprintln!("ingest id {id}: {e}");
            exit(1);
        }
    }
    if let Err(e) = store.sync() {
        eprintln!("sync: {e}");
        exit(1);
    }
    println!(
        "ingested {n} frames x {} reps = {} records, {} payload bytes, {SHARDS} shards",
        reps().len(),
        n * reps().len() as u64,
        store.total_bytes(),
    );
}

fn verify(dir: &Path, n: u64) {
    let (store, report) = RepresentationStore::open(dir).unwrap_or_else(|e| {
        eprintln!("open {}: {e}", dir.display());
        exit(1);
    });
    if report.truncated_bytes != 0 {
        eprintln!(
            "recovery truncated {} bytes of a clean store",
            report.truncated_bytes
        );
        exit(1);
    }
    if store.frames() != n {
        eprintln!("expected {n} frames, recovered {}", store.frames());
        exit(1);
    }
    let verified = store.verify().unwrap_or_else(|e| {
        eprintln!("CRC verify: {e}");
        exit(1);
    });
    let expected_records = n * reps().len() as u64;
    if verified != expected_records {
        eprintln!("expected {expected_records} records, CRC-verified {verified}");
        exit(1);
    }
    // Recompute every blob from the deterministic frames without a store
    // (the direct transform of the frame snapped to the storage grid, then
    // the raw encoding) and compare byte-for-byte with what the store
    // serves.
    let mut mismatches = 0u64;
    for id in 0..n {
        let mut full = frame(id);
        quantize_roundtrip(&mut full);
        for &rep in &reps() {
            let want = RawCodec.encode(&apply_reference(&full, rep).expect("rgb frame"));
            let same = store
                .with_blob(id, rep, |b| b == want.as_ref())
                .unwrap_or_else(|e| {
                    eprintln!("read id {id} rep {rep}: {e}");
                    exit(1);
                });
            match same {
                Some(true) => {}
                Some(false) => {
                    eprintln!("byte mismatch at id {id} rep {rep}");
                    mismatches += 1;
                }
                None => {
                    eprintln!("missing record id {id} rep {rep}");
                    mismatches += 1;
                }
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} records diverged");
        exit(1);
    }
    println!("verified {verified} records byte-identical across {SHARDS} shards");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (cmd, dir) = match (args.get(1), args.get(2)) {
        (Some(c), Some(d)) => (c.as_str(), Path::new(d)),
        _ => usage(),
    };
    let n = match args.get(3) {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => DEFAULT_N,
    };
    match cmd {
        "ingest" => ingest(dir, n),
        "verify" => verify(dir, n),
        _ => usage(),
    }
}
