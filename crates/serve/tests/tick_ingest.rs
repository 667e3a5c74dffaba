//! A standing query's tick prepares its arrivals on the render lanes and
//! commits them on the tick thread in id order. These tests hold that to
//! the one-frame-at-a-time `ingest` it replaced: the same segment files,
//! and, under an injected commit fault, the same parking and the same
//! retried window.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use tahoma_imagery::{ObjectKind, TranscodeEngine};
use tahoma_serve::fixture::{nn_service, NnFixtureConfig};
use tahoma_serve::{QueryService, StreamRegistry};
use tahoma_video::{StreamConfig, StreamIngest};

const SQL: &str = "SELECT * FROM frames WHERE contains_object(fence)";
const REGISTRY_SEED: u64 = 0xBEEF;
const CORPUS: usize = 32;
/// Arrivals per tick: the judged `standing` workload's step.
const STEP: u64 = 16;
const TICKS: u64 = 3;

/// Faults are armed process-wide; one test of this file at a time.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tahoma-tick-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service(dir: &Path) -> QueryService {
    nn_service(&NnFixtureConfig {
        kinds: vec![ObjectKind::Fence],
        corpus_n: CORPUS,
        seed: 0x7A40,
        store_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
}

/// A registry with one standing query whose ticks ingest `STEP` frames.
fn standing(service: &QueryService) -> (StreamRegistry, u64) {
    let registry = StreamRegistry::new(REGISTRY_SEED);
    let r = registry
        .register(service, "coral", STEP, STEP, SQL)
        .expect("registers");
    (registry, r.qid)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Sync the service's store and hash the manifest and every shard file.
fn synced_file_hashes(service: &QueryService, dir: &Path) -> Vec<(String, u64)> {
    let store = service.nn_store(ObjectKind::Fence).expect("nn store");
    store.sync().unwrap();
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

#[test]
fn ticks_write_the_bytes_of_a_serial_ingest_loop() {
    let _g = test_lock();
    let dir = tmp_dir("lanes");
    let svc = service(&dir);
    let (registry, qid) = standing(&svc);
    for _ in 0..TICKS {
        registry.tick(&svc, qid).expect("ticks");
    }
    let got = synced_file_hashes(&svc, &dir);

    // The registry's stream for this qid, restated: seeded from the
    // registry seed and the qid, planting the query's kind, ids from
    // `qid << 32`. Its frames go in through `ingest`, one at a time.
    let ref_dir = tmp_dir("serial");
    let reference = service(&ref_dir);
    let config = StreamConfig::coral(REGISTRY_SEED ^ qid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut twin = StreamIngest::new(config, ObjectKind::Fence, 64, qid << 32);
    let store = reference.nn_store(ObjectKind::Fence).expect("nn store");
    let mut engine = TranscodeEngine::new();
    for _ in 0..TICKS * STEP {
        let f = twin.next_ingest(&mut engine);
        store.ingest(f.id, &f.image).unwrap();
    }
    assert_eq!(got, synced_file_hashes(&reference, &ref_dir));
    drop((svc, reference));
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&ref_dir).ok();
}

mod faults {
    use super::*;
    use tahoma_faults::{fire, install, site, FaultPlan};
    use tahoma_imagery::Representation;

    /// A plan seed at `rate`‰ whose first `pattern.len()` decisions at
    /// `site` are exactly `pattern`.
    fn seed_with_decisions(site: u32, rate: u16, pattern: &[bool]) -> u64 {
        (0..1 << 20)
            .find(|&seed| {
                let _armed = install(FaultPlan::new(seed).with_rate(site, rate));
                pattern.iter().all(|&want| fire(site) == want)
            })
            .expect("a seed with the wanted decisions")
    }

    /// One tick's outcome, comparable across runs.
    type Tick = (usize, u64, Vec<u64>, Vec<u64>);

    fn tick(registry: &StreamRegistry, svc: &QueryService, qid: u64) -> Tick {
        let t = registry.tick(svc, qid).expect("ticks");
        (t.matched, t.sum, t.deltas.added, t.deltas.removed)
    }

    /// Run the script with the first tick under `plan_seed`'s plan at
    /// `site`: that tick must fail with frames `k..` parked and nothing of
    /// them stored, and every retried tick must equal the fault-free one.
    fn check_fault(
        site: u32,
        rate: u16,
        plan_seed: u64,
        k: u64,
        base: &[Tick],
        files: &[(String, u64)],
    ) {
        let dir = tmp_dir(&format!("fault-{site}"));
        let svc = service(&dir);
        let (registry, qid) = standing(&svc);
        let store = svc.nn_store(ObjectKind::Fence).expect("nn store");
        {
            let _armed = install(FaultPlan::new(plan_seed).with_rate(site, rate));
            let err = registry
                .tick(&svc, qid)
                .expect_err("the commit of frame k fails");
            assert!(err.to_string().contains("stream ingest"), "{err}");
        }
        assert_eq!(store.frames(), CORPUS as u64 + k, "site {site}");
        let rep = Representation::new(24, tahoma_imagery::ColorMode::Gray);
        for j in 0..STEP {
            let stored = store.stored_bytes((qid << 32) | j, rep).is_some();
            assert_eq!(stored, j < k, "site {site}: frame {j} stored = {stored}");
        }
        let retried: Vec<Tick> = (0..TICKS).map(|_| tick(&registry, &svc, qid)).collect();
        assert_eq!(retried, base, "site {site}: retried window");
        let s = registry.status(&svc, qid).expect("status");
        assert!(s.agree && !s.degraded);
        assert_eq!(synced_file_hashes(&svc, &dir), files, "site {site}: files");
        drop(svc);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_commit_fault_at_frame_k_parks_it_and_every_later_frame() {
        let _g = test_lock();
        let dir = tmp_dir("fault-free");
        let svc = service(&dir);
        let (registry, qid) = standing(&svc);
        let base: Vec<Tick> = (0..TICKS).map(|_| tick(&registry, &svc, qid)).collect();
        let files = synced_file_hashes(&svc, &dir);
        drop(svc);
        fs::remove_dir_all(&dir).ok();

        // STORE_INGEST fires once per frame commit: fault the sixth.
        let k = 5;
        let pattern: Vec<bool> = (0..=k).map(|i| i == k).collect();
        let seed = seed_with_decisions(site::STORE_INGEST, 200, &pattern);
        check_fault(site::STORE_INGEST, 200, seed, k as u64, &base, &files);

        // SEG_WRITE fires once per record append (three per frame), and a
        // transient one is retried in the commit: fault every attempt of
        // frame 2's first record, so the retries run out.
        let k = 2;
        let pattern: Vec<bool> = (0..3 * k + 4).map(|i| i >= 3 * k).collect();
        let seed = seed_with_decisions(site::SEG_WRITE, 500, &pattern);
        check_fault(site::SEG_WRITE, 500, seed, k as u64, &base, &files);
    }
}
