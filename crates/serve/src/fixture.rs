//! Ready-to-serve service fixtures, shared by `tests/concurrency.rs`,
//! `tests/work_budget.rs`, the `tahoma-serve` binary, the judge
//! (`benchmark/`) and the CI smoke jobs.
//!
//! Two backends:
//!
//! * [`surrogate_service`] — per-kind surrogate model families over the
//!   paper's variant grid, planned through the full paper cascade space.
//!   No pixels move; this is the cheap fixture for protocol/server tests
//!   and for exercising the plan cache over many predicates.
//! * [`nn_service`] — real CNN inference end to end: a shared
//!   [`RepresentationStore`] of raster frames, one two-level model zoo per
//!   kind, and decision cuts calibrated from each network's live score
//!   distribution (untrained weights cluster instead of separating, so the
//!   surrogate config split's calibration would never decide anything).
//!   This is the fixture coalescing is measured on.
//!
//! Both serve every kind over the service's one corpus, and both are
//! deterministic in `seed` — two services built with the same arguments
//! answer every query identically, which the concurrency tests lean on.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "fixture construction runs once at startup (bench, test and CI service \
              bootstrap), never on the query path; a panic here is a build bug surfaced \
              immediately, not a serving failure"
)]

use crate::service::QueryService;
use std::path::PathBuf;
use std::sync::Arc;
use tahoma_core::exec::{BatchScorer, NnSessionScratch, ScorePack, SharedModelZoo, SharedNnScorer};
use tahoma_core::pipeline::TahomaSystem;
use tahoma_core::query::{Corpus, CorpusItem};
use tahoma_core::thresholds::{DecisionThresholds, ThresholdTable};
use tahoma_core::BuilderConfig;
use tahoma_costmodel::{AnalyticProfiler, DeviceProfile, Scenario};
use tahoma_imagery::{ColorMode, Image, ObjectKind, Representation, RepresentationStore};
use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
use tahoma_zoo::variant::{cross_variants, paper_variants};
use tahoma_zoo::{ArchSpec, ModelId, ModelKind, PredicateSpec, SurrogateScorer};

/// Accuracy-loss target every fixture service plans at (matches the SQL
/// console's default).
pub const ACCURACY_LOSS: f64 = 0.02;

/// Surrogate-backed service over `kinds`, all sharing one synthetic
/// corpus of `corpus_n` items.
pub fn surrogate_service(kinds: &[ObjectKind], corpus_n: usize, seed: u64) -> QueryService {
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let corpus = Arc::new(Corpus::synthetic(corpus_n, 0.3, seed));
    let mut service = QueryService::new(profiler, ACCURACY_LOSS, corpus);
    for &kind in kinds {
        let pred = PredicateSpec::for_kind(kind);
        let cfg = SurrogateBuildConfig {
            n_config: 300,
            n_eval: 400,
            seed: seed ^ (0x51C0 + kind.index() as u64),
            variants: Some(paper_variants().into_iter().step_by(8).collect()),
            ..Default::default()
        };
        let scorer = SurrogateScorer {
            pred,
            params: cfg.params,
            seed: cfg.seed,
        };
        let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
        let system = TahomaSystem::initialize_paper_main(repo);
        service.add_surrogate_kind(kind, system, scorer);
    }
    service
}

/// Knobs for the real-NN fixture.
#[derive(Debug, Clone)]
pub struct NnFixtureConfig {
    /// Served predicates (each gets its own two-level zoo).
    pub kinds: Vec<ObjectKind>,
    /// Shared corpus size.
    pub corpus_n: usize,
    /// Per-kind object prevalence in the synthetic corpus.
    pub prevalence: f64,
    /// Root seed: frames, surrogate pricing, and network weights all
    /// derive from it.
    pub seed: u64,
    /// When set, keep the shared frame store's segment files under this
    /// directory. A directory holding a compatible store (same
    /// representations, same corpus size — the frames are deterministic in
    /// `seed`) is reopened as-is, so a service can restart without
    /// re-ingesting; anything else is recreated from scratch. Without it
    /// the store is [`RepresentationStore::temporary`]: the same files,
    /// deleted with the service and never reopened.
    pub store_dir: Option<PathBuf>,
    /// Sweep every stored record's CRC at build time
    /// ([`RepresentationStore::verify_and_quarantine`]); corrupt records
    /// are quarantined — served via the transcode-from-source degradation
    /// path — instead of failing the boot. The `tahoma-serve` binary's
    /// `--verify-on-open` flag sets this.
    pub verify_on_open: bool,
}

impl Default for NnFixtureConfig {
    fn default() -> NnFixtureConfig {
        NnFixtureConfig {
            kinds: vec![ObjectKind::Fence, ObjectKind::Wallet],
            corpus_n: 384,
            prevalence: 0.35,
            seed: 0x7A40,
            store_dir: None,
            verify_on_open: false,
        }
    }
}

/// Deterministic synthetic raster frame: sample `(c, y, x)` is
/// `((c·31 + y·7 + x·3 + seed) mod 13) / 13`.
///
/// No sample pays a division: stepping the residue by 3 per pixel reads a
/// 13-entry table into one ramp, `ramp[k] = ((3k) mod 13) / 13`. The ramp
/// repeats every 13 pixels, so each row is the slice of it starting where
/// `3k ≡ row residue (mod 13)`, i.e. at `k = 9 · residue mod 13` (9 is 3's
/// inverse mod 13). The bits equal the formula's for every seed at which
/// the formula's sum does not overflow.
pub fn frame(seed: u64, size: usize) -> Image {
    let levels: [f32; 13] = std::array::from_fn(|r| r as f32 / 13.0);
    let mut r = 0;
    let ramp: Vec<f32> = (0..size + 12)
        .map(|_| {
            let v = levels[r];
            r = if r >= 10 { r - 10 } else { r + 3 };
            v
        })
        .collect();
    let seed = (seed % 13) as usize;
    let mut data = Vec::with_capacity(3 * size * size);
    for c in 0..3 {
        for y in 0..size {
            let start = 9 * ((c * 31 + y * 7 + seed) % 13) % 13;
            data.extend_from_slice(&ramp[start..start + size]);
        }
    }
    Image::from_planar(size, size, ColorMode::Rgb, data).unwrap()
}

/// Decision cuts for one model from its live score distribution: three
/// progressively stricter settings (matching the fixture's three planner
/// precision settings), each deciding the tails and leaving the middle to
/// the next level.
fn quantile_cuts(scores: &[f32]) -> Vec<DecisionThresholds> {
    let mut sorted = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    let cut = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
    [(0.35, 0.65), (0.30, 0.70), (0.20, 0.80)]
        .iter()
        .map(|&(lo, hi)| DecisionThresholds {
            p_low: cut(lo),
            p_high: cut(hi),
        })
        .collect()
}

/// The NN fixture's stored representations: the two model inputs, and the
/// full-resolution source frame. The source is stored alongside the model
/// inputs so a quarantined (CRC-bad) model-input record can be re-derived
/// by transcoding — the degradation ladder's last store rung
/// (RELIABILITY.md).
const NN_REPS: (Representation, Representation, Representation) = (
    Representation::new(24, ColorMode::Gray),
    Representation::new(32, ColorMode::Rgb),
    Representation::new(64, ColorMode::Rgb),
);

/// The two zoo levels' architectures. Wide dense heads on purpose: the
/// packed weight matrix is the per-call fixed cost (§IV batch pricing) that
/// cross-query coalescing amortizes, so the serving fixture gives it
/// realistic weight relative to per-row compute (production detectors are
/// far denser still).
const NN_ARCHS: (ArchSpec, ArchSpec) = (
    ArchSpec {
        conv_layers: 1,
        conv_nodes: 8,
        dense_nodes: 256,
    },
    ArchSpec {
        conv_layers: 2,
        conv_nodes: 8,
        dense_nodes: 320,
    },
);

/// Real-NN service: shared frame store, per-kind zoos with untrained CNNs
/// at two representation levels, live-calibrated execution thresholds,
/// coalescing brokers.
///
/// Needs `cfg.corpus_n >= 1`: the thresholds are quantiles of the corpus's
/// own scores (the `tahoma-serve` binary rejects `--corpus 0` up front).
pub fn nn_service(cfg: &NnFixtureConfig) -> QueryService {
    let (rep0, rep1, rep_src) = NN_REPS;
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let corpus = Arc::new(Corpus::synthetic(cfg.corpus_n, cfg.prevalence, cfg.seed));
    let mut service = QueryService::new(profiler, ACCURACY_LOSS, Arc::clone(&corpus));

    // One store serves every kind: frames are per item, not per predicate.
    // With `store_dir` set a compatible directory is reopened (recovery +
    // CRC verification) instead of re-ingested, so reopen serves the exact
    // bytes the previous process wrote.
    let reps = vec![rep0, rep1, rep_src];
    let store = match &cfg.store_dir {
        None => RepresentationStore::temporary(reps).unwrap(),
        Some(dir) => match RepresentationStore::open(dir) {
            Ok((existing, _report))
                if existing.representations() == reps
                    && existing.frames() == corpus.items.len() as u64
                    && (cfg.verify_on_open || existing.verify().is_ok()) =>
            {
                existing
            }
            _ => RepresentationStore::persistent(reps, dir, 8).unwrap(),
        },
    };
    // A fresh store ingests the corpus on the lanes (frames built and
    // prepared in parallel, committed in id order: the bytes of a serial
    // loop), and its sync then runs beside the calibration scoring below,
    // which only reads records already committed and published.
    let fresh = store.frames() == 0;
    if fresh {
        let ids: Vec<u64> = corpus.items.iter().map(|item| item.id).collect();
        store
            .ingest_on_lanes(&ids, |id| frame(id ^ cfg.seed, 64))
            .unwrap();
    }
    if cfg.verify_on_open {
        // Quarantine rather than reject: CRC-bad records degrade to the
        // transcode-from-source path, and the count shows up in `STATS`.
        let _ = store.verify_and_quarantine();
    }
    let store = Arc::new(store);
    std::thread::scope(|s| {
        // The fsync is a wait on the device, not work for a lane: it gets
        // its own thread, and is joined before the service is returned, so
        // nothing listens before the store is durable.
        let synced = fresh.then(|| s.spawn(|| store.sync()));
        add_nn_kinds(&mut service, cfg, &store, &corpus);
        if let Some(synced) = synced {
            synced.join().expect("store sync panicked").unwrap();
        }
    });
    service
}

/// Plan, build and calibrate every kind of `cfg` over the shared store.
///
/// Every value that outlives the boot — systems, networks, score vectors —
/// is made before the one scoring scratch, and the cuts and service
/// entries after it is dropped, so nothing that lives on sits above the
/// scratch's freed buffers and keeps the heap from shrinking back. One
/// scratch serves every kind, so its widest buffers are made once.
fn add_nn_kinds(
    service: &mut QueryService,
    cfg: &NnFixtureConfig,
    store: &Arc<RepresentationStore>,
    corpus: &Corpus,
) {
    let items: Vec<&CorpusItem> = corpus.items.iter().collect();
    let mut kinds: Vec<_> = cfg
        .kinds
        .iter()
        .enumerate()
        .map(|(ki, &kind)| {
            let (system, zoo) = nn_kind(cfg, ki, kind);
            // The scores are kept: a conjunction is ordered by each
            // cascade's walk over them, at no extra inference.
            let corpus_scores: Vec<Vec<f32>> = (0..system.repo.len())
                .map(|id| match zoo.input_rep(ModelId(id as u32)) {
                    Some(_) => Vec::with_capacity(items.len()),
                    None => Vec::new(),
                })
                .collect();
            (kind, system, zoo, corpus_scores)
        })
        .collect();
    {
        let mut scratch = NnSessionScratch::new();
        for (_, _, zoo, corpus_scores) in &mut kinds {
            let mut scorer = SharedNnScorer::new(store, zoo, &mut scratch);
            for (id, scores) in corpus_scores.iter_mut().enumerate() {
                if zoo.input_rep(ModelId(id as u32)).is_some() {
                    scorer
                        .score_batch(ModelId(id as u32), ScorePack::standalone(&items), scores)
                        .expect("the fixture store holds every model's input representation");
                }
            }
        }
    }
    for (kind, system, zoo, corpus_scores) in kinds {
        // Execution-time threshold override calibrated from the live score
        // distributions (cascade selection still uses the system's table).
        let per_model = corpus_scores
            .iter()
            .enumerate()
            .map(|(id, scores)| match zoo.input_rep(ModelId(id as u32)) {
                Some(_) => quantile_cuts(scores),
                // The appended reference entry has no network; it never
                // appears in a planned cascade and must never decide.
                None => vec![DecisionThresholds::never_decide(); 3],
            })
            .collect();
        let exec_thresholds = ThresholdTable {
            settings: vec![0.93, 0.95, 0.99],
            per_model,
        };
        service.add_nn_kind(
            kind,
            system,
            Some(exec_thresholds),
            corpus_scores,
            Arc::clone(store),
            zoo,
        );
    }
}

/// The planned system and the two networks of `cfg`'s `ki`-th kind.
fn nn_kind(cfg: &NnFixtureConfig, ki: usize, kind: ObjectKind) -> (TahomaSystem, SharedModelZoo) {
    let (rep0, rep1, rep_src) = NN_REPS;
    let (arch0, arch1) = NN_ARCHS;
    // A surrogate repository supplies the (model id -> variant) table and
    // pricing; the scores come from the real networks below.
    let pred = PredicateSpec::for_kind(kind);
    let repo_cfg = SurrogateBuildConfig {
        n_config: 50,
        n_eval: 50,
        seed: cfg.seed ^ (ki as u64 + 1),
        variants: Some(
            cross_variants(&[arch0, arch1], &[rep0, rep1])
                .into_iter()
                .filter(|v| {
                    (v.input == rep0 && matches!(v.kind, ModelKind::Cnn(a) if a == arch0))
                        || (v.input == rep1 && matches!(v.kind, ModelKind::Cnn(a) if a == arch1))
                })
                .enumerate()
                .map(|(i, mut v)| {
                    v.id = ModelId(i as u32);
                    v
                })
                .collect(),
        ),
        ..Default::default()
    };
    let repo = build_surrogate_repository(pred, &repo_cfg, &DeviceProfile::k80());
    let builder = BuilderConfig {
        pool: repo.specialized_ids(),
        reference: None,
        n_settings: 3,
        max_pool_depth: 2,
        with_reference_terminal: false,
    };
    let system = TahomaSystem::initialize(repo, &[0.93, 0.95, 0.99], &builder);

    let mut zoo = SharedModelZoo::new().with_source(rep_src);
    let net_seed = cfg.seed ^ (0xA11 + 2 * ki as u64);
    zoo.register(
        ModelId(0),
        rep0,
        arch0.cnn_spec(rep0).build(net_seed).expect("valid spec"),
    );
    zoo.register(
        ModelId(1),
        rep1,
        arch1
            .cnn_spec(rep1)
            .build(net_seed + 1)
            .expect("valid spec"),
    );
    (system, zoo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_matches_the_mod_13_formula_bit_for_bit() {
        // The formula the stepped ramp replaces, evaluated per sample.
        let formula = |seed: u64, size: usize| {
            Image::from_fn(size, size, ColorMode::Rgb, |c, y, x| {
                (((c as u64 * 31 + y as u64 * 7 + x as u64 * 3 + seed) % 13) as f32) / 13.0
            })
            .unwrap()
        };
        let bits = |img: &Image| img.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Every seed the fixture passes: corpus ids (up to the judged
        // server's 2048) xor the judged root seed and the default one.
        for root in [1, NnFixtureConfig::default().seed] {
            for id in 0..2048u64 {
                for size in [1, 24, 64] {
                    let (got, want) = (frame(id ^ root, size), formula(id ^ root, size));
                    assert_eq!(
                        (got.width(), got.height(), got.mode()),
                        (want.width(), want.height(), want.mode())
                    );
                    assert!(bits(&got) == bits(&want), "seed {} size {size}", id ^ root);
                }
            }
        }
    }
}
