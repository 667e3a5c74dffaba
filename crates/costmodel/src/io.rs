//! Measured store-read calibration and the §V storage-budget policy.
//!
//! The paper's §V frames representation storage as a *latency-for-bytes*
//! trade: materializing a lattice node at ingest spends storage
//! amplification to make every later fetch a raw read, while leaving it
//! virtual keeps bytes down but charges each query a source fetch plus a
//! transcode. Pricing that trade requires knowing what a persistent-store
//! read *actually* costs on the running machine — which, per the §IV
//! discipline, is measured rather than guessed:
//! [`IoProfile::measure`] ingests a scratch corpus into a real
//! [`RepresentationStore`] persistent tier, times the full
//! fetch-and-decode path for two payload size classes with
//! [`MeasuredProfiler`]'s median machinery, and affine-fits a per-fetch
//! overhead plus streaming throughput.
//!
//! [`plan_materialization`] then operationalizes the policy: given a
//! per-item byte budget, it greedily materializes the lattice nodes with
//! the highest query-latency gain per stored byte — gain being the
//! difference between the on-demand cost (source fetch + transcode priced
//! by [`TransformCostModel::transcode_costs`] through the engine's lattice
//! planner, exactly how the serving fallback in `core::exec` executes it)
//! and the direct fetch cost under the measured [`IoProfile`]. The source
//! representation is always materialized: the ONGOING scenario persists
//! the raw frame at ingest (§III) and every on-demand transcode starts
//! from it.

use crate::calibration;
use crate::profiler::MeasuredProfiler;
use crate::scenario::Scenario;
use crate::transform::TransformCostModel;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tahoma_imagery::codec::RAW_HEADER_LEN;
use tahoma_imagery::segment::RECORD_HEADER_LEN;
use tahoma_imagery::{
    ColorMode, Image, ImageryError, Representation, RepresentationStore, TranscodeEngine,
    TranscodePlan,
};

/// Measured cost of one persistent-store fetch, affine in the payload
/// size: `per_fetch_s + bytes / bytes_per_sec`. Covers the *whole* read
/// path the executor pays — shard index lookup, mmap (or pread) byte
/// access, and the raw-codec dequantization into a pooled `f32` buffer —
/// so planning against it prices what `RepresentationStore::fetch`
/// actually does, not just the device's streaming rate.
#[derive(Debug, Clone, PartialEq)]
pub struct IoProfile {
    /// Fixed per-fetch overhead, seconds.
    pub per_fetch_s: f64,
    /// Streaming throughput of the fetch+decode path, bytes per second.
    pub bytes_per_sec: f64,
}

impl IoProfile {
    /// Analytic fallback calibrated to the paper's SSD testbed: the
    /// per-request seek and streaming rate from
    /// [`crate::storage::StorageProfile::ssd`]. Real calibrations come out
    /// faster on a warm page cache; use [`IoProfile::measure`] when the
    /// plan will drive a live store.
    pub fn assumed_ssd() -> IoProfile {
        IoProfile {
            per_fetch_s: calibration::SSD_SEEK_S,
            bytes_per_sec: calibration::SSD_BYTES_PER_SEC,
        }
    }

    /// Seconds to fetch and decode a stored blob of `payload_bytes`.
    pub fn fetch_time(&self, payload_bytes: usize) -> f64 {
        self.per_fetch_s + payload_bytes as f64 / self.bytes_per_sec
    }

    /// Seconds to fetch and decode `rep`'s stored blob.
    pub fn rep_fetch_time(&self, rep: Representation) -> f64 {
        self.fetch_time(stored_payload_bytes(rep))
    }

    /// Measure this machine's store-read profile with the default
    /// profiler (median of 5 repetitions per size class).
    pub fn measure() -> Result<IoProfile, ImageryError> {
        let mut profiler = MeasuredProfiler::new(Scenario::Ongoing);
        profiler.repetitions = 5;
        IoProfile::measure_with(&profiler)
    }

    /// Measure with `profiler`'s median machinery: build a scratch
    /// persistent store in the system temp directory, ingest a small
    /// corpus, time warm fetch sweeps over a small and a large
    /// representation, and affine-fit the two points. The scratch
    /// directory is removed before returning.
    pub fn measure_with(profiler: &MeasuredProfiler) -> Result<IoProfile, ImageryError> {
        let dir = scratch_dir();
        let profile = measure_in(profiler, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        profile
    }
}

/// Distinguishable size classes for the affine fit: 913 B vs 43 213 B
/// payloads, far enough apart that the slope dominates timing noise.
const SMALL_REP: Representation = Representation::new(30, ColorMode::Gray);
const LARGE_REP: Representation = Representation::new(120, ColorMode::Rgb);
/// Corpus size for the calibration sweeps; one sweep fetches every item
/// once, so each timed sample aggregates this many fetches.
const CALIBRATION_ITEMS: u64 = 64;

fn measure_in(
    profiler: &MeasuredProfiler,
    dir: &std::path::Path,
) -> Result<IoProfile, ImageryError> {
    let store = RepresentationStore::persistent(vec![SMALL_REP, LARGE_REP], dir, 4)?;
    // A few distinct synthetic frames cycled across ids: enough to defeat
    // any value-dependent shortcut while keeping frame generation off the
    // calibration's critical path.
    let frames: Vec<Image> = (0..8)
        .map(|seed| {
            Image::from_fn(128, 128, ColorMode::Rgb, move |c, y, x| {
                let h = (x * 31 + y * 17 + c * 97 + seed * 13) % 251;
                h as f32 / 250.0
            })
            .expect("valid dims")
        })
        .collect();
    for id in 0..CALIBRATION_ITEMS {
        store.ingest(id, &frames[(id % 8) as usize])?;
    }
    store.sync()?;

    let mut engine = TranscodeEngine::new();
    let mut sweep = |rep: Representation| -> Result<f64, ImageryError> {
        let mut failed = None;
        let mut t = 0.0;
        // Two passes; the first warms every page so the size classes
        // measure the store's steady state rather than first-touch
        // faults, and only the second pass's median is kept.
        for _pass in 0..2 {
            t = profiler.time_median(|| {
                for id in 0..CALIBRATION_ITEMS {
                    match store.fetch(id, rep, &mut engine) {
                        Some(Ok(img)) => engine.recycle([black_box(img)]),
                        Some(Err(e)) => failed = Some(e),
                        None => {
                            failed = Some(ImageryError::Io(format!(
                                "calibration item {id} missing {rep}"
                            )))
                        }
                    }
                }
            });
            if let Some(e) = failed.take() {
                return Err(e);
            }
        }
        Ok(t / CALIBRATION_ITEMS as f64)
    };
    let t_small = sweep(SMALL_REP)?;
    let t_large = sweep(LARGE_REP)?;

    let b_small = stored_payload_bytes(SMALL_REP) as f64;
    let b_large = stored_payload_bytes(LARGE_REP) as f64;
    let slope = (t_large - t_small) / (b_large - b_small);
    if slope > 0.0 {
        Ok(IoProfile {
            per_fetch_s: (t_small - slope * b_small).max(0.0),
            bytes_per_sec: 1.0 / slope,
        })
    } else {
        // Timing noise inverted the two points (possible on a loaded
        // machine with everything in page cache); fall back to pure
        // throughput from the large class.
        Ok(IoProfile {
            per_fetch_s: 0.0,
            bytes_per_sec: b_large / t_large.max(1e-12),
        })
    }
}

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tahoma-io-calibration-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Bytes of `rep`'s raw-codec blob as stored in a segment payload.
pub fn stored_payload_bytes(rep: Representation) -> usize {
    RAW_HEADER_LEN + rep.value_count()
}

/// Bytes `rep` occupies on disk per item, record framing included.
pub fn stored_record_bytes(rep: Representation) -> usize {
    RECORD_HEADER_LEN + stored_payload_bytes(rep)
}

/// Seconds to serve `rep` on demand: fetch the stored source blob, then
/// transcode — priced through the engine's lattice planner with the
/// model's [`TransformCostModel::transcode_costs`], the same machinery the
/// serving fallback executes.
pub fn on_demand_cost_s(
    source: Representation,
    rep: Representation,
    transform: &TransformCostModel,
    io: &IoProfile,
) -> f64 {
    io.rep_fetch_time(source) + transcode_cost_s(source, rep, transform)
}

fn transcode_cost_s(
    source: Representation,
    rep: Representation,
    transform: &TransformCostModel,
) -> f64 {
    TranscodePlan::new(
        source.size,
        source.size,
        &[rep],
        &transform.transcode_costs(),
    )
    .planned_cost_s()
}

/// The materialization decision for one representation set under a byte
/// budget: which lattice nodes to write at ingest and which to transcode
/// on demand at fetch. Produced by [`plan_materialization`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializationPlan {
    /// The source (full-detail) representation; always materialized.
    pub source: Representation,
    /// Representations written at ingest, source included, in greedy
    /// selection order (best latency-gain per byte first, after the
    /// mandatory source).
    pub materialized: Vec<Representation>,
    /// Representations served by source fetch + transcode.
    pub on_demand: Vec<Representation>,
    /// Bytes per item the plan stores, record framing included.
    pub stored_bytes_per_item: usize,
    /// The budget the plan was asked to fit.
    pub budget_bytes_per_item: usize,
}

impl MaterializationPlan {
    /// Whether `rep` is written at ingest under this plan.
    pub fn is_materialized(&self, rep: Representation) -> bool {
        self.materialized.contains(&rep)
    }

    /// Expected seconds to serve one `rep` fetch under this plan.
    pub fn fetch_cost_s(
        &self,
        rep: Representation,
        transform: &TransformCostModel,
        io: &IoProfile,
    ) -> f64 {
        if self.is_materialized(rep) {
            io.rep_fetch_time(rep)
        } else {
            on_demand_cost_s(self.source, rep, transform, io)
        }
    }

    /// Expected seconds to serve one fetch of *every* representation in
    /// the set — the per-item cost of a query sweep touching all lattice
    /// nodes. Monotone non-increasing in the budget.
    pub fn sweep_cost_s(&self, transform: &TransformCostModel, io: &IoProfile) -> f64 {
        self.materialized
            .iter()
            .chain(self.on_demand.iter())
            .map(|&r| self.fetch_cost_s(r, transform, io))
            .sum()
    }
}

/// Choose which of `reps` to materialize at ingest under a per-item byte
/// budget (§V). `source` is always materialized — the ONGOING scenario
/// persists the raw frame, and every on-demand transcode reads it — so
/// the plan can exceed a budget smaller than the source record itself.
/// The remaining budget goes to the representations with the highest
/// per-fetch latency gain (on-demand cost minus direct fetch cost, both
/// under the measured `io` profile) per stored byte; representations
/// whose direct fetch would not beat the on-demand path stay virtual at
/// any budget.
pub fn plan_materialization(
    reps: &[Representation],
    source: Representation,
    budget_bytes_per_item: usize,
    transform: &TransformCostModel,
    io: &IoProfile,
) -> MaterializationPlan {
    let mut candidates: Vec<Representation> = Vec::new();
    for &r in reps {
        if r != source && !candidates.contains(&r) {
            candidates.push(r);
        }
    }
    // Greedy by latency-gain density. The sort is total (total_cmp) and
    // tie-broken by the representation tag, so the plan is deterministic
    // across runs and platforms.
    let mut scored: Vec<(f64, f64, Representation)> = candidates
        .into_iter()
        .map(|r| {
            let gain = on_demand_cost_s(source, r, transform, io) - io.rep_fetch_time(r);
            (gain / stored_record_bytes(r) as f64, gain, r)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.2.tag().cmp(&b.2.tag())));

    let mut materialized = vec![source];
    let mut on_demand = Vec::new();
    let mut stored = stored_record_bytes(source);
    for (_, gain, rep) in scored {
        let bytes = stored_record_bytes(rep);
        if gain > 0.0 && stored + bytes <= budget_bytes_per_item {
            stored += bytes;
            materialized.push(rep);
        } else {
            on_demand.push(rep);
        }
    }
    MaterializationPlan {
        source,
        materialized,
        on_demand,
        stored_bytes_per_item: stored,
        budget_bytes_per_item,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::{Codec, RawCodec};

    fn paper_reps() -> Vec<Representation> {
        Representation::paper_set()
    }

    fn source() -> Representation {
        Representation::full()
    }

    #[test]
    fn stored_byte_helpers_match_the_real_codec_and_framing() {
        for rep in paper_reps() {
            let img = Image::from_fn(rep.size, rep.size, rep.mode, |c, y, x| {
                ((c + y + x) % 7) as f32 / 6.0
            })
            .unwrap();
            assert_eq!(
                RawCodec.encode(&img).len(),
                stored_payload_bytes(rep),
                "{rep}"
            );
            assert_eq!(
                stored_record_bytes(rep) - stored_payload_bytes(rep),
                RECORD_HEADER_LEN
            );
        }
    }

    #[test]
    fn zero_budget_materializes_only_the_source() {
        let plan = plan_materialization(
            &paper_reps(),
            source(),
            0,
            &TransformCostModel::default(),
            &IoProfile::assumed_ssd(),
        );
        assert_eq!(plan.materialized, vec![source()]);
        assert_eq!(plan.on_demand.len(), paper_reps().len() - 1);
        assert_eq!(plan.stored_bytes_per_item, stored_record_bytes(source()));
    }

    #[test]
    fn unbounded_budget_materializes_every_winning_rep() {
        let model = TransformCostModel::default();
        let io = IoProfile::assumed_ssd();
        let plan = plan_materialization(&paper_reps(), source(), usize::MAX, &model, &io);
        // Under the SSD profile every smaller-than-source rep fetches
        // faster directly than via source fetch + transcode, so nothing
        // stays virtual.
        assert!(plan.on_demand.is_empty(), "{:?}", plan.on_demand);
        assert_eq!(plan.materialized.len(), paper_reps().len());
    }

    #[test]
    fn budget_is_respected_above_the_mandatory_source() {
        let model = TransformCostModel::default();
        let io = IoProfile::assumed_ssd();
        let src_bytes = stored_record_bytes(source());
        for extra in [0, 1_000, 10_000, 100_000] {
            let budget = src_bytes + extra;
            let plan = plan_materialization(&paper_reps(), source(), budget, &model, &io);
            assert!(
                plan.stored_bytes_per_item <= budget,
                "stored {} > budget {budget}",
                plan.stored_bytes_per_item
            );
            assert!(plan.is_materialized(source()));
        }
    }

    #[test]
    fn larger_budgets_monotonically_improve_the_sweep_cost() {
        let model = TransformCostModel::default();
        let io = IoProfile::assumed_ssd();
        let reps = paper_reps();
        let mut last_cost = f64::INFINITY;
        let mut last_count = 0;
        for budget in [0usize, 60_000, 80_000, 120_000, 200_000, 400_000] {
            let plan = plan_materialization(&reps, source(), budget, &model, &io);
            let cost = plan.sweep_cost_s(&model, &io);
            assert!(
                cost <= last_cost + 1e-15,
                "budget {budget}: sweep cost {cost} worse than smaller budget's {last_cost}"
            );
            assert!(plan.materialized.len() >= last_count);
            last_cost = cost;
            last_count = plan.materialized.len();
        }
    }

    #[test]
    fn greedy_spends_the_first_marginal_byte_on_the_densest_gain() {
        let model = TransformCostModel::default();
        let io = IoProfile::assumed_ssd();
        let reps = paper_reps();
        // Find the densest candidate directly, then give the planner just
        // enough budget for one extra rep of that size.
        let best = reps
            .iter()
            .filter(|&&r| r != source())
            .max_by(|&&a, &&b| {
                let da = (on_demand_cost_s(source(), a, &model, &io) - io.rep_fetch_time(a))
                    / stored_record_bytes(a) as f64;
                let db = (on_demand_cost_s(source(), b, &model, &io) - io.rep_fetch_time(b))
                    / stored_record_bytes(b) as f64;
                da.total_cmp(&db)
            })
            .copied()
            .unwrap();
        let budget = stored_record_bytes(source()) + stored_record_bytes(best);
        let plan = plan_materialization(&reps, source(), budget, &model, &io);
        assert!(
            plan.is_materialized(best),
            "densest rep {best} not chosen first: {:?}",
            plan.materialized
        );
    }

    #[test]
    fn on_demand_cost_exceeds_direct_fetch_for_small_reps() {
        let model = TransformCostModel::default();
        let io = IoProfile::assumed_ssd();
        let small = Representation::new(30, ColorMode::Gray);
        assert!(
            on_demand_cost_s(source(), small, &model, &io) > io.rep_fetch_time(small),
            "transcoding a 30px gray from the 224px source must cost more \
             than reading its 913-byte blob"
        );
    }

    #[test]
    fn measured_profile_is_sane_and_affine() {
        let mut profiler = MeasuredProfiler::new(Scenario::Ongoing);
        profiler.repetitions = 3;
        let io = IoProfile::measure_with(&profiler).unwrap();
        assert!(
            io.per_fetch_s.is_finite() && io.per_fetch_s >= 0.0,
            "per_fetch {}",
            io.per_fetch_s
        );
        assert!(
            io.bytes_per_sec.is_finite() && io.bytes_per_sec > 0.0,
            "throughput {}",
            io.bytes_per_sec
        );
        let t_small = io.fetch_time(1_000);
        let t_large = io.fetch_time(1_000_000);
        assert!(t_small > 0.0 && t_large > t_small);
    }
}
