//! Fast cascade evaluation from precomputed model outputs (paper §V-D/E).
//!
//! The paper's enabling trick: each model classifies the eval split exactly
//! once; each (model, precision-setting) pair is reduced to a per-image
//! *decision table* (negative / positive / uncertain); simulating any of the
//! ~1.3 M cascades is then a per-image walk over those tables. The paper
//! reports ~1 minute for 1.3 M cascades; this implementation evaluates the
//! same set in seconds on a multicore CPU.
//!
//! A second separation makes scenario sweeps nearly free: a cascade's
//! accuracy and stop-level histogram do not depend on the deployment
//! scenario — only its *costs* do. [`simulate_all`] computes the
//! scenario-independent outcomes once; [`throughputs`] re-prices them under
//! any [`CostContext`] in O(cascades x depth).

use crate::cascade::{Cascade, MAX_LEVELS};
use crate::exec::run_level_major;
use crate::thresholds::ThresholdTable;
use std::convert::Infallible;
use tahoma_costmodel::CostProfiler;
use tahoma_zoo::ModelRepository;

const DECIDE_NEG: u8 = 0;
const DECIDE_POS: u8 = 1;
const DECIDE_UNCERTAIN: u8 = 2;

/// Precomputed per-(model, setting) decision tables over the eval split.
#[derive(Debug, Clone)]
pub struct DecisionTables {
    n_models: usize,
    n_settings: usize,
    n_images: usize,
    /// `[(model * n_settings + setting) * n_images + image]` in
    /// {NEG, POS, UNCERTAIN}.
    thresholded: Vec<u8>,
    /// `[model * n_images + image]` in {NEG, POS}: the always-accepted
    /// terminal decision at probability 0.5.
    terminal: Vec<u8>,
    labels: Vec<bool>,
}

impl DecisionTables {
    /// Build tables from a repository's eval scores and calibrated
    /// thresholds.
    pub fn build(repo: &ModelRepository, thresholds: &ThresholdTable) -> DecisionTables {
        let n_models = repo.len();
        let n_settings = thresholds.n_settings();
        let n_images = repo.eval.len();
        let mut thresholded = vec![0u8; n_models * n_settings * n_images];
        let mut terminal = vec![0u8; n_models * n_images];
        for (mi, entry) in repo.entries.iter().enumerate() {
            for (ii, &score) in entry.eval_scores.iter().enumerate() {
                terminal[mi * n_images + ii] = (score >= 0.5) as u8;
                for si in 0..n_settings {
                    let code = match thresholds.get(mi, si).decide(score) {
                        Some(false) => DECIDE_NEG,
                        Some(true) => DECIDE_POS,
                        None => DECIDE_UNCERTAIN,
                    };
                    thresholded[(mi * n_settings + si) * n_images + ii] = code;
                }
            }
        }
        DecisionTables {
            n_models,
            n_settings,
            n_images,
            thresholded,
            terminal,
            labels: repo.eval.labels.clone(),
        }
    }

    /// Eval-split size.
    pub fn n_images(&self) -> usize {
        self.n_images
    }

    /// Number of models covered.
    pub fn n_models(&self) -> usize {
        self.n_models
    }

    #[inline]
    fn thresholded_row(&self, model: usize, setting: usize) -> &[u8] {
        let base = (model * self.n_settings + setting) * self.n_images;
        &self.thresholded[base..base + self.n_images]
    }

    #[inline]
    fn terminal_row(&self, model: usize) -> &[u8] {
        &self.terminal[model * self.n_images..(model + 1) * self.n_images]
    }
}

/// Scenario-independent outcome of one cascade on the eval split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Fraction of eval images labeled correctly.
    pub accuracy: f32,
    /// How many images stopped at each level.
    pub stop_counts: [u32; MAX_LEVELS],
}

/// Outcomes for a whole cascade set.
#[derive(Debug, Clone)]
pub struct CascadeOutcomes {
    /// The evaluated cascades, in input order.
    pub cascades: Vec<Cascade>,
    /// Per-cascade outcomes, parallel to `cascades`.
    pub outcomes: Vec<Outcome>,
    /// Eval-split size used.
    pub n_images: usize,
}

/// Simulate one cascade against the decision tables (reference-quality
/// implementation of Definition 7; the bulk path inlines the same walk).
pub fn simulate_one(tables: &DecisionTables, cascade: &Cascade) -> Outcome {
    let depth = cascade.depth();
    let mut stop_counts = [0u32; MAX_LEVELS];
    let mut correct = 0usize;
    // Borrow all rows up front.
    let mut rows: [&[u8]; MAX_LEVELS] = [&[]; MAX_LEVELS];
    for (l, row) in rows.iter_mut().take(depth - 1).enumerate() {
        *row = tables.thresholded_row(cascade.model_at(l) as usize, cascade.setting_at(l) as usize);
    }
    rows[depth - 1] = tables.terminal_row(cascade.model_at(depth - 1) as usize);
    for i in 0..tables.n_images {
        let mut label = false;
        let mut stop = depth - 1;
        for (l, row) in rows[..depth - 1].iter().enumerate() {
            let d = row[i];
            if d != DECIDE_UNCERTAIN {
                label = d == DECIDE_POS;
                stop = l;
                break;
            }
        }
        if stop == depth - 1 {
            label = rows[depth - 1][i] == DECIDE_POS;
        }
        stop_counts[stop] += 1;
        if label == tables.labels[i] {
            correct += 1;
        }
    }
    Outcome {
        accuracy: correct as f32 / tables.n_images as f32,
        stop_counts,
    }
}

/// Simulate every cascade, in parallel across available cores.
pub fn simulate_all(tables: &DecisionTables, cascades: Vec<Cascade>) -> CascadeOutcomes {
    let n = cascades.len();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(n);
    // SAFETY-free parallel fill: split the output buffer into disjoint
    // chunks, one per worker.
    outcomes.resize(
        n,
        Outcome {
            accuracy: 0.0,
            stop_counts: [0; MAX_LEVELS],
        },
    );
    // Cap workers at the number of cascades so `n < threads` never produces
    // empty-range chunks, and run small inputs inline — opening a pool
    // scope for one chunk (or zero cascades) is pure overhead. A panicking
    // chunk re-raises here once every chunk has finished.
    let threads = std::thread::available_parallelism()
        .map_or(4, |t| t.get())
        .min(n.max(1));
    let chunk = n.div_ceil(threads).max(1);
    if n <= chunk {
        for (slot, c) in outcomes.iter_mut().zip(&cascades) {
            *slot = simulate_one(tables, c);
        }
    } else {
        tahoma_mathx::pool::scope(|scope| {
            let mut remaining: &mut [Outcome] = &mut outcomes;
            for cs in cascades.chunks(chunk) {
                let (head, tail) = remaining.split_at_mut(cs.len());
                remaining = tail;
                scope.spawn(move || {
                    for (slot, c) in head.iter_mut().zip(cs) {
                        *slot = simulate_one(tables, c);
                    }
                });
            }
        });
    }
    CascadeOutcomes {
        n_images: tables.n_images,
        cascades,
        outcomes,
    }
}

/// Scenario-specific pricing of models and representations.
#[derive(Debug, Clone)]
pub struct CostContext {
    /// Cost paid once per image.
    pub fixed_s: f64,
    /// Per-model inference seconds, indexed by model id.
    pub infer_s: Vec<f64>,
    /// Per-model marginal cost of the model's input representation.
    pub rep_marginal_s: Vec<f64>,
    /// Representation identity per model, for once-per-image deduplication
    /// across cascade levels that share an input (§VII-A).
    pub rep_key: Vec<u32>,
}

impl CostContext {
    /// Price a repository under a profiler's scenario.
    pub fn build(repo: &ModelRepository, profiler: &dyn CostProfiler) -> CostContext {
        let mut rep_keys: Vec<tahoma_imagery::Representation> = Vec::new();
        let mut key_of = |rep: tahoma_imagery::Representation| -> u32 {
            if let Some(pos) = rep_keys.iter().position(|&r| r == rep) {
                pos as u32
            } else {
                rep_keys.push(rep);
                (rep_keys.len() - 1) as u32
            }
        };
        let mut infer_s = Vec::with_capacity(repo.len());
        let mut rep_marginal_s = Vec::with_capacity(repo.len());
        let mut rep_key = Vec::with_capacity(repo.len());
        for e in &repo.entries {
            infer_s.push(e.infer_s);
            rep_marginal_s.push(profiler.rep_marginal_s(e.variant.input));
            rep_key.push(key_of(e.variant.input));
        }
        CostContext {
            fixed_s: profiler.per_image_fixed_s(),
            infer_s,
            rep_marginal_s,
            rep_key,
        }
    }

    /// The §IV level prefix costs of a cascade: an image that stops at
    /// level `l` pays `prefix[l] = fixed + Σ infer(0..=l) + Σ marginal
    /// (distinct representations in 0..=l)`; entries past the cascade's
    /// depth are zero. The accumulation order matches
    /// [`crate::query::walk_cascade_item`]'s per-item walk operation for
    /// operation, so a batched relation's total time is bitwise equal to
    /// the reference's.
    pub fn prefix_costs(&self, cascade: &Cascade) -> [f64; MAX_LEVELS] {
        let mut prefix = [0.0f64; MAX_LEVELS];
        let mut seen_reps = [u32::MAX; MAX_LEVELS];
        let mut acc = self.fixed_s;
        for l in 0..cascade.depth() {
            let m = cascade.model_at(l) as usize;
            acc += self.infer_s[m];
            let key = self.rep_key[m];
            if !seen_reps[..l].contains(&key) {
                acc += self.rep_marginal_s[m];
            }
            seen_reps[l] = key;
            prefix[l] = acc;
        }
        prefix
    }

    /// Expected per-image cost of a cascade given its stop-level histogram:
    /// each image that stops at level `k` pays
    /// [`CostContext::prefix_costs`]`[k]`.
    pub fn expected_cost_s(&self, cascade: &Cascade, outcome: &Outcome, n_images: usize) -> f64 {
        let total: f64 = self
            .prefix_costs(cascade)
            .iter()
            .zip(&outcome.stop_counts)
            .take(cascade.depth())
            .map(|(&cost, &count)| count as f64 * cost)
            .sum();
        total / n_images as f64
    }

    /// Throughput (frames/second) of a cascade outcome under this pricing.
    pub fn throughput_fps(&self, cascade: &Cascade, outcome: &Outcome, n_images: usize) -> f64 {
        1.0 / self.expected_cost_s(cascade, outcome, n_images)
    }
}

/// The per-item decision walk behind every predicate statistic: each of
/// `labels.len()` items climbs `cascade` with `score(model, item)` as its
/// score, through the executor's own level-major walk
/// ([`crate::exec::run_level_major`]: thresholds per level, the terminal
/// level at `score >= 0.5`). Returns the outcome against `labels` and the
/// fraction of items labeled positive.
///
/// The walk is the executor's own, so the statistics cannot drift from
/// execution on the decision rule: the serving layer feeds it the corpus
/// it serves, under its execution thresholds, and the positive rate is
/// the selectivity [`crate::planner::PlannedPredicate`] ranks by. The
/// table evaluator's tests use it on the eval split as their naive
/// reference.
pub fn cascade_stats(
    cascade: &Cascade,
    thresholds: &ThresholdTable,
    labels: &[bool],
    score: impl Fn(usize, usize) -> f32,
) -> (Outcome, f64) {
    let n_images = labels.len();
    let decided = run_level_major(cascade, thresholds, n_images, |_, m, pack, out| {
        out.extend(pack.iter().map(|&i| score(m.0 as usize, i)));
        Ok::<(), Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    let mut stop_counts = [0u32; MAX_LEVELS];
    let mut correct = 0usize;
    let mut positive = 0usize;
    for (d, &truth) in decided.iter().zip(labels) {
        stop_counts[usize::from(d.level)] += 1;
        positive += usize::from(d.value);
        correct += usize::from(d.value == truth);
    }
    let outcome = Outcome {
        accuracy: correct as f32 / n_images as f32,
        stop_counts,
    };
    (outcome, positive as f64 / n_images.max(1) as f64)
}

/// Price a whole outcome set, returning per-cascade throughput (fps).
pub fn throughputs(outcomes: &CascadeOutcomes, ctx: &CostContext) -> Vec<f64> {
    outcomes
        .cascades
        .iter()
        .zip(&outcomes.outcomes)
        .map(|(c, o)| ctx.throughput_fps(c, o, outcomes.n_images))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::{calibrate_all, PAPER_PRECISION_SETTINGS};
    use tahoma_costmodel::{AnalyticProfiler, Scenario};
    use tahoma_imagery::ObjectKind;
    use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
    use tahoma_zoo::{ModelId, PredicateSpec};

    fn small_repo(kind: ObjectKind) -> ModelRepository {
        build_surrogate_repository(
            PredicateSpec::for_kind(kind),
            &SurrogateBuildConfig {
                n_config: 200,
                n_eval: 300,
                seed: 11,
                variants: Some(
                    tahoma_zoo::variant::paper_variants()
                        .into_iter()
                        .step_by(9)
                        .collect(),
                ),
                ..Default::default()
            },
            &tahoma_costmodel::DeviceProfile::k80(),
        )
    }

    fn tables_for(repo: &ModelRepository) -> (DecisionTables, ThresholdTable) {
        let thr = calibrate_all(repo, &PAPER_PRECISION_SETTINGS);
        (DecisionTables::build(repo, &thr), thr)
    }

    #[test]
    fn single_model_cascade_matches_direct_accuracy() {
        let repo = small_repo(ObjectKind::Fence);
        let (tables, _) = tables_for(&repo);
        for id in [0usize, 7, 20] {
            let out = simulate_one(&tables, &Cascade::single(id as u16));
            let direct = repo.eval_accuracy(ModelId(id as u32)) as f32;
            assert!(
                (out.accuracy - direct).abs() < 1e-6,
                "model {id}: cascade {} vs direct {direct}",
                out.accuracy
            );
            assert_eq!(out.stop_counts[0] as usize, repo.eval.len());
        }
    }

    #[test]
    fn two_level_cascade_routes_uncertain_to_second_level() {
        let repo = small_repo(ObjectKind::Fence);
        let (tables, thr) = tables_for(&repo);
        let c = Cascade::new(&[(0, 4), (1, 0)]); // strictest setting first
        let out = simulate_one(&tables, &c);
        let total: u32 = out.stop_counts.iter().sum();
        assert_eq!(total as usize, repo.eval.len());
        // The first level must decide whatever its thresholds decide.
        let decided = repo.entries[0]
            .eval_scores
            .iter()
            .filter(|&&s| thr.get(0, 4).decide(s).is_some())
            .count();
        assert_eq!(out.stop_counts[0] as usize, decided);
    }

    #[test]
    fn selective_first_level_beats_its_own_solo_accuracy() {
        // A cascade of (weak model, strict thresholds) -> strong terminal
        // should be at least as accurate as the weak model alone.
        let repo = small_repo(ObjectKind::Komondor);
        let (tables, _) = tables_for(&repo);
        let weak = 0u16;
        let strong = (repo.len() - 1) as u16; // resnet is last
        let solo = simulate_one(&tables, &Cascade::single(weak));
        let cascaded = simulate_one(&tables, &Cascade::new(&[(weak, 4), (strong, 0)]));
        assert!(
            cascaded.accuracy >= solo.accuracy,
            "cascade {} < solo {}",
            cascaded.accuracy,
            solo.accuracy
        );
    }

    #[test]
    fn naive_and_table_evaluators_agree() {
        let repo = small_repo(ObjectKind::Fence);
        let thr = calibrate_all(&repo, &PAPER_PRECISION_SETTINGS);
        let tables = DecisionTables::build(&repo, &thr);
        for c in [
            Cascade::single(3),
            Cascade::new(&[(0, 4), (7, 0)]),
            Cascade::new(&[(2, 1), (9, 2), (4, 0)]),
        ] {
            // The naive reference re-derives every decision from raw
            // scores and thresholds per image, with no precomputed tables.
            let (naive, _) = cascade_stats(&c, &thr, &repo.eval.labels, |m, i| {
                repo.entries[m].eval_scores[i]
            });
            assert_eq!(simulate_one(&tables, &c), naive, "{c}");
        }
    }

    #[test]
    fn simulate_all_matches_simulate_one() {
        let repo = small_repo(ObjectKind::Wallet);
        let (tables, _) = tables_for(&repo);
        let cascades = vec![
            Cascade::single(0),
            Cascade::new(&[(2, 1), (5, 0)]),
            Cascade::new(&[(3, 0), (1, 2), (6, 0)]),
        ];
        let bulk = simulate_all(&tables, cascades.clone());
        for (i, c) in cascades.iter().enumerate() {
            assert_eq!(bulk.outcomes[i], simulate_one(&tables, c), "cascade {c}");
        }
    }

    #[test]
    fn simulate_all_handles_fewer_cascades_than_threads() {
        // Regression test for the chunking path: inputs smaller than the
        // worker count (including a single cascade and the empty set) must
        // not spawn empty-range workers or lose outcomes.
        let repo = small_repo(ObjectKind::Fence);
        let (tables, _) = tables_for(&repo);
        for n in [0usize, 1, 2] {
            let cascades: Vec<Cascade> = (0..n).map(|i| Cascade::single(i as u16)).collect();
            let bulk = simulate_all(&tables, cascades.clone());
            assert_eq!(bulk.outcomes.len(), n);
            for (i, c) in cascades.iter().enumerate() {
                assert_eq!(bulk.outcomes[i], simulate_one(&tables, c), "{c}");
            }
        }
    }

    #[test]
    fn stop_counts_always_total_eval_size() {
        let repo = small_repo(ObjectKind::Coho);
        let (tables, _) = tables_for(&repo);
        for c in [
            Cascade::single(4),
            Cascade::new(&[(4, 0), (4, 0)]), // duplicate model allowed
            Cascade::new(&[(1, 3), (2, 3), (3, 0)]),
        ] {
            let o = simulate_one(&tables, &c);
            assert_eq!(
                o.stop_counts.iter().sum::<u32>() as usize,
                repo.eval.len(),
                "{c}"
            );
        }
    }

    #[test]
    fn shared_representation_charged_once() {
        let repo = small_repo(ObjectKind::Acorn);
        let (tables, _) = tables_for(&repo);
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Camera);
        let ctx = CostContext::build(&repo, &profiler);
        // Find two distinct models with the same input representation.
        let mut pair = None;
        'outer: for a in 0..repo.len() {
            for b in (a + 1)..repo.len() {
                if ctx.rep_key[a] == ctx.rep_key[b] && ctx.rep_marginal_s[a] > 0.0 {
                    pair = Some((a as u16, b as u16));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("repository contains rep-sharing models");
        // Force every image to reach the second level by replacing the
        // outcome with an all-stop-at-last histogram.
        let cascade = Cascade::new(&[(a, 4), (b, 0)]);
        let n = tables.n_images();
        let all_last = Outcome {
            accuracy: 1.0,
            stop_counts: {
                let mut s = [0u32; MAX_LEVELS];
                s[1] = n as u32;
                s
            },
        };
        let cost = ctx.expected_cost_s(&cascade, &all_last, n);
        let expected = ctx.fixed_s
            + ctx.infer_s[a as usize]
            + ctx.infer_s[b as usize]
            + ctx.rep_marginal_s[a as usize]; // charged once, not twice
        assert!(
            (cost - expected).abs() < 1e-12,
            "cost {cost} expected {expected}"
        );
    }

    #[test]
    fn early_exit_reduces_expected_cost() {
        let repo = small_repo(ObjectKind::Pinwheel);
        let (tables, _) = tables_for(&repo);
        let profiler = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
        let ctx = CostContext::build(&repo, &profiler);
        let resnet = (repo.len() - 1) as u16;
        let cascade = Cascade::new(&[(0, 0), (resnet, 0)]);
        let o = simulate_one(&tables, &cascade);
        let cost = ctx.expected_cost_s(&cascade, &o, tables.n_images());
        let resnet_solo = ctx.fixed_s + ctx.infer_s[resnet as usize];
        assert!(
            cost < resnet_solo,
            "cascade cost {cost} not below resnet solo {resnet_solo}"
        );
    }

    #[test]
    fn infer_only_throughput_of_smallest_model_near_anchor() {
        let repo = build_surrogate_repository(
            PredicateSpec::for_kind(ObjectKind::Fence),
            &SurrogateBuildConfig {
                n_config: 100,
                n_eval: 100,
                seed: 1,
                ..Default::default()
            },
            &tahoma_costmodel::DeviceProfile::k80(),
        );
        let thr = calibrate_all(&repo, &[0.95]);
        let tables = DecisionTables::build(&repo, &thr);
        let profiler = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
        let ctx = CostContext::build(&repo, &profiler);
        let best = (0..repo.specialized_ids().len())
            .map(|m| {
                let c = Cascade::single(m as u16);
                let o = simulate_one(&tables, &c);
                ctx.throughput_fps(&c, &o, tables.n_images())
            })
            .fold(0.0f64, f64::max);
        assert!(
            (15_000.0..30_000.0).contains(&best),
            "fastest single-model throughput {best:.0} (paper ~20.9k)"
        );
    }
}
