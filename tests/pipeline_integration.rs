//! End-to-end integration: surrogate repository -> thresholds -> cascades ->
//! frontiers -> selection, spanning zoo, costmodel and core.

use tahoma::prelude::*;

fn small_system(kind: ObjectKind, seed: u64) -> tahoma::core::pipeline::TahomaSystem {
    let pred = PredicateSpec::for_kind(kind);
    let cfg = SurrogateBuildConfig {
        n_config: 250,
        n_eval: 400,
        seed,
        variants: Some(paper_variants().into_iter().step_by(7).collect()),
        ..Default::default()
    };
    let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
    tahoma::core::pipeline::TahomaSystem::initialize_paper_main(repo)
}

#[test]
fn frontier_accuracy_is_scenario_invariant() {
    // Accuracy depends only on model outputs; scenario pricing may reorder
    // cascades but never change any cascade's accuracy.
    let system = small_system(ObjectKind::Fence, 1);
    let profilers: Vec<AnalyticProfiler> = Scenario::ALL
        .iter()
        .map(|&s| AnalyticProfiler::paper_testbed(s))
        .collect();
    let base: Vec<f32> = system
        .outcomes
        .outcomes
        .iter()
        .map(|o| o.accuracy)
        .collect();
    for p in &profilers {
        for point in &system.frontier(p).points {
            assert!((point.accuracy - base[point.idx] as f64).abs() < 1e-9);
        }
    }
}

#[test]
fn every_scenario_yields_a_nonincreasing_throughput_vs_infer_only() {
    // Data handling can only add cost: for the same cascade, INFER-ONLY
    // throughput is an upper bound for every scenario.
    let system = small_system(ObjectKind::Scorpion, 2);
    let infer = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
    let infer_points = system.priced_points(&infer);
    for scenario in [Scenario::Archive, Scenario::Ongoing, Scenario::Camera] {
        let pts = system.priced_points(&AnalyticProfiler::paper_testbed(scenario));
        for (i, ((_, t_scen), (_, t_infer))) in pts.iter().zip(&infer_points).enumerate() {
            assert!(
                *t_scen <= t_infer + 1e-9,
                "cascade {i} faster under {scenario} than INFER-ONLY: {t_scen} > {t_infer}"
            );
        }
    }
}

#[test]
fn selection_is_consistent_with_frontier_membership() {
    let system = small_system(ObjectKind::Komondor, 3);
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let frontier = system.frontier(&profiler);
    for loss in [0.0, 0.03, 0.08, 0.15] {
        let chosen = system
            .select(
                &profiler,
                Constraints {
                    max_accuracy_loss: Some(loss),
                    max_throughput_loss: None,
                },
            )
            .expect("feasible");
        // The chosen operating point must be one of the frontier's points.
        assert!(
            frontier
                .points
                .iter()
                .any(|p| (p.accuracy - chosen.accuracy).abs() < 1e-12
                    && (p.throughput - chosen.throughput).abs() < 1e-9),
            "selected point not on frontier"
        );
    }
}

#[test]
fn deeper_budget_never_reduces_throughput() {
    let system = small_system(ObjectKind::Wallet, 4);
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Camera);
    let mut last = 0.0f64;
    for loss in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let chosen = system
            .select(
                &profiler,
                Constraints {
                    max_accuracy_loss: Some(loss),
                    max_throughput_loss: None,
                },
            )
            .expect("feasible");
        assert!(
            chosen.throughput >= last - 1e-9,
            "loss {loss}: throughput decreased {last} -> {}",
            chosen.throughput
        );
        last = chosen.throughput;
    }
}

#[test]
fn initialization_is_deterministic_end_to_end() {
    let a = small_system(ObjectKind::Coho, 9);
    let b = small_system(ObjectKind::Coho, 9);
    assert_eq!(a.n_cascades(), b.n_cascades());
    for (oa, ob) in a.outcomes.outcomes.iter().zip(&b.outcomes.outcomes) {
        assert_eq!(oa.accuracy, ob.accuracy);
        assert_eq!(oa.stop_counts, ob.stop_counts);
    }
    let pa = AnalyticProfiler::paper_testbed(Scenario::Camera);
    let fa = a.frontier(&pa);
    let fb = b.frontier(&pa);
    assert_eq!(fa.points.len(), fb.points.len());
}

#[test]
fn paper_headline_shape_holds_at_reduced_scale() {
    // The reproduction's contract: under INFER-ONLY, TAHOMA at >= ResNet50
    // accuracy is at least an order of magnitude faster; under ARCHIVE it
    // still wins but by a compressed factor.
    let system = small_system(ObjectKind::Pinwheel, 5);
    let resnet = system.repo.resnet.expect("resnet");
    let resnet_fps = 1.0 / system.repo.entry(resnet).infer_s;

    let infer = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
    let fast = system.select_matching_model(&infer, resnet).unwrap();
    let speedup_infer = fast.throughput / resnet_fps;
    assert!(
        speedup_infer > 10.0,
        "INFER-ONLY speedup {speedup_infer:.1}"
    );

    let archive = AnalyticProfiler::paper_testbed(Scenario::Archive);
    let arch_pick = system.select_matching_model(&archive, resnet).unwrap();
    let resnet_archive_fps = {
        let entry = system.repo.entry(resnet);
        1.0 / (archive.per_image_fixed_s()
            + archive.rep_marginal_s(entry.variant.input)
            + entry.infer_s)
    };
    let speedup_archive = arch_pick.throughput / resnet_archive_fps;
    assert!(
        speedup_archive > 1.0 && speedup_archive < speedup_infer,
        "ARCHIVE speedup {speedup_archive:.1} vs INFER-ONLY {speedup_infer:.1}"
    );
}
