//! The real training path, end to end: render a synthetic dataset, train an
//! actual mini-zoo of CNNs with `tahoma-nn`, and run the *same* TAHOMA
//! optimizer (thresholds, cascades, Pareto, selection) over the really
//! trained models — no surrogate anywhere.
//!
//! This is the scaled-down honest counterpart of the paper-scale surrogate
//! experiments (DESIGN.md §2.4): it demonstrates that the qualitative
//! structure the surrogate encodes (deeper nets and richer inputs score
//! higher; thresholds carve out high-precision regions; cascades beat
//! single models) emerges from real gradient descent.
//!
//! ```text
//! cargo run --release --example train_tiny_cnn
//! ```

use tahoma::prelude::*;
use tahoma::zoo::trainer::{build_real_repository, RealTrainConfig};
use tahoma::zoo::variant::cross_variants;

fn main() {
    // 1. Render a labeled dataset: 32x32 scenes with planted pinwheels.
    let spec = DatasetSpec {
        n_train: 240,
        n_config: 120,
        n_eval: 120,
        ..DatasetSpec::tiny(ObjectKind::Pinwheel, 32, 7)
    };
    let bundle = spec.generate();
    println!("dataset: {bundle}");

    // 2. A mini design space: 2 architectures x 3 representations.
    let archs = [
        ArchSpec {
            conv_layers: 1,
            conv_nodes: 4,
            dense_nodes: 8,
        },
        ArchSpec {
            conv_layers: 2,
            conv_nodes: 8,
            dense_nodes: 16,
        },
    ];
    let reps = [
        Representation::new(12, ColorMode::Gray),
        Representation::new(16, ColorMode::Rgb),
        Representation::new(32, ColorMode::Rgb),
    ];
    let variants = cross_variants(&archs, &reps);
    println!("training {} real CNNs with tahoma-nn ...", variants.len());

    let cfg = RealTrainConfig {
        epochs: 30,
        batch_size: 16,
        lr: 0.005,
        early_stop_loss: 0.05,
        seed: 11,
    };
    let t0 = std::time::Instant::now();
    let (repo, outcomes) = build_real_repository(&bundle, &variants, &cfg, &DeviceProfile::k80())
        .expect("training succeeds");
    println!("trained in {:.1}s:", t0.elapsed().as_secs_f64());
    for o in &outcomes {
        println!(
            "  {:<24} train acc {:.3}  ({} epochs)  eval acc {:.3}",
            o.variant.tag(),
            o.train_accuracy,
            o.epochs_run,
            repo.eval_accuracy(o.variant.id),
        );
    }

    // 3. The same optimizer the paper-scale experiments use, on real models.
    let builder = BuilderConfig {
        pool: repo.specialized_ids(),
        reference: None,
        n_settings: PAPER_PRECISION_SETTINGS.len(),
        max_pool_depth: 2,
        with_reference_terminal: false,
    };
    let system =
        tahoma::core::pipeline::TahomaSystem::initialize(repo, &PAPER_PRECISION_SETTINGS, &builder);
    println!(
        "\ncascade set over real models: {} cascades",
        system.n_cascades()
    );

    let profiler = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
    let frontier = system.frontier(&profiler);
    println!("Pareto frontier (INFER-ONLY pricing):");
    for p in &frontier.points {
        println!(
            "  {:>9.0} fps @ accuracy {:.3}  {}",
            p.throughput,
            p.accuracy,
            system.describe(&system.outcomes.cascades[p.idx])
        );
    }

    // 4. Throughput check: the batched im2col+GEMM inference path on a
    //    freshly built model, per-image vs. 32-image minibatches.
    let arch = archs[1];
    let rep = reps[2];
    let model = arch.cnn_spec(rep).build(99).expect("bench model builds");
    let mut scratch = tahoma::nn::InferScratch::default();
    let input = vec![0.5f32; rep.value_count()];
    let batch32: Vec<f32> = input
        .iter()
        .cycle()
        .take(32 * rep.value_count())
        .copied()
        .collect();
    let time_per_image = |f: &mut dyn FnMut() -> usize| {
        let t0 = std::time::Instant::now();
        let mut images = 0usize;
        while t0.elapsed().as_millis() < 200 {
            images += f();
        }
        t0.elapsed().as_secs_f64() / images as f64
    };
    let single = time_per_image(&mut || model.predict_proba_shared(&input, 1, &mut scratch).len());
    let batched =
        time_per_image(&mut || model.predict_proba_shared(&batch32, 32, &mut scratch).len());
    println!(
        "\ninference on {} @ {}px rgb: {:.0} img/s per-image, {:.0} img/s batch-32",
        arch.tag(),
        rep.size,
        1.0 / single,
        1.0 / batched,
    );

    // 5. Does cascading real models beat the best single real model?
    let best_single = system
        .outcomes
        .cascades
        .iter()
        .zip(&system.outcomes.outcomes)
        .filter(|(c, _)| c.depth() == 1)
        .map(|(_, o)| o.accuracy)
        .fold(0.0f32, f32::max);
    let best_cascade = frontier.most_accurate().expect("nonempty frontier");
    println!(
        "\nbest single model accuracy: {best_single:.3}; best cascade accuracy: {:.3}",
        best_cascade.accuracy
    );
}
