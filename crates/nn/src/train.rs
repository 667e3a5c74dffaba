//! Minibatch training loop for binary classifiers.
//!
//! §III (issue 3) of the paper: specialized binary classifiers train in
//! minutes because they are tiny. This trainer reproduces the standard
//! recipe: shuffled minibatches, BCE-with-logits, gradient averaging within
//! each batch, optional early stopping when training accuracy saturates.

use crate::layer::InferScratch;
use crate::loss::{bce_with_logits, bce_with_logits_grad};
use crate::model::Sequential;
use crate::optim::Optimizer;
use tahoma_mathx::DetRng;

/// One training example: flat input plus binary label.
#[derive(Debug, Clone)]
pub struct Example {
    /// Planar input matching the model's input shape.
    pub input: Vec<f32>,
    /// Ground-truth label.
    pub label: bool,
}

/// Per-epoch and final training metrics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss after each epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Epochs actually run (may stop early).
    pub epochs_run: usize,
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Stop early when mean epoch loss drops below this.
    pub early_stop_loss: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer {
            epochs: 10,
            batch_size: 16,
            early_stop_loss: 0.02,
            seed: 0,
        }
    }
}

impl Trainer {
    /// Train `model` on `examples` with the given optimizer.
    ///
    /// Panics if `examples` is empty, the model has more than one output,
    /// or an input length mismatches the model's input shape.
    pub fn train(
        &self,
        model: &mut Sequential,
        examples: &[Example],
        opt: &mut dyn Optimizer,
    ) -> TrainReport {
        assert!(!examples.is_empty(), "cannot train on empty dataset");
        assert_eq!(
            model.output_shape().len(),
            1,
            "training requires a single-output model"
        );
        let expected = model.input_shape().len();
        for (i, ex) in examples.iter().enumerate() {
            assert_eq!(
                ex.input.len(),
                expected,
                "example {i} has input length {} != {expected}",
                ex.input.len()
            );
        }
        let mut rng = DetRng::new(self.seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut report = TrainReport {
            epoch_losses: Vec::with_capacity(self.epochs),
            final_accuracy: 0.0,
            epochs_run: 0,
        };
        // Reused minibatch buffers: the whole batch flows through the
        // GEMM-backed `forward_batch`/`backward_batch` in one pass.
        let mut xb: Vec<f32> = Vec::with_capacity(self.batch_size.max(1) * expected);
        let mut gb: Vec<f32> = Vec::with_capacity(self.batch_size.max(1));
        for _epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            let mut loss_sum = 0.0f64;
            for batch in order.chunks(self.batch_size.max(1)) {
                model.zero_grads();
                xb.clear();
                for &i in batch {
                    xb.extend_from_slice(&examples[i].input);
                }
                let logits = model.forward_batch(&xb, batch.len());
                gb.clear();
                for (&i, &z) in batch.iter().zip(&logits) {
                    let label = examples[i].label;
                    loss_sum += bce_with_logits(z, label) as f64;
                    gb.push(bce_with_logits_grad(z, label));
                }
                model.backward_batch(&gb, batch.len());
                let scale = 1.0 / batch.len() as f32;
                opt.begin_step();
                model.visit_params(|slot, p, g| opt.update(slot, p, g, scale));
            }
            let mean_loss = (loss_sum / examples.len() as f64) as f32;
            report.epoch_losses.push(mean_loss);
            report.epochs_run += 1;
            if mean_loss < self.early_stop_loss {
                break;
            }
        }
        report.final_accuracy = accuracy(model, examples, &mut InferScratch::single_threaded());
        report
    }
}

/// Scoring batch size: large enough to amortize the GEMM setup, small
/// enough to keep activation buffers cache-resident.
pub const SCORE_BATCH: usize = 32;

/// Fraction of examples classified correctly at probability threshold 0.5.
/// Runs [`Sequential::infer_batch_shared`] on `scratch` in
/// [`SCORE_BATCH`]-sized chunks.
pub fn accuracy(model: &Sequential, examples: &[Example], scratch: &mut InferScratch) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    let in_len = model.input_shape().len();
    let mut xb: Vec<f32> = Vec::with_capacity(SCORE_BATCH * in_len);
    let mut correct = 0usize;
    for chunk in examples.chunks(SCORE_BATCH) {
        xb.clear();
        for ex in chunk {
            xb.extend_from_slice(&ex.input);
        }
        let logits = model.infer_batch_shared(&xb, chunk.len(), scratch);
        correct += chunk
            .iter()
            .zip(&logits)
            .filter(|(ex, &z)| (z >= 0.0) == ex.label)
            .count();
    }
    correct as f64 / examples.len() as f64
}

/// Scores (sigmoid probabilities) for a set of inputs, through
/// [`Sequential::predict_proba_shared`] on `scratch` in
/// [`SCORE_BATCH`]-sized chunks.
pub fn predict_scores(
    model: &Sequential,
    inputs: &[Vec<f32>],
    scratch: &mut InferScratch,
) -> Vec<f32> {
    let in_len = model.input_shape().len();
    let mut xb: Vec<f32> = Vec::with_capacity(SCORE_BATCH * in_len);
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(SCORE_BATCH) {
        xb.clear();
        for x in chunk {
            xb.extend_from_slice(x);
        }
        out.extend(model.predict_proba_shared(&xb, chunk.len(), scratch));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CnnSpec;
    use crate::optim::Adam;
    use crate::tensor::Shape;

    /// Bright 2x2 square planted in one half vs. the other.
    fn planted_square_dataset(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = DetRng::new(seed);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2 == 0;
            let mut input = vec![0.0f32; 64];
            // noise floor
            for v in input.iter_mut() {
                *v = rng.uniform_in(0.0, 0.25) as f32;
            }
            // square in the top half for positives, bottom half otherwise
            let y0 = if label {
                rng.index(2)
            } else {
                4 + rng.index(2)
            };
            let x0 = rng.index(6);
            for dy in 0..2 {
                for dx in 0..2 {
                    input[(y0 + dy) * 8 + x0 + dx] = 1.0;
                }
            }
            out.push(Example { input, label });
        }
        out
    }

    fn tiny_model(seed: u64) -> Sequential {
        CnnSpec {
            input: Shape::new(1, 8, 8),
            conv_channels: vec![4],
            kernel: 3,
            dense_units: 8,
        }
        .build(seed)
        .unwrap()
    }

    #[test]
    fn training_learns_planted_square_task() {
        let data = planted_square_dataset(80, 11);
        let mut model = tiny_model(1);
        let trainer = Trainer {
            epochs: 30,
            batch_size: 8,
            early_stop_loss: 0.05,
            seed: 2,
        };
        let report = trainer.train(&mut model, &data, &mut Adam::new(0.01));
        assert!(
            report.final_accuracy >= 0.9,
            "accuracy {}",
            report.final_accuracy
        );
        // loss should broadly decrease
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn trained_model_generalizes_to_held_out_data() {
        let train = planted_square_dataset(120, 21);
        let held_out = planted_square_dataset(40, 99);
        let mut model = tiny_model(3);
        let trainer = Trainer {
            epochs: 40,
            batch_size: 8,
            early_stop_loss: 0.05,
            seed: 4,
        };
        trainer.train(&mut model, &train, &mut Adam::new(0.01));
        let acc = accuracy(&model, &held_out, &mut InferScratch::default());
        assert!(acc >= 0.8, "held-out accuracy {acc}");
    }

    #[test]
    fn early_stopping_cuts_epochs() {
        let data = planted_square_dataset(60, 31);
        let mut model = tiny_model(5);
        let trainer = Trainer {
            epochs: 200,
            batch_size: 8,
            early_stop_loss: 0.15,
            seed: 6,
        };
        let report = trainer.train(&mut model, &data, &mut Adam::new(0.02));
        assert!(
            report.epochs_run < 200,
            "expected early stop, ran {} epochs",
            report.epochs_run
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = planted_square_dataset(40, 41);
        let run = || {
            let mut model = tiny_model(7);
            let trainer = Trainer {
                epochs: 5,
                batch_size: 8,
                early_stop_loss: 0.0,
                seed: 8,
            };
            let r = trainer.train(&mut model, &data, &mut Adam::new(0.01));
            (r.epoch_losses, r.final_accuracy)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let mut model = tiny_model(0);
        Trainer::default().train(&mut model, &[], &mut Adam::new(0.01));
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_panics() {
        let mut model = tiny_model(0);
        let bad = vec![Example {
            input: vec![0.0; 10],
            label: true,
        }];
        Trainer::default().train(&mut model, &bad, &mut Adam::new(0.01));
    }

    #[test]
    fn predict_scores_are_probabilities() {
        let data = planted_square_dataset(10, 51);
        let model = tiny_model(9);
        let inputs: Vec<Vec<f32>> = data.iter().map(|e| e.input.clone()).collect();
        for s in predict_scores(&model, &inputs, &mut InferScratch::default()) {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn trained_weights_and_scores_are_pinned() {
        // Every bit training and scoring produce, pinned: a refactor of
        // training or inference that changes one weight or one score fails
        // here. 49 examples in batches of 8 end every epoch on a 1-row
        // batch, and 33 held-out rows end on a 1-row scoring chunk, so both
        // the GEMM and the batch-1 matvec dense paths are covered. The
        // kernel tiers are bitwise identical, so the hashes hold on every
        // x86 tier.
        let train = planted_square_dataset(49, 61);
        let held_out = planted_square_dataset(33, 62);
        let mut model = CnnSpec {
            input: Shape::new(1, 8, 8),
            conv_channels: vec![4, 6],
            kernel: 3,
            dense_units: 8,
        }
        .build(63)
        .unwrap();
        let trainer = Trainer {
            epochs: 4,
            batch_size: 8,
            early_stop_loss: 0.0,
            seed: 64,
        };
        trainer.train(&mut model, &train, &mut Adam::new(0.01));
        let weights = crate::serialize::save(&model).unwrap();
        let inputs: Vec<Vec<f32>> = held_out.iter().map(|e| e.input.clone()).collect();
        let scores = predict_scores(&model, &inputs, &mut InferScratch::default());
        assert_eq!(fnv1a(weights.iter().copied()), 0xfa0c_4a26_cca2_eb4f);
        assert_eq!(
            fnv1a(scores.iter().flat_map(|s| s.to_le_bytes())),
            0x9f71_c1ce_867e_1bb1
        );
    }
}
