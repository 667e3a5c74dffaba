//! From-scratch convolutional neural network substrate.
//!
//! The paper trains its specialized classifiers with Keras/TensorFlow on a
//! GPU; this crate replaces that dependency with a self-contained CPU
//! implementation of exactly the architecture family in the paper's Fig. 3:
//! stacks of `conv(3x3, same) -> ReLU -> maxpool(2x2)`, a fully connected
//! ReLU layer, and a single sigmoid output for binary classification.
//!
//! # Inference engine: batched im2col + GEMM
//!
//! Raw inference throughput is the system's foundational currency — the
//! paper's cascades only pay off because cheap models classify frames orders
//! of magnitude faster than the reference CNN — so the hot path is built
//! around dense matrix multiplication rather than nested convolution loops:
//!
//! * [`gemm`] implements a blocked, cache-tiled f32 GEMM whose register-tile
//!   micro-kernel is selected at runtime (`is_x86_feature_detected!`) from
//!   explicit AVX-512 / AVX2+FMA `std::arch` kernels plus a portable
//!   `mul_add` fallback — all bitwise-identical — so a plain portable build
//!   runs at hardware peak with no `-C target-cpu` flags. `Dense` runs it
//!   at every batch size, so a row scores the same bits alone or in any
//!   batch. Every GEMM runs on its caller's thread: the one parallelism
//!   inside a model is an inference call fanning out as morsels of at
//!   most [`model::MORSEL_ROWS`] rows across the persistent
//!   `tahoma_mathx::pool` workers — any call that can give two lanes 16
//!   rows each (a 64-row call runs as eight morsels of 8 on two lanes);
//! * [`gemm::im2col`] lowers each image to a patch matrix, turning a
//!   convolution into one GEMM against the filter matrix, and
//!   [`gemm::col2im_add`] scatters gradients back for the batched backward
//!   pass;
//! * every [`layer::Layer`] has one forward body, the `&self`
//!   `infer_shared`, whose mutable state lives in a caller-owned
//!   [`layer::InferScratch`]. [`model::Sequential::infer_rows`] is the
//!   inference entry point: it reads its rows from a
//!   [`model::RowSource`], each on the lane that scores it, so a source
//!   that fetches and standardizes its images does so on the lanes
//!   (`infer_batch_shared` / `predict_proba_shared` wrap a slice); training's
//!   [`model::Sequential::forward_batch`] has each layer record what
//!   `backward_batch` needs and then run that same body, so training and
//!   serving compute the same bits. Inference runs a model's conv / ReLU /
//!   pool prefix depth-first — each image through the whole prefix before
//!   the next starts, so its activations stay cache-resident — and the
//!   dense head over all rows at once; training runs layer-major. Both
//!   move activations through reused ping-pong buffers — no per-image
//!   allocation anywhere on the path. The original scalar convolution
//!   survives as `Conv2d::forward_scalar`: the semantic reference the
//!   GEMM path is property-tested against.
//!
//! ## Layout contract
//!
//! All activations are **channel-planar, batch-major** `Vec<f32>`s: a batch
//! buffer holds `batch` images back to back, each image its channels back to
//! back as `h x w` row-major planes (`[image][channel][y][x]`). This is the
//! same layout `tahoma_imagery::Image` uses, so image buffers feed networks
//! without any shuffling; [`tensor::Shape`] carries the interpretation.
//! Weight layouts: `Conv2d` stores `[out_c][in_c][k][k]` (so the filter
//! matrix is `out_c x (in_c*k*k)`, multiplying im2col output directly) and
//! `Dense` stores `[n_out][n_in]`.
//!
//! # Modules
//!
//! * [`tensor::Shape`] — `(channels, height, width)` bookkeeping;
//! * [`gemm`] — blocked GEMM, im2col/col2im lowering, and the conv row
//!   sweep that applies bias, ReLU and the 2x2 max-pool to its register
//!   tiles;
//! * [`kernels`] — the ReLU sweep, portable (no explicit SIMD tier wins);
//! * [`layer`] — forward/backward implementations of every layer, each with
//!   exact FLOP accounting (the cost model prices inference from these);
//! * [`model::Sequential`] and [`model::CnnSpec`] — composition and the
//!   paper's architecture constructor;
//! * [`train::Trainer`] — minibatch SGD/Adam training (forward and backward
//!   both run the batched GEMM path) with binary cross-entropy on logits;
//! * [`serialize`] — a compact self-contained weight format.
//!
//! The zoo crate uses this for the *real* training path (scaled-down
//! experiments, examples, and tests); the paper-scale experiments use the
//! calibrated surrogate family instead (see DESIGN.md §2.4).

pub mod gemm;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod tensor;
pub mod train;

pub use gemm::GemmScratch;
pub use layer::{Conv2d, Dense, InferScratch, Layer, MaxPool2, Relu};
pub use loss::{bce_with_logits, bce_with_logits_grad};
pub use model::{CnnSpec, RowSource, Sequential, SliceRows, MORSEL_ROWS};
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Shape;
pub use train::{TrainReport, Trainer};
