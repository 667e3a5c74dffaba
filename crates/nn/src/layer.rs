//! Neural network layers with forward, backward and FLOP accounting.
//!
//! Layers are constructed against a fixed input [`Shape`] (the reproduction
//! only ever trains fixed-size inputs, matching the paper's per-model input
//! representations), cache what they need during `forward`, and accumulate
//! parameter gradients during `backward`. FLOP counts follow the paper's
//! convention of counting a multiply-accumulate as two operations (it quotes
//! YOLOv2 at "8.52 billion operations").
//!
//! Every layer has **one forward body**, [`Layer::infer_shared`]: `&self`,
//! batch-major, channel-planar (`[image][channel][y][x]`), with all mutable
//! state in the caller's [`InferScratch`]. `Conv2d` runs
//! [`crate::gemm::conv2d_forward_packed`] (a row sweep over a row-padded
//! frame — the patch matrix is addressed, not materialized) per image;
//! `Dense` multiplies the whole minibatch at once, one row or many, on the
//! GEMM. Both keep their weights packed once in the layout their kernels
//! read (`Conv2d`'s 8-filter panels, `Dense`'s `Wᵀ` panels), built at
//! construction and rebuilt by [`Layer::visit_params`] — the only way
//! weights change — so no inference call re-packs them. In inference, a
//! `Conv2d` followed by a `Relu` runs as one pass with the ReLU applied to
//! the sweep's registers, and a `Conv2d → Relu → MaxPool2` block as one
//! pass with the 2x2 max-pool applied there too
//! ([`crate::gemm::ConvEpilogue`], via
//! [`crate::model::Sequential::infer_batch_shared`]; same bits, and the
//! full-resolution activation is never written). Training's
//! [`Layer::forward_batch`] records what [`Layer::backward_batch`] needs
//! (the ReLU mask, the pool argmax) and then runs that same body unfused
//! on layer-owned, single-threaded scratch, so a trained model scores the
//! same bits in training and in serving; the per-image `forward` is a
//! batch-of-1 wrapper over it. Backward runs the materialized
//! [`crate::gemm::im2col`].
//!
//! The **scalar reference path** (`Conv2d::forward_scalar`, plus the
//! per-image `backward` implementations) is kept verbatim from the original
//! implementation. It defines the semantics the GEMM path must reproduce
//! (property-tested in `tests/proptests.rs`).

use crate::gemm::{self, ConvEpilogue, GemmScratch, PackedA, PackedB, Trans};
use crate::init::{he_normal, xavier_uniform};
use crate::kernels;
use crate::tensor::Shape;
use tahoma_mathx::DetRng;

/// Per-caller mutable state for the shared (`&self`) inference path.
///
/// A trained model's parameters are immutable at serving time, but a
/// forward pass also needs scratch (GEMM packing buffers, ping-pong
/// activations). [`InferScratch`] holds all of that mutable state, so the
/// model stays `&self`: one scratch lives per *query* (checked out
/// from a pool by the serving layer), and any number of threads can score
/// through a single `Sequential` concurrently via
/// [`crate::model::Sequential::predict_proba_shared`].
///
/// `Dense` runs the GEMM at every batch size, and the GEMM accumulates
/// every output row in the same order regardless of how many rows ride
/// along (`MR`-row tiling never reorders a row's k-loop) — so a row's score
/// is bitwise identical whether it is scored alone or merged into a larger
/// batch, on any scratch. Cross-query batch coalescing relies on exactly
/// this invariance, and so does morsel-parallel inference: a call that
/// can give two lanes 16 rows each is cut into morsels of at most
/// [`crate::model::MORSEL_ROWS`] rows that run across the
/// `tahoma_mathx::pool` workers, each on one of this scratch's lane
/// scratches (see [`crate::model::Sequential::infer_rows`] for the rule). The lanes are the only parallelism inside a
/// model: every GEMM runs on the thread that calls it.
///
/// Each input row is produced into a one-row buffer (or read in place
/// from a source that holds it), and activations live in two pairs of
/// ping-pong buffers: the per-image pair holds one image of the model's
/// conv / ReLU / pool prefix (which runs depth-first, image by image), and
/// the head pair holds the call's — or on a lane, one morsel's — rows of
/// the dense head. So a lane's input and prefix memory is one image, and
/// its head memory is one morsel of the head's widest activation.
#[derive(Debug, Default)]
pub struct InferScratch {
    /// GEMM packing buffers + kernel pin for every layer.
    pub gemm: GemmScratch,
    /// Morsel fan-out cap: `None` fans out over every pool worker plus the
    /// caller, `Some(1)` runs the morsels serially on the caller (see
    /// [`InferScratch::morsel_lanes`]).
    pub threads: Option<usize>,
    /// Ping-pong activation buffers for [`crate::model::Sequential`]'s
    /// head: all of a call's rows at once.
    pub(crate) buf_a: Vec<f32>,
    pub(crate) buf_b: Vec<f32>,
    /// The input row being scored, as the row source produced it.
    pub(crate) source_row: Vec<f32>,
    /// Ping-pong activation buffers for the per-image prefix: one image.
    pub(crate) image_a: Vec<f32>,
    pub(crate) image_b: Vec<f32>,
    /// One scratch per morsel lane, grown on first fan-out and reused.
    pub(crate) lanes: Vec<InferScratch>,
    /// Calls through this scratch that were scored as morsels.
    pub(crate) morsel_calls: u64,
}

impl InferScratch {
    /// Equal to [`InferScratch::default`], which is already batch-shape
    /// invariant (`Dense` runs the GEMM at every batch size). Kept as a
    /// public constructor because external callers (the benchmark
    /// harness) name it.
    pub fn coalescing() -> InferScratch {
        InferScratch::default()
    }

    /// Scratch whose morsels stay on the calling thread — what training
    /// runs on, layer-owned inside `Conv2d` and `Dense`: training gets its
    /// parallelism from training several models at once, not from inside
    /// one.
    pub fn single_threaded() -> InferScratch {
        InferScratch {
            threads: Some(1),
            ..InferScratch::default()
        }
    }

    /// How many lanes a morsel-split call fans out over: `threads` when
    /// set (`Some(1)` runs the morsels serially on the caller), otherwise
    /// every pool worker plus the caller — one lane on a 1-core machine,
    /// where the pool runs every spawn inline.
    pub fn morsel_lanes(&self) -> usize {
        self.threads
            .unwrap_or_else(|| tahoma_mathx::pool::workers() + 1)
            .max(1)
    }

    /// Inference calls through this scratch that were scored as morsels
    /// (the fan-out path), as opposed to one whole-batch pass.
    pub fn morsel_calls(&self) -> u64 {
        self.morsel_calls
    }

    /// `n` lane scratches inheriting this scratch's kernel, each serial
    /// inside: the lanes are the parallelism.
    pub(crate) fn lane_pool(&mut self, n: usize) -> &mut [InferScratch] {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, InferScratch::default);
        }
        for lane in &mut self.lanes[..n] {
            lane.gemm.kernel = self.gemm.kernel;
            lane.threads = Some(1);
        }
        &mut self.lanes[..n]
    }

    /// Largest capacities, in elements, held by this scratch or its lanes:
    /// of the input-row buffer, of a per-image prefix buffer, and of any
    /// other buffer (head activations, GEMM scratch) — what the morsel
    /// memory bounds are stated over.
    #[cfg(test)]
    pub(crate) fn max_buffer_capacity(&self) -> (usize, usize, usize) {
        let own = (
            self.source_row.capacity(),
            self.image_a.capacity().max(self.image_b.capacity()),
            self.buf_a
                .capacity()
                .max(self.buf_b.capacity())
                .max(self.gemm.max_buffer_capacity()),
        );
        self.lanes
            .iter()
            .map(InferScratch::max_buffer_capacity)
            .fold(own, |(r, i, o), (lr, li, lo)| {
                (r.max(lr), i.max(li), o.max(lo))
            })
    }
}

/// A differentiable layer.
///
/// `Send + Sync` so whole models move across threads *and* serve from
/// behind a shared reference — the zoo trainer builds networks on worker
/// threads, and the query service scores through one `Sequential` from
/// many request threads at once (see [`Layer::infer_shared`]). Layers are
/// plain parameter/scratch buffers, so the bounds cost implementors
/// nothing.
pub trait Layer: Send + Sync {
    /// Human-readable layer kind.
    fn name(&self) -> &'static str;
    /// Downcasting hook used by the serializer.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Output shape for this layer's fixed input shape.
    fn output_shape(&self) -> Shape;
    /// Training forward of one image: a batch-of-1
    /// [`Layer::forward_batch`].
    fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_batch(input, 1, &mut out);
        out
    }
    /// Propagate `grad_out` (dL/d output) to dL/d input, accumulating
    /// parameter gradients. Must be called after `forward`.
    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32>;
    /// Training forward of a whole minibatch into `out` (resized by the
    /// callee); `input` holds `batch` images back to back in
    /// channel-planar order. Records what [`Layer::backward_batch`] needs,
    /// then produces exactly [`Layer::infer_shared`]'s bits: `Conv2d`,
    /// `Dense` and `Relu` run that body on layer-owned single-threaded
    /// scratch, and `MaxPool2`'s argmax sweep is pinned bitwise to it.
    fn forward_batch(&mut self, input: &[f32], batch: usize, out: &mut Vec<f32>);
    /// Batched counterpart of [`Layer::backward`]: propagate a whole
    /// minibatch of output gradients into `grad_in`, accumulating parameter
    /// gradients over the batch. Must be called after `forward_batch` with
    /// the same `batch`.
    fn backward_batch(&mut self, grad_out: &[f32], batch: usize, grad_in: &mut Vec<f32>);
    /// The inference forward: all mutable state lives in the caller's
    /// [`InferScratch`], so one layer instance serves any number of threads
    /// concurrently, on the scratch's [`GemmScratch::kernel`].
    fn infer_shared(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        scratch: &mut InferScratch,
    );
    /// Visit (parameters, gradients) slices for the optimizer. Layers that
    /// keep their weights packed for the GEMM re-pack them after `f`
    /// returns, so this is the one way weights change.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));
    /// Reset accumulated gradients to zero.
    fn zero_grads(&mut self);
    /// Number of trainable parameters.
    fn param_count(&self) -> usize;
    /// FLOPs for one forward pass.
    fn flops(&self) -> u64;
}

/// 2-D convolution, stride 1, "same" zero padding, odd square kernels.
#[derive(Debug)]
pub struct Conv2d {
    input: Shape,
    out_c: usize,
    k: usize,
    weights: Vec<f32>, // [out_c][in_c][k][k]
    /// `weights` packed once into the GEMM's filter panels; rebuilt by
    /// every `visit_params`, the only way weights change.
    filter: PackedA,
    bias: Vec<f32>, // [out_c]
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cache_input: Vec<f32>,
    scratch: InferScratch,
    col: Vec<f32>,
    dcol: Vec<f32>,
}

impl Conv2d {
    /// Create a convolution layer with He-normal weights.
    ///
    /// Panics if `k` is even (same-padding needs odd kernels) or zero.
    pub fn new(input: Shape, out_c: usize, k: usize, rng: &mut DetRng) -> Conv2d {
        assert!(k % 2 == 1 && k > 0, "Conv2d requires odd kernel, got {k}");
        assert!(out_c > 0, "Conv2d requires out_c > 0");
        let fan_in = input.c * k * k;
        let n_w = out_c * input.c * k * k;
        Conv2d::from_parts(
            input,
            out_c,
            k,
            he_normal(rng, fan_in, n_w),
            vec![0.0; out_c],
        )
    }

    /// Construct from explicit weights (used by deserialization).
    pub fn from_parts(
        input: Shape,
        out_c: usize,
        k: usize,
        weights: Vec<f32>,
        bias: Vec<f32>,
    ) -> Conv2d {
        assert_eq!(weights.len(), out_c * input.c * k * k);
        assert_eq!(bias.len(), out_c);
        let n_w = weights.len();
        Conv2d {
            input,
            out_c,
            k,
            filter: PackedA::new(&weights, out_c, input.c * k * k),
            weights,
            bias,
            grad_w: vec![0.0; n_w],
            grad_b: vec![0.0; out_c],
            cache_input: Vec::new(),
            scratch: InferScratch::single_threaded(),
            col: Vec::new(),
            dcol: Vec::new(),
        }
    }

    /// Layer geometry accessors for serialization.
    pub fn geometry(&self) -> (Shape, usize, usize) {
        (self.input, self.out_c, self.k)
    }

    /// Borrow weights and bias for serialization.
    pub fn weights_bias(&self) -> (&[f32], &[f32]) {
        (&self.weights, &self.bias)
    }

    #[inline]
    fn w_idx(&self, o: usize, i: usize, ky: usize, kx: usize) -> usize {
        ((o * self.input.c + i) * self.k + ky) * self.k + kx
    }

    /// The original six-nested-loop convolution, kept as the semantic
    /// reference for the GEMM path. Caches
    /// the input exactly like `forward`, so `backward` composes with it.
    pub fn forward_scalar(&mut self, input: &[f32]) -> Vec<f32> {
        let (c_in, h, w) = (self.input.c, self.input.h, self.input.w);
        debug_assert_eq!(input.len(), self.input.len());
        self.cache_input.clear();
        self.cache_input.extend_from_slice(input);
        let pad = self.k / 2;
        let mut out = vec![0.0f32; self.out_c * h * w];
        for o in 0..self.out_c {
            let out_plane = &mut out[o * h * w..(o + 1) * h * w];
            out_plane.fill(self.bias[o]);
            for i in 0..c_in {
                let in_plane = &input[i * h * w..(i + 1) * h * w];
                for ky in 0..self.k {
                    for kx in 0..self.k {
                        let wgt = self.weights[self.w_idx(o, i, ky, kx)];
                        if wgt == 0.0 {
                            continue;
                        }
                        // y + ky - pad must land in [0, h); saturate both
                        // ends so kernels larger than the image read only
                        // padding instead of underflowing the index math.
                        let y_lo = pad.saturating_sub(ky);
                        let y_hi = (h + pad).saturating_sub(ky).min(h);
                        let x_lo = pad.saturating_sub(kx);
                        let x_hi = (w + pad).saturating_sub(kx).min(w);
                        if x_hi <= x_lo {
                            continue;
                        }
                        for y in y_lo..y_hi {
                            let sy = y + ky - pad;
                            let src = &in_plane[sy * w + x_lo + kx - pad..sy * w + x_hi + kx - pad];
                            let dst = &mut out_plane[y * w + x_lo..y * w + x_hi];
                            for (d, s) in dst.iter_mut().zip(src) {
                                *d += wgt * s;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The inference forward with the layers that follow folded into the
    /// row sweep's epilogue: a `Relu` ([`ConvEpilogue::Relu`]), or a
    /// `Relu` and then a `MaxPool2` ([`ConvEpilogue::ReluPool`], whose
    /// output is the pooled planes). Bitwise equal to running those
    /// layers' [`Layer::infer_shared`] in turn, with one activation
    /// written instead of two or three.
    pub(crate) fn infer_fused(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        scratch: &mut InferScratch,
        epilogue: ConvEpilogue,
    ) {
        let (c_in, h, w) = (self.input.c, self.input.h, self.input.w);
        let in_len = self.input.len();
        let out_len = self.out_c * epilogue.plane(h, w);
        debug_assert_eq!(input.len(), batch * in_len);
        out.resize(batch * out_len, 0.0);
        // Images run one after another through the given scratch; the
        // parallelism lives one level up, where `infer_batch_shared` hands
        // each pool lane whole morsels on a lane scratch of its own. Each
        // image's result depends only on its own pixels, so the output is
        // bitwise identical whatever batch or morsel it rides in.
        for b in 0..batch {
            gemm::conv2d_forward_packed(
                &mut scratch.gemm,
                &input[b * in_len..(b + 1) * in_len],
                c_in,
                h,
                w,
                self.k,
                &self.filter,
                &self.bias,
                epilogue,
                &mut out[b * out_len..(b + 1) * out_len],
            );
        }
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self) -> Shape {
        Shape::new(self.out_c, self.input.h, self.input.w)
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize, out: &mut Vec<f32>) {
        self.cache_input.clear();
        self.cache_input.extend_from_slice(input);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.infer_shared(input, batch, out, &mut scratch);
        self.scratch = scratch;
    }

    fn infer_shared(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        scratch: &mut InferScratch,
    ) {
        self.infer_fused(input, batch, out, scratch, ConvEpilogue::Bias);
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let (c_in, h, w) = (self.input.c, self.input.h, self.input.w);
        debug_assert_eq!(grad_out.len(), self.out_c * h * w);
        debug_assert_eq!(self.cache_input.len(), self.input.len());
        let pad = self.k / 2;
        let mut grad_in = vec![0.0f32; self.input.len()];
        for o in 0..self.out_c {
            let g_plane = &grad_out[o * h * w..(o + 1) * h * w];
            self.grad_b[o] += g_plane.iter().sum::<f32>();
            for i in 0..c_in {
                let in_plane = &self.cache_input[i * h * w..(i + 1) * h * w];
                let gi_plane_base = i * h * w;
                for ky in 0..self.k {
                    for kx in 0..self.k {
                        let widx = self.w_idx(o, i, ky, kx);
                        let wgt = self.weights[widx];
                        let mut gw = 0.0f32;
                        let y_lo = pad.saturating_sub(ky);
                        let y_hi = (h + pad).saturating_sub(ky).min(h);
                        let x_lo = pad.saturating_sub(kx);
                        let x_hi = (w + pad).saturating_sub(kx).min(w);
                        if x_hi <= x_lo {
                            continue;
                        }
                        for y in y_lo..y_hi {
                            let sy = y + ky - pad;
                            let g_row = &g_plane[y * w + x_lo..y * w + x_hi];
                            let in_row =
                                &in_plane[sy * w + x_lo + kx - pad..sy * w + x_hi + kx - pad];
                            for (g, s) in g_row.iter().zip(in_row) {
                                gw += g * s;
                            }
                            let gi_row = &mut grad_in[gi_plane_base + sy * w + x_lo + kx - pad
                                ..gi_plane_base + sy * w + x_hi + kx - pad];
                            for (gi, g) in gi_row.iter_mut().zip(g_row) {
                                *gi += wgt * g;
                            }
                        }
                        self.grad_w[widx] += gw;
                    }
                }
            }
        }
        grad_in
    }

    fn backward_batch(&mut self, grad_out: &[f32], batch: usize, grad_in: &mut Vec<f32>) {
        let (c_in, h, w) = (self.input.c, self.input.h, self.input.w);
        let (in_len, hw) = (self.input.len(), h * w);
        let out_len = self.out_c * hw;
        let kk_total = c_in * self.k * self.k;
        debug_assert_eq!(grad_out.len(), batch * out_len);
        debug_assert_eq!(self.cache_input.len(), batch * in_len);
        grad_in.clear();
        grad_in.resize(batch * in_len, 0.0);
        for b in 0..batch {
            let g_img = &grad_out[b * out_len..(b + 1) * out_len];
            for (o, g_plane) in g_img.chunks_exact(hw).enumerate() {
                self.grad_b[o] += g_plane.iter().sum::<f32>();
            }
            // grad_W += G · colᵀ  (out_c x hw times hw x kk_total).
            gemm::im2col(
                &self.cache_input[b * in_len..(b + 1) * in_len],
                c_in,
                h,
                w,
                self.k,
                &mut self.col,
            );
            gemm::gemm_nt(
                &mut self.scratch.gemm,
                self.out_c,
                kk_total,
                hw,
                g_img,
                &self.col,
                &mut self.grad_w,
            );
            // grad_col = Wᵀ · G, then scatter back to image layout.
            self.dcol.clear();
            self.dcol.resize(kk_total * hw, 0.0);
            gemm::gemm_tn(
                &mut self.scratch.gemm,
                kk_total,
                hw,
                self.out_c,
                &self.weights,
                g_img,
                &mut self.dcol,
            );
            gemm::col2im_add(
                &self.dcol,
                c_in,
                h,
                w,
                self.k,
                &mut grad_in[b * in_len..(b + 1) * in_len],
            );
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
        let k_total = self.input.c * self.k * self.k;
        self.filter.repack(&self.weights, self.out_c, k_total);
    }

    fn zero_grads(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn flops(&self) -> u64 {
        // MACs * 2; same padding keeps spatial dims.
        (self.out_c * self.input.c * self.k * self.k * self.input.h * self.input.w) as u64 * 2
    }
}

/// 2x2 max pooling with stride 2 (floor semantics).
#[derive(Debug, Clone)]
pub struct MaxPool2 {
    input: Shape,
    argmax: Vec<usize>,
}

impl MaxPool2 {
    /// Create a pool layer. Panics if the input is smaller than 2x2.
    pub fn new(input: Shape) -> MaxPool2 {
        assert!(
            input.h >= 2 && input.w >= 2,
            "MaxPool2 needs input >= 2x2, got {input}"
        );
        MaxPool2 {
            input,
            argmax: Vec::new(),
        }
    }

    /// Input shape accessor for serialization.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// Pool one image at `img_base` within a batch buffer, recording argmax
    /// positions as absolute indices into that buffer.
    fn pool_one(&mut self, input: &[f32], img_base: usize, out: &mut [f32], out_base: usize) {
        let (c, h, w) = (self.input.c, self.input.h, self.input.w);
        let (oh, ow) = (h / 2, w / 2);
        for ch in 0..c {
            let plane = &input[img_base + ch * h * w..img_base + (ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = (oy * 2 + dy) * w + ox * 2 + dx;
                            let v = plane[idx];
                            if v > best {
                                best = v;
                                best_i = img_base + ch * h * w + idx;
                            }
                        }
                    }
                    let oidx = out_base + (ch * oh + oy) * ow + ox;
                    out[oidx] = best;
                    self.argmax[oidx] = best_i;
                }
            }
        }
    }
}

impl Layer for MaxPool2 {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn output_shape(&self) -> Shape {
        self.input.pooled2()
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize, out: &mut Vec<f32>) {
        let in_len = self.input.len();
        let out_len = self.output_shape().len();
        debug_assert_eq!(input.len(), batch * in_len);
        out.resize(batch * out_len, 0.0);
        self.argmax.resize(batch * out_len, 0);
        for b in 0..batch {
            self.pool_one(input, b * in_len, out, b * out_len);
        }
    }

    fn infer_shared(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        _scratch: &mut InferScratch,
    ) {
        let in_len = self.input.len();
        let out_len = self.output_shape().len();
        debug_assert_eq!(input.len(), batch * in_len);
        out.resize(batch * out_len, 0.0);
        // `pool_one`'s strict-`>` running max from `-inf`, without the
        // argmax. A served pool follows a conv and ReLU and runs in the
        // conv's epilogue instead (`ConvEpilogue::ReluPool`).
        let (h, w) = (self.input.h, self.input.w);
        let ow = w / 2;
        let planes = input.chunks_exact(h * w);
        for (plane, dst) in planes.zip(out.chunks_exact_mut((h / 2) * ow)) {
            for (oy, dst) in dst.chunks_exact_mut(ow).enumerate() {
                let (r0, r1) = (&plane[2 * oy * w..], &plane[(2 * oy + 1) * w..]);
                for (ox, d) in dst.iter_mut().enumerate() {
                    let mut best = f32::NEG_INFINITY;
                    for v in [r0[2 * ox], r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]] {
                        if v > best {
                            best = v;
                        }
                    }
                    *d = best;
                }
            }
        }
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let mut grad_in = vec![0.0f32; self.input.len()];
        for (oidx, &src) in self.argmax.iter().enumerate() {
            grad_in[src] += grad_out[oidx];
        }
        grad_in
    }

    fn backward_batch(&mut self, grad_out: &[f32], batch: usize, grad_in: &mut Vec<f32>) {
        debug_assert_eq!(grad_out.len(), self.argmax.len());
        grad_in.clear();
        grad_in.resize(batch * self.input.len(), 0.0);
        for (oidx, &src) in self.argmax.iter().enumerate() {
            grad_in[src] += grad_out[oidx];
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn param_count(&self) -> usize {
        0
    }

    fn flops(&self) -> u64 {
        // 3 comparisons per output element.
        (self.output_shape().len() * 3) as u64
    }
}

/// Rectified linear activation.
#[derive(Debug, Clone)]
pub struct Relu {
    shape: Shape,
    mask: Vec<bool>,
}

impl Relu {
    /// Create a ReLU over the given shape.
    pub fn new(shape: Shape) -> Relu {
        Relu {
            shape,
            mask: Vec::new(),
        }
    }
}

impl Layer for Relu {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self) -> Shape {
        self.shape
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize, out: &mut Vec<f32>) {
        self.mask.clear();
        self.mask.extend(input.iter().map(|&v| v > 0.0));
        self.infer_shared(input, batch, out, &mut InferScratch::default());
    }

    fn infer_shared(
        &self,
        input: &[f32],
        _batch: usize,
        out: &mut Vec<f32>,
        _scratch: &mut InferScratch,
    ) {
        // A select sweep with the exact `v > 0.0` semantics of the mask.
        out.resize(input.len(), 0.0);
        kernels::relu(input, out);
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        grad_out
            .iter()
            .zip(&self.mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect()
    }

    fn backward_batch(&mut self, grad_out: &[f32], _batch: usize, grad_in: &mut Vec<f32>) {
        debug_assert_eq!(grad_out.len(), self.mask.len());
        grad_in.clear();
        grad_in.extend(
            grad_out
                .iter()
                .zip(&self.mask)
                .map(|(&g, &keep)| if keep { g } else { 0.0 }),
        );
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grads(&mut self) {}

    fn param_count(&self) -> usize {
        0
    }

    fn flops(&self) -> u64 {
        self.shape.len() as u64
    }
}

/// Fully connected layer. Treats its input as flat.
#[derive(Debug)]
pub struct Dense {
    n_in: usize,
    n_out: usize,
    weights: Vec<f32>, // [n_out][n_in]
    /// `Wᵀ` packed once into the blocked GEMM's B panels; rebuilt by every
    /// `visit_params`, the only way weights change.
    packed: PackedB,
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cache_input: Vec<f32>,
    scratch: InferScratch,
}

impl Dense {
    /// Create a dense layer with Xavier-uniform weights.
    pub fn new(n_in: usize, n_out: usize, rng: &mut DetRng) -> Dense {
        assert!(n_in > 0 && n_out > 0, "Dense dims must be positive");
        let weights = xavier_uniform(rng, n_in, n_out, n_in * n_out);
        Dense::from_parts(n_in, n_out, weights, vec![0.0; n_out])
    }

    /// Construct from explicit weights (used by deserialization).
    pub fn from_parts(n_in: usize, n_out: usize, weights: Vec<f32>, bias: Vec<f32>) -> Dense {
        assert_eq!(weights.len(), n_in * n_out);
        assert_eq!(bias.len(), n_out);
        let n_w = weights.len();
        Dense {
            n_in,
            n_out,
            packed: PackedB::new(&weights, Trans::T, n_in, n_out),
            weights,
            bias,
            grad_w: vec![0.0; n_w],
            grad_b: vec![0.0; n_out],
            cache_input: Vec::new(),
            scratch: InferScratch::single_threaded(),
        }
    }

    /// (n_in, n_out) accessor for serialization.
    pub fn geometry(&self) -> (usize, usize) {
        (self.n_in, self.n_out)
    }

    /// Borrow weights and bias for serialization.
    pub fn weights_bias(&self) -> (&[f32], &[f32]) {
        (&self.weights, &self.bias)
    }
}

impl Layer for Dense {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn output_shape(&self) -> Shape {
        Shape::flat(self.n_out)
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize, out: &mut Vec<f32>) {
        self.cache_input.clear();
        self.cache_input.extend_from_slice(input);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.infer_shared(input, batch, out, &mut scratch);
        self.scratch = scratch;
    }

    fn infer_shared(
        &self,
        input: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        scratch: &mut InferScratch,
    ) {
        debug_assert_eq!(input.len(), batch * self.n_in);
        out.clear();
        out.resize(batch * self.n_out, 0.0);
        for row in out.chunks_exact_mut(self.n_out) {
            row.copy_from_slice(&self.bias);
        }
        // out[batch x n_out] += X[batch x n_in] · Wᵀ, on the panels packed
        // at construction: bitwise `gemm_nt` against `weights`.
        gemm::gemm_prepacked(&mut scratch.gemm, batch, input, &self.packed, out);
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.n_out);
        let mut grad_in = vec![0.0f32; self.n_in];
        for (o, &g) in grad_out.iter().enumerate() {
            self.grad_b[o] += g;
            let row = &self.weights[o * self.n_in..(o + 1) * self.n_in];
            let grow = &mut self.grad_w[o * self.n_in..(o + 1) * self.n_in];
            for i in 0..self.n_in {
                grow[i] += g * self.cache_input[i];
                grad_in[i] += g * row[i];
            }
        }
        grad_in
    }

    fn backward_batch(&mut self, grad_out: &[f32], batch: usize, grad_in: &mut Vec<f32>) {
        debug_assert_eq!(grad_out.len(), batch * self.n_out);
        debug_assert_eq!(self.cache_input.len(), batch * self.n_in);
        for g_row in grad_out.chunks_exact(self.n_out) {
            for (gb, &g) in self.grad_b.iter_mut().zip(g_row) {
                *gb += g;
            }
        }
        // grad_W[n_out x n_in] += Gᵀ[n_out x batch] · X[batch x n_in].
        gemm::gemm_tn(
            &mut self.scratch.gemm,
            self.n_out,
            self.n_in,
            batch,
            grad_out,
            &self.cache_input,
            &mut self.grad_w,
        );
        // grad_X[batch x n_in] = G[batch x n_out] · W[n_out x n_in].
        grad_in.clear();
        grad_in.resize(batch * self.n_in, 0.0);
        gemm::gemm_nn(
            &mut self.scratch.gemm,
            batch,
            self.n_in,
            self.n_out,
            grad_out,
            &self.weights,
            grad_in,
        );
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
        self.packed
            .repack(&self.weights, Trans::T, self.n_in, self.n_out);
    }

    fn zero_grads(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn flops(&self) -> u64 {
        (self.n_in * self.n_out) as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check<L: Layer>(layer: &mut L, input: &[f32], eps: f32) {
        // Loss = sum of outputs; analytic grad_in must match finite diff.
        let out = layer.forward(input);
        let grad_out = vec![1.0f32; out.len()];
        let grad_in = layer.backward(&grad_out);
        for i in 0..input.len() {
            let mut plus = input.to_vec();
            plus[i] += eps;
            let mut minus = input.to_vec();
            minus[i] -= eps;
            let f_plus: f32 = layer.forward(&plus).iter().sum();
            let f_minus: f32 = layer.forward(&minus).iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 2e-2,
                "{} input grad mismatch at {i}: numeric {numeric} analytic {}",
                layer.name(),
                grad_in[i]
            );
        }
    }

    /// Batched finite-diff: batched analytic input grads must match numeric
    /// grads computed per perturbed batch buffer.
    fn finite_diff_check_batch<L: Layer>(layer: &mut L, input: &[f32], batch: usize, eps: f32) {
        let mut out = Vec::new();
        layer.forward_batch(input, batch, &mut out);
        let grad_out = vec![1.0f32; out.len()];
        let mut grad_in = Vec::new();
        layer.backward_batch(&grad_out, batch, &mut grad_in);
        assert_eq!(grad_in.len(), input.len());
        for i in 0..input.len() {
            let mut plus = input.to_vec();
            plus[i] += eps;
            let mut minus = input.to_vec();
            minus[i] -= eps;
            let mut o = Vec::new();
            layer.forward_batch(&plus, batch, &mut o);
            let f_plus: f32 = o.iter().sum();
            layer.forward_batch(&minus, batch, &mut o);
            let f_minus: f32 = o.iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 2e-2,
                "{} batched input grad mismatch at {i}: numeric {numeric} analytic {}",
                layer.name(),
                grad_in[i]
            );
        }
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let shape = Shape::new(1, 4, 4);
        let mut conv = Conv2d::from_parts(
            shape,
            1,
            3,
            // 3x3 kernel with 1 in the center.
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0],
        );
        let input: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let out = conv.forward(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_shift_kernel_applies_padding() {
        // Kernel that reads the pixel to the left: out(x) = in(x-1); the
        // leftmost column must read zero padding.
        let shape = Shape::new(1, 1, 4);
        let mut conv = Conv2d::from_parts(
            shape,
            1,
            3,
            vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0],
        );
        let out = conv.forward(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn conv_bias_added() {
        let shape = Shape::new(1, 2, 2);
        let mut conv = Conv2d::from_parts(shape, 1, 1, vec![0.0], vec![0.5]);
        let out = conv.forward(&[1.0; 4]);
        assert_eq!(out, vec![0.5; 4]);
    }

    #[test]
    fn conv_multichannel_sums_inputs() {
        let shape = Shape::new(2, 2, 2);
        // 1x1 kernels: out = 1*ch0 + 2*ch1.
        let mut conv = Conv2d::from_parts(shape, 1, 1, vec![1.0, 2.0], vec![0.0]);
        let input = vec![1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0];
        let out = conv.forward(&input);
        assert_eq!(out, vec![7.0; 4]);
    }

    #[test]
    fn conv_gemm_matches_scalar_reference() {
        let shape = Shape::new(3, 7, 5);
        let mut rng = DetRng::new(17);
        let mut conv = Conv2d::new(shape, 4, 3, &mut rng);
        let input: Vec<f32> = (0..shape.len())
            .map(|i| ((i * 13) % 11) as f32 / 11.0 - 0.5)
            .collect();
        let scalar = conv.forward_scalar(&input);
        let gemm_out = conv.forward(&input);
        assert_eq!(scalar.len(), gemm_out.len());
        for (i, (&a, &b)) in scalar.iter().zip(&gemm_out).enumerate() {
            assert!((a - b).abs() < 1e-5, "idx {i}: scalar {a} gemm {b}");
        }
    }

    #[test]
    fn conv_batch_matches_per_image() {
        let shape = Shape::new(2, 6, 6);
        let mut rng = DetRng::new(23);
        let mut conv = Conv2d::new(shape, 3, 3, &mut rng);
        let batch = 4;
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.4)
            .collect();
        let mut batched = Vec::new();
        conv.forward_batch(&input, batch, &mut batched);
        let out_len = conv.output_shape().len();
        for b in 0..batch {
            let single = conv.forward(&input[b * shape.len()..(b + 1) * shape.len()]);
            for (i, (&x, &y)) in single
                .iter()
                .zip(&batched[b * out_len..(b + 1) * out_len])
                .enumerate()
            {
                assert!((x - y).abs() < 1e-6, "image {b} idx {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        let shape = Shape::new(2, 3, 3);
        let mut rng = DetRng::new(42);
        let mut conv = Conv2d::new(shape, 2, 3, &mut rng);
        let input: Vec<f32> = (0..shape.len())
            .map(|i| ((i * 7) % 5) as f32 / 5.0 - 0.4)
            .collect();
        finite_diff_check(&mut conv, &input, 1e-2);
    }

    #[test]
    fn conv_batched_gradient_matches_finite_difference() {
        let shape = Shape::new(2, 3, 4);
        let mut rng = DetRng::new(43);
        let mut conv = Conv2d::new(shape, 2, 3, &mut rng);
        let batch = 3;
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|i| ((i * 7) % 5) as f32 / 5.0 - 0.4)
            .collect();
        conv.zero_grads();
        finite_diff_check_batch(&mut conv, &input, batch, 1e-2);
    }

    #[test]
    fn conv_batched_param_grads_match_per_image_sum() {
        let shape = Shape::new(2, 4, 4);
        let mut rng = DetRng::new(51);
        let mut conv = Conv2d::new(shape, 3, 3, &mut rng);
        let batch = 3;
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|i| ((i * 11) % 7) as f32 / 7.0 - 0.5)
            .collect();
        let out_len = conv.output_shape().len();

        // Per-image accumulation through the scalar backward.
        conv.zero_grads();
        for b in 0..batch {
            let img = &input[b * shape.len()..(b + 1) * shape.len()];
            let out = conv.forward(img);
            conv.backward(&vec![1.0; out.len()]);
        }
        let scalar_gw = conv.grad_w.clone();
        let scalar_gb = conv.grad_b.clone();

        // One batched pass.
        conv.zero_grads();
        let mut out = Vec::new();
        conv.forward_batch(&input, batch, &mut out);
        let mut grad_in = Vec::new();
        conv.backward_batch(&vec![1.0; batch * out_len], batch, &mut grad_in);

        for (i, (&a, &b)) in scalar_gw.iter().zip(&conv.grad_w).enumerate() {
            assert!(
                (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                "grad_w {i}: per-image {a} batched {b}"
            );
        }
        for (i, (&a, &b)) in scalar_gb.iter().zip(&conv.grad_b).enumerate() {
            assert!(
                (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                "grad_b {i}: per-image {a} batched {b}"
            );
        }
    }

    #[test]
    fn conv_weight_gradient_matches_finite_difference() {
        let shape = Shape::new(1, 3, 3);
        let mut rng = DetRng::new(3);
        let mut conv = Conv2d::new(shape, 1, 3, &mut rng);
        let input: Vec<f32> = (0..9).map(|i| (i as f32 - 4.0) / 9.0).collect();
        let out = conv.forward(&input);
        conv.zero_grads();
        conv.backward(&vec![1.0; out.len()]);
        // Check one weight by perturbation.
        let (w, _) = conv.weights_bias();
        let orig = w[4];
        let analytic = conv.grad_w[4];
        let eps = 1e-2;
        // Through `visit_params` (weights are the 9-element slot), which
        // re-packs the filter the forward reads.
        let set_w4 = |conv: &mut Conv2d, v: f32| {
            conv.visit_params(&mut |p, _| {
                if p.len() == 9 {
                    p[4] = v;
                }
            })
        };
        set_w4(&mut conv, orig + eps);
        let f_plus: f32 = conv.forward(&input).iter().sum();
        set_w4(&mut conv, orig - eps);
        let f_minus: f32 = conv.forward(&input).iter().sum();
        set_w4(&mut conv, orig);
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn pool_selects_maxima() {
        let shape = Shape::new(1, 2, 4);
        let mut pool = MaxPool2::new(shape);
        let out = pool.forward(&[1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 7.0]);
        assert_eq!(out, vec![5.0, 7.0]);
    }

    #[test]
    fn pool_backward_routes_to_argmax() {
        let shape = Shape::new(1, 2, 2);
        let mut pool = MaxPool2::new(shape);
        pool.forward(&[0.1, 0.9, 0.2, 0.3]);
        let gin = pool.backward(&[2.0]);
        assert_eq!(gin, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_batch_matches_per_image() {
        let shape = Shape::new(2, 4, 4);
        let mut pool = MaxPool2::new(shape);
        let batch = 3;
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|i| ((i * 31) % 17) as f32)
            .collect();
        let mut batched = Vec::new();
        pool.forward_batch(&input, batch, &mut batched);
        let out_len = pool.output_shape().len();
        // Batched backward routes each image's gradient inside its own slot.
        let mut grad_in = Vec::new();
        pool.backward_batch(&vec![1.0; batch * out_len], batch, &mut grad_in);
        for b in 0..batch {
            let img = &input[b * shape.len()..(b + 1) * shape.len()];
            let single = pool.forward(img);
            assert_eq!(&batched[b * out_len..(b + 1) * out_len], &single[..]);
            let gin = pool.backward(&vec![1.0; out_len]);
            assert_eq!(
                &grad_in[b * shape.len()..(b + 1) * shape.len()],
                &gin[..],
                "image {b} gradient"
            );
        }
    }

    #[test]
    fn pool_floors_odd_dims() {
        let shape = Shape::new(1, 5, 5);
        let mut pool = MaxPool2::new(shape);
        let out = pool.forward(&[1.0; 25]);
        assert_eq!(out.len(), 4);
        assert_eq!(pool.output_shape(), Shape::new(1, 2, 2));
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new(Shape::flat(4));
        let out = relu.forward(&[-1.0, 2.0, 0.0, 3.0]);
        assert_eq!(out, vec![0.0, 2.0, 0.0, 3.0]);
        let gin = relu.backward(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(gin, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_batched_matches_scalar() {
        let mut relu = Relu::new(Shape::flat(3));
        let input = [-1.0f32, 2.0, 0.5, 3.0, -0.25, 0.0];
        let mut out = Vec::new();
        relu.forward_batch(&input, 2, &mut out);
        assert_eq!(out, vec![0.0, 2.0, 0.5, 3.0, 0.0, 0.0]);
        let mut gin = Vec::new();
        relu.backward_batch(&[1.0; 6], 2, &mut gin);
        assert_eq!(gin, vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn dense_computes_affine_map() {
        let mut dense = Dense::from_parts(2, 2, vec![1.0, 2.0, 3.0, 4.0], vec![0.5, -0.5]);
        let out = dense.forward(&[1.0, 1.0]);
        assert_eq!(out, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_batch_matches_per_image() {
        let mut rng = DetRng::new(29);
        let mut dense = Dense::new(10, 4, &mut rng);
        let batch = 5;
        let input: Vec<f32> = (0..batch * 10).map(|i| (i as f32 / 25.0) - 1.0).collect();
        let mut batched = Vec::new();
        dense.forward_batch(&input, batch, &mut batched);
        for b in 0..batch {
            let single = dense.forward(&input[b * 10..(b + 1) * 10]);
            for (i, (&x, &y)) in single.iter().zip(&batched[b * 4..(b + 1) * 4]).enumerate() {
                assert!((x - y).abs() < 1e-5, "image {b} idx {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut rng = DetRng::new(7);
        let mut dense = Dense::new(6, 3, &mut rng);
        let input: Vec<f32> = (0..6).map(|i| (i as f32) / 6.0 - 0.5).collect();
        finite_diff_check(&mut dense, &input, 1e-2);
    }

    #[test]
    fn dense_batched_gradient_matches_finite_difference() {
        let mut rng = DetRng::new(8);
        let mut dense = Dense::new(5, 3, &mut rng);
        let input: Vec<f32> = (0..20).map(|i| (i as f32) / 20.0 - 0.5).collect();
        finite_diff_check_batch(&mut dense, &input, 4, 1e-2);
    }

    #[test]
    fn dense_batched_param_grads_match_per_image_sum() {
        let mut rng = DetRng::new(77);
        let mut dense = Dense::new(6, 2, &mut rng);
        let batch = 3;
        let input: Vec<f32> = (0..batch * 6)
            .map(|i| ((i * 5) % 9) as f32 / 9.0 - 0.4)
            .collect();

        dense.zero_grads();
        for b in 0..batch {
            dense.forward(&input[b * 6..(b + 1) * 6]);
            dense.backward(&[1.0, -0.5]);
        }
        let per_image_gw = dense.grad_w.clone();
        let per_image_gb = dense.grad_b.clone();

        dense.zero_grads();
        let mut out = Vec::new();
        dense.forward_batch(&input, batch, &mut out);
        let g: Vec<f32> = (0..batch).flat_map(|_| [1.0, -0.5]).collect();
        let mut gin = Vec::new();
        dense.backward_batch(&g, batch, &mut gin);

        for (i, (&a, &b)) in per_image_gw.iter().zip(&dense.grad_w).enumerate() {
            assert!((a - b).abs() < 1e-4, "grad_w {i}: {a} vs {b}");
        }
        for (i, (&a, &b)) in per_image_gb.iter().zip(&dense.grad_b).enumerate() {
            assert!((a - b).abs() < 1e-5, "grad_b {i}: {a} vs {b}");
        }
    }

    #[test]
    fn dense_packed_weights_follow_an_optimizer_step() {
        // The packed panels are rebuilt whenever `visit_params` hands out
        // the weights: after an Adam step, inference must equal a fresh
        // layer built from the updated weights, bit for bit (and differ
        // from the pre-step output, so the step really moved them).
        use crate::optim::{Adam, Optimizer};
        let (n_in, n_out, batch) = (300, 45, 5);
        let mut rng = DetRng::new(91);
        let mut dense = Dense::new(n_in, n_out, &mut rng);
        let input: Vec<f32> = (0..batch * n_in)
            .map(|i| ((i * 13) % 17) as f32 / 17.0 - 0.5)
            .collect();
        let mut scratch = InferScratch::default();
        let mut before = Vec::new();
        dense.infer_shared(&input, batch, &mut before, &mut scratch);

        let mut out = Vec::new();
        dense.forward_batch(&input, batch, &mut out);
        let mut grad_in = Vec::new();
        dense.backward_batch(&vec![1.0; batch * n_out], batch, &mut grad_in);
        let mut opt = Adam::new(0.01);
        opt.begin_step();
        let mut slot = 0;
        dense.visit_params(&mut |p, g| {
            opt.update(slot, p, g, 1.0);
            slot += 1;
        });

        let (w, b) = dense.weights_bias();
        let fresh = Dense::from_parts(n_in, n_out, w.to_vec(), b.to_vec());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        dense.infer_shared(&input, batch, &mut got, &mut scratch);
        fresh.infer_shared(&input, batch, &mut want, &mut scratch);
        assert_eq!(got, want);
        assert_ne!(got, before);
    }

    #[test]
    fn dense_accumulates_gradients_across_calls() {
        let mut dense = Dense::from_parts(1, 1, vec![2.0], vec![0.0]);
        dense.forward(&[3.0]);
        dense.backward(&[1.0]);
        dense.forward(&[3.0]);
        dense.backward(&[1.0]);
        assert_eq!(dense.grad_w[0], 6.0); // 2 calls x input 3
        dense.zero_grads();
        assert_eq!(dense.grad_w[0], 0.0);
    }

    #[test]
    fn flop_counts() {
        let mut rng = DetRng::new(1);
        let conv = Conv2d::new(Shape::new(3, 10, 10), 16, 3, &mut rng);
        assert_eq!(conv.flops(), (16 * 3 * 9 * 100) as u64 * 2);
        let dense = Dense::new(100, 10, &mut rng);
        assert_eq!(dense.flops(), 2000);
        let pool = MaxPool2::new(Shape::new(4, 8, 8));
        assert_eq!(pool.flops(), (4 * 4 * 4 * 3) as u64);
        let relu = Relu::new(Shape::flat(50));
        assert_eq!(relu.flops(), 50);
    }

    #[test]
    fn param_counts() {
        let mut rng = DetRng::new(1);
        let conv = Conv2d::new(Shape::new(3, 8, 8), 16, 3, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 9 + 16);
        let dense = Dense::new(64, 32, &mut rng);
        assert_eq!(dense.param_count(), 64 * 32 + 32);
    }
}
