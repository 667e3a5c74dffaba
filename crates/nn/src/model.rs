//! Model composition and the paper's CNN architecture constructor.
//!
//! [`CnnSpec`] encodes exactly the Fig. 3 family: `L` repetitions of
//! `conv(3x3, same, n_conv) -> ReLU -> maxpool(2x2)`, then a dense ReLU
//! layer of `n_dense` units, then a single-logit dense output. The paper
//! varies `L` in {1, 2, 4}, `n_conv` in {16, 32}, and `n_dense` in
//! {16, 32, 64} (§VII-A).

use crate::gemm::ConvEpilogue;
use crate::layer::{Conv2d, Dense, InferScratch, Layer, MaxPool2, Relu};
use crate::tensor::Shape;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use tahoma_mathx::{logistic, DetRng};

/// Rows per morsel of a fanned-out [`Sequential::infer_rows`] call of at
/// least `lanes x MORSEL_ROWS` rows, or of more than `MORSEL_ROWS` rows on
/// one lane; a smaller call over several lanes is cut into
/// `MORSELS_PER_LANE` smaller morsels a lane. Picked by a 32…256 sweep
/// (DESIGN.md §7): the best `scan` p50, and the only size that does not
/// raise `standing`'s peak RSS. It also bounds every call's head
/// activations, whatever the call size.
pub const MORSEL_ROWS: usize = 64;

/// Morsels each lane of a fanned-out call is handed when the call is too
/// small for a [`MORSEL_ROWS`]-row morsel a lane. With several morsels a
/// lane, a lane whose vCPU wakes late or runs slow scores fewer of them,
/// and the caller waits for at most one small morsel at the end of the
/// call. On `lookup`, 4 a lane cut the mean time per op by 6–8% against
/// one a lane, and 8 gained under 2% more (DESIGN.md §13).
const MORSELS_PER_LANE: usize = 4;

/// Fewest rows a morsel lane is handed: a call fans out over at most
/// `rows / LANE_MIN_ROWS` lanes, so a call of fewer than
/// `2 x LANE_MIN_ROWS` rows runs as one pass. A fan-out costs a roughly
/// fixed 50–130 µs of extra CPU on the benchmark box, whatever its size.
/// From 16 rows a lane that is at most 13% of the call's CPU on both
/// served models, for 0.54–0.60x its wall time; at 12 rows a lane m0's
/// split costs up to 18% (DESIGN.md §13).
const LANE_MIN_ROWS: usize = 16;

/// Where [`Sequential::infer_rows`] reads its input rows from: a
/// materialized slice ([`SliceRows`]), or a source that produces each row
/// on demand on whichever lane scores it. Rows are channel-planar images
/// of the model's input shape.
pub trait RowSource: Sync {
    /// Why a row could not be produced.
    type Error: Send;

    /// Rows the source holds.
    fn rows(&self) -> usize;

    /// Values per row: the input length of the model it feeds.
    fn row_len(&self) -> usize;

    /// Hand each row of `range` to `visit`, in row order, each before the
    /// next is produced. A row the source does not already hold in memory
    /// is written into `buf` (one row long) first and handed over from
    /// there. Stops at the first row that cannot be produced and returns
    /// its error: the failing row is `range.start` plus the number of rows
    /// visited. Called once per pass — per morsel, on the fan-out path —
    /// so a source can keep per-call tallies locally and publish them
    /// once.
    fn visit_rows(
        &self,
        range: Range<usize>,
        buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), Self::Error>;
}

/// Rows held back to back in one slice, read in place.
#[derive(Debug, Clone, Copy)]
pub struct SliceRows<'a> {
    data: &'a [f32],
    rows: usize,
    row_len: usize,
}

impl<'a> SliceRows<'a> {
    /// `rows` rows of `row_len` values each. Panics unless `data` holds
    /// exactly that many values.
    pub fn new(data: &'a [f32], rows: usize, row_len: usize) -> SliceRows<'a> {
        assert_eq!(
            data.len(),
            rows * row_len,
            "input length {} != batch {rows} x {row_len}",
            data.len()
        );
        SliceRows {
            data,
            rows,
            row_len,
        }
    }
}

impl RowSource for SliceRows<'_> {
    type Error = Infallible;

    fn rows(&self) -> usize {
        self.rows
    }

    fn row_len(&self) -> usize {
        self.row_len
    }

    fn visit_rows(
        &self,
        range: Range<usize>,
        _buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), Infallible> {
        for r in range {
            visit(&self.data[r * self.row_len..(r + 1) * self.row_len]);
        }
        Ok(())
    }
}

/// A feed-forward stack of layers.
///
/// Owns a pair of ping-pong activation buffers so whole minibatches flow
/// through [`Sequential::forward_batch`]/[`Sequential::backward_batch`]
/// without any per-image (or even per-call, after warm-up) allocation.
pub struct Sequential {
    input: Shape,
    layers: Vec<Box<dyn Layer>>,
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
}

impl Sequential {
    /// Create an empty model over the given input shape.
    pub fn new(input: Shape) -> Sequential {
        Sequential {
            input,
            layers: Vec::new(),
            buf_a: Vec::new(),
            buf_b: Vec::new(),
        }
    }

    /// Append a layer. The caller keeps the shapes chained: a layer's input
    /// is the current output shape (a dense layer's is its length). A
    /// stream's chain is checked by [`crate::serialize::load`].
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Input shape.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// Output shape of the final layer (the input shape for an empty model).
    pub fn output_shape(&self) -> Shape {
        self.layers.last().map_or(self.input, |l| l.output_shape())
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Training forward of one image, returning the raw output vector: a
    /// batch-of-1 [`Sequential::forward_batch`], so [`Sequential::backward`]
    /// can follow.
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        self.forward_batch(input, 1)
    }

    /// Carry a whole minibatch through every layer, caching activations so
    /// [`Sequential::backward_batch`] can follow (the training entry point).
    /// `input` holds `batch` images back to back (batch-major,
    /// channel-planar); the result holds `batch` output vectors back to
    /// back, bitwise equal to [`Sequential::infer_batch_shared`] on default
    /// scratch. Activations move through two reused ping-pong buffers — no
    /// per-image allocation.
    pub fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert!(batch > 0, "forward_batch requires batch >= 1");
        assert_eq!(
            input.len(),
            batch * self.input.len(),
            "input length {} != batch {batch} x {}",
            input.len(),
            self.input.len()
        );
        let Sequential {
            layers,
            buf_a,
            buf_b,
            ..
        } = self;
        buf_a.clear();
        buf_a.extend_from_slice(input);
        for layer in layers.iter_mut() {
            layer.forward_batch(buf_a, batch, buf_b);
            std::mem::swap(buf_a, buf_b);
        }
        buf_a.clone()
    }

    /// Batched inference, the one inference entry point: `&self`, with
    /// every piece of mutable state (GEMM packing buffers, the input row,
    /// ping-pong activations) in the caller's [`InferScratch`], so one
    /// trained model serves any number of threads concurrently, each with
    /// its own scratch checked out from a pool. The input is read from
    /// `source`, one row at a time, by whichever lane scores that row — so
    /// a source that produces its rows on demand (the query executor
    /// fetches, decodes and standardizes each image) does that work on the
    /// lanes too, and no buffer ever holds more than one input row per
    /// lane.
    ///
    /// Each image's output is bitwise independent of the batch it rides
    /// in, on any scratch, which is what lets a scoring broker merge packs
    /// from concurrent queries into one call — and what lets a call run as
    /// morsels spread over the [`InferScratch::morsel_lanes`] lanes of the
    /// `tahoma_mathx::pool`, with the same bits. The call uses as many
    /// lanes as give each at least `LANE_MIN_ROWS` (16) rows. Its morsels
    /// are [`MORSEL_ROWS`] rows, except that a call of fewer than `lanes x
    /// MORSEL_ROWS` rows over several lanes is cut into
    /// `ceil(rows / (MORSELS_PER_LANE x lanes))`-row morsels
    /// (`MORSELS_PER_LANE` = 4); it fans out when it holds more rows than
    /// one morsel, and otherwise runs as one pass on the caller. So on two
    /// lanes a 64-row call runs as eight 8-row morsels, a call of 128 rows
    /// or more keeps [`MORSEL_ROWS`]-row morsels, and on one lane a call of
    /// over [`MORSEL_ROWS`] rows runs as serial morsels on the caller.
    /// Within a pass the conv prefix runs depth-first, one image at a time,
    /// so its activation memory is one image; the dense head's is the
    /// pass's rows — at most [`MORSEL_ROWS`], whatever the call size. Zero
    /// rows score to an empty vector.
    ///
    /// A row the source cannot produce fails the call with the source's
    /// error. Once one has failed no further morsel is handed out, and the
    /// error returned is that of the lowest failing row, whatever the lane
    /// count or schedule: morsels are handed out in row order, and every
    /// morsel already handed out is read up to its own first failure.
    pub fn infer_rows<S: RowSource + ?Sized>(
        &self,
        source: &S,
        scratch: &mut InferScratch,
    ) -> Result<Vec<f32>, S::Error> {
        assert_eq!(
            source.row_len(),
            self.input.len(),
            "row length {} != model input {}",
            source.row_len(),
            self.input
        );
        let batch = source.rows();
        if batch == 0 {
            return Ok(Vec::new());
        }
        let lanes = scratch.morsel_lanes().min(batch / LANE_MIN_ROWS).max(1);
        // One lane has nothing to balance: its morsels only cap the pass.
        let morsel = if lanes > 1 && batch < lanes * MORSEL_ROWS {
            batch.div_ceil(MORSELS_PER_LANE * lanes)
        } else {
            MORSEL_ROWS
        };
        if batch > morsel {
            return self.infer_morsels(source, batch, morsel, scratch);
        }
        self.infer_pass(source, 0..batch, scratch)
            .map(<[f32]>::to_vec)
            .map_err(|(_, e)| e)
    }

    /// [`Sequential::infer_rows`] over `batch` rows held back to back in
    /// `input`.
    pub fn infer_batch_shared(
        &self,
        input: &[f32],
        batch: usize,
        scratch: &mut InferScratch,
    ) -> Vec<f32> {
        let rows = SliceRows::new(input, batch, self.input.len());
        self.infer_rows(&rows, scratch)
            .unwrap_or_else(|never| match never {})
    }

    /// One pass of `rows` of `source` through every layer on `scratch`;
    /// the result stays in the scratch's head buffer. A row the source
    /// cannot produce ends the pass with that row's index and error.
    ///
    /// The pass is depth-first over the model's per-image prefix (its
    /// leading conv / ReLU / pool layers — in a [`CnnSpec`] model,
    /// everything before the first `Dense`): each image is produced into
    /// the scratch's one-row input buffer (or read in place, from a source
    /// that holds it) and runs the whole prefix before the next image is
    /// produced, so the prefix activations of one image stay
    /// cache-resident and the scratch's input and prefix buffers never
    /// outgrow one image. Each image's prefix output becomes its row of the
    /// head matrix, and the head (`Dense` on) then runs over all rows at
    /// once. Every prefix layer computes each image from that image's
    /// pixels alone, so the head sees the same matrix, in the same row
    /// order, as a layer-major pass (training's `forward_batch`) would
    /// build.
    fn infer_pass<'s, S: RowSource + ?Sized>(
        &self,
        source: &S,
        rows: Range<usize>,
        scratch: &'s mut InferScratch,
    ) -> Result<&'s [f32], (usize, S::Error)> {
        let split = self
            .layers
            .iter()
            .position(|l| !is_per_image(l.as_ref()))
            .unwrap_or(self.layers.len());
        let (prefix, head) = self.layers.split_at(split);
        let (first, batch) = (rows.start, rows.len());
        let mut head_rows = std::mem::take(&mut scratch.buf_a);
        let mut spare = std::mem::take(&mut scratch.buf_b);
        let mut input = std::mem::take(&mut scratch.source_row);
        input.resize(self.input.len(), 0.0);
        // The head buffers swap roles from call to call, so grow this one
        // to the exact row count, not by doubling a smaller one.
        head_rows.clear();
        let features = prefix
            .last()
            .map_or(self.input.len(), |l| l.output_shape().len());
        head_rows.reserve_exact(batch * features);
        let mut img_a = std::mem::take(&mut scratch.image_a);
        let mut img_b = std::mem::take(&mut scratch.image_b);
        let mut visited = 0usize;
        let read = source.visit_rows(rows, &mut input, &mut |pixels| {
            run_layers(prefix, Some(pixels), 1, &mut img_a, &mut img_b, scratch);
            head_rows.extend_from_slice(&img_a);
            visited += 1;
        });
        scratch.image_a = img_a;
        scratch.image_b = img_b;
        scratch.source_row = input;
        let read = read.map_err(|e| (first + visited, e));
        if read.is_ok() {
            run_layers(head, None, batch, &mut head_rows, &mut spare, scratch);
        }
        scratch.buf_a = head_rows;
        scratch.buf_b = spare;
        read.map(|()| &scratch.buf_a[..])
    }

    /// The fan-out path of [`Sequential::infer_rows`], over `morsel`-row
    /// morsels (the last one ragged): lanes pull the next unscored morsel
    /// from a shared cursor (so a lane whose core is busy elsewhere simply
    /// takes fewer), read its rows from the source and write its outputs
    /// to that morsel's disjoint slice of the result. A
    /// lane whose morsel hits a failing row records it — the lowest
    /// recorded wins — and the cursor hands out nothing more. A lane's
    /// panic re-raises here once every lane has stopped.
    ///
    /// The caller, once the cursor is empty, spins while other lanes still
    /// score their last morsels, for at most as long as its own last morsel
    /// took, before `pool::scope` puts it to sleep. A lane that started its
    /// morsel no earlier than the caller started its own is done within
    /// that time unless its vCPU was taken away, and on a 2-vCPU KVM guest
    /// without guest-side idle polling a sleeping caller halts its vCPU,
    /// which the host then resumes late and unevenly (DESIGN.md §13).
    #[inline(never)]
    fn infer_morsels<S: RowSource + ?Sized>(
        &self,
        source: &S,
        batch: usize,
        morsel: usize,
        scratch: &mut InferScratch,
    ) -> Result<Vec<f32>, S::Error> {
        struct Cursor<M, E> {
            morsels: M,
            failed: Option<(usize, E)>,
        }
        let out_len = self.output_shape().len();
        let mut out = vec![0.0f32; batch * out_len];
        let lanes = scratch.morsel_lanes().min(batch.div_ceil(morsel));
        let cursor = Mutex::new(Cursor {
            morsels: (0..batch)
                .step_by(morsel)
                .zip(out.chunks_mut(morsel * out_len)),
            failed: None,
        });
        let lock = || cursor.lock().unwrap_or_else(PoisonError::into_inner);
        let caller = std::thread::current().id();
        // Lanes that took a morsel and have not yet found the cursor empty.
        // Only the caller's wait reads it; the results are joined by
        // `pool::scope`.
        let scoring = AtomicUsize::new(0);
        tahoma_mathx::pool::scope(|s| {
            for lane in scratch.lane_pool(lanes) {
                let (lock, scoring) = (&lock, &scoring);
                s.spawn(move || {
                    let mut last = None;
                    loop {
                        let next = {
                            let mut c = lock();
                            let next = match c.failed {
                                Some(_) => None,
                                None => c.morsels.next(),
                            };
                            if next.is_some() && last.is_none() {
                                scoring.fetch_add(1, Ordering::Relaxed);
                            }
                            next
                        };
                        let Some((start, dst)) = next else { break };
                        let rows = start..start + dst.len() / out_len;
                        let began = Instant::now();
                        match self.infer_pass(source, rows, lane) {
                            Ok(scores) => dst.copy_from_slice(scores),
                            Err((row, e)) => {
                                let mut c = lock();
                                if c.failed.as_ref().is_none_or(|&(r, _)| row < r) {
                                    c.failed = Some((row, e));
                                }
                            }
                        }
                        last = Some(began.elapsed());
                    }
                    let Some(last) = last else { return };
                    scoring.fetch_sub(1, Ordering::Relaxed);
                    if std::thread::current().id() == caller {
                        let waited = Instant::now();
                        while scoring.load(Ordering::Relaxed) > 0 && waited.elapsed() < last {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        scratch.morsel_calls += 1;
        let cursor = cursor.into_inner().unwrap_or_else(PoisonError::into_inner);
        match cursor.failed {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }

    /// One probability (sigmoid of the logit) per row of `source` through
    /// [`Sequential::infer_rows`]. Panics unless the model has a single
    /// output.
    pub fn predict_proba_rows<S: RowSource + ?Sized>(
        &self,
        source: &S,
        scratch: &mut InferScratch,
    ) -> Result<Vec<f32>, S::Error> {
        let mut out = self.infer_rows(source, scratch)?;
        assert_eq!(
            out.len(),
            source.rows(),
            "predict_proba_rows requires single-output model"
        );
        for v in &mut out {
            *v = logistic(*v as f64) as f32;
        }
        Ok(out)
    }

    /// [`Sequential::predict_proba_rows`] over `batch` rows held back to
    /// back in `input`.
    pub fn predict_proba_shared(
        &self,
        input: &[f32],
        batch: usize,
        scratch: &mut InferScratch,
    ) -> Vec<f32> {
        let rows = SliceRows::new(input, batch, self.input.len());
        self.predict_proba_rows(&rows, scratch)
            .unwrap_or_else(|never| match never {})
    }

    /// Backpropagate an output gradient through all layers, accumulating
    /// parameter gradients. Call after `forward`.
    pub fn backward(&mut self, grad_out: &[f32]) {
        let mut g = grad_out.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// Batched backward pass: `grad_out` holds one output gradient per image
    /// (batch-major). Parameter gradients accumulate the whole batch in one
    /// sweep through each layer's GEMM-backed `backward_batch`. Must follow
    /// a [`Sequential::forward_batch`] with the same `batch`.
    pub fn backward_batch(&mut self, grad_out: &[f32], batch: usize) {
        let Sequential {
            layers,
            buf_a,
            buf_b,
            ..
        } = self;
        buf_a.clear();
        buf_a.extend_from_slice(grad_out);
        for layer in layers.iter_mut().rev() {
            layer.backward_batch(buf_a, batch, buf_b);
            std::mem::swap(buf_a, buf_b);
        }
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Visit all (params, grads) pairs in stable order, passing a slot id.
    pub fn visit_params(&mut self, mut f: impl FnMut(usize, &mut [f32], &mut [f32])) {
        let mut slot = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, g| {
                f(slot, p, g);
                slot += 1;
            });
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total FLOPs for one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops()).sum()
    }

    /// One-line architecture summary, e.g.
    /// `"3x30x30 -> conv2d -> relu -> maxpool2 -> dense -> relu -> dense"`.
    pub fn summary(&self) -> String {
        let mut s = self.input.to_string();
        for layer in &self.layers {
            s.push_str(" -> ");
            s.push_str(layer.name());
        }
        s
    }
}

/// Whether [`Sequential`]'s inference runs `layer` image by image, in the
/// depth-first prefix. `Dense` would give the same bits per image too, but
/// the head runs it over all of a pass's rows at once: one GEMM per pass.
fn is_per_image(layer: &dyn Layer) -> bool {
    let any = layer.as_any();
    any.is::<Conv2d>() || any.is::<Relu>() || any.is::<MaxPool2>()
}

/// Run `batch` rows through `layers`, leaving the result in `a`: the first
/// layer reads `src` (or `a` when `src` is `None`), and activations
/// ping-pong between `a` and `b`. A `Conv2d` followed by a `Relu` runs as
/// one layer, the select folded into the conv's epilogue, and so does a
/// `Conv2d → Relu → MaxPool2` block, the pool included (same bits;
/// training's `forward_batch` stays unfused, since `Relu` records its mask
/// and `MaxPool2` its argmax there). An empty stack copies `src` through.
fn run_layers(
    layers: &[Box<dyn Layer>],
    mut src: Option<&[f32]>,
    batch: usize,
    a: &mut Vec<f32>,
    b: &mut Vec<f32>,
    scratch: &mut InferScratch,
) {
    let mut layers = layers.iter().peekable();
    while let Some(layer) = layers.next() {
        let input = src.take().unwrap_or(a);
        match layer.as_any().downcast_ref::<Conv2d>() {
            Some(conv) if layers.next_if(|l| l.as_any().is::<Relu>()).is_some() => {
                let pools = |l: &dyn Layer| {
                    let pool = l.as_any().downcast_ref::<MaxPool2>();
                    pool.is_some_and(|p| p.input_shape() == conv.output_shape())
                };
                let epilogue = match layers.next_if(|l| pools(l.as_ref())) {
                    Some(_) => ConvEpilogue::ReluPool,
                    None => ConvEpilogue::Relu,
                };
                conv.infer_fused(input, batch, b, scratch, epilogue);
            }
            _ => layer.infer_shared(input, batch, b, scratch),
        }
        std::mem::swap(a, b);
    }
    if let Some(src) = src {
        a.clear();
        a.extend_from_slice(src);
    }
}

impl fmt::Debug for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequential({})", self.summary())
    }
}

/// Declarative spec for the paper's CNN family (Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnnSpec {
    /// Input shape (channels x height x width).
    pub input: Shape,
    /// Output channels of each conv block; length = number of conv layers.
    pub conv_channels: Vec<usize>,
    /// Convolution kernel side (odd).
    pub kernel: usize,
    /// Units in the fully connected ReLU layer.
    pub dense_units: usize,
}

impl CnnSpec {
    /// Build the network with deterministic initialization.
    ///
    /// Returns an error message if pooling would shrink the spatial extent
    /// to zero (too many conv blocks for the input size).
    pub fn build(&self, seed: u64) -> Result<Sequential, String> {
        assert!(self.kernel % 2 == 1, "kernel must be odd");
        let mut rng = DetRng::new(seed);
        let mut model = Sequential::new(self.input);
        let mut shape = self.input;
        for (li, &out_c) in self.conv_channels.iter().enumerate() {
            if shape.h < 2 || shape.w < 2 {
                return Err(format!(
                    "conv block {li}: spatial extent {shape} too small to pool"
                ));
            }
            let conv = Conv2d::new(shape, out_c, self.kernel, &mut rng);
            shape = conv.output_shape();
            model.push(Box::new(conv));
            model.push(Box::new(Relu::new(shape)));
            let pool = MaxPool2::new(shape);
            shape = pool.output_shape();
            model.push(Box::new(pool));
            if shape.is_empty() {
                return Err(format!("conv block {li}: pooled to empty shape"));
            }
        }
        let flat = shape.len();
        model.push(Box::new(Dense::new(flat, self.dense_units, &mut rng)));
        model.push(Box::new(Relu::new(Shape::flat(self.dense_units))));
        model.push(Box::new(Dense::new(self.dense_units, 1, &mut rng)));
        Ok(model)
    }

    /// FLOPs of the built model without building it (used by the analytic
    /// cost model; must agree with `build(..).flops()`).
    pub fn flops(&self) -> u64 {
        let mut total = 0u64;
        let mut shape = self.input;
        for &out_c in &self.conv_channels {
            total += (out_c * shape.c * self.kernel * self.kernel * shape.h * shape.w) as u64 * 2;
            shape = Shape::new(out_c, shape.h, shape.w);
            total += shape.len() as u64; // relu
            let pooled = shape.pooled2();
            total += (pooled.len() * 3) as u64; // pool
            shape = pooled;
        }
        total += (shape.len() * self.dense_units) as u64 * 2;
        total += self.dense_units as u64; // relu
        total += self.dense_units as u64 * 2; // final dense
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_mathx::SimdTier;

    /// Rows produced on demand into the lane's input buffer, as a
    /// fetching source does, failing at the rows in `fail`. Records the
    /// row count of every pass it feeds.
    struct Produced<'a> {
        data: &'a [f32],
        row_len: usize,
        fail: &'a [usize],
        passes: Mutex<Vec<usize>>,
    }

    impl<'a> Produced<'a> {
        fn new(data: &'a [f32], row_len: usize) -> Produced<'a> {
            Produced {
                data,
                row_len,
                fail: &[],
                passes: Mutex::default(),
            }
        }

        /// Row counts of the passes fed so far, largest first.
        fn passes(&self) -> Vec<usize> {
            let mut passes = self.passes.lock().unwrap().clone();
            passes.sort_unstable_by(|a, b| b.cmp(a));
            passes
        }
    }

    impl RowSource for Produced<'_> {
        type Error = usize;

        fn rows(&self) -> usize {
            self.data.len() / self.row_len
        }

        fn row_len(&self) -> usize {
            self.row_len
        }

        fn visit_rows(
            &self,
            range: Range<usize>,
            buf: &mut [f32],
            visit: &mut dyn FnMut(&[f32]),
        ) -> Result<(), usize> {
            self.passes.lock().unwrap().push(range.len());
            for r in range {
                if self.fail.contains(&r) {
                    return Err(r);
                }
                buf.copy_from_slice(&self.data[r * self.row_len..(r + 1) * self.row_len]);
                visit(buf);
            }
            Ok(())
        }
    }

    fn tiny_spec() -> CnnSpec {
        CnnSpec {
            input: Shape::new(1, 8, 8),
            conv_channels: vec![4, 8],
            kernel: 3,
            dense_units: 8,
        }
    }

    #[test]
    fn build_produces_expected_stack() {
        let model = tiny_spec().build(1).unwrap();
        assert_eq!(
            model.summary(),
            "1x8x8 -> conv2d -> relu -> maxpool2 -> conv2d -> relu -> maxpool2 -> dense -> relu -> dense"
        );
        assert_eq!(model.output_shape(), Shape::flat(1));
    }

    #[test]
    fn forward_logit_runs() {
        let mut model = tiny_spec().build(2).unwrap();
        let input = vec![0.5; 64];
        let z = model.forward(&input);
        assert!(z.len() == 1 && z[0].is_finite());
        let p = model.predict_proba_shared(&input, 1, &mut InferScratch::default());
        assert!((0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn build_is_deterministic() {
        let mut a = tiny_spec().build(3).unwrap();
        let mut b = tiny_spec().build(3).unwrap();
        let input: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        assert_eq!(a.forward(&input), b.forward(&input));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = tiny_spec().build(3).unwrap();
        let mut b = tiny_spec().build(4).unwrap();
        let input: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        assert_ne!(a.forward(&input), b.forward(&input));
    }

    #[test]
    fn spec_flops_matches_built_model() {
        for spec in [
            tiny_spec(),
            CnnSpec {
                input: Shape::new(3, 30, 30),
                conv_channels: vec![16],
                kernel: 3,
                dense_units: 16,
            },
            CnnSpec {
                input: Shape::new(3, 30, 30),
                conv_channels: vec![16, 16, 16, 16],
                kernel: 3,
                dense_units: 64,
            },
        ] {
            let model = spec.build(9).unwrap();
            assert_eq!(spec.flops(), model.flops(), "spec {spec:?}");
        }
    }

    #[test]
    fn too_many_pools_is_an_error() {
        let spec = CnnSpec {
            input: Shape::new(1, 4, 4),
            conv_channels: vec![2, 2, 2, 2],
            kernel: 3,
            dense_units: 4,
        };
        assert!(spec.build(0).is_err());
    }

    #[test]
    fn paper_sizes_support_four_conv_layers() {
        // 30 -> 15 -> 7 -> 3 -> 1: still nonempty after four pools.
        for size in [30usize, 60, 120, 224] {
            let spec = CnnSpec {
                input: Shape::new(3, size, size),
                conv_channels: vec![16, 16, 16, 16],
                kernel: 3,
                dense_units: 16,
            };
            assert!(spec.build(0).is_ok(), "size {size}");
        }
    }

    #[test]
    fn gradient_descent_reduces_loss_end_to_end() {
        use crate::loss::{bce_with_logits, bce_with_logits_grad};
        use crate::optim::{Optimizer, Sgd};
        let mut model = CnnSpec {
            input: Shape::new(1, 6, 6),
            conv_channels: vec![3],
            kernel: 3,
            dense_units: 6,
        }
        .build(5)
        .unwrap();
        // Two simple patterns: bright center vs bright corner.
        let mut pos = vec![0.0f32; 36];
        pos[14] = 1.0;
        pos[15] = 1.0;
        pos[20] = 1.0;
        pos[21] = 1.0;
        let mut neg = vec![0.0f32; 36];
        neg[0] = 1.0;
        neg[1] = 1.0;
        neg[6] = 1.0;
        neg[7] = 1.0;
        let mut opt = Sgd::new(0.1, 0.9);
        let loss_at = |model: &mut Sequential, pos: &[f32], neg: &[f32]| {
            bce_with_logits(model.forward(pos)[0], true)
                + bce_with_logits(model.forward(neg)[0], false)
        };
        let before = loss_at(&mut model, &pos, &neg);
        for _ in 0..60 {
            model.zero_grads();
            let zp = model.forward(&pos)[0];
            model.backward(&[bce_with_logits_grad(zp, true)]);
            let zn = model.forward(&neg)[0];
            model.backward(&[bce_with_logits_grad(zn, false)]);
            opt.begin_step();
            model.visit_params(|slot, p, g| opt.update(slot, p, g, 0.5));
        }
        let after = loss_at(&mut model, &pos, &neg);
        assert!(
            after < before * 0.2,
            "loss did not drop: before {before}, after {after}"
        );
    }

    #[test]
    fn forward_batch_of_one_matches_forward() {
        let mut model = tiny_spec().build(6).unwrap();
        let input: Vec<f32> = (0..64).map(|i| (i as f32 / 32.0) - 1.0).collect();
        let single = model.forward(&input);
        let batched = model.forward_batch(&input, 1);
        assert_eq!(batched.len(), 1);
        assert_eq!(single, batched);
    }

    #[test]
    fn forward_batch_matches_per_image_forward() {
        let mut model = tiny_spec().build(7).unwrap();
        let batch = 5;
        let input: Vec<f32> = (0..batch * 64)
            .map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0)
            .collect();
        let batched = model.forward_batch(&input, batch);
        for b in 0..batch {
            let single = model.forward(&input[b * 64..(b + 1) * 64])[0];
            assert!(
                (single - batched[b]).abs() < 1e-4,
                "image {b}: single {single} batched {}",
                batched[b]
            );
        }
    }

    #[test]
    fn predict_proba_shared_is_sigmoid_of_logits() {
        let mut model = tiny_spec().build(8).unwrap();
        let batch = 3;
        let input: Vec<f32> = (0..batch * 64).map(|i| (i % 13) as f32 / 13.0).collect();
        let probs = model.predict_proba_shared(&input, batch, &mut InferScratch::default());
        assert_eq!(probs.len(), batch);
        for (b, &p) in probs.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p));
            let single = logistic(model.forward(&input[b * 64..(b + 1) * 64])[0] as f64) as f32;
            assert!((p - single).abs() < 1e-5, "image {b}: {p} vs {single}");
        }
    }

    #[test]
    fn batched_backward_matches_per_image_accumulation() {
        let spec = CnnSpec {
            input: Shape::new(1, 6, 6),
            conv_channels: vec![3],
            kernel: 3,
            dense_units: 6,
        };
        let batch = 4;
        let input: Vec<f32> = (0..batch * 36)
            .map(|i| ((i * 7) % 19) as f32 / 19.0 - 0.5)
            .collect();
        let grads: Vec<f32> = (0..batch)
            .map(|b| if b % 2 == 0 { 1.0 } else { -0.5 })
            .collect();

        // Per-image reference.
        let mut ref_model = spec.build(11).unwrap();
        ref_model.zero_grads();
        for b in 0..batch {
            ref_model.forward(&input[b * 36..(b + 1) * 36]);
            ref_model.backward(&[grads[b]]);
        }
        let mut ref_grads: Vec<Vec<f32>> = Vec::new();
        ref_model.visit_params(|_, _, g| ref_grads.push(g.to_vec()));

        // Batched pass on an identically initialized model.
        let mut model = spec.build(11).unwrap();
        model.zero_grads();
        model.forward_batch(&input, batch);
        model.backward_batch(&grads, batch);
        let mut got_grads: Vec<Vec<f32>> = Vec::new();
        model.visit_params(|_, _, g| got_grads.push(g.to_vec()));

        assert_eq!(ref_grads.len(), got_grads.len());
        for (slot, (r, g)) in ref_grads.iter().zip(&got_grads).enumerate() {
            for (i, (&a, &b)) in r.iter().zip(g).enumerate() {
                assert!(
                    (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                    "slot {slot} grad {i}: per-image {a} batched {b}"
                );
            }
        }
    }

    #[test]
    fn training_forward_matches_shared_inference_bitwise() {
        // Training's forward runs each layer's inference body after
        // recording its caches: the same bits as serving, at batch 1, at
        // small batches, and against a call large enough to split into
        // morsels.
        let mut model = tiny_spec().build(21).unwrap();
        for batch in [1usize, 3, 7, 2 * MORSEL_ROWS + 1] {
            let mut scratch = InferScratch::default();
            let input: Vec<f32> = (0..batch * 64)
                .map(|i| ((i * 29) % 31) as f32 / 31.0 - 0.5)
                .collect();
            let shared = model.infer_batch_shared(&input, batch, &mut scratch);
            let trained = model.forward_batch(&input, batch);
            assert_eq!(trained, shared, "batch {batch} diverges");
        }
    }

    #[test]
    fn coalescing_scratch_scores_are_batch_shape_invariant() {
        // The broker's contract: a row's score must not depend on how many
        // other rows were merged into the same inference call — on every
        // scratch, and whether the call runs as one pass or as morsels
        // over any number of lanes.
        let model = tiny_spec().build(22).unwrap();
        let sizes = [4, 1, 2 * MORSEL_ROWS + 1, 3];
        let n: usize = sizes.iter().sum();
        let input: Vec<f32> = (0..n * 64)
            .map(|i| ((i * 17) % 23) as f32 / 23.0 - 0.3)
            .collect();
        let lanes = |threads| InferScratch {
            threads,
            ..InferScratch::default()
        };
        let scratches = [
            ("default", InferScratch::default()),
            ("coalescing", InferScratch::coalescing()),
            ("single-threaded", InferScratch::single_threaded()),
            ("1 lane", lanes(Some(1))),
            ("2 lanes", lanes(Some(2))),
            ("3 lanes", lanes(Some(3))),
        ];
        for (name, mut scratch) in scratches {
            let merged = model.predict_proba_shared(&input, n, &mut scratch);
            // Score the same rows alone and in ragged sub-batches.
            let mut alone = Vec::new();
            for row in input.chunks(64) {
                alone.extend(model.predict_proba_shared(row, 1, &mut scratch));
            }
            assert_eq!(merged, alone, "{name}: batch-1 vs batch-{n} diverges");
            let mut ragged = Vec::new();
            let mut at = 0;
            for b in sizes {
                let chunk = &input[at * 64..(at + b) * 64];
                ragged.extend(model.predict_proba_shared(chunk, b, &mut scratch));
                at += b;
            }
            assert_eq!(merged, ragged, "{name}: ragged sub-batches diverge");
        }
    }

    #[test]
    fn morsel_split_is_bitwise_per_row_at_every_edge_and_width() {
        // Every call shape around the split rule's edges, through every
        // fan-out width, must reproduce batch-1 scoring bit for bit. A call
        // fans out exactly when it can give two lanes `LANE_MIN_ROWS` rows
        // each or holds more than `MORSEL_ROWS` rows; into `MORSEL_ROWS`-row
        // morsels, or, under `lanes x MORSEL_ROWS` rows on several lanes,
        // into `ceil(rows / (MORSELS_PER_LANE x lanes))`-row morsels.
        let model = tiny_spec().build(24).unwrap();
        let (m, l, k) = (MORSEL_ROWS, LANE_MIN_ROWS, MORSELS_PER_LANE);
        let rows = 2048usize;
        let input: Vec<f32> = (0..rows * 64)
            .map(|i| ((i * 37) % 101) as f32 / 101.0 - 0.4)
            .collect();
        let mut one = InferScratch::default();
        let per_row: Vec<f32> = input
            .chunks(64)
            .flat_map(|row| model.predict_proba_shared(row, 1, &mut one))
            .collect();
        // 31/32 straddle two lanes' floor (2 x LANE_MIN_ROWS), 64/65 one
        // morsel, 127/128/129 the 64-row morsels of two lanes.
        assert_eq!((m, l, k), (64, 16, 4), "edges below are stated for these");
        let batches = [
            1, 2, 16, 31, 32, 47, 48, 63, 64, 65, 127, 128, 129, 323, rows,
        ];
        for threads in [None, Some(1), Some(2), Some(3)] {
            let mut scratch = InferScratch {
                threads,
                ..InferScratch::default()
            };
            let lanes = scratch.morsel_lanes();
            for batch in batches {
                let before = scratch.morsel_calls();
                let got = model.predict_proba_shared(&input[..batch * 64], batch, &mut scratch);
                assert_eq!(got, per_row[..batch], "batch {batch} threads {threads:?}");
                // The same rows produced on demand into the lanes' buffers.
                let produced = Produced::new(&input[..batch * 64], 64);
                let got = model.predict_proba_rows(&produced, &mut scratch);
                assert_eq!(
                    got,
                    Ok(per_row[..batch].to_vec()),
                    "produced, batch {batch}"
                );
                let used = lanes.min(batch / l).max(1);
                let split = used > 1 || batch > m;
                assert_eq!(
                    scratch.morsel_calls() - before,
                    2 * u64::from(split),
                    "batch {batch} threads {threads:?}"
                );
                let morsel = match (split, used) {
                    (false, _) => batch,
                    (true, 2..) if batch < used * m => batch.div_ceil(k * used),
                    (true, _) => m,
                };
                let mut want = vec![morsel; batch / morsel];
                want.extend((batch % morsel > 0).then_some(batch % morsel));
                assert_eq!(produced.passes(), want, "batch {batch} threads {threads:?}");
            }
        }
        // The rule's named cases on two lanes: a 64-row call is eight 8-row
        // morsels, a 16-row call one pass, a 127-row call eight morsels of
        // at most 16, a 128-row call two 64-row morsels.
        let mut two = InferScratch {
            threads: Some(2),
            ..InferScratch::default()
        };
        for (batch, want) in [
            (64, vec![8; 8]),
            (16, vec![16]),
            (127, vec![16, 16, 16, 16, 16, 16, 16, 15]),
            (128, vec![m, m]),
            (rows, vec![m; rows / m]),
        ] {
            let produced = Produced::new(&input[..batch * 64], 64);
            assert!(model.predict_proba_rows(&produced, &mut two).is_ok());
            assert_eq!(produced.passes(), want, "batch {batch} on two lanes");
        }
    }

    #[test]
    fn failing_rows_report_the_lowest_whatever_the_schedule() {
        // Two failing rows in different morsels (and, for the one-pass
        // calls, in one pass): every width returns the lower one, and the
        // scratch scores the next call bit for bit as a fresh one would.
        let model = tiny_spec().build(32).unwrap();
        let m = MORSEL_ROWS;
        let rows = 2048usize;
        let input: Vec<f32> = (0..rows * 64)
            .map(|i| ((i * 53) % 89) as f32 / 89.0 - 0.5)
            .collect();
        let want = model.predict_proba_shared(&input, rows, &mut InferScratch::default());
        let cases: [(usize, &[usize]); 4] = [
            (rows, &[11 * m + 5, 2 * m + 7]),
            (rows, &[rows - 1, 0]),
            (5 * m + 3, &[5 * m + 2, 3 * m]),
            (m + 9, &[m + 8, 4]),
        ];
        for threads in [None, Some(1), Some(2), Some(3)] {
            let mut scratch = InferScratch {
                threads,
                ..InferScratch::default()
            };
            for &(batch, fail) in &cases {
                let source = Produced {
                    fail,
                    ..Produced::new(&input[..batch * 64], 64)
                };
                let lowest = *fail.iter().min().unwrap();
                assert_eq!(
                    model.predict_proba_rows(&source, &mut scratch),
                    Err(lowest),
                    "batch {batch} threads {threads:?}"
                );
            }
            let got = model.predict_proba_rows(&Produced::new(&input, 64), &mut scratch);
            assert_eq!(got, Ok(want.clone()), "threads {threads:?} after failures");
        }
    }

    #[test]
    fn zero_rows_score_to_an_empty_vector() {
        let model = tiny_spec().build(25).unwrap();
        for mut scratch in [InferScratch::default(), InferScratch::single_threaded()] {
            assert!(model.predict_proba_shared(&[], 0, &mut scratch).is_empty());
        }
    }

    #[test]
    fn morsel_activation_memory_is_bounded_by_the_morsel_not_the_call() {
        // A serving-shaped net (first conv widens each row to 8x24x24):
        // after a 2048-row call — read in place from a slice, or produced
        // row by row on the lanes — the input-row buffers of the scratch
        // and its lanes hold at most one input row, the per-image prefix
        // buffers at most one image's widest prefix activation, and no
        // other buffer anywhere more than one morsel of the widest head
        // activation. The same holds for calls under two morsels: 127 rows
        // on one lane (serial morsels) and 64 rows on two lanes.
        let spec = CnnSpec {
            input: Shape::new(1, 24, 24),
            conv_channels: vec![8],
            kernel: 3,
            dense_units: 16,
        };
        let model = spec.build(26).unwrap();
        let split = model.layers().iter().position(|l| l.name() == "dense");
        let (prefix, head) = model.layers().split_at(split.unwrap());
        let widest = |layers: &[Box<dyn Layer>], from: usize| {
            layers
                .iter()
                .map(|l| l.output_shape().len())
                .fold(from, usize::max)
        };
        let widest_prefix = widest(prefix, 0);
        let widest_head = widest(head, prefix[prefix.len() - 1].output_shape().len());
        assert_eq!((widest_prefix, widest_head), (8 * 24 * 24, 8 * 12 * 12));
        let rows = 2048;
        let input: Vec<f32> = (0..rows * spec.input.len())
            .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
            .collect();
        let cases = [
            (None, rows),
            (Some(1), rows),
            (Some(2), rows),
            (Some(1), 2 * MORSEL_ROWS - 1),
            (Some(2), MORSEL_ROWS),
        ];
        for (threads, batch) in cases {
            let mut scratch = InferScratch {
                threads,
                ..InferScratch::default()
            };
            let input = &input[..batch * spec.input.len()];
            model.predict_proba_shared(input, batch, &mut scratch);
            let produced = Produced::new(input, spec.input.len());
            assert!(model.predict_proba_rows(&produced, &mut scratch).is_ok());
            assert_eq!(
                scratch.morsel_calls(),
                2,
                "{batch} rows, threads {threads:?}"
            );
            let (row, image, other) = scratch.max_buffer_capacity();
            assert_eq!(
                row,
                spec.input.len(),
                "threads {threads:?}: an input-row buffer holds {row} floats, not one row"
            );
            assert!(
                image <= widest_prefix,
                "threads {threads:?}: a prefix buffer holds {image} floats > {widest_prefix}"
            );
            assert!(
                other <= MORSEL_ROWS * widest_head,
                "threads {threads:?}: a buffer holds {other} floats > {MORSEL_ROWS} x {widest_head}"
            );
        }
    }

    #[test]
    fn depth_first_prefix_matches_layer_major_bitwise() {
        // The depth-first pass against training's layer-major forward, on
        // the serving fixture's two architectures, 1- and 2-block nets, a
        // conv feeding a conv with no ReLU between (and a ReLU after a
        // pool), and a Dense-only stack. Inference must match
        // `forward_batch` at the same batch, and both must match each row's
        // score from a full batch.
        let fixture_m0 = CnnSpec {
            input: Shape::new(1, 24, 24),
            conv_channels: vec![8],
            kernel: 3,
            dense_units: 256,
        };
        let fixture_m1 = CnnSpec {
            input: Shape::new(3, 32, 32),
            conv_channels: vec![8, 8],
            kernel: 3,
            dense_units: 320,
        };
        let one_block = CnnSpec {
            input: Shape::new(2, 9, 7),
            conv_channels: vec![5],
            kernel: 3,
            dense_units: 6,
        };
        let mut rng = DetRng::new(27);
        let shape = Shape::new(2, 10, 10);
        let mut unfused = Sequential::new(shape);
        unfused.push(Box::new(Conv2d::new(shape, 3, 3, &mut rng)));
        unfused.push(Box::new(Conv2d::new(Shape::new(3, 10, 10), 4, 5, &mut rng)));
        unfused.push(Box::new(Relu::new(Shape::new(4, 10, 10))));
        unfused.push(Box::new(MaxPool2::new(Shape::new(4, 10, 10))));
        unfused.push(Box::new(Relu::new(Shape::new(4, 5, 5))));
        unfused.push(Box::new(Dense::new(100, 7, &mut rng)));
        unfused.push(Box::new(Dense::new(7, 1, &mut rng)));
        let mut dense_only = Sequential::new(Shape::flat(40));
        dense_only.push(Box::new(Dense::new(40, 12, &mut rng)));
        dense_only.push(Box::new(Relu::new(Shape::flat(12))));
        dense_only.push(Box::new(Dense::new(12, 1, &mut rng)));
        let models = [
            fixture_m0.build(28).unwrap(),
            fixture_m1.build(29).unwrap(),
            one_block.build(30).unwrap(),
            tiny_spec().build(31).unwrap(),
            unfused,
            dense_only,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let most = 65;
        for mut model in models {
            let (in_len, out_len) = (model.input_shape().len(), model.output_shape().len());
            let input: Vec<f32> = (0..most * in_len)
                .map(|i| ((i * 41) % 97) as f32 / 97.0 - 0.45)
                .collect();
            let all_rows = model.forward_batch(&input, most);
            let layer_major: Vec<_> = [1, 2, 63, 64, most]
                .into_iter()
                .map(|batch| (batch, model.forward_batch(&input[..batch * in_len], batch)))
                .collect();
            for (batch, want) in &layer_major {
                assert_eq!(
                    bits(want),
                    bits(&all_rows[..batch * out_len]),
                    "layer-major: {} batch {batch}",
                    model.summary()
                );
            }
            for kernel in SimdTier::runnable(crate::gemm::TIERS) {
                let mut scratch = InferScratch::default();
                scratch.gemm.kernel = Some(kernel);
                for (batch, want) in &layer_major {
                    // The portable tier's fma is a library call in an
                    // unoptimized build: give it the edges alone.
                    if kernel == SimdTier::Portable && (3..most).contains(batch) {
                        continue;
                    }
                    let got =
                        model.infer_batch_shared(&input[..batch * in_len], *batch, &mut scratch);
                    assert_eq!(
                        bits(&got),
                        bits(want),
                        "{} batch {batch} tier {}",
                        model.summary(),
                        kernel.name()
                    );
                    let produced = Produced::new(&input[..batch * in_len], in_len);
                    let got = model.infer_rows(&produced, &mut scratch).unwrap();
                    assert_eq!(
                        bits(&got),
                        bits(want),
                        "produced: {} batch {batch} tier {}",
                        model.summary(),
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_threads_share_one_model() {
        let model = tiny_spec().build(23).unwrap();
        let input: Vec<f32> = (0..64).map(|i| (i as f32 / 32.0) - 1.0).collect();
        let want = model.predict_proba_shared(&input, 1, &mut InferScratch::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (model, input, want) = (&model, &input, &want);
                s.spawn(move || {
                    let mut scratch = InferScratch::default();
                    for _ in 0..20 {
                        let got = model.predict_proba_shared(input, 1, &mut scratch);
                        assert_eq!(&got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn param_count_positive_and_stable() {
        let model = tiny_spec().build(0).unwrap();
        // conv1: 4*1*9+4 = 40; conv2: 8*4*9+8 = 296; dense: (8*2*2)*8+8 = 264;
        // out: 8*1+1 = 9. Total 609.
        assert_eq!(model.param_count(), 609);
    }
}
