//! Batched, runtime-dispatched SIMD transcode engine and the physical
//! representation lattice (paper §V-B, Definition 6).
//!
//! Every deployment scenario pays the transform pipeline per frame: CAMERA
//! transforms on the critical path, ARCHIVE transforms after each full-frame
//! decode, and ONGOING transcodes every ingested frame into the whole
//! configured representation set before it ever reaches a model. This module
//! gives that pipeline the same treatment the GEMM hot path got in
//! `tahoma_nn`: explicit `std::arch` kernels behind runtime feature
//! detection, precomputed per-shape tables, reusable scratch, and a plan
//! that shares work across the representations of one frame.
//!
//! # Separable resize with precomputed span tables
//!
//! The scalar `resize_bilinear` recomputes `fx`, `x0`, `x1`, `wx` for every
//! output pixel of every plane of every frame. Here each axis is planned
//! once per `(input, output)` shape ([`ResizePlan`], cached inside the
//! engine): per output column the two source indices and lerp weights, per
//! output row the two source rows and their weights. Execution is a
//! streaming two-pass sweep — source rows are horizontally resampled into a
//! two-row ring (each needed row exactly once; the vertical pass reads at
//! most `2 * out_h` distinct rows, so heavy downscales never touch most of
//! the input), then each output row is one vertical lerp of two cached
//! rows. Per output pixel the arithmetic is literally the scalar
//! reference's `top = p[y0][x0]*(1-wx) + p[y0][x1]*wx; out = top*(1-wy) +
//! bot*wy` chain, evaluated in the same order with plain IEEE mul/add (no
//! FMA contraction), so every kernel tier is **bitwise identical** to the
//! scalar reference.
//!
//! # Kernel tiers
//!
//! The vectorized per-frame sweeps — the horizontal resize pass (gathered
//! loads through the span tables), the vertical pass (contiguous), and
//! `standardize`'s mean/variance/normalize sweeps — each carry a portable
//! loop and one explicit AVX2 kernel ([`TIERS`]); an unpinned engine runs
//! the widest of the two that [`SimdTier::ceiling`] allows. Their AVX-512
//! kernels lost to AVX2 on every measured shape (the 16-lane gather by
//! ~10%, the f64 reductions by ~40%) and are gone; the RGB→gray luma sweep
//! is the portable loop alone, which ties both explicit tiers (DESIGN.md,
//! "Deletion ledger"). The standardize reductions accumulate into **eight
//! f64 lanes** (element `i` into lane `i % 8`, fixed pairwise tree to
//! finish) in every tier, so SIMD and portable agree bitwise there too.
//!
//! # The representation lattice
//!
//! When one frame must be materialized into several representations —
//! ONGOING ingest, cascade levels, zoo training sets — the naive loop runs
//! the full `convert → resize` pipeline per representation from the RGB
//! frame. But the representations of §V-B form a lattice under "can be
//! derived from": every single-channel plane of the source is already the
//! full-resolution R/G/B representation (a borrow, not a copy), and one
//! full-resolution luma pass yields a gray plane every gray target can be
//! resized from. [`TranscodePlan`] encodes that sharing:
//!
//! * the shared luma plane is computed **once** per frame (the naive loop
//!   recomputes it for every gray target);
//! * R/G/B targets resize straight from the source's planes — the
//!   extraction copy disappears entirely;
//! * each target is then exactly one (possibly trivial) resize.
//!
//! Every planned output is **bitwise identical** to the direct
//! `Representation::apply` path, because the plan only reuses values the
//! direct path would compute with the same operations. Chained derivations
//! (e.g. 30x30-gray from 60x60-gray) were considered and rejected: the
//! streaming resize's cost scales with the *output* size, so a chained
//! source saves nothing over the full-size gray plane while introducing
//! resampling error and train/serve skew. The plan carries no prices
//! (transform pricing is `tahoma-costmodel`'s `TransformCostModel`): it
//! runs its targets in the order given, and that order moves no bit —
//! each target writes its own buffer from the source planes or from the
//! luma plane, which is filled before any target runs. One-target plans
//! are how [`TranscodeEngine::apply`] materializes a single
//! representation, so every representation goes through the plan.
//!
//! This is one of the four files sanctioned to contain raw-pointer
//! arithmetic; see `SAFETY.md` at the repository root for the unsafe
//! policy; debug builds assert the span-table bounds and gather indices
//! here at runtime (`tahoma_mathx::checked`).

use crate::color::{ColorMode, LUMA_WEIGHTS};
use crate::error::ImageryError;
use crate::image::Image;
use crate::repr::Representation;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use tahoma_mathx::checked;
use tahoma_mathx::SimdTier;

/// The tiers every vectorized sweep in this module implements (see the
/// module docs for why none goes wider). Pinning a wider tier clamps down
/// to the widest of these the CPU runs — never to an illegal instruction —
/// and since every tier is bitwise identical, any resolution is equally
/// correct.
pub const TIERS: &[SimdTier] = &[SimdTier::Portable, SimdTier::Avx2];

/// One axis of a bilinear resize: per output coordinate, the two source
/// indices and their lerp weights, computed exactly as the scalar reference
/// does per pixel (`f = ((o + 0.5) * in/out - 0.5).max(0)`, floor, clamp).
#[derive(Debug, Clone)]
struct AxisPlan {
    /// Left/top source index per output coordinate (i32 so the SIMD
    /// gathers load the table directly).
    i0: Vec<i32>,
    /// Right/bottom source index (clamped to the last sample).
    i1: Vec<i32>,
    /// Weight of `i0` (`1 - frac`).
    w0: Vec<f32>,
    /// Weight of `i1` (`frac`).
    w1: Vec<f32>,
    /// Largest index in `i1` (bounds precondition for the gather kernels).
    max_index: usize,
}

impl AxisPlan {
    fn new(n_in: usize, n_out: usize) -> AxisPlan {
        let scale = n_in as f32 / n_out as f32;
        let mut plan = AxisPlan {
            i0: Vec::with_capacity(n_out),
            i1: Vec::with_capacity(n_out),
            w0: Vec::with_capacity(n_out),
            w1: Vec::with_capacity(n_out),
            max_index: 0,
        };
        for o in 0..n_out {
            let f = ((o as f32 + 0.5) * scale - 0.5).max(0.0);
            let a = (f as usize).min(n_in - 1);
            let b = (a + 1).min(n_in - 1);
            let w = f - a as f32;
            plan.i0.push(a as i32);
            plan.i1.push(b as i32);
            plan.w0.push(1.0 - w);
            plan.w1.push(w);
            plan.max_index = plan.max_index.max(b);
        }
        plan
    }
}

/// Precomputed separable bilinear resize tables for one `(in, out)` shape.
/// Built once and cached in the engine; reused across planes, frames, and
/// batches.
#[derive(Debug, Clone)]
pub struct ResizePlan {
    in_w: usize,
    in_h: usize,
    out_w: usize,
    out_h: usize,
    x: AxisPlan,
    y: AxisPlan,
}

impl ResizePlan {
    /// Build the per-axis span/weight tables.
    pub fn new(in_w: usize, in_h: usize, out_w: usize, out_h: usize) -> ResizePlan {
        assert!(in_w > 0 && in_h > 0 && out_w > 0 && out_h > 0);
        ResizePlan {
            in_w,
            in_h,
            out_w,
            out_h,
            x: AxisPlan::new(in_w, out_w),
            y: AxisPlan::new(in_h, out_h),
        }
    }

    /// Source and target shapes (`(in_w, in_h), (out_w, out_h)`) the plan
    /// was built for.
    pub fn shapes(&self) -> ((usize, usize), (usize, usize)) {
        ((self.in_w, self.in_h), (self.out_w, self.out_h))
    }

    /// Number of distinct source rows the streaming vertical pass touches
    /// (each is horizontally resampled exactly once).
    pub fn rows_touched(&self) -> usize {
        let y = &self.y;
        let mut rows = 0usize;
        let mut last: Option<(i32, i32)> = None;
        for oy in 0..y.i0.len() {
            let (a, b) = (y.i0[oy], y.i1[oy]);
            let prev = last.unwrap_or((-1, -1));
            if a != prev.0 && a != prev.1 {
                rows += 1;
            }
            if b != a && b != prev.1 {
                rows += 1;
            }
            last = Some((a, b));
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// Kernels. Every tier runs the same IEEE operations in the same order, so
// all tiers are bitwise identical (property-tested in `tests/proptests.rs`).
// ---------------------------------------------------------------------------

/// Horizontal resize pass: `dst[o] = src[i0[o]]*w0[o] + src[i1[o]]*w1[o]`
/// (gathered loads).
fn hlerp(kernel: Option<SimdTier>, src: &[f32], x: &AxisPlan, dst: &mut [f32]) {
    assert_eq!(dst.len(), x.i0.len());
    assert!(x.max_index < src.len(), "axis plan exceeds source row");
    // Debug builds verify what the asserts above only imply: the three
    // sibling tables really cover `dst.len()` lanes, and every individual
    // gather index (not just the plan's recorded max) is inside `src`.
    // Gated as a whole so release codegen never sees the table reads.
    if cfg!(debug_assertions) {
        checked::span(x.i1.len(), 0, dst.len(), "hlerp i1 table");
        checked::span(x.w0.len(), 0, dst.len(), "hlerp w0 table");
        checked::span(x.w1.len(), 0, dst.len(), "hlerp w1 table");
        checked::gather(&x.i0, src.len(), "hlerp i0");
        checked::gather(&x.i1, src.len(), "hlerp i1");
    }
    match SimdTier::resolve(kernel, TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` never exceeds the detected tier, so avx2 is
        // present; slice preconditions asserted above.
        SimdTier::Avx2 => unsafe { x86::hlerp_avx2(src, &x.i0, &x.i1, &x.w0, &x.w1, dst) },
        _ => {
            for o in 0..dst.len() {
                dst[o] = src[x.i0[o] as usize] * x.w0[o] + src[x.i1[o] as usize] * x.w1[o];
            }
        }
    }
}

/// Vertical resize pass: `dst[i] = top[i]*w0 + bot[i]*w1` (contiguous).
/// Public for `benches/kernel_policy.rs`.
pub fn vlerp_rows(
    kernel: Option<SimdTier>,
    top: &[f32],
    bot: &[f32],
    w0: f32,
    w1: f32,
    dst: &mut [f32],
) {
    assert!(top.len() >= dst.len() && bot.len() >= dst.len());
    checked::span(top.len(), 0, dst.len(), "vlerp top row");
    checked::span(bot.len(), 0, dst.len(), "vlerp bottom row");
    match SimdTier::resolve(kernel, TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 runtime-detected (see `hlerp`); lengths asserted
        // above.
        SimdTier::Avx2 => unsafe { x86::vlerp_avx2(top, bot, w0, w1, dst) },
        _ => {
            for i in 0..dst.len() {
                dst[i] = top[i] * w0 + bot[i] * w1;
            }
        }
    }
}

/// RGB→gray luma sweep: `dst[i] = (wr*r[i] + wg*g[i]) + wb*b[i]`, the exact
/// evaluation order of the scalar `convert_mode`. One portable loop: no
/// explicit tier beats what the compiler makes of it. Public for
/// `benches/kernel_policy.rs`.
pub fn luma_sweep(r: &[f32], g: &[f32], b: &[f32], dst: &mut [f32]) {
    let n = dst.len();
    assert!(r.len() >= n && g.len() >= n && b.len() >= n);
    let [wr, wg, wb] = LUMA_WEIGHTS;
    for i in 0..n {
        dst[i] = wr * r[i] + wg * g[i] + wb * b[i];
    }
}

/// Number of f64 accumulator lanes in the standardize reductions. Fixed
/// across tiers (AVX2 holds the 8 in two registers, the portable loop in
/// an array) so every tier produces bitwise-identical sums.
const RED_LANES: usize = 8;

/// Fixed pairwise reduction tree over the 8 lanes — identical in every
/// tier, so the final scalar is too.
fn fold_lanes(acc: [f64; RED_LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Lane-strided sum: element `i` accumulates into lane `i % 8` in f64.
fn sum_lanes(kernel: Option<SimdTier>, data: &[f32]) -> [f64; RED_LANES] {
    checked::aligned(data.as_ptr(), "standardize sum input");
    let mut acc = [0.0f64; RED_LANES];
    let chunks = data.chunks_exact(RED_LANES);
    let tail = chunks.remainder();
    match SimdTier::resolve(kernel, TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 runtime-detected (see `hlerp`).
        SimdTier::Avx2 => unsafe { x86::sum_lanes_avx2(data, &mut acc) },
        _ => {
            for c in chunks {
                for j in 0..RED_LANES {
                    acc[j] += c[j] as f64;
                }
            }
        }
    }
    for (j, &v) in tail.iter().enumerate() {
        acc[j] += v as f64;
    }
    acc
}

/// Lane-strided sum of squared deviations from `mean`, f64.
fn sq_dev_lanes(kernel: Option<SimdTier>, data: &[f32], mean: f64) -> [f64; RED_LANES] {
    checked::aligned(data.as_ptr(), "standardize sq-dev input");
    let mut acc = [0.0f64; RED_LANES];
    let chunks = data.chunks_exact(RED_LANES);
    let tail = chunks.remainder();
    match SimdTier::resolve(kernel, TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 runtime-detected (see `hlerp`).
        SimdTier::Avx2 => unsafe { x86::sq_dev_lanes_avx2(data, mean, &mut acc) },
        _ => {
            for c in chunks {
                for j in 0..RED_LANES {
                    let d = c[j] as f64 - mean;
                    acc[j] += d * d;
                }
            }
        }
    }
    for (j, &v) in tail.iter().enumerate() {
        let d = v as f64 - mean;
        acc[j] += d * d;
    }
    acc
}

/// Normalize sweep: `dst[i] = (src[i] - mean) * inv` in f32.
fn scale_shift(kernel: Option<SimdTier>, src: &[f32], mean: f32, inv: f32, dst: &mut [f32]) {
    assert!(src.len() >= dst.len());
    checked::span(src.len(), 0, dst.len(), "scale-shift source");
    match SimdTier::resolve(kernel, TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 runtime-detected (see `hlerp`); length asserted
        // above.
        SimdTier::Avx2 => unsafe { x86::scale_shift_avx2(src, mean, inv, dst) },
        _ => {
            for i in 0..dst.len() {
                dst[i] = (src[i] - mean) * inv;
            }
        }
    }
}

/// Explicit `std::arch` kernels. Each function carries the
/// `#[target_feature]` set its caller must have runtime-detected (that is
/// the entire unsafety of calling them); inside, the only unsafe operations
/// are raw-pointer vector loads/stores and gathers whose bounds the safe
/// dispatchers assert on entry. Main loops cover `len - len % LANES`
/// elements; tails run the identical scalar expression.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::RED_LANES;
    use core::arch::x86_64::*;

    /// Gathered horizontal resize pass (`super::hlerp`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection), every table holds at least `dst.len()` entries,
    /// and every index in `i0`/`i1` is in `0..src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) fn hlerp_avx2(
        src: &[f32],
        i0: &[i32],
        i1: &[i32],
        w0: &[f32],
        w1: &[f32],
        dst: &mut [f32],
    ) {
        let n = dst.len();
        let main = n - n % 8;
        let sp = src.as_ptr();
        let mut o = 0;
        while o < main {
            // SAFETY: o + 8 <= n == table lengths (asserted by the
            // dispatcher), and every gathered index is <= max_index <
            // src.len().
            unsafe {
                let idx0 = _mm256_loadu_si256(i0.as_ptr().add(o) as *const __m256i);
                let idx1 = _mm256_loadu_si256(i1.as_ptr().add(o) as *const __m256i);
                let g0 = _mm256_i32gather_ps::<4>(sp, idx0);
                let g1 = _mm256_i32gather_ps::<4>(sp, idx1);
                let vw0 = _mm256_loadu_ps(w0.as_ptr().add(o));
                let vw1 = _mm256_loadu_ps(w1.as_ptr().add(o));
                let v = _mm256_add_ps(_mm256_mul_ps(g0, vw0), _mm256_mul_ps(g1, vw1));
                _mm256_storeu_ps(dst.as_mut_ptr().add(o), v);
            }
            o += 8;
        }
        for j in main..n {
            dst[j] = src[i0[j] as usize] * w0[j] + src[i1[j] as usize] * w1[j];
        }
    }

    /// Vertical resize pass (`super::vlerp_rows`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection), and `top` and `bot` hold at least `dst.len()`
    /// floats.
    #[target_feature(enable = "avx2")]
    pub(super) fn vlerp_avx2(top: &[f32], bot: &[f32], w0: f32, w1: f32, dst: &mut [f32]) {
        let n = dst.len();
        let main = n - n % 8;
        let (vw0, vw1) = (_mm256_set1_ps(w0), _mm256_set1_ps(w1));
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= n <= top.len(), bot.len() (asserted by the
            // dispatcher).
            unsafe {
                let t = _mm256_loadu_ps(top.as_ptr().add(i));
                let b = _mm256_loadu_ps(bot.as_ptr().add(i));
                let v = _mm256_add_ps(_mm256_mul_ps(t, vw0), _mm256_mul_ps(b, vw1));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
            }
            i += 8;
        }
        for j in main..n {
            dst[j] = top[j] * w0 + bot[j] * w1;
        }
    }

    /// Per-lane f64 sums of `data`, added into `acc`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) fn sum_lanes_avx2(data: &[f32], acc: &mut [f64; RED_LANES]) {
        let main = data.len() - data.len() % RED_LANES;
        // Lanes 0..4 in one ymm of f64, lanes 4..8 in another — the same
        // per-lane add sequence as the portable loop.
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= data.len().
            unsafe {
                let p = data.as_ptr().add(i);
                lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm_loadu_ps(p)));
                hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm_loadu_ps(p.add(4))));
            }
            i += RED_LANES;
        }
        let mut lanes = [0.0f64; RED_LANES];
        // SAFETY: the two halves of `lanes` are 4 f64 each.
        unsafe {
            _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        }
        for (a, l) in acc.iter_mut().zip(lanes) {
            *a += l;
        }
    }

    /// Per-lane f64 sums of squared deviations from `mean`, added into `acc`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) fn sq_dev_lanes_avx2(data: &[f32], mean: f64, acc: &mut [f64; RED_LANES]) {
        let main = data.len() - data.len() % RED_LANES;
        let m = _mm256_set1_pd(mean);
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= main <= data.len().
            unsafe {
                let p = data.as_ptr().add(i);
                let d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(p)), m);
                let d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(p.add(4))), m);
                lo = _mm256_add_pd(lo, _mm256_mul_pd(d0, d0));
                hi = _mm256_add_pd(hi, _mm256_mul_pd(d1, d1));
            }
            i += RED_LANES;
        }
        let mut lanes = [0.0f64; RED_LANES];
        // SAFETY: the two halves of `lanes` are 4 f64 each.
        unsafe {
            _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        }
        for (a, l) in acc.iter_mut().zip(lanes) {
            *a += l;
        }
    }

    /// `dst[i] = (src[i] - mean) * inv`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection), and `src` holds at least `dst.len()` floats.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale_shift_avx2(src: &[f32], mean: f32, inv: f32, dst: &mut [f32]) {
        let n = dst.len();
        let main = n - n % 8;
        let (vm, vi) = (_mm256_set1_ps(mean), _mm256_set1_ps(inv));
        let mut i = 0;
        while i < main {
            // SAFETY: i + 8 <= n <= src.len() (asserted by the dispatcher).
            unsafe {
                let v = _mm256_loadu_ps(src.as_ptr().add(i));
                let out = _mm256_mul_ps(_mm256_sub_ps(v, vm), vi);
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), out);
            }
            i += 8;
        }
        for j in main..n {
            dst[j] = (src[j] - mean) * inv;
        }
    }
}

// ---------------------------------------------------------------------------
// Transcode plan: the exact representation lattice.
// ---------------------------------------------------------------------------

/// How one target representation is produced from the source frame under
/// the lattice plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranscodeStep {
    /// Full-size RGB: clone of the source frame.
    Identity,
    /// Same-size single channel: one plane copy (channel index, or the
    /// shared luma plane for gray).
    CopyPlane,
    /// Resize from the source's own plane(s) or the shared luma plane.
    Resize,
}

/// A materialization plan for one representation set from one source
/// shape. See the module docs for the lattice; every planned output is
/// bitwise identical to the direct per-representation path.
#[derive(Debug, Clone)]
pub struct TranscodePlan {
    source_w: usize,
    source_h: usize,
    reps: Vec<Representation>,
    /// Whether the shared full-size luma plane is materialized.
    share_luma: bool,
    steps: Vec<TranscodeStep>,
}

impl TranscodePlan {
    /// Plan materializing `reps` from a `source_w x source_h` RGB frame.
    pub fn new(source_w: usize, source_h: usize, reps: &[Representation]) -> TranscodePlan {
        assert!(source_w > 0 && source_h > 0);
        let steps = reps
            .iter()
            .map(|rep| {
                if rep.size != source_w || rep.size != source_h {
                    TranscodeStep::Resize
                } else if rep.mode == ColorMode::Rgb {
                    TranscodeStep::Identity
                } else {
                    TranscodeStep::CopyPlane
                }
            })
            .collect();
        TranscodePlan {
            source_w,
            source_h,
            reps: reps.to_vec(),
            share_luma: reps.iter().any(|r| r.mode == ColorMode::Gray),
            steps,
        }
    }

    /// The targets, in the order they were given (the order
    /// [`TranscodeEngine::apply_planned`] runs and returns them in).
    pub fn reps(&self) -> &[Representation] {
        &self.reps
    }

    /// Whether the plan materializes the shared full-size luma plane.
    pub fn shares_luma(&self) -> bool {
        self.share_luma
    }

    /// How each target (by input index) is produced.
    pub fn steps(&self) -> &[TranscodeStep] {
        &self.steps
    }

    /// Source shape the plan was built for.
    pub fn source_shape(&self) -> (usize, usize) {
        (self.source_w, self.source_h)
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// Two-row ring for the streaming separable resize: holds the last two
/// horizontally resampled source rows, keyed by source row index.
#[derive(Debug, Default)]
struct RowCache {
    top: Vec<f32>,
    bot: Vec<f32>,
    top_idx: i64,
    bot_idx: i64,
}

/// Upper bound on pooled output buffers (see
/// [`TranscodeEngine::recycle`]) — enough for a whole `paper_set`
/// materialization plus slack, small enough that a shape change cannot
/// strand unbounded memory.
const POOL_CAP: usize = 64;

/// Reusable transcode state: kernel selection, cached [`ResizePlan`]s, the
/// streaming-row scratch, the shared luma plane, and a pool of recycled
/// output buffers. Keep one per call site (or use [`with_local_engine`])
/// so plans, scratch, and buffers amortize across frames and batches.
#[derive(Debug)]
pub struct TranscodeEngine {
    kernel: Option<SimdTier>,
    plans: HashMap<(usize, usize, usize, usize), ResizePlan>,
    rows: RowCache,
    luma_plane: Vec<f32>,
    /// Recycled output buffers keyed by exact length. Large materialized
    /// images churn the allocator hard (every buffer past the malloc mmap
    /// threshold is a fresh kernel mapping); consumers that drop their
    /// outputs per frame hand them back via [`TranscodeEngine::recycle`]
    /// and steady-state transcoding allocates nothing.
    pool: HashMap<usize, Vec<Vec<f32>>>,
    pooled: usize,
    /// Reusable byte scratch for the store's positioned-read (pread) fetch
    /// path, so persistent-tier fetches stay allocation-free in steady
    /// state just like the pixel pool above.
    io_buf: Vec<u8>,
}

impl Default for TranscodeEngine {
    fn default() -> Self {
        TranscodeEngine::new()
    }
}

impl TranscodeEngine {
    /// Engine running the widest tier of [`TIERS`] the ceiling allows.
    pub fn new() -> TranscodeEngine {
        TranscodeEngine::pinned(None)
    }

    /// Engine pinned to one kernel tier (benches, property tests).
    pub fn with_kernel(tier: SimdTier) -> TranscodeEngine {
        TranscodeEngine::pinned(Some(tier))
    }

    fn pinned(kernel: Option<SimdTier>) -> TranscodeEngine {
        TranscodeEngine {
            kernel,
            plans: HashMap::new(),
            rows: RowCache::default(),
            luma_plane: Vec::new(),
            pool: HashMap::new(),
            pooled: 0,
            io_buf: Vec::new(),
        }
    }

    /// Hand back materialized images whose pixels are no longer needed so
    /// their buffers feed the next transcode instead of the allocator.
    /// Purely an optimization — recycling nothing is always correct; every
    /// output is fully overwritten before it is handed out again.
    pub fn recycle(&mut self, images: impl IntoIterator<Item = Image>) {
        for img in images {
            if self.pooled >= POOL_CAP {
                return;
            }
            self.recycle_buffer(img.into_data());
        }
    }

    /// Return a bare buffer to the pool — the counterpart of
    /// [`TranscodeEngine::take_buffer`] for callers that peeled the pixels
    /// out of an [`Image`] themselves (e.g. a scorer's per-item input
    /// cache handing its standardized buffers back at cascade end).
    pub fn recycle_buffer(&mut self, data: Vec<f32>) {
        if self.pooled >= POOL_CAP {
            return;
        }
        self.pool.entry(data.len()).or_default().push(data);
        self.pooled += 1;
    }

    /// Borrow the engine's byte scratch for a positioned read (the
    /// persistent store's pread fetch path). Pair with
    /// [`TranscodeEngine::put_io_buf`] so its capacity amortizes.
    pub(crate) fn take_io_buf(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.io_buf)
    }

    /// Return the byte scratch taken by [`TranscodeEngine::take_io_buf`].
    pub(crate) fn put_io_buf(&mut self, buf: Vec<u8>) {
        if buf.capacity() > self.io_buf.capacity() {
            self.io_buf = buf;
        }
    }

    /// A pooled length-`n` buffer for callers that fill outputs themselves
    /// — the representation store's pooled decode path
    /// (`RepresentationStore::fetch_into`) borrows its buffers here.
    /// Contents are stale; overwrite (or clear-and-refill) all `n`
    /// elements before use.
    pub fn take_buffer(&mut self, n: usize) -> Vec<f32> {
        Self::out_buf(&mut self.pool, &mut self.pooled, n)
    }

    /// A length-`n` output buffer: recycled when one of exactly this length
    /// is pooled (content is stale — every caller overwrites all `n`
    /// elements), freshly zeroed otherwise.
    fn out_buf(pool: &mut HashMap<usize, Vec<Vec<f32>>>, pooled: &mut usize, n: usize) -> Vec<f32> {
        if let Some(buf) = pool.get_mut(&n).and_then(|q| q.pop()) {
            *pooled -= 1;
            return buf;
        }
        vec![0.0f32; n]
    }

    /// Resize one plane through the cached plan for this shape.
    #[allow(clippy::too_many_arguments)]
    fn resize_plane(
        kernel: Option<SimdTier>,
        plans: &mut HashMap<(usize, usize, usize, usize), ResizePlan>,
        rows: &mut RowCache,
        src: &[f32],
        in_w: usize,
        in_h: usize,
        out_w: usize,
        out_h: usize,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(src.len(), in_w * in_h);
        debug_assert_eq!(dst.len(), out_w * out_h);
        let plan = plans
            .entry((in_w, in_h, out_w, out_h))
            .or_insert_with(|| ResizePlan::new(in_w, in_h, out_w, out_h));
        rows.top.resize(out_w, 0.0);
        rows.bot.resize(out_w, 0.0);
        // Invalidate: cached rows belong to whatever plane was resized last.
        rows.top_idx = -1;
        rows.bot_idx = -1;
        for oy in 0..out_h {
            let y0 = plan.y.i0[oy] as i64;
            let y1 = plan.y.i1[oy] as i64;
            // Ensure `top` holds row y0 (y0 is non-decreasing, so a needed
            // row is either cached or new — never evicted-then-needed).
            if rows.top_idx != y0 {
                if rows.bot_idx == y0 {
                    std::mem::swap(&mut rows.top, &mut rows.bot);
                    std::mem::swap(&mut rows.top_idx, &mut rows.bot_idx);
                } else {
                    let r = y0 as usize;
                    hlerp(
                        kernel,
                        &src[r * in_w..(r + 1) * in_w],
                        &plan.x,
                        &mut rows.top,
                    );
                    rows.top_idx = y0;
                }
            }
            if y1 != y0 && rows.bot_idx != y1 {
                let r = y1 as usize;
                hlerp(
                    kernel,
                    &src[r * in_w..(r + 1) * in_w],
                    &plan.x,
                    &mut rows.bot,
                );
                rows.bot_idx = y1;
            }
            let dst_row = &mut dst[oy * out_w..(oy + 1) * out_w];
            let (w0, w1) = (plan.y.w0[oy], plan.y.w1[oy]);
            let bot = if y1 == y0 { &rows.top } else { &rows.bot };
            vlerp_rows(kernel, &rows.top, bot, w0, w1, dst_row);
        }
    }

    /// Bilinear resize to `(out_w, out_h)` — the engine-backed counterpart
    /// of `transform::resize_bilinear`, bitwise identical to the scalar
    /// reference on every kernel tier.
    pub fn resize_bilinear(
        &mut self,
        src: &Image,
        out_w: usize,
        out_h: usize,
    ) -> Result<Image, ImageryError> {
        if out_w == 0 || out_h == 0 {
            return Err(ImageryError::InvalidDimensions {
                width: out_w,
                height: out_h,
            });
        }
        let kernel = self.kernel;
        let (in_w, in_h) = (src.width(), src.height());
        let n = out_w * out_h;
        let mut data = Self::out_buf(&mut self.pool, &mut self.pooled, n * src.channels());
        for c in 0..src.channels() {
            Self::resize_plane(
                kernel,
                &mut self.plans,
                &mut self.rows,
                src.plane(c),
                in_w,
                in_h,
                out_w,
                out_h,
                &mut data[c * n..(c + 1) * n],
            );
        }
        Image::from_planar(out_w, out_h, src.mode(), data)
    }

    /// Compute the luma plane of an RGB image into the shared scratch,
    /// returning its length.
    fn fill_luma(&mut self, src: &Image) -> usize {
        let n = src.width() * src.height();
        self.luma_plane.resize(n, 0.0);
        luma_sweep(
            src.plane(0),
            src.plane(1),
            src.plane(2),
            &mut self.luma_plane,
        );
        n
    }

    /// Engine-backed color conversion with the same defined conversions as
    /// `transform::convert_mode`. The identity conversion borrows the
    /// source instead of cloning it.
    pub fn convert_mode<'a>(
        &mut self,
        src: &'a Image,
        target: ColorMode,
    ) -> Result<Cow<'a, Image>, ImageryError> {
        if src.mode() == target {
            return Ok(Cow::Borrowed(src));
        }
        let (w, h) = (src.width(), src.height());
        match (src.mode(), target) {
            (ColorMode::Rgb, t) => {
                if let Some(c) = t.source_channel() {
                    let mut buf = Self::out_buf(&mut self.pool, &mut self.pooled, w * h);
                    buf.copy_from_slice(src.plane(c));
                    return Ok(Cow::Owned(Image::from_planar(w, h, t, buf)?));
                }
                let mut buf = Self::out_buf(&mut self.pool, &mut self.pooled, w * h);
                luma_sweep(src.plane(0), src.plane(1), src.plane(2), &mut buf);
                Ok(Cow::Owned(Image::from_planar(w, h, ColorMode::Gray, buf)?))
            }
            (from, ColorMode::Gray) if from.channels() == 1 => {
                let mut buf = Self::out_buf(&mut self.pool, &mut self.pooled, w * h);
                buf.copy_from_slice(src.data());
                Ok(Cow::Owned(Image::from_planar(w, h, ColorMode::Gray, buf)?))
            }
            (from, to) => Err(ImageryError::UnsupportedConversion {
                from: from.tag(),
                to: to.tag(),
            }),
        }
    }

    /// Standardize to zero mean / unit variance per image. All kernel tiers
    /// use the eight-lane f64 reduction (see module docs) and agree
    /// bitwise; results can differ from a naive sequential sum by float
    /// reassociation only.
    pub fn standardize(&mut self, src: &Image) -> Image {
        let mut out = Self::out_buf(&mut self.pool, &mut self.pooled, src.data().len());
        self.standardize_into(src, &mut out);
        Image::from_planar(src.width(), src.height(), src.mode(), out)
            .expect("same shape as source")
    }

    /// [`TranscodeEngine::standardize`] written into `dst` — exactly the
    /// image's length, e.g. an inference lane's one-row input buffer —
    /// instead of a pooled buffer. The same sweeps, so the same bits.
    pub fn standardize_into(&self, src: &Image, dst: &mut [f32]) {
        let kernel = self.kernel;
        let data = src.data();
        assert_eq!(dst.len(), data.len(), "standardize destination length");
        let n = data.len() as f64;
        let mean = fold_lanes(sum_lanes(kernel, data)) / n;
        let var = fold_lanes(sq_dev_lanes(kernel, data, mean)) / n;
        let sd = var.sqrt();
        let inv = if sd > 1e-6 { 1.0 / sd } else { 0.0 };
        let (mean, inv) = (mean as f32, inv as f32);
        scale_shift(kernel, data, mean, inv, dst);
    }

    /// Grayscale thumbnail of any image as a flat `side x side` buffer —
    /// the difference-detector front end (`tahoma-video`) runs this per
    /// real frame.
    pub fn luma_thumbnail(&mut self, src: &Image, side: usize) -> Result<Vec<f32>, ImageryError> {
        if side == 0 {
            return Err(ImageryError::InvalidDimensions {
                width: side,
                height: side,
            });
        }
        let kernel = self.kernel;
        let (w, h) = (src.width(), src.height());
        let mut out = Self::out_buf(&mut self.pool, &mut self.pooled, side * side);
        if src.mode() == ColorMode::Rgb {
            let n = self.fill_luma(src);
            debug_assert_eq!(n, w * h);
            Self::resize_plane(
                kernel,
                &mut self.plans,
                &mut self.rows,
                &self.luma_plane,
                w,
                h,
                side,
                side,
                &mut out,
            );
        } else {
            Self::resize_plane(
                kernel,
                &mut self.plans,
                &mut self.rows,
                src.plane(0),
                w,
                h,
                side,
                side,
                &mut out,
            );
        }
        Ok(out)
    }

    /// Materialize one representation from a full RGB frame — the
    /// engine-backed counterpart of `Representation::apply`, bitwise
    /// identical to it on every kernel tier. A one-target
    /// [`TranscodePlan`] through [`TranscodeEngine::apply_planned`].
    pub fn apply(&mut self, full: &Image, rep: Representation) -> Result<Image, ImageryError> {
        let plan = TranscodePlan::new(full.width(), full.height(), &[rep]);
        let mut out = self.apply_planned(full, &plan)?;
        Ok(out.pop().expect("one target, one image"))
    }

    /// Execute a [`TranscodePlan`] on one frame. Targets run in the order
    /// given, with the shared luma plane computed at most once, and the
    /// returned images are aligned with `plan.reps()`. A frame whose
    /// shape differs from the plan's source shape returns
    /// `InvalidDimensions`.
    pub fn apply_planned(
        &mut self,
        full: &Image,
        plan: &TranscodePlan,
    ) -> Result<Vec<Image>, ImageryError> {
        if full.mode() != ColorMode::Rgb {
            return Err(ImageryError::NotRgbSource);
        }
        if (full.width(), full.height()) != plan.source_shape() {
            // The plan's tables are shape-specific; a mismatched frame is a
            // recoverable input error, not a programming invariant.
            return Err(ImageryError::InvalidDimensions {
                width: full.width(),
                height: full.height(),
            });
        }
        let kernel = self.kernel;
        let (w, h) = (full.width(), full.height());
        // A same-size gray target doubles as the shared luma plane: luma
        // straight into its output buffer and let every other gray target
        // resize from it — no scratch fill, no extra copy. Otherwise the
        // shared plane lives in the engine scratch.
        let mut gray_owner: Option<(usize, Image)> = None;
        if plan.share_luma {
            let owner = plan
                .steps
                .iter()
                .zip(&plan.reps)
                .position(|(s, r)| *s == TranscodeStep::CopyPlane && r.mode == ColorMode::Gray);
            match owner {
                Some(i) => {
                    let mut buf = Self::out_buf(&mut self.pool, &mut self.pooled, w * h);
                    luma_sweep(full.plane(0), full.plane(1), full.plane(2), &mut buf);
                    gray_owner = Some((i, Image::from_planar(w, h, ColorMode::Gray, buf)?));
                }
                None => {
                    self.fill_luma(full);
                }
            }
        }
        let mut out = Vec::with_capacity(plan.reps.len());
        for (i, (&rep, &step)) in plan.reps.iter().zip(&plan.steps).enumerate() {
            if gray_owner.as_ref().is_some_and(|(gi, _)| *gi == i) {
                continue;
            }
            let n = rep.size * rep.size;
            let gray_src: &[f32] = match &gray_owner {
                Some((_, img)) => img.plane(0),
                None => &self.luma_plane,
            };
            let img = match step {
                TranscodeStep::Identity => {
                    let mut buf =
                        Self::out_buf(&mut self.pool, &mut self.pooled, full.value_count());
                    buf.copy_from_slice(full.data());
                    Image::from_planar(w, h, ColorMode::Rgb, buf)?
                }
                TranscodeStep::CopyPlane => {
                    let plane: &[f32] = match rep.mode {
                        ColorMode::Gray => gray_src,
                        mode => full.plane(mode.source_channel().expect("single channel")),
                    };
                    let mut buf = Self::out_buf(&mut self.pool, &mut self.pooled, plane.len());
                    buf.copy_from_slice(plane);
                    Image::from_planar(rep.size, rep.size, rep.mode, buf)?
                }
                TranscodeStep::Resize => match rep.mode {
                    ColorMode::Rgb => {
                        let mut data = Self::out_buf(&mut self.pool, &mut self.pooled, 3 * n);
                        for c in 0..3 {
                            Self::resize_plane(
                                kernel,
                                &mut self.plans,
                                &mut self.rows,
                                full.plane(c),
                                w,
                                h,
                                rep.size,
                                rep.size,
                                &mut data[c * n..(c + 1) * n],
                            );
                        }
                        Image::from_planar(rep.size, rep.size, ColorMode::Rgb, data)?
                    }
                    mode => {
                        let plane: &[f32] = match mode {
                            ColorMode::Gray => gray_src,
                            m => full.plane(m.source_channel().expect("single channel")),
                        };
                        let mut data = Self::out_buf(&mut self.pool, &mut self.pooled, n);
                        Self::resize_plane(
                            kernel,
                            &mut self.plans,
                            &mut self.rows,
                            plane,
                            w,
                            h,
                            rep.size,
                            rep.size,
                            &mut data,
                        );
                        Image::from_planar(rep.size, rep.size, mode, data)?
                    }
                },
            };
            out.push(img);
        }
        if let Some((i, img)) = gray_owner {
            out.insert(i, img);
        }
        Ok(out)
    }
}

thread_local! {
    static LOCAL_ENGINE: RefCell<TranscodeEngine> = RefCell::new(TranscodeEngine::new());
}

/// Run `f` against this thread's shared [`TranscodeEngine`] — the backing
/// store for the one-shot `transform::*` functions and
/// `Representation::apply`, so even per-call API users amortize plan tables
/// and scratch. Do not call recursively from inside `f` (the engine is a
/// `RefCell`).
pub fn with_local_engine<R>(f: impl FnOnce(&mut TranscodeEngine) -> R) -> R {
    LOCAL_ENGINE.with(|e| f(&mut e.borrow_mut()))
}

/// One horizontal gather pass, for `benches/kernel_policy.rs` (the axis
/// tables are private): resample `src` (one source row of the plan's input
/// width) through the plan's x-axis span tables into `dst` (the plan's
/// output width).
pub fn hlerp_span(kernel: Option<SimdTier>, src: &[f32], plan: &ResizePlan, dst: &mut [f32]) {
    assert_eq!(src.len(), plan.in_w, "source row width");
    assert_eq!(dst.len(), plan.out_w, "destination row width");
    hlerp(kernel, src, &plan.x, dst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::PAPER_SIZES;

    fn frame(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, ColorMode::Rgb, |c, y, x| {
            (((c * 31 + y * 7 + x * 3) % 13) as f32) / 13.0
        })
        .unwrap()
    }

    #[test]
    fn kernel_detection_is_consistent() {
        let tiers = SimdTier::runnable(TIERS);
        assert_eq!(tiers[0], SimdTier::Portable);
        assert!(tiers.contains(&SimdTier::resolve(None, TIERS)));
    }

    /// The AVX-512-gather regression, pinned structurally: no sweep here
    /// has an AVX-512 kernel, so an unpinned resize runs AVX2 wherever the
    /// ceiling admits AVX2 — never the slower 16-lane gather, never a
    /// mixed-license h/v pair — and pinning AVX-512 clamps *down* to it.
    #[test]
    fn auto_resize_tiers_default_to_avx2() {
        assert!(!TIERS.contains(&SimdTier::Avx512));
        assert_eq!(
            SimdTier::resolve(None, TIERS),
            SimdTier::ceiling().min(SimdTier::Avx2)
        );
        assert_eq!(
            SimdTier::resolve(Some(SimdTier::Avx512), TIERS),
            SimdTier::detected().min(SimdTier::Avx2)
        );
        let img = frame(37, 23);
        let want = crate::transform::resize_bilinear_reference(&img, 11, 17).unwrap();
        let got = TranscodeEngine::with_kernel(SimdTier::Avx512)
            .resize_bilinear(&img, 11, 17)
            .unwrap();
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn engine_resize_matches_reference_bitwise_on_all_tiers() {
        let img = frame(37, 23);
        let reference = crate::transform::resize_bilinear_reference(&img, 11, 17).unwrap();
        for kernel in SimdTier::runnable(TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            let got = e.resize_bilinear(&img, 11, 17).unwrap();
            assert_eq!(got.data(), reference.data(), "tier {}", kernel.name());
        }
    }

    #[test]
    fn engine_apply_matches_reference_bitwise() {
        let img = frame(60, 60);
        for kernel in SimdTier::runnable(TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            for &size in &PAPER_SIZES {
                for &mode in &ColorMode::ALL {
                    let rep = Representation::new(size, mode);
                    let want = crate::repr::apply_reference(&img, rep).unwrap();
                    let got = e.apply(&img, rep).unwrap();
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "tier {} rep {}",
                        kernel.name(),
                        rep
                    );
                    assert_eq!(got.mode(), want.mode());
                }
            }
        }
    }

    #[test]
    fn planned_set_matches_per_rep_apply_bitwise() {
        let img = frame(120, 120);
        let reps = Representation::paper_set();
        let plan = TranscodePlan::new(120, 120, &reps);
        for kernel in SimdTier::runnable(TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            let set = e.apply_planned(&img, &plan).unwrap();
            assert_eq!(set.len(), reps.len());
            for (rep, got) in reps.iter().zip(&set) {
                let want = crate::repr::apply_reference(&img, *rep).unwrap();
                assert_eq!(
                    got.data(),
                    want.data(),
                    "tier {} rep {}",
                    kernel.name(),
                    rep
                );
            }
        }
    }

    #[test]
    fn recycled_buffers_produce_identical_results() {
        let img = frame(64, 64);
        let reps = Representation::paper_set();
        let mut e = TranscodeEngine::new();
        let plan = TranscodePlan::new(64, 64, &reps);
        let first = e.apply_planned(&img, &plan).unwrap();
        let want: Vec<Vec<f32>> = first.iter().map(|i| i.data().to_vec()).collect();
        e.recycle(first);
        // Steady state: every output buffer is recycled, contents must be
        // fully overwritten.
        for _ in 0..3 {
            let next = e.apply_planned(&img, &plan).unwrap();
            for (img2, w) in next.iter().zip(&want) {
                assert_eq!(img2.data(), w.as_slice());
            }
            e.recycle(next);
        }
    }

    #[test]
    fn standardize_tiers_agree_bitwise() {
        // Ragged lengths around the 8-lane body, then the serving shapes:
        // 24 px gray (576 elements) and 32 px RGB (3072).
        let shapes = [1usize, 7, 8, 9, 64, 113]
            .map(|n| (n, 3, ColorMode::Gray))
            .into_iter()
            .chain([(24, 24, ColorMode::Gray), (32, 32, ColorMode::Rgb)]);
        for (w, h, mode) in shapes {
            let img = Image::from_fn(w, h, mode, |c, y, x| {
                ((c * 53 + y * 131 + x * 17) % 29) as f32 / 29.0 - 0.3
            })
            .unwrap();
            let mut base: Option<Image> = None;
            for kernel in SimdTier::runnable(TIERS) {
                let mut e = TranscodeEngine::with_kernel(kernel);
                let s = e.standardize(&img);
                match &base {
                    None => base = Some(s),
                    Some(b) => assert_eq!(b.data(), s.data(), "tier {}", kernel.name()),
                }
            }
        }
    }

    #[test]
    fn standardize_into_matches_standardize_bitwise_on_every_tier() {
        // Into a caller's buffer holding stale values, at ragged lengths,
        // the serving shapes and a constant image (the zero-variance cut).
        let shapes = [(1usize, 1, ColorMode::Gray), (9, 3, ColorMode::Gray)]
            .into_iter()
            .chain([(24, 24, ColorMode::Gray), (32, 32, ColorMode::Rgb)]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (w, h, mode) in shapes {
            let img = Image::from_fn(w, h, mode, |c, y, x| {
                ((c * 71 + y * 113 + x * 29) % 37) as f32 / 37.0 - 0.6
            })
            .unwrap();
            let flat = Image::from_fn(w, h, mode, |_, _, _| 0.25).unwrap();
            for kernel in SimdTier::runnable(TIERS) {
                let mut e = TranscodeEngine::with_kernel(kernel);
                for src in [&img, &flat] {
                    let want = e.standardize(src);
                    let mut got = vec![f32::NAN; src.data().len()];
                    e.standardize_into(src, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(want.data()),
                        "{w}x{h} tier {}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn standardize_has_zero_mean_unit_var() {
        let img = frame(16, 16);
        let s = TranscodeEngine::new().standardize(&img);
        let data = s.data();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
        let flat = Image::from_fn(5, 5, ColorMode::Gray, |_, _, _| 0.4).unwrap();
        assert!(TranscodeEngine::new()
            .standardize(&flat)
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn luma_thumbnail_shapes_and_values() {
        let img = frame(40, 30);
        let mut e = TranscodeEngine::new();
        let t = e.luma_thumbnail(&img, 8).unwrap();
        assert_eq!(t.len(), 64);
        // Constant image -> constant luma thumbnail.
        let flat = Image::from_fn(20, 20, ColorMode::Rgb, |_, _, _| 0.5).unwrap();
        let t = e.luma_thumbnail(&flat, 4).unwrap();
        for v in t {
            assert!((v - 0.5).abs() < 1e-6);
        }
        // Single-plane sources skip the luma pass.
        let gray = Image::from_fn(10, 10, ColorMode::Gray, |_, y, _| y as f32 / 10.0).unwrap();
        assert_eq!(e.luma_thumbnail(&gray, 5).unwrap().len(), 25);
        assert!(e.luma_thumbnail(&gray, 0).is_err());
    }

    #[test]
    fn plan_shares_luma_only_with_gray_targets() {
        let plan = TranscodePlan::new(224, 224, &Representation::paper_set());
        assert!(plan.shares_luma());
        // No gray targets -> no luma sweep.
        let rgb_only = TranscodePlan::new(224, 224, &[Representation::new(60, ColorMode::Rgb)]);
        assert!(!rgb_only.shares_luma());
    }

    #[test]
    fn resize_plan_rows_touched_bounds() {
        let p = ResizePlan::new(224, 224, 30, 30);
        assert!(p.rows_touched() <= 60);
        assert!(p.rows_touched() >= 30);
        let up = ResizePlan::new(30, 30, 224, 224);
        assert!(up.rows_touched() <= 30);
    }

    #[test]
    fn planned_shape_mismatch_is_an_error_not_a_panic() {
        let reps = vec![Representation::new(8, ColorMode::Gray)];
        let plan = TranscodePlan::new(32, 32, &reps);
        let mut e = TranscodeEngine::new();
        let odd = frame(16, 32);
        assert!(matches!(
            e.apply_planned(&odd, &plan),
            Err(ImageryError::InvalidDimensions {
                width: 16,
                height: 32
            })
        ));
    }

    #[test]
    fn apply_requires_rgb() {
        let gray = Image::zeros(8, 8, ColorMode::Gray).unwrap();
        let mut e = TranscodeEngine::new();
        assert!(matches!(
            e.apply(&gray, Representation::new(4, ColorMode::Gray)),
            Err(ImageryError::NotRgbSource)
        ));
        let plan = TranscodePlan::new(8, 8, &[Representation::new(4, ColorMode::Gray)]);
        assert!(matches!(
            e.apply_planned(&gray, &plan),
            Err(ImageryError::NotRgbSource)
        ));
    }

    #[test]
    fn local_engine_is_usable() {
        let img = frame(16, 16);
        let a = with_local_engine(|e| e.resize_bilinear(&img, 8, 8).unwrap());
        let b = TranscodeEngine::new().resize_bilinear(&img, 8, 8).unwrap();
        assert_eq!(a.data(), b.data());
    }
}
