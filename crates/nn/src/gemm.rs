//! Blocked, cache-tiled f32 matrix multiply with runtime SIMD dispatch,
//! and the convolution forward as a row sweep over a padded frame.
//!
//! This is the engine room of the batched inference path: `Conv2d`'s
//! forward runs [`conv2d_forward_packed`] (a row sweep that addresses the
//! patch matrix inside a row-padded copy of the image instead of
//! materializing it, and applies bias, ReLU and the 2x2 max-pool to its
//! register tiles), its backward lowers through [`im2col`]/[`col2im_add`],
//! and `Dense` multiplies whole minibatches against its weight matrix.
//! Explicit products run through one [`gemm`] implementation in the classic
//! BLIS/GotoBLAS structure:
//!
//! * three blocking loops (`NC` columns of B, `KC` of the shared dimension,
//!   `MC` rows of A) size working sets for the cache hierarchy;
//! * A-blocks are packed into panel-contiguous, zero-padded buffers, which
//!   also absorbs the `N`/`T` layout variants; B is packed the same way per
//!   call, read from panels a layer packed once ([`PackedB`], `Dense`'s
//!   weights), or addressed in place through a per-row offset table (the
//!   direct path) — every micro-kernel reads row `p` of its B operand at
//!   `b[offsets[p] + j0..]`, so one kernel family serves every addressing
//!   mode;
//! * an `MR x NR` register-tile micro-kernel does the FLOPs.
//!
//! The conv row sweep has a tile of its own: `FR` = 8 filters (one
//! [`PackedA`] panel) x two output rows x `FC` = 16 columns, summed from
//! zero in registers and finished there ([`ConvEpilogue`]). Both kernel
//! families are selected at runtime from three tiers ([`TIERS`]):
//!
//!   | tier | requires | GEMM tile | conv row tile |
//!   |------|----------|-----------|---------------|
//!   | `Avx512` | `avx512f` (runtime-detected) | 6 rows x 2 zmm | 8 filters x 2 rows x 1 zmm; masked stores, the pool's column pairs compressed in a register |
//!   | `Avx2` | `avx2` + `fma` (runtime-detected) | 6 rows x 2 ymm, two 16-column halves per `NR` strip | 4 filters x 2 rows x 1 ymm: two filter groups and two 8-column halves per tile |
//!   | `Portable` | nothing | plain loops over fixed-size arrays with `f32::mul_add`, auto-vectorized when the build enables wide FMA (e.g. `RUSTFLAGS="-C target-cpu=native"`); on a baseline non-FMA build it stays correct but falls back to library `fmaf`, which is why the runtime-dispatched tiers exist | the same tile as fixed-size arrays |
//!
//!   All tiers run the *same* per-element chain of fused multiply-adds in
//!   the same `k` order, so their results are **bitwise identical** to each
//!   other (property-tested in `tests/proptests.rs`); only accumulation
//!   *across* tiles (vs. the scalar reference path) differs by a few ULPs.
//!   An unpinned [`GemmScratch`] runs the widest tier under
//!   [`SimdTier::ceiling`] (`min(detected, TAHOMA_KERNEL_POLICY)`). GEMM
//!   and the conv sweep are where all three tiers earn their keep
//!   (DESIGN.md, "Deletion ledger").
//!
//! Every call runs on the thread that makes it. Inference gets its
//! parallelism one level up, from `Sequential`'s morsel lanes, each of
//! which runs its GEMMs serially on a scratch of its own.
//!
//! This is one of the three files sanctioned to contain `unsafe`; the
//! workspace unsafe policy, the required shape of every SAFETY comment,
//! and the debug-build assertions of the bounds/alignment claims here are
//! documented in `SAFETY.md` at the repository root.
#![expect(
    unsafe_code,
    reason = "the SIMD GEMM and conv row-sweep kernels load packed panels and store tiles through raw pointers"
)]

use tahoma_mathx::checked;
use tahoma_mathx::SimdTier;

/// Micro-kernel tile rows (register blocking in M).
pub const MR: usize = 6;
/// Micro-kernel tile columns (register blocking in N); two AVX-512 or four
/// AVX2 vectors of f32. The `6 x 32` tile needs 12 AVX-512 accumulator
/// registers — enough independent FMA chains to hide the FMA latency while
/// leaving registers for the operand loads (measured fastest among 2/4/6/8
/// row variants on an AVX-512 host).
pub const NR: usize = 32;
/// Filters per conv row tile, and rows per [`PackedA`] panel: 8 x 2 zmm
/// accumulators are 16 of the 32 AVX-512 registers.
const FR: usize = 8;
/// Columns per row of a conv row tile: one AVX-512 vector of f32.
const FC: usize = 16;

/// Cache-blocking size along M (rows of A per packed block; multiple of MR).
const MC: usize = 60;
/// Cache-blocking size along K (shared dimension per packed block).
const KC: usize = 256;
/// Cache-blocking size along N (columns of B per packed block).
const NC: usize = 1024;
/// Upper bound on `k` for the no-pack direct path: beyond this the packed-A
/// buffer (`ceil(m/MR)*MR*k` floats) and per-tile B strips stop being
/// cache-friendly, so fall back to the fully blocked path.
const DIRECT_K_MAX: usize = 8192;
/// Combined budget for one column block of B plus its C block in the direct
/// path — sized to stay comfortably inside a 2 MiB L2.
const DIRECT_BLOCK_BYTES: usize = 3 * 512 * 1024;

/// Whether an operand is used as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored (row-major).
    N,
    /// Use the transpose of the stored matrix.
    T,
}

/// The tiers the GEMM micro-kernel and the conv row sweep implement — all
/// three: AVX-512 beats AVX2 by 1.27x on the deep-layer product and 2.0x
/// on the short-`k` conv (DESIGN.md, "Deletion ledger"), and AVX2 beats
/// portable by two orders of magnitude in the default build.
pub const TIERS: &[SimdTier] = &SimdTier::ALL;

/// Reusable packing buffers plus the per-call-site kernel pin; keep
/// one per call site to avoid per-call allocation on hot paths. The
/// conv frames are used only by [`conv2d_forward_packed`]; plain [`gemm`]
/// calls leave them empty, and products against a [`PackedB`] never grow
/// `packed_b`.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    packed_a: Vec<f32>,
    packed_b: Vec<f32>,
    /// One row-padded frame per conv shape this scratch has run — a
    /// model's few conv layers — so a depth-first pass alternating between
    /// them lays each zero frame once, not per image.
    conv_frames: Vec<ConvFrame>,
    /// Per-row B offsets for in-place (direct) addressing.
    off_main: Vec<usize>,
    /// Per-row B offsets for panel-packed (stride `NR`) addressing.
    off_panel: Vec<usize>,
    /// Micro-kernel tier pin; `None` (the default) runs the widest tier
    /// of [`TIERS`] under [`SimdTier::ceiling`], resolved per call.
    pub kernel: Option<SimdTier>,
}

impl GemmScratch {
    /// Scratch pinned to one micro-kernel tier (the kernel table, property
    /// tests).
    pub fn with_kernel(tier: SimdTier) -> GemmScratch {
        GemmScratch {
            kernel: Some(tier),
            ..GemmScratch::default()
        }
    }

    /// Largest capacity, in elements, of any buffer held by this scratch.
    #[cfg(test)]
    pub(crate) fn max_buffer_capacity(&self) -> usize {
        let own = [
            self.packed_a.capacity(),
            self.packed_b.capacity(),
            self.off_main.capacity(),
            self.off_panel.capacity(),
        ];
        let frames = self
            .conv_frames
            .iter()
            .map(|f| f.pixels.capacity().max(f.offsets.capacity()));
        own.into_iter().chain(frames).max().unwrap_or(0)
    }
}

/// A conv filter matrix (`m x k`, as stored) packed once into the
/// `FR`-row panels the conv row sweep reads: what `Conv2d` keeps, so no
/// image re-packs it. Panel `ip` holds filters `ip * FR..`, interleaved
/// over all `k` (`FR` values per step, zero past `m`).
#[derive(Debug, Clone, Default)]
pub struct PackedA {
    m: usize,
    k: usize,
    panels: Vec<f32>,
}

impl PackedA {
    /// Pack `a` (`m x k`, row-major).
    pub fn new(a: &[f32], m: usize, k: usize) -> PackedA {
        let mut packed = PackedA::default();
        packed.repack(a, m, k);
        packed
    }

    /// Re-pack `a` into this buffer (e.g. after an optimizer step).
    pub fn repack(&mut self, a: &[f32], m: usize, k: usize) {
        debug_assert_eq!(a.len(), m * k, "A size mismatch");
        self.panels.clear();
        self.panels.resize(m.div_ceil(FR) * FR * k, 0.0);
        for row in 0..m {
            for p in 0..k {
                self.panels[(row / FR * k + p) * FR + row % FR] = a[row * k + p];
            }
        }
        (self.m, self.k) = (m, k);
    }

    /// Panel `ip` (filters `ip * FR..`), `FR`-interleaved over all `k`.
    #[inline]
    fn panel(&self, ip: usize) -> &[f32] {
        &self.panels[ip * FR * self.k..(ip + 1) * FR * self.k]
    }
}

/// A right operand (`k x n`) packed once, in exactly the `NR`-column
/// panels the blocked path's per-call `pack_b` builds for each `(jc, pc)`
/// block: k-block `pc` (depth `kc`) holds every panel of its rows, panel
/// `J` at `pc * n_pad + J * NR * kc`. A block starting at any `NR`-aligned
/// column `jc` — which every `NC` step is — is therefore one contiguous
/// slice with `pack_b`'s layout. What `Dense` keeps of `Wᵀ`, so no call
/// re-packs it.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack `b` (`k x n` when `tb` is `N`, stored `n x k` when `T`).
    pub fn new(b: &[f32], tb: Trans, k: usize, n: usize) -> PackedB {
        let mut packed = PackedB::default();
        packed.repack(b, tb, k, n);
        packed
    }

    /// Re-pack `b` into this buffer (e.g. after an optimizer step).
    pub fn repack(&mut self, b: &[f32], tb: Trans, k: usize, n: usize) {
        debug_assert_eq!(b.len(), k * n, "B size mismatch");
        let n_pad = n.div_ceil(NR) * NR;
        self.panels.resize(k * n_pad, 0.0);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let block = &mut self.panels[pc * n_pad..(pc + kc) * n_pad];
            pack_b(block, b, tb, k, n, pc, kc, 0, n);
        }
        (self.k, self.n) = (k, n);
    }

    /// The panels of k-block `pc` (depth `kc`) from `NR`-aligned column
    /// `jc` on.
    #[inline]
    fn block(&self, pc: usize, kc: usize, jc: usize) -> &[f32] {
        debug_assert_eq!(jc % NR, 0, "packed block must start on a panel");
        let n_pad = self.n.div_ceil(NR) * NR;
        &self.panels[pc * n_pad + jc * kc..(pc + kc) * n_pad]
    }
}

/// Where the blocked path's B operand comes from.
#[derive(Clone, Copy)]
enum BOperand<'a> {
    /// Stored matrix, packed per call into the scratch's `packed_b`.
    Raw(&'a [f32], Trans),
    /// Panels packed once by the caller.
    Packed(&'a PackedB),
}

/// `dst[i] += src[i]` over a raw row segment.
///
/// # Safety
/// `dst..dst + src.len()` must be writable and not concurrently accessed.
#[inline(always)]
unsafe fn add_row(dst: *mut f32, src: &[f32]) {
    for (i, &v) in src.iter().enumerate() {
        // SAFETY: in-bounds by the caller's contract.
        unsafe { *dst.add(i) += v };
    }
}

/// `dst[i] = base + src[i]` over a raw row segment (write-only bias-fused
/// epilogue).
///
/// # Safety
/// `dst..dst + src.len()` must be writable and not concurrently accessed.
#[inline(always)]
unsafe fn set_bias_row(dst: *mut f32, base: f32, src: &[f32]) {
    for (i, &v) in src.iter().enumerate() {
        // SAFETY: in-bounds by the caller's contract.
        unsafe { *dst.add(i) = base + v };
    }
}

/// Fill `dst` with `p * stride` for `p in 0..k` — the offset table that
/// lets one kernel family address packed panels, in-place rows, and the
/// virtual patch matrix uniformly.
fn fill_offsets(dst: &mut Vec<usize>, k: usize, stride: usize) {
    dst.clear();
    dst.extend((0..k).map(|p| p * stride));
}

/// `C += A · B` where `C` is `m x n` row-major and `A`/`B` are interpreted
/// through their [`Trans`] flags: `A` is `m x k` when `N` (stored `k x m`
/// when `T`), `B` is `k x n` when `N` (stored `n x k` when `T`). All storage
/// is compact row-major. The caller initializes `C` (zeros, or a broadcast
/// bias for a fused bias-add).
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
pub fn gemm(
    scratch: &mut GemmScratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k, "A size mismatch");
    debug_assert_eq!(b.len(), k * n, "B size mismatch");
    debug_assert_eq!(c.len(), m * n, "C size mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = SimdTier::resolve(scratch.kernel, TIERS);
    if ta == Trans::N && tb == Trans::N && k <= DIRECT_K_MAX {
        return gemm_direct_nn(scratch, kernel, m, n, k, a, b, c, None);
    }
    gemm_blocked(scratch, kernel, m, n, k, a, ta, BOperand::Raw(b, tb), c);
}

/// `C += A · B` where `A` is `m x k` as stored and `B` was packed once into
/// `b` (`k x n`). Runs [`gemm`]'s blocked path — the one every transposed
/// B takes, e.g. [`gemm_nt`] — over the same panels, only without building
/// them, so it is bitwise equal to that path on the matrix `b` was packed
/// from.
pub fn gemm_prepacked(scratch: &mut GemmScratch, m: usize, a: &[f32], b: &PackedB, c: &mut [f32]) {
    let (n, k) = (b.n, b.k);
    debug_assert_eq!(a.len(), m * k, "A size mismatch");
    // A hard check: C is written through a raw pointer.
    assert_eq!(c.len(), m * n, "C size mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = SimdTier::resolve(scratch.kernel, TIERS);
    gemm_blocked(
        scratch,
        kernel,
        m,
        n,
        k,
        a,
        Trans::N,
        BOperand::Packed(b),
        c,
    );
}

/// The fully blocked path: pack B strips (unless they come pre-packed)
/// and A blocks, run packed tiles.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
fn gemm_blocked(
    scratch: &mut GemmScratch,
    kernel: SimdTier,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: BOperand<'_>,
    c: &mut [f32],
) {
    let GemmScratch {
        packed_a,
        packed_b,
        off_panel,
        ..
    } = scratch;
    packed_a.resize(MC * KC, 0.0);
    if let BOperand::Raw(..) = b {
        packed_b.resize(KC * NC, 0.0);
    }
    let c_ptr = c.as_mut_ptr();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_block: &[f32] = match b {
                BOperand::Raw(b, tb) => {
                    pack_b(packed_b, b, tb, k, n, pc, kc, jc, nc);
                    packed_b
                }
                BOperand::Packed(p) => p.block(pc, kc, jc),
            };
            fill_offsets(off_panel, kc, NR);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(packed_a, a, ta, m, k, ic, mc, pc, kc);
                let mc_panels = mc.div_ceil(MR);
                let nc_panels = nc.div_ceil(NR);
                // B panels outside, A panels inside (the BLIS order): one
                // `kc x NR` panel of B stays in L1 across every A panel of
                // the block, where the other order streamed the whole B
                // block from L2 once per A panel. Each C tile still gets one
                // add per k-block, so no bit moves.
                for jp in 0..nc_panels {
                    let b_panel = &b_block[jp * NR * kc..(jp * NR + NR) * kc];
                    let nr = NR.min(nc - jp * NR);
                    for ip in 0..mc_panels {
                        let a_panel = &packed_a[ip * MR * kc..(ip * MR + MR) * kc];
                        let mr = MR.min(mc - ip * MR);
                        let mut acc = [[0.0f32; NR]; MR];
                        tile(kernel, kc, a_panel, b_panel, off_panel, 0, mr, &mut acc);
                        let row0 = ic + ip * MR;
                        let col0 = jc + jp * NR;
                        for (i, acc_row) in acc.iter().enumerate().take(mr) {
                            checked::span(m * n, (row0 + i) * n + col0, nr, "gemm C tile row");
                            // SAFETY: row/col in bounds of C (m x n), which
                            // this call borrows exclusively.
                            unsafe { add_row(c_ptr.add((row0 + i) * n + col0), &acc_row[..nr]) };
                        }
                    }
                }
            }
        }
    }
}

/// The no-pack fast path for `C += A · B` (or `C = bias ⊕ A · B`) with both
/// operands as stored: only A is packed (whole matrix, zero-padded to
/// `MR`-row panels); the kernel reads `B` in place through the shared
/// offset table. Skipping the B-pack halves B-side memory traffic, which
/// dominates when `m` is small — exactly the shape of the im2col
/// convolution (`m = out_c`), where this path is ~35% faster end to end
/// than the packed one.
///
/// Two-level column blocking. Outer: balanced `jc` blocks sized so the
/// C block plus B block stay L2-resident (C tiles are written in strided
/// strips, so they must hit cache). Inner: one `k x NR` strip of B is
/// pushed through every A panel while it is L1-hot, so B streams out of
/// L2 exactly once per block regardless of m.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
fn gemm_direct_nn(
    scratch: &mut GemmScratch,
    kernel: SimdTier,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    init: Option<&[f32]>,
) {
    let GemmScratch {
        packed_a,
        packed_b: tail_b,
        off_main,
        off_panel,
        ..
    } = scratch;
    let m_panels = m.div_ceil(MR);
    packed_a.resize(m_panels * MR * k, 0.0);
    pack_a(packed_a, a, Trans::N, m, k, 0, m, 0, k);
    fill_offsets(off_main, k, n);
    let c_ptr = c.as_mut_ptr();
    let max_nc = (DIRECT_BLOCK_BYTES / (4 * (m + k))).max(NR);
    let blocks = n.div_ceil(max_nc).max(1);
    let nc_block = n.div_ceil(blocks).div_ceil(NR).max(1) * NR;

    for jc in (0..n).step_by(nc_block) {
        let nc = nc_block.min(n - jc);
        let full_nr = nc / NR;
        let tail = nc - full_nr * NR;
        for jp in 0..full_nr {
            let j0 = jc + jp * NR;
            for ip in 0..m_panels {
                let a_panel = &packed_a[ip * MR * k..(ip * MR + MR) * k];
                let mr = MR.min(m - ip * MR);
                let mut acc = [[0.0f32; NR]; MR];
                tile(kernel, k, a_panel, b, off_main, j0, mr, &mut acc);
                for (i, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = ip * MR + i;
                    checked::span(m * n, row * n + j0, NR, "direct gemm C strip");
                    // SAFETY: row < m, j0 + NR <= n, in bounds of C (m x n),
                    // which this call borrows exclusively.
                    unsafe {
                        let dst = c_ptr.add(row * n + j0);
                        match init {
                            // Fused epilogue: C = bias + A·B, write-only (no
                            // read-modify-write pass over C).
                            Some(bias) => set_bias_row(dst, bias[row], &acc_row[..NR]),
                            None => add_row(dst, &acc_row[..NR]),
                        }
                    }
                }
            }
        }
        if tail > 0 {
            // Pack the ragged final columns of the block, zero-padded to NR.
            tail_b.resize(k * NR, 0.0);
            fill_offsets(off_panel, k, NR);
            let j0 = jc + full_nr * NR;
            for p in 0..k {
                let dst = &mut tail_b[p * NR..(p + 1) * NR];
                dst[..tail].copy_from_slice(&b[p * n + j0..p * n + j0 + tail]);
                dst[tail..].fill(0.0);
            }
            for ip in 0..m_panels {
                let a_panel = &packed_a[ip * MR * k..(ip * MR + MR) * k];
                let mr = MR.min(m - ip * MR);
                let mut acc = [[0.0f32; NR]; MR];
                tile(kernel, k, a_panel, tail_b, off_panel, 0, mr, &mut acc);
                for (i, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = ip * MR + i;
                    checked::span(m * n, row * n + j0, tail, "direct gemm C tail");
                    // SAFETY: as above; only `tail` columns are live.
                    unsafe {
                        let dst = c_ptr.add(row * n + j0);
                        match init {
                            Some(bias) => set_bias_row(dst, bias[row], &acc_row[..tail]),
                            None => add_row(dst, &acc_row[..tail]),
                        }
                    }
                }
            }
        }
    }
}

/// `C = bias ⊕ A · B` with both operands as stored: row `i` of `C` is
/// initialized to the scalar `bias[i]` and accumulated in one write-only
/// epilogue pass (the convolution forward's bias-add, fused so `C` is never
/// pre-filled or re-read). `C`'s prior contents are ignored.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
pub fn gemm_nn_bias(
    scratch: &mut GemmScratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(bias.len(), m, "bias size mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || k > DIRECT_K_MAX {
        // Degenerate or oversized-k shapes: fill then accumulate.
        for (row, &b0) in c.chunks_exact_mut(n).zip(bias) {
            row.fill(b0);
        }
        return gemm(scratch, m, n, k, a, Trans::N, b, Trans::N, c);
    }
    let kernel = SimdTier::resolve(scratch.kernel, TIERS);
    gemm_direct_nn(scratch, kernel, m, n, k, a, b, c, Some(bias))
}

/// What the conv row sweep does with a tile's sums before it stores them.
/// Each variant folds the layers that follow the conv in inference; the
/// stored bits are those the unfused layers would produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvEpilogue {
    /// `bias + acc`: the conv alone (training, and a conv no `Relu`
    /// follows).
    Bias,
    /// The `Relu` that follows, as `max(bias + acc, +0.0)`: the `Relu`
    /// layer's own `if v > 0.0 { v } else { 0.0 }`, NaN and `-0.0`
    /// included (`MAXPS` returns its second operand, `+0.0`, when either
    /// operand is NaN or both are zeros).
    Relu,
    /// `Relu`, then a 2x2/stride-2 `MaxPool2` (floor semantics): each
    /// output plane is `(h / 2) x (w / 2)`. The pooled values are ReLU
    /// outputs — never NaN, never `-0.0` — so their max is one value
    /// whatever order it is taken in, and it equals the pool layer's
    /// strict-`>` running max.
    ReluPool,
}

impl ConvEpilogue {
    /// Length of one output plane for an `h x w` conv.
    pub fn plane(self, h: usize, w: usize) -> usize {
        match self {
            ConvEpilogue::ReluPool => (h / 2) * (w / 2),
            _ => h * w,
        }
    }
}

/// Convolution forward pass without materializing the patch matrix:
/// `out[out_c x hw] = bias ⊕ W[out_c x (c_in*kk*kk)] · col(input)`, where
/// `col` is only ever *addressed*, never built. Packs `weights` into the
/// scratch first; `Conv2d` keeps its filter packed and calls
/// [`conv2d_forward_packed`] instead.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
pub fn conv2d_forward(
    scratch: &mut GemmScratch,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    kk: usize,
    weights: &[f32],
    bias: &[f32],
    out_c: usize,
    out: &mut [f32],
) {
    let mut filter = PackedA {
        panels: std::mem::take(&mut scratch.packed_a),
        ..PackedA::default()
    };
    filter.repack(weights, out_c, c_in * kk * kk);
    conv2d_forward_packed(
        scratch,
        input,
        c_in,
        h,
        w,
        kk,
        &filter,
        bias,
        ConvEpilogue::Bias,
        out,
    );
    scratch.packed_a = filter.panels;
}

/// [`conv2d_forward`] on a filter matrix packed once, finished by
/// `epilogue`.
///
/// For stride-1 "same" convolution the patch matrix is an affine
/// re-indexing of a padded image: each plane is copied once into a frame
/// with `pad` zero rows above and below and `pad` zero columns either side,
/// so its rows are `gw = w + 2*pad` wide. Patch row `(i, ky, kx)` at output
/// pixel `(y, x)` is then `frame_i[(y + ky)*gw + x + kx]` — every
/// out-of-image tap reads an actual zero.
///
/// The sweep walks the output one row tile at a time: `FR` filters (one
/// panel of `filter`) x output rows `y, y + 1` x columns `x0..x0 + FC`.
/// A tile's sums start from zero in registers and run the same fma chain,
/// in the same `k` order, over the same values as a product against
/// [`im2col`]'s matrix, with zeros exactly where that matrix has them; the
/// epilogue then adds the bias to the registers and stores only the
/// tile's live pixels (masked on the SIMD tiers). So [`ConvEpilogue::Bias`]
/// is bitwise equal to [`im2col`] + [`gemm_nn_bias`], and the other two
/// to that followed by the `Relu` (and `MaxPool2`) layers. No frame
/// column beyond `w` is an output: lanes past a plane's last column (or
/// last row, for odd `h`) read padding and are dropped. With the pool, an
/// odd plane's last row is not computed at all (its last column only as a
/// dropped lane), and the full-resolution activation is never written.
///
/// The backward pass still materializes [`im2col`]; this path is for the
/// throughput-critical forward direction.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
pub fn conv2d_forward_packed(
    scratch: &mut GemmScratch,
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    kk: usize,
    filter: &PackedA,
    bias: &[f32],
    epilogue: ConvEpilogue,
    out: &mut [f32],
) {
    let (out_c, plane) = (filter.m, epilogue.plane(h, w));
    assert_eq!(filter.k, c_in * kk * kk, "filter depth mismatch");
    assert_eq!(out.len(), out_c * plane, "output size mismatch");
    assert_eq!(input.len(), c_in * h * w, "input size mismatch");
    assert_eq!(bias.len(), out_c, "bias size mismatch");
    if plane == 0 || out_c == 0 {
        return;
    }
    let kernel = SimdTier::resolve(scratch.kernel, TIERS);
    let frame = ConvFrame::for_shape(&mut scratch.conv_frames, c_in, h, w, kk);
    frame.load(input);
    let sweep = RowSweep::new(frame, epilogue);
    for (ip, (out, bias)) in out.chunks_mut(FR * plane).zip(bias.chunks(FR)).enumerate() {
        sweep.panel(kernel, filter.panel(ip), bias, out);
    }
}

/// A conv input shape's zero frame and the per-patch-row offsets into it.
#[derive(Debug, Clone)]
struct ConvFrame {
    /// `(c_in, h, w, kk)`.
    shape: (usize, usize, usize, usize),
    /// `c_in` planes of `(h + 2*pad) x gw`, then a guard of `gw + FC`
    /// zeros, so every tile's rows `y, y + 1` and `FC` columns lie inside
    /// (checked by [`RowSweep::new`]).
    pixels: Vec<f32>,
    /// `offsets[(i * kk + ky) * kk + kx]` is where patch row `(i, ky, kx)`
    /// of output pixel `(0, 0)` sits in `pixels`.
    offsets: Vec<usize>,
}

impl ConvFrame {
    /// This shape's frame in `frames`, made (zeros and offsets) on first
    /// use. Only the image pixels change after that.
    fn for_shape(
        frames: &mut Vec<ConvFrame>,
        c_in: usize,
        h: usize,
        w: usize,
        kk: usize,
    ) -> &mut ConvFrame {
        let shape = (c_in, h, w, kk);
        let slot = frames
            .iter()
            .position(|f| f.shape == shape)
            .unwrap_or_else(|| {
                let pad = kk / 2;
                let gw = w + 2 * pad;
                let cstride = (h + 2 * pad) * gw;
                let mut offsets = Vec::with_capacity(c_in * kk * kk);
                for i in 0..c_in {
                    for ky in 0..kk {
                        offsets.extend((0..kk).map(|kx| i * cstride + ky * gw + kx));
                    }
                }
                frames.push(ConvFrame {
                    shape,
                    pixels: vec![0.0; c_in * cstride + gw + FC],
                    offsets,
                });
                frames.len() - 1
            });
        &mut frames[slot]
    }

    /// Copy one image's rows in; the zeros around them never change.
    fn load(&mut self, input: &[f32]) {
        let (_, h, w, kk) = self.shape;
        let (pad, gw) = (kk / 2, w + 2 * (kk / 2));
        let cstride = (h + 2 * pad) * gw;
        for (i, plane) in input.chunks_exact(h * w).enumerate() {
            for (y, src) in plane.chunks_exact(w).enumerate() {
                let dst = i * cstride + (y + pad) * gw + pad;
                self.pixels[dst..dst + w].copy_from_slice(src);
            }
        }
    }
}

/// One image's conv row sweep: the frame, its geometry and the epilogue,
/// walked tile by tile by every tier's kernel.
struct RowSweep<'a> {
    frame: &'a [f32],
    offsets: &'a [usize],
    /// Frame row width, `w + 2*pad`.
    gw: usize,
    h: usize,
    w: usize,
    epilogue: ConvEpilogue,
}

/// One row tile: output rows `y, y + 1` (`y` even) from column `x0` on.
#[derive(Clone, Copy)]
struct Tile {
    /// Frame offset of pixel `(y, x0)`; row `y + 1` is `gw` further on.
    j: usize,
    /// Offset of the tile's first stored value in an output plane; its
    /// second row (unpooled) is `w` further on.
    dst: usize,
    /// Values stored per stored row: live columns, or pooled columns.
    cols: usize,
    /// Rows stored: 2, or 1 for an odd plane's last row; 1 when pooled.
    rows: usize,
}

impl RowSweep<'_> {
    /// The sweep over `frame`'s current image. Hard check: the kernels
    /// read `FC` values of both rows of every tile, at every offset,
    /// through raw pointers — the frame must hold the furthest of them.
    fn new(frame: &ConvFrame, epilogue: ConvEpilogue) -> RowSweep<'_> {
        let (_, h, w, kk) = frame.shape;
        let sweep = RowSweep {
            frame: &frame.pixels,
            offsets: &frame.offsets,
            gw: w + 2 * (kk / 2),
            h,
            w,
            epilogue,
        };
        let (rows, cols) = sweep.extent();
        if rows > 0 && cols > 0 {
            let last_j = (rows - 1) / 2 * 2 * sweep.gw + (cols - 1) / FC * FC;
            let deepest = sweep.offsets.iter().max().copied().unwrap_or(0);
            assert!(
                deepest + last_j + sweep.gw + FC <= sweep.frame.len(),
                "conv frame too short for its row tiles"
            );
        }
        sweep
    }

    fn pooled(&self) -> bool {
        self.epilogue == ConvEpilogue::ReluPool
    }

    /// The output rows and columns the tiles cover: all of them, or with
    /// the pool, the even-sized part its windows read.
    fn extent(&self) -> (usize, usize) {
        match self.pooled() {
            true => (self.h & !1, self.w & !1),
            false => (self.h, self.w),
        }
    }

    /// Length of one output plane.
    fn plane(&self) -> usize {
        self.epilogue.plane(self.h, self.w)
    }

    /// The tiles in output order.
    fn tiles(&self) -> impl Iterator<Item = Tile> {
        let (gw, h, w, pooled) = (self.gw, self.h, self.w, self.pooled());
        let (rows, cols) = self.extent();
        (0..rows).step_by(2).flat_map(move |y| {
            (0..cols).step_by(FC).map(move |x0| {
                let (j, n) = (y * gw + x0, FC.min(cols - x0));
                match pooled {
                    true => Tile {
                        j,
                        dst: y / 2 * (w / 2) + x0 / 2,
                        cols: n / 2,
                        rows: 1,
                    },
                    false => Tile {
                        j,
                        dst: y * w + x0,
                        cols: n,
                        rows: 2.min(h - y),
                    },
                }
            })
        })
    }

    /// Sweep one filter panel (`a`, `FR`-interleaved) over every tile,
    /// writing its `bias.len()` live filters' planes to `out`.
    fn panel(&self, kernel: SimdTier, a: &[f32], bias: &[f32], out: &mut [f32]) {
        // Hard checks: the kernels read `a` and write `out` through raw
        // pointers sized by these.
        assert_eq!(a.len(), FR * self.offsets.len(), "filter panel length");
        assert!(bias.len() <= FR, "filters per panel");
        assert_eq!(out.len(), bias.len() * self.plane(), "panel output length");
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `resolve` never returns a tier wider than runtime
            // detection found, and `new` and the asserts above establish
            // the operand contract.
            SimdTier::Avx512 => unsafe {
                match bias.len() {
                    5.. => x86::row_tiles_avx512::<8>(self, a, bias, out),
                    3 | 4 => x86::row_tiles_avx512::<4>(self, a, bias, out),
                    _ => x86::row_tiles_avx512::<2>(self, a, bias, out),
                }
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — `avx2` and `fma` were detected at runtime.
            SimdTier::Avx2 => unsafe {
                match bias.len() {
                    5.. => x86::row_tiles_avx2::<8>(self, a, bias, out),
                    3 | 4 => x86::row_tiles_avx2::<4>(self, a, bias, out),
                    _ => x86::row_tiles_avx2::<2>(self, a, bias, out),
                }
            },
            _ => match bias.len() {
                5.. => row_tiles_portable::<8>(self, a, bias, out),
                3 | 4 => row_tiles_portable::<4>(self, a, bias, out),
                _ => row_tiles_portable::<2>(self, a, bias, out),
            },
        }
    }
}

/// The portable row-tile kernel: the first `ROWS` filters of the panel,
/// as fixed-size arrays with `f32::mul_add` — the per-element chain every
/// tier runs — then the epilogue on the same arrays.
fn row_tiles_portable<const ROWS: usize>(
    s: &RowSweep<'_>,
    a: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let plane = s.plane();
    for t in s.tiles() {
        let mut acc = [[[0.0f32; FC]; 2]; ROWS];
        for (p, &off) in s.offsets.iter().enumerate() {
            let a_step: &[f32; FR] = a[p * FR..(p + 1) * FR].try_into().expect("filter panel");
            for (half, base) in [off + t.j, off + t.j + s.gw].into_iter().enumerate() {
                let b: &[f32; FC] = s.frame[base..base + FC].try_into().expect("frame row");
                for (row, &av) in acc.iter_mut().zip(a_step) {
                    for (v, &bv) in row[half].iter_mut().zip(b) {
                        *v = av.mul_add(bv, *v);
                    }
                }
            }
        }
        let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
        for (r, (sums, &b)) in acc.iter().zip(bias).enumerate() {
            let at = r * plane + t.dst;
            if s.pooled() {
                let [top, bottom] = sums.map(|row| row.map(|v| relu(b + v)));
                for (c, dst) in out[at..at + t.cols].iter_mut().enumerate() {
                    let window = [top[2 * c], top[2 * c + 1], bottom[2 * c], bottom[2 * c + 1]];
                    *dst = window.into_iter().fold(0.0, f32::max);
                }
                continue;
            }
            for (y, row) in sums.iter().take(t.rows).enumerate() {
                let dst = &mut out[at + y * s.w..at + y * s.w + t.cols];
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = match s.epilogue {
                        ConvEpilogue::Bias => b + v,
                        _ => relu(b + v),
                    };
                }
            }
        }
    }
}

/// `C += A · B` with both operands as stored.
pub fn gemm_nn(
    scratch: &mut GemmScratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(scratch, m, n, k, a, Trans::N, b, Trans::N, c);
}

/// `C += A · Bᵀ` (`B` stored `n x k`).
pub fn gemm_nt(
    scratch: &mut GemmScratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(scratch, m, n, k, a, Trans::N, b, Trans::T, c);
}

/// `C += Aᵀ · B` (`A` stored `k x m`).
pub fn gemm_tn(
    scratch: &mut GemmScratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm(scratch, m, n, k, a, Trans::T, b, Trans::N, c);
}

/// Run one `mr x NR` tile (`mr <= MR`) on the selected kernel tier,
/// accumulating into the first `mr` rows of `acc`. `a` is an `MR`-strided
/// packed panel; row `p` of the B operand lives at `b[offsets[p] + j0..]`.
/// The 4- and 2-row variants skip padded-row work on ragged final panels.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
#[inline]
fn tile(
    kernel: SimdTier,
    kc: usize,
    a: &[f32],
    b: &[f32],
    offsets: &[usize],
    j0: usize,
    mr: usize,
    acc: &mut [[f32; NR]; MR],
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: these variants are only produced by `SimdTier::resolve`,
        // which never exceeds the runtime-detected tier.
        SimdTier::Avx512 => unsafe {
            match mr {
                5 | 6 => x86::kernel_avx512::<MR>(kc, a, b, offsets, j0, acc),
                3 | 4 => x86::kernel_avx512::<4>(kc, a, b, offsets, j0, acc),
                _ => x86::kernel_avx512::<2>(kc, a, b, offsets, j0, acc),
            }
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — `avx2` and `fma` were detected at runtime.
        SimdTier::Avx2 => unsafe {
            match mr {
                5 | 6 => x86::kernel_avx2::<MR>(kc, a, b, offsets, j0, acc),
                3 | 4 => x86::kernel_avx2::<4>(kc, a, b, offsets, j0, acc),
                _ => x86::kernel_avx2::<2>(kc, a, b, offsets, j0, acc),
            }
        },
        _ => match mr {
            5 | 6 => kernel_portable::<MR>(kc, a, b, offsets, j0, acc),
            3 | 4 => kernel_portable::<4>(kc, a, b, offsets, j0, acc),
            _ => kernel_portable::<2>(kc, a, b, offsets, j0, acc),
        },
    }
}

/// The portable register-tile kernel: `acc[..ROWS] += A_panel · B_rows`
/// over `kc` steps. Plain loops over fixed-size arrays with `f32::mul_add`,
/// a shape LLVM turns into FMA register tiles when the build enables a
/// wide FMA target (and into correct-but-slow `fmaf` calls otherwise — the
/// explicit SIMD tiers exist so the default build never pays that).
#[inline(always)]
fn kernel_portable<const ROWS: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    offsets: &[usize],
    j0: usize,
    acc: &mut [[f32; NR]; MR],
) {
    let mut local = [[0.0f32; NR]; ROWS];
    for (dst, src) in local.iter_mut().zip(acc.iter()) {
        *dst = *src;
    }
    for p in 0..kc {
        let a_step: &[f32; MR] = a[p * MR..p * MR + MR].try_into().expect("packed panel");
        let base = offsets[p] + j0;
        let b_step: &[f32; NR] = b[base..base + NR].try_into().expect("B strip");
        for j in 0..NR {
            let bv = b_step[j];
            for (i, row) in local.iter_mut().enumerate() {
                row[j] = a_step[i].mul_add(bv, row[j]);
            }
        }
    }
    for (src, dst) in local.iter().zip(acc.iter_mut()) {
        *dst = *src;
    }
}

/// Explicit `std::arch` kernels. Each function is gated on a
/// `#[target_feature]` set that callers must have runtime-detected (that is
/// the entire unsafety of calling them); inside, the only `unsafe`
/// operations are the raw-pointer vector loads and stores, each bounded by
/// a slice index just above it.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{checked, ConvEpilogue, RowSweep, FC, FR, MR, NR};
    use core::arch::x86_64::*;

    /// Validation of the kernel operand contract: `a` holds `kc` packed
    /// `MR`-groups and every B row fits `width` columns from its offset.
    /// Debug builds assert it (`tahoma_mathx::checked`); release builds
    /// rely on the (checked) callers.
    #[inline(always)]
    fn debug_check_operands(
        kc: usize,
        a: &[f32],
        b: &[f32],
        offsets: &[usize],
        j0: usize,
        width: usize,
    ) {
        tahoma_mathx::checked::span(a.len(), 0, kc * MR, "gemm kernel A panel");
        tahoma_mathx::checked::span(offsets.len(), 0, kc, "gemm kernel offset table");
        tahoma_mathx::checked::aligned(b.as_ptr(), "gemm kernel B base");
        // Gated as a whole: `offsets[..kc]` is itself a checked slice.
        if cfg!(debug_assertions) {
            for &o in &offsets[..kc] {
                tahoma_mathx::checked::span(b.len(), o + j0, width, "gemm kernel B row");
            }
        }
    }

    /// AVX2+FMA tile: `ROWS x NR` in two 16-column halves, each half
    /// holding `ROWS x 2` ymm accumulators (12 of the 16 vector registers
    /// at `ROWS = 6`, leaving room for the two B loads and the A
    /// broadcast). Per output element the k-loop is the same fused
    /// multiply-add chain as the portable kernel, so results are bitwise
    /// identical. Operand addressing is raw-pointer (bounds validated on
    /// entry) — per-step slice checks cost ~25% at small `kc`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the dispatcher resolves the tier
    /// against runtime detection), and the operands must meet the contract
    /// `debug_check_operands` states for `width = NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn kernel_avx2<const ROWS: usize>(
        kc: usize,
        a: &[f32],
        b: &[f32],
        offsets: &[usize],
        j0: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_check_operands(kc, a, b, offsets, j0, NR);
        let (a_ptr, b_ptr, off_ptr) = (a.as_ptr(), b.as_ptr(), offsets.as_ptr());
        for half in 0..2 {
            let h0 = half * 16;
            let mut accv = [[_mm256_setzero_ps(); 2]; ROWS];
            for (v, row) in accv.iter_mut().zip(acc.iter()) {
                // SAFETY: each row holds NR = 32 floats, h0 + 16 <= 32.
                v[0] = unsafe { _mm256_loadu_ps(row[h0..].as_ptr()) };
                // SAFETY: as above; the second 8 floats end at h0 + 16.
                v[1] = unsafe { _mm256_loadu_ps(row[h0 + 8..].as_ptr()) };
            }
            for p in 0..kc {
                // SAFETY: p < kc <= offsets.len(); offsets[p] + j0 + NR
                // <= b.len() and kc * MR <= a.len(), both validated on
                // entry (debug) and guaranteed by the packing callers.
                unsafe {
                    let base = *off_ptr.add(p) + j0 + h0;
                    let b0 = _mm256_loadu_ps(b_ptr.add(base));
                    let b1 = _mm256_loadu_ps(b_ptr.add(base + 8));
                    let ap = a_ptr.add(p * MR);
                    for (i, v) in accv.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*ap.add(i));
                        v[0] = _mm256_fmadd_ps(av, b0, v[0]);
                        v[1] = _mm256_fmadd_ps(av, b1, v[1]);
                    }
                }
            }
            for (v, row) in accv.iter().zip(acc.iter_mut()) {
                // SAFETY: as the loads above.
                unsafe { _mm256_storeu_ps(row[h0..].as_mut_ptr(), v[0]) };
                // SAFETY: as the loads above.
                unsafe { _mm256_storeu_ps(row[h0 + 8..].as_mut_ptr(), v[1]) };
            }
        }
    }

    /// AVX-512 tile: `ROWS x NR` as `ROWS x 2` zmm accumulators (12 of the
    /// 32 vector registers at `ROWS = 6`). Same fused chain per element as
    /// the portable kernel — bitwise identical results.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (the dispatcher resolves the tier
    /// against runtime detection), and the operands must meet the contract
    /// `debug_check_operands` states for `width = NR`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn kernel_avx512<const ROWS: usize>(
        kc: usize,
        a: &[f32],
        b: &[f32],
        offsets: &[usize],
        j0: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_check_operands(kc, a, b, offsets, j0, NR);
        let (a_ptr, b_ptr, off_ptr) = (a.as_ptr(), b.as_ptr(), offsets.as_ptr());
        let mut accv = [[_mm512_setzero_ps(); 2]; ROWS];
        for (v, row) in accv.iter_mut().zip(acc.iter()) {
            // SAFETY: each row holds NR = 32 consecutive floats.
            v[0] = unsafe { _mm512_loadu_ps(row.as_ptr()) };
            // SAFETY: as above; the second 16 floats end at 32.
            v[1] = unsafe { _mm512_loadu_ps(row[16..].as_ptr()) };
        }
        for p in 0..kc {
            // SAFETY: p < kc <= offsets.len(); offsets[p] + j0 + NR <=
            // b.len() and kc * MR <= a.len(), validated on entry (debug)
            // and guaranteed by the packing callers.
            unsafe {
                let base = *off_ptr.add(p) + j0;
                let b0 = _mm512_loadu_ps(b_ptr.add(base));
                let b1 = _mm512_loadu_ps(b_ptr.add(base + 16));
                let ap = a_ptr.add(p * MR);
                for (i, v) in accv.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(i));
                    v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                    v[1] = _mm512_fmadd_ps(av, b1, v[1]);
                }
            }
        }
        for (v, row) in accv.iter().zip(acc.iter_mut()) {
            // SAFETY: each row holds NR = 32 consecutive floats.
            unsafe { _mm512_storeu_ps(row.as_mut_ptr(), v[0]) };
            // SAFETY: as above; the second 16 floats end at 32.
            unsafe { _mm512_storeu_ps(row[16..].as_mut_ptr(), v[1]) };
        }
    }

    /// The AVX-512 row-tile kernel: per tile, the first `ROWS` filters of
    /// the panel x 2 rows as `ROWS x 2` zmm accumulators (16 of the 32
    /// vector registers at `ROWS = 8`), summed from zero with the portable
    /// kernel's fma chain, then finished in registers: bias, the ReLU as
    /// `max(v, +0.0)`, and for the pool a vertical max, a max against the
    /// pair-swapped lanes and a compress of the even lanes. Stores are
    /// masked to the tile's live values.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (the dispatcher resolves the tier
    /// against runtime detection); `s` must come from `RowSweep::new` (the
    /// frame covers every tile's reads), `a` must hold `FR` values per
    /// offset, `bias` at most `FR` filters and `out` exactly `bias.len()`
    /// planes (`RowSweep::panel` asserts these).
    #[target_feature(enable = "avx512f")]
    pub(super) fn row_tiles_avx512<const ROWS: usize>(
        s: &RowSweep<'_>,
        a: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let (plane, len) = (s.plane(), out.len());
        let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), s.frame.as_ptr(), out.as_mut_ptr());
        let zero = _mm512_setzero_ps();
        for t in s.tiles() {
            let mut acc = [[zero; 2]; ROWS];
            for (p, &off) in s.offsets.iter().enumerate() {
                // SAFETY: `RowSweep::new` checked off + t.j + gw + FC <=
                // frame.len() for the deepest offset and the last tile;
                // p * FR + ROWS <= a.len() by the panel length assert.
                unsafe {
                    let b0 = _mm512_loadu_ps(b_ptr.add(off + t.j));
                    let b1 = _mm512_loadu_ps(b_ptr.add(off + t.j + s.gw));
                    let ap = a_ptr.add(p * FR);
                    for (i, v) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*ap.add(i));
                        v[0] = _mm512_fmadd_ps(av, b0, v[0]);
                        v[1] = _mm512_fmadd_ps(av, b1, v[1]);
                    }
                }
            }
            let live = ((1u32 << t.cols) - 1) as __mmask16;
            for (r, (v, &b)) in acc.iter().zip(bias).enumerate() {
                let b = _mm512_set1_ps(b);
                let (top, bottom) = (_mm512_add_ps(b, v[0]), _mm512_add_ps(b, v[1]));
                let at = r * plane + t.dst;
                if s.pooled() {
                    let m = _mm512_max_ps(_mm512_max_ps(top, zero), _mm512_max_ps(bottom, zero));
                    let pairs = _mm512_max_ps(m, _mm512_permute_ps::<0xB1>(m));
                    let pooled = _mm512_maskz_compress_ps(0x5555, pairs);
                    checked::span(len, at, t.cols, "conv pooled tile row");
                    // SAFETY: only the `t.cols` enabled lanes are written,
                    // and at + t.cols <= (r + 1) * plane <= out.len().
                    unsafe { _mm512_mask_storeu_ps(out_ptr.add(at), live, pooled) };
                    continue;
                }
                for (y, v) in [top, bottom].into_iter().take(t.rows).enumerate() {
                    let v = match s.epilogue {
                        ConvEpilogue::Bias => v,
                        _ => _mm512_max_ps(v, zero),
                    };
                    checked::span(len, at + y * s.w, t.cols, "conv tile row");
                    // SAFETY: only the `t.cols` enabled lanes are written;
                    // `tiles` stores rows below h and columns below w, so
                    // they stay inside filter r's plane of `out`.
                    unsafe { _mm512_mask_storeu_ps(out_ptr.add(at + y * s.w), live, v) };
                }
            }
        }
    }

    /// The AVX2+FMA row-tile kernel: the same tiles as the AVX-512 one,
    /// each run as two 8-column halves x groups of up to 4 filters, so a
    /// group's `4 x 2` ymm accumulators, two B rows and a broadcast fit
    /// the 16 vector registers. A half with no live value is skipped.
    /// Same per-element fma chain and epilogue operations — bitwise
    /// identical to the other tiers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA; the operands as for
    /// `row_tiles_avx512`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn row_tiles_avx2<const ROWS: usize>(
        s: &RowSweep<'_>,
        a: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let (plane, len) = (s.plane(), out.len());
        let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), s.frame.as_ptr(), out.as_mut_ptr());
        let group = ROWS.min(4);
        let zero = _mm256_setzero_ps();
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        for t in s.tiles() {
            for h0 in [0, FC / 2] {
                // Values of this half that are stored.
                let n = match s.pooled() {
                    true => t.cols.saturating_sub(h0 / 2).min(4),
                    false => t.cols.saturating_sub(h0).min(8),
                };
                if n == 0 {
                    continue;
                }
                let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane);
                for g0 in (0..bias.len()).step_by(group) {
                    let mut acc = [[zero; 2]; 4];
                    for (p, &off) in s.offsets.iter().enumerate() {
                        // SAFETY: as in `row_tiles_avx512`; h0 + 8 <= FC
                        // and g0 + group <= ROWS <= FR.
                        unsafe {
                            let b0 = _mm256_loadu_ps(b_ptr.add(off + t.j + h0));
                            let b1 = _mm256_loadu_ps(b_ptr.add(off + t.j + s.gw + h0));
                            let ap = a_ptr.add(p * FR + g0);
                            for (i, v) in acc.iter_mut().enumerate().take(group) {
                                let av = _mm256_set1_ps(*ap.add(i));
                                v[0] = _mm256_fmadd_ps(av, b0, v[0]);
                                v[1] = _mm256_fmadd_ps(av, b1, v[1]);
                            }
                        }
                    }
                    for (r, (v, &b)) in acc.iter().zip(&bias[g0..]).enumerate() {
                        let b = _mm256_set1_ps(b);
                        let (top, bottom) = (_mm256_add_ps(b, v[0]), _mm256_add_ps(b, v[1]));
                        let at = (g0 + r) * plane + t.dst;
                        if s.pooled() {
                            let m = _mm256_max_ps(
                                _mm256_max_ps(top, zero),
                                _mm256_max_ps(bottom, zero),
                            );
                            let pairs = _mm256_max_ps(m, _mm256_permute_ps::<0xB1>(m));
                            let pooled = _mm256_permutevar8x32_ps(pairs, evens);
                            let at = at + h0 / 2;
                            checked::span(len, at, n, "conv pooled tile row");
                            // SAFETY: only the `n` enabled lanes are
                            // written, inside filter g0 + r's plane.
                            unsafe {
                                _mm_maskstore_ps(
                                    out_ptr.add(at),
                                    _mm256_castsi256_si128(live),
                                    _mm256_castps256_ps128(pooled),
                                )
                            };
                            continue;
                        }
                        for (y, v) in [top, bottom].into_iter().take(t.rows).enumerate() {
                            let v = match s.epilogue {
                                ConvEpilogue::Bias => v,
                                _ => _mm256_max_ps(v, zero),
                            };
                            let at = at + y * s.w + h0;
                            checked::span(len, at, n, "conv tile row");
                            // SAFETY: only the `n` enabled lanes are
                            // written, inside filter g0 + r's plane.
                            unsafe { _mm256_maskstore_ps(out_ptr.add(at), live, v) };
                        }
                    }
                }
            }
        }
    }
}

/// Pack `mc x kc` of A (rows `ic..`, k-range `pc..`) into `MR`-row panels,
/// zero-padding the ragged final panel.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    ta: Trans,
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    for ip in 0..panels {
        let rows = MR.min(mc - ip * MR);
        let base = ip * MR * kc;
        for p in 0..kc {
            let out = &mut dst[base + p * MR..base + p * MR + MR];
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = if r < rows {
                    let row = ic + ip * MR + r;
                    match ta {
                        Trans::N => a[row * k + pc + p],
                        Trans::T => a[(pc + p) * m + row],
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack `kc x nc` of B (k-range `pc..`, cols `jc..`) into `NR`-column
/// panels, zero-padding the ragged final panel.
#[allow(clippy::too_many_arguments, reason = "BLAS-style operands")]
fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    tb: Trans,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    for jp in 0..panels {
        let cols = NR.min(nc - jp * NR);
        let base = jp * NR * kc;
        for p in 0..kc {
            let out = &mut dst[base + p * NR..base + p * NR + NR];
            match tb {
                Trans::N => {
                    let src_base = (pc + p) * n + jc + jp * NR;
                    out[..cols].copy_from_slice(&b[src_base..src_base + cols]);
                    out[cols..].fill(0.0);
                }
                Trans::T => {
                    for (col, slot) in out.iter_mut().enumerate() {
                        *slot = if col < cols {
                            b[(jc + jp * NR + col) * k + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Lower one channel-planar image to the im2col patch matrix for a `kk x kk`
/// "same"-padded, stride-1 convolution.
///
/// `col` is resized to `(c_in * kk * kk) x (h * w)` row-major: row
/// `(i * kk + ky) * kk + kx` holds, for every output pixel `(y, x)` in
/// row-major order, the input value at channel `i`, position
/// `(y + ky - pad, x + kx - pad)`, or zero where that falls outside the
/// image. The weight matrix `[out_c][c_in * kk * kk]` multiplies it directly.
pub fn im2col(input: &[f32], c_in: usize, h: usize, w: usize, kk: usize, col: &mut Vec<f32>) {
    debug_assert_eq!(input.len(), c_in * h * w);
    let pad = kk / 2;
    let hw = h * w;
    col.clear();
    col.resize(c_in * kk * kk * hw, 0.0);
    for i in 0..c_in {
        let plane = &input[i * hw..(i + 1) * hw];
        for ky in 0..kk {
            for kx in 0..kk {
                let row_idx = (i * kk + ky) * kk + kx;
                let row = &mut col[row_idx * hw..(row_idx + 1) * hw];
                // Valid output rows for this ky, clamped so a kernel taller
                // than the image yields an empty (all-padding) range.
                let y_lo = pad.saturating_sub(ky).min(h);
                let y_hi = (h + pad).saturating_sub(ky).min(h).max(y_lo);
                // Left/right zero-column widths for this kx.
                let lz = pad.saturating_sub(kx);
                let rz = (kx + w).saturating_sub(w + pad).min(w);
                row[..y_lo * w].fill(0.0);
                row[y_hi * w..].fill(0.0);
                if y_hi <= y_lo || lz + rz >= w {
                    row[y_lo * w..y_hi * w].fill(0.0);
                    continue;
                }
                // One bulk copy covers every interior column of every valid
                // output row at once (the patch is the image shifted by
                // (ky-pad, kx-pad)); the wrapped-around values this smears
                // into the lz/rz edge columns are zeroed right after.
                let d0 = y_lo * w + lz;
                let d1 = y_hi * w - rz;
                let shift = (ky * w + kx) as isize - (pad * w + pad) as isize;
                let s0 = (d0 as isize + shift) as usize;
                row[d0..d1].copy_from_slice(&plane[s0..s0 + (d1 - d0)]);
                if lz + rz > 0 {
                    for y in y_lo..y_hi {
                        row[y * w..y * w + lz].fill(0.0);
                        row[(y + 1) * w - rz..(y + 1) * w].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`] for gradients: scatter-add a patch-matrix gradient
/// back onto the (channel-planar) input gradient.
pub fn col2im_add(col: &[f32], c_in: usize, h: usize, w: usize, kk: usize, grad_in: &mut [f32]) {
    debug_assert_eq!(grad_in.len(), c_in * h * w);
    let pad = kk / 2;
    let hw = h * w;
    debug_assert_eq!(col.len(), c_in * kk * kk * hw);
    for i in 0..c_in {
        let plane = &mut grad_in[i * hw..(i + 1) * hw];
        for ky in 0..kk {
            for kx in 0..kk {
                let row_idx = (i * kk + ky) * kk + kx;
                let row = &col[row_idx * hw..(row_idx + 1) * hw];
                let y_lo = pad.saturating_sub(ky);
                let y_hi = (h + pad).saturating_sub(ky).min(h);
                let x_lo = pad.saturating_sub(kx);
                let x_hi = (w + pad).saturating_sub(kx).min(w);
                if x_hi <= x_lo {
                    continue;
                }
                for y in y_lo..y_hi {
                    let sy = y + ky - pad;
                    let src = &row[y * w + x_lo..y * w + x_hi];
                    let dst = &mut plane[sy * w + x_lo + kx - pad..sy * w + x_hi + kx - pad];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_mathx::DetRng;

    /// An unpinned GEMM runs the widest of its three tiers the ceiling
    /// admits: a tier dropped from `TIERS` (a silent fallback to a
    /// narrower kernel) fails here on any CPU that has it.
    #[test]
    fn unpinned_gemm_runs_the_widest_tier_under_the_ceiling() {
        assert_eq!(SimdTier::resolve(None, TIERS), SimdTier::ceiling());
    }

    fn reference_gemm(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        ta: Trans,
        b: &[f32],
        tb: Trans,
    ) -> Vec<f32> {
        let at = |i: usize, p: usize| match ta {
            Trans::N => a[i * k + p],
            Trans::T => a[p * m + i],
        };
        let bt = |p: usize, j: usize| match tb {
            Trans::N => b[p * n + j],
            Trans::T => b[j * k + p],
        };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += at(i, p) as f64 * bt(p, j) as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn random_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect()
    }

    fn check_all_variants(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = DetRng::new(seed);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut scratch = GemmScratch::default();
        for (ta, tb) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let expect = reference_gemm(m, n, k, &a, ta, &b, tb);
            let mut c = vec![0.0f32; m * n];
            gemm(&mut scratch, m, n, k, &a, ta, &b, tb, &mut c);
            for (i, (&got, &want)) in c.iter().zip(&expect).enumerate() {
                let tol = 1e-5 * (1.0 + want.abs()) * (k as f32).sqrt();
                assert!(
                    (got - want).abs() <= tol,
                    "({m}x{n}x{k}) {ta:?}{tb:?} idx {i}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_small_shapes() {
        for (m, n, k) in [
            (1, 1, 1),
            (1, 7, 5),
            (3, 2, 9),
            (8, 32, 16),
            (9, 33, 17),
            (5, 100, 3),
        ] {
            check_all_variants(m, n, k, (m * 1000 + n * 10 + k) as u64);
        }
    }

    #[test]
    fn matches_reference_across_block_boundaries() {
        // Exercise the MC/KC/NC edges and ragged final panels.
        for (m, n, k) in [
            (MR + 1, NR + 1, 2),
            (MC + 3, NC / 8 + 5, KC + 9),
            (2 * MC, 40, 2 * KC + 1),
            (17, NC + NR + 3, 31),
        ] {
            check_all_variants(m, n, k, (m + n + k) as u64);
        }
    }

    #[test]
    fn kernel_tiers_are_bitwise_identical() {
        // Every runtime-dispatchable tier executes the same per-element
        // fused chain, so outputs must match to the bit — not just to a
        // tolerance. Shapes cover full tiles, ragged rows, and ragged
        // columns of both the direct and packed paths.
        let mut rng = DetRng::new(0x51D);
        for (m, n, k, ta, tb) in [
            (MR, NR, 8, Trans::N, Trans::N),
            (16, 97, 27, Trans::N, Trans::N),
            (7, NR + 5, 300, Trans::N, Trans::N),
            (13, 41, 19, Trans::T, Trans::N),
            (9, 70, 23, Trans::N, Trans::T),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut want: Option<Vec<f32>> = None;
            for kernel in SimdTier::runnable(TIERS) {
                let mut scratch = GemmScratch::with_kernel(kernel);
                let mut c = vec![0.0f32; m * n];
                gemm(&mut scratch, m, n, k, &a, ta, &b, tb, &mut c);
                match &want {
                    None => want = Some(c),
                    Some(w) => assert_eq!(
                        w,
                        &c,
                        "({m}x{n}x{k}) {ta:?}{tb:?}: kernel {} diverges",
                        kernel.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn forced_unsupported_kernel_degrades_to_detection() {
        // Pinning a tier this CPU lacks must not crash — `resolve` clamps
        // it to detection. (On a machine that has every tier this still
        // exercises the pass-through arm.)
        let mut scratch = GemmScratch::with_kernel(SimdTier::Avx512);
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm(&mut scratch, 2, 2, 2, &a, Trans::N, &b, Trans::N, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bias_fused_matches_fill_then_accumulate() {
        let mut rng = DetRng::new(31);
        for (m, n, k) in [(1, 9, 4), (7, 65, 27), (16, 900, 144), (13, 37, 5)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, m);
            let mut scratch = GemmScratch::default();
            let mut want = vec![0.0f32; m * n];
            for (row, &b0) in want.chunks_exact_mut(n).zip(&bias) {
                row.fill(b0);
            }
            gemm_nn(&mut scratch, m, n, k, &a, &b, &mut want);
            let mut got = vec![f32::NAN; m * n];
            gemm_nn_bias(&mut scratch, m, n, k, &a, &b, &bias, &mut got);
            for (i, (&g, &w0)) in got.iter().zip(&want).enumerate() {
                assert!((g - w0).abs() < 1e-5, "({m}x{n}x{k}) idx {i}: {g} vs {w0}");
            }
        }
    }

    #[test]
    fn accumulates_into_c() {
        let mut scratch = GemmScratch::default();
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [10.0f32];
        gemm_nn(&mut scratch, 1, 1, 2, &a, &b, &mut c);
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut scratch = GemmScratch::default();
        let mut c = [5.0f32];
        gemm_nn(&mut scratch, 1, 1, 0, &[], &[], &mut c);
        assert_eq!(c[0], 5.0);
        gemm_nn(&mut scratch, 0, 0, 4, &[], &[], &mut []);
    }

    #[test]
    fn im2col_matches_definition() {
        // 1 channel, 3x3 image, 3x3 kernel: center row of the patch matrix
        // reproduces the image; corner rows show the zero padding.
        let img: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut col = Vec::new();
        im2col(&img, 1, 3, 3, 3, &mut col);
        let hw = 9;
        // row (ky=1, kx=1) == identity.
        assert_eq!(&col[4 * hw..5 * hw], &img[..]);
        // row (ky=0, kx=0): pixel up-left; first row and column are padding.
        assert_eq!(&col[0..hw], &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
        // row (ky=2, kx=2): pixel down-right; last row/column are padding.
        assert_eq!(
            &col[8 * hw..9 * hw],
            &[5.0, 6.0, 0.0, 8.0, 9.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn conv2d_forward_matches_materialized_im2col() {
        // Bitwise: every output element is the same fma chain over the same
        // patch values as a product against the materialized patch matrix,
        // on every tier.
        let shapes = [
            (1, 5, 5, 3, 4, 1u64),
            (3, 8, 6, 3, 16, 2),
            (2, 7, 33, 5, 7, 3),
            (4, 40, 40, 3, 13, 4),
            (1, 3, 2, 5, 3, 5), // kernel larger than the image
            (2, 6, 6, 1, 5, 6), // 1x1 kernel, no padding at all
            (16, 30, 30, 3, 16, 7),
            (1, 30, 30, 3, 16, 8), // small k, two filter panels
            (3, 20, 40, 3, 11, 9), // small k, ragged rows
            (1, 24, 24, 3, 8, 10), // the serving fixture's first convs
            (3, 32, 32, 3, 8, 11),
            (8, 16, 16, 3, 8, 12),
            (2, 5, 2, 3, 4, 13), // w <= 2*pad
            (1, 4, 3, 7, 5, 14),
            (1, 1, 1, 3, 4, 15), // 1x1 images
            (3, 1, 1, 5, 7, 16),
            (1, 1, 29, 3, 5, 17), // grids of NR - 1 and NR + 1 pixels
            (2, 3, 9, 3, 6, 18),
            (1, 3, 19, 3, 7, 19), // odd rows, a 3-column chunk
            (1, 5, 11, 3, 6, 20),
        ];
        let cases: Vec<_> = shapes
            .into_iter()
            .map(|(c_in, h, w, kk, out_c, seed)| {
                let mut rng = DetRng::new(seed);
                let input = random_vec(&mut rng, c_in * h * w);
                let k_total = c_in * kk * kk;
                let weights = random_vec(&mut rng, out_c * k_total);
                let bias = random_vec(&mut rng, out_c);
                let mut col = Vec::new();
                im2col(&input, c_in, h, w, kk, &mut col);
                let mut want = vec![0.0f32; out_c * h * w];
                gemm_nn_bias(
                    &mut GemmScratch::default(),
                    out_c,
                    h * w,
                    k_total,
                    &weights,
                    &col,
                    &bias,
                    &mut want,
                );
                ((c_in, h, w, kk, out_c), input, weights, bias, want)
            })
            .collect();

        for kernel in SimdTier::runnable(TIERS) {
            // One scratch for every shape, in both orders: a frame left by
            // one shape must never leak into the next.
            let mut scratch = GemmScratch::with_kernel(kernel);
            for (dims, input, weights, bias, want) in cases.iter().chain(cases.iter().rev()) {
                let (c_in, h, w, kk, out_c) = *dims;
                let mut got = vec![f32::NAN; want.len()];
                conv2d_forward(
                    &mut scratch,
                    input,
                    c_in,
                    h,
                    w,
                    kk,
                    weights,
                    bias,
                    out_c,
                    &mut got,
                );
                assert_eq!(
                    &got,
                    want,
                    "kernel {} shape c{c_in} {h}x{w} k{kk} out{out_c}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn alternating_conv_shapes_on_one_scratch_match_fresh_scratches() {
        // A depth-first pass alternates a model's conv shapes image by
        // image on one scratch, each shape keeping its own zero frame. The
        // first two shapes have frames of the same length laid out
        // differently, and the third differs from the first only in its
        // padding, so a frame looked up by anything less than the whole
        // shape would read another shape's pixels as padding.
        let shapes = [
            (2, 6, 9, 3, 5),
            (2, 9, 6, 3, 4),
            (2, 6, 9, 5, 3),
            (3, 32, 32, 3, 8), // the serving fixture's second model
            (8, 16, 16, 3, 8),
        ];
        let mut rng = DetRng::new(0xF7);
        let layers: Vec<_> = shapes
            .iter()
            .map(|&(c_in, _, _, kk, out_c)| {
                let weights = random_vec(&mut rng, out_c * c_in * kk * kk);
                (weights, random_vec(&mut rng, out_c))
            })
            .collect();
        for kernel in SimdTier::runnable(TIERS) {
            let mut shared = GemmScratch::with_kernel(kernel);
            for image in 0..4 {
                for (&(c_in, h, w, kk, out_c), (weights, bias)) in shapes.iter().zip(&layers) {
                    let input = random_vec(&mut rng, c_in * h * w);
                    let run = |scratch: &mut GemmScratch| {
                        let mut out = vec![f32::NAN; out_c * h * w];
                        conv2d_forward(
                            scratch, &input, c_in, h, w, kk, weights, bias, out_c, &mut out,
                        );
                        out
                    };
                    assert_eq!(
                        run(&mut shared),
                        run(&mut GemmScratch::with_kernel(kernel)),
                        "kernel {} image {image} shape c{c_in} {h}x{w} k{kk}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn conv2d_fused_relu_matches_conv_then_relu_bitwise() {
        // NaN and ±inf pixels, and a channel whose interior sums are
        // -0.0 + -0.0 (tiny negative products round to -0.0 under fma):
        // the folded select must match `kernels::relu` bit for bit.
        for (c_in, h, w, out_c) in [(2usize, 9usize, 13usize, 7usize), (8, 6, 7, 5)] {
            let k_total = c_in * 9;
            let mut rng = DetRng::new(0xF0 + c_in as u64);
            let mut weights = random_vec(&mut rng, out_c * k_total);
            weights[..k_total].fill(1e-30);
            let mut bias = random_vec(&mut rng, out_c);
            bias[0] = -0.0;
            let random = random_vec(&mut rng, c_in * h * w);
            for mut input in [random, vec![-1e-30f32; c_in * h * w]] {
                input[2 * w + 3] = f32::NAN;
                input[h * w + 5 * w + 5] = f32::INFINITY;
                input[(h - 2) * w + 1] = f32::NEG_INFINITY;
                let filter = PackedA::new(&weights, out_c, k_total);
                let mut plain = vec![0.0f32; out_c * h * w];
                conv2d_forward(
                    &mut GemmScratch::default(),
                    &input,
                    c_in,
                    h,
                    w,
                    3,
                    &weights,
                    &bias,
                    out_c,
                    &mut plain,
                );
                let mut want = vec![f32::NAN; plain.len()];
                crate::kernels::relu(&plain, &mut want);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for kernel in SimdTier::runnable(TIERS) {
                    let mut got = vec![f32::NAN; plain.len()];
                    conv2d_forward_packed(
                        &mut GemmScratch::with_kernel(kernel),
                        &input,
                        c_in,
                        h,
                        w,
                        3,
                        &filter,
                        &bias,
                        ConvEpilogue::Relu,
                        &mut got,
                    );
                    assert_eq!(bits(&got), bits(&want), "kernel {} c{c_in}", kernel.name());
                }
                if input[0] == -1e-30 {
                    assert!(
                        plain[..h * w]
                            .iter()
                            .any(|v| v.to_bits() == (-0.0f32).to_bits()),
                        "the -0.0 case was not exercised"
                    );
                }
            }
        }
    }

    #[test]
    fn prepacked_b_matches_gemm_nt_bitwise() {
        // Panels packed once must reproduce the per-call packing exactly:
        // ragged NR panels, ragged KC blocks and an NC block edge.
        let mut rng = DetRng::new(0xB0);
        for (m, n, k) in [
            (5, 70, 300),
            (1, 33, 513),
            (13, 1, 259),
            (64, 257, 1155),
            (7, NC + 45, 260),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, n * k); // stored n x k
            let packed = PackedB::new(&b, Trans::T, k, n);
            for kernel in SimdTier::runnable(TIERS) {
                let mut scratch = GemmScratch::with_kernel(kernel);
                let mut want = vec![0.5f32; m * n];
                gemm_nt(&mut scratch, m, n, k, &a, &b, &mut want);
                let mut got = vec![0.5f32; m * n];
                gemm_prepacked(&mut scratch, m, &a, &packed, &mut got);
                assert_eq!(got, want, "({m}x{n}x{k}) kernel {}", kernel.name());
            }
        }
    }

    /// The blocked path's per-element arithmetic, written out: for each
    /// `KC` block of the shared dimension, one FMA chain from zero in `k`
    /// order, added to `C` block by block. Every tile of every tier runs
    /// exactly this, whatever order the tiles themselves run in.
    fn fma_chain_model(m: usize, n: usize, k: usize, a: &[f32], b_nk: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                for pc in (0..k).step_by(KC) {
                    let mut acc = 0.0f32;
                    for p in pc..k.min(pc + KC) {
                        acc = a[i * k + p].mul_add(b_nk[j * k + p], acc);
                    }
                    c[i * n + j] += acc;
                }
            }
        }
    }

    #[test]
    fn prepacked_head_shapes_match_gemm_nt_and_the_fma_chain_bitwise() {
        // The served `Dense` heads (m0: 1152 -> 256 -> 1, m1: 512 -> 320
        // -> 1) at morsel-sized and ragged row counts: across an `MC`
        // block edge (63..65, 130) and single-panel calls.
        let mut rng = DetRng::new(0x4EAD);
        for (k, n) in [(1152, 256), (256, 1), (512, 320), (320, 1)] {
            let b = random_vec(&mut rng, n * k); // stored n x k, as Dense keeps W
            let packed = PackedB::new(&b, Trans::T, k, n);
            for m in [1, 7, 63, 64, 65, 130] {
                let a = random_vec(&mut rng, m * k);
                let mut model = vec![0.25f32; m * n];
                fma_chain_model(m, n, k, &a, &b, &mut model);
                for kernel in SimdTier::runnable(TIERS) {
                    let mut scratch = GemmScratch::with_kernel(kernel);
                    let mut want = vec![0.25f32; m * n];
                    gemm_nt(&mut scratch, m, n, k, &a, &b, &mut want);
                    let mut got = vec![0.25f32; m * n];
                    gemm_prepacked(&mut scratch, m, &a, &packed, &mut got);
                    let tag = format!("{m}x{k} -> {n}, kernel {}", kernel.name());
                    assert!(
                        got.iter()
                            .map(|v| v.to_bits())
                            .eq(want.iter().map(|v| v.to_bits())),
                        "prepacked != gemm_nt at {tag}"
                    );
                    assert!(
                        got.iter()
                            .map(|v| v.to_bits())
                            .eq(model.iter().map(|v| v.to_bits())),
                        "prepacked != FMA-chain model at {tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_add_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im_add(y)> — the defining property of
        // the adjoint scatter used by the conv backward pass.
        let (c_in, h, w, kk) = (2, 4, 5, 3);
        let mut rng = DetRng::new(9);
        let x = random_vec(&mut rng, c_in * h * w);
        let y = random_vec(&mut rng, c_in * kk * kk * h * w);
        let mut col = Vec::new();
        im2col(&x, c_in, h, w, kk, &mut col);
        let forward: f64 = col.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let mut back = vec![0.0f32; c_in * h * w];
        col2im_add(&y, c_in, h, w, kk, &mut back);
        let adjoint: f64 = x
            .iter()
            .zip(&back)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (forward - adjoint).abs() < 1e-3 * forward.abs().max(1.0),
            "forward {forward} adjoint {adjoint}"
        );
    }
}
