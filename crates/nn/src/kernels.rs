//! The non-GEMM layer sweeps: batch-1 dense matrix–vector products, the
//! ReLU inference sweep, and the 2x2 max-pool inference sweep.
//!
//! A SIMD tier exists here only where it beats the next-narrower one on
//! measured hardware (DESIGN.md, "Deletion ledger"): **matvec** and
//! **max-pool** carry an explicit AVX2 kernel ([`MATVEC_TIERS`],
//! [`POOL_TIERS`]); their AVX-512 kernels lost to it and are gone. **ReLU**
//! is the portable loop alone — the compiler's baseline vectorization of a
//! compare-and-select ties the explicit AVX2 kernel and beats the AVX-512
//! one, so there is nothing to dispatch. Every tier executes the **same
//! IEEE operations in the same order**, so each is bitwise identical to the
//! portable reference (property-tested in `tests/proptests.rs`); an
//! unpinned request resolves through [`SimdTier::resolve`].
//!
//! Bitwise-identity recipes:
//!
//! * **matvec** accumulates into [`MV_LANES`] = 16 f32 lanes (element `i`
//!   of the dot product lands in lane `i % 16`) with one fused
//!   multiply-add chain per lane, finished by a fixed pairwise fold tree —
//!   two ymm on AVX2, a plain `f32::mul_add` array in the portable tier;
//! * **relu** is the strict select `if x > 0.0 { x } else { 0.0 }` (the
//!   exact semantics of the training path's mask) — NaN and `-0.0` inputs
//!   map to `+0.0`;
//! * **max-pool** replays the scalar reference's strict-`>` running max
//!   over the four window values in the same order (top-left, top-right,
//!   bottom-left, bottom-right, starting from `-inf`), as a
//!   compare-and-blend chain over deinterleaved even/odd vectors.
//!
//! This is one of the four files sanctioned to contain raw-pointer
//! arithmetic; see `SAFETY.md` at the repository root for the unsafe
//! policy and the `checked-kernels` feature that asserts every vector
//! span here at runtime.

use tahoma_mathx::checked;
use tahoma_mathx::SimdTier;

/// The tiers [`matvec`] implements (AVX2 beats AVX-512 by ~10% at the
/// post-pool dense shape, so no AVX-512 kernel exists).
pub const MATVEC_TIERS: &[SimdTier] = &[SimdTier::Portable, SimdTier::Avx2];
/// The tiers [`maxpool2_plane`] implements (AVX2 beats AVX-512 at every
/// serving plane width but 32).
pub const POOL_TIERS: &[SimdTier] = &[SimdTier::Portable, SimdTier::Avx2];

/// f32 accumulator lanes in the matvec reduction: element `i` of a dot
/// product accumulates into lane `i % MV_LANES`, in every tier.
pub const MV_LANES: usize = 16;

/// Fixed pairwise fold over the 16 matvec lanes — identical in every tier,
/// so the final scalar is too.
#[inline]
fn fold_lanes(l: &[f32; MV_LANES]) -> f32 {
    let a = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    let b = ((l[8] + l[9]) + (l[10] + l[11])) + ((l[12] + l[13]) + (l[14] + l[15]));
    a + b
}

/// Scalar tail: fold elements `main..n` into the lane accumulators with
/// the same per-lane fused chain the vector body uses.
#[inline]
fn matvec_tail(row: &[f32], x: &[f32], main: usize, lanes: &mut [f32; MV_LANES]) {
    for t in main..x.len() {
        lanes[t % MV_LANES] = row[t].mul_add(x[t], lanes[t % MV_LANES]);
    }
}

/// `out[o] = bias[o] + W[o] · x` for a `[n_out][n_in]` row-major weight
/// matrix — the batch-1 `Dense` forward. `kernel` pins a tier of
/// [`MATVEC_TIERS`] (`None`: the widest the ceiling allows); all tiers
/// agree bitwise.
pub fn matvec(kernel: Option<SimdTier>, weights: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let (n_out, n_in) = (out.len(), x.len());
    assert_eq!(weights.len(), n_out * n_in, "weight matrix shape");
    assert_eq!(bias.len(), n_out, "bias length");
    // Audit mode restates the bounds every vector load below relies on
    // (each row slice plus the shared x vector) as hard assertions.
    if checked::active() {
        checked::aligned(weights.as_ptr(), "matvec weights");
        for o in 0..n_out {
            checked::span(weights.len(), o * n_in, n_in, "matvec weight row");
        }
    }
    match SimdTier::resolve(kernel, MATVEC_TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` never exceeds the detected tier, so avx2 and
        // fma were runtime-detected.
        SimdTier::Avx2 => unsafe { x86::matvec_avx2(weights, bias, x, out) },
        _ => {
            for (o, dst) in out.iter_mut().enumerate() {
                let row = &weights[o * n_in..(o + 1) * n_in];
                let mut lanes = [0.0f32; MV_LANES];
                let main = n_in - n_in % MV_LANES;
                for p in (0..main).step_by(MV_LANES) {
                    for j in 0..MV_LANES {
                        lanes[j] = row[p + j].mul_add(x[p + j], lanes[j]);
                    }
                }
                matvec_tail(row, x, main, &mut lanes);
                *dst = bias[o] + fold_lanes(&lanes);
            }
        }
    }
}

/// `dst[i] = if src[i] > 0.0 { src[i] } else { 0.0 }` — the ReLU inference
/// sweep (NaN and `-0.0` both map to `+0.0`). One portable loop: no
/// explicit tier beats what the compiler makes of it.
pub fn relu(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "relu buffer length");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = if v > 0.0 { v } else { 0.0 };
    }
}

/// One channel plane of 2x2/stride-2 max pooling (floor semantics): writes
/// `(h/2) x (w/2)` outputs. Exactly the scalar reference's strict-`>`
/// running max starting from `-inf`, so NaN window values never win and
/// ties keep the earliest element. `kernel` pins a tier of [`POOL_TIERS`]
/// (`None`: the widest the ceiling allows); all tiers agree bitwise.
pub fn maxpool2_plane(
    kernel: Option<SimdTier>,
    plane: &[f32],
    h: usize,
    w: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (h / 2, w / 2);
    assert!(plane.len() >= h * w, "input plane length");
    assert_eq!(out.len(), oh * ow, "output plane length");
    // Audit mode restates the two-row window reads of the deepest output
    // row — every shallower row reads strictly inside this span.
    if oh > 0 {
        checked::span(plane.len(), (2 * oh - 1) * w, 2 * ow, "maxpool bottom row");
    }
    // One dispatch per plane, with the row loop inside the
    // `#[target_feature]` kernel — per-row dispatch would rebuild the
    // shuffle constants and pay an uninlinable call 15 times per 30x30
    // plane, which costs more than the vectorization saves.
    match SimdTier::resolve(kernel, POOL_TIERS) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` never exceeds the detected tier, so avx2 was
        // runtime-detected; plane holds h*w samples (asserted above) and
        // every row read stays inside 2*ow <= w columns of rows 2*oy and
        // 2*oy+1 < h.
        SimdTier::Avx2 => unsafe { x86::pool_plane_avx2(plane, h, w, out) },
        _ => {
            for oy in 0..oh {
                pool_row_portable(
                    &plane[(2 * oy) * w..],
                    &plane[(2 * oy + 1) * w..],
                    &mut out[oy * ow..(oy + 1) * ow],
                );
            }
        }
    }
}

/// Portable max-pool row: the bitwise reference every vector tier matches.
#[inline]
fn pool_row_portable(r0: &[f32], r1: &[f32], dst: &mut [f32]) {
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

/// Explicit `std::arch` kernels. Each carries the `#[target_feature]` set
/// its caller must have runtime-detected (that is the entire unsafety of
/// calling them); inside, the only unsafe operations are raw-pointer
/// vector loads and stores bounded by the length checks in the safe
/// dispatchers above. Main loops cover `len - len % LANES` elements; tails
/// run the identical scalar expression.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fold_lanes, matvec_tail, MV_LANES};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn matvec_avx2(weights: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
        let n_in = x.len();
        let main = n_in - n_in % MV_LANES;
        for (o, dst) in out.iter_mut().enumerate() {
            let row = &weights[o * n_in..(o + 1) * n_in];
            // Lanes 0..8 and 8..16 in two ymm — the same per-lane fused
            // chain as the portable 16-lane array.
            let mut lo = _mm256_setzero_ps();
            let mut hi = _mm256_setzero_ps();
            let mut p = 0;
            while p < main {
                // SAFETY: p + 16 <= main <= n_in == row.len() == x.len().
                unsafe {
                    let w0 = _mm256_loadu_ps(row.as_ptr().add(p));
                    let x0 = _mm256_loadu_ps(x.as_ptr().add(p));
                    lo = _mm256_fmadd_ps(w0, x0, lo);
                    let w1 = _mm256_loadu_ps(row.as_ptr().add(p + 8));
                    let x1 = _mm256_loadu_ps(x.as_ptr().add(p + 8));
                    hi = _mm256_fmadd_ps(w1, x1, hi);
                }
                p += MV_LANES;
            }
            let mut lanes = [0.0f32; MV_LANES];
            // SAFETY: the two halves of `lanes` are 8 f32 each.
            unsafe {
                _mm256_storeu_ps(lanes.as_mut_ptr(), lo);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), hi);
            }
            matvec_tail(row, x, main, &mut lanes);
            *dst = bias[o] + fold_lanes(&lanes);
        }
    }

    /// Scalar tail of the vector pool kernel (identical to the portable
    /// reference's per-window chain).
    #[inline(always)]
    fn pool_tail(r0: &[f32], r1: &[f32], dst: &mut [f32], main: usize) {
        for (j, d) in dst[main..].iter_mut().enumerate() {
            let ox = main + j;
            let mut best = f32::NEG_INFINITY;
            for v in [r0[2 * ox], r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]] {
                if v > best {
                    best = v;
                }
            }
            *d = best;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn pool_plane_avx2(plane: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let (oh, ow) = (h / 2, w / 2);
        let main = ow - ow % 8;
        // shuffle_ps picks evens/odds within each 128-bit half; this
        // permutation restores sequential order across halves.
        let fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
        for oy in 0..oh {
            let r0 = &plane[(2 * oy) * w..(2 * oy) * w + w];
            let r1 = &plane[(2 * oy + 1) * w..(2 * oy + 1) * w + w];
            let dst = &mut out[oy * ow..(oy + 1) * ow];
            let mut ox = 0;
            while ox < main {
                // SAFETY: 2*ox + 16 <= 2*main <= 2*ow <= w == r0.len() ==
                // r1.len(); dst holds ow.
                unsafe {
                    let ta = _mm256_loadu_ps(r0.as_ptr().add(2 * ox));
                    let tb = _mm256_loadu_ps(r0.as_ptr().add(2 * ox + 8));
                    let ba = _mm256_loadu_ps(r1.as_ptr().add(2 * ox));
                    let bb = _mm256_loadu_ps(r1.as_ptr().add(2 * ox + 8));
                    let deint = |a: __m256, b: __m256, sel: i32| -> __m256 {
                        let v = match sel {
                            0 => _mm256_shuffle_ps::<0x88>(a, b),
                            _ => _mm256_shuffle_ps::<0xDD>(a, b),
                        };
                        _mm256_permutevar8x32_ps(v, fix)
                    };
                    let candidates = [
                        deint(ta, tb, 0),
                        deint(ta, tb, 1),
                        deint(ba, bb, 0),
                        deint(ba, bb, 1),
                    ];
                    let mut best = ninf;
                    for v in candidates {
                        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                        best = _mm256_blendv_ps(best, v, gt);
                    }
                    _mm256_storeu_ps(dst.as_mut_ptr().add(ox), best);
                }
                ox += 8;
            }
            pool_tail(r0, r1, dst, main);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_mathx::DetRng;

    fn rand_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matvec_matches_f64_reference_and_tiers_agree() {
        let mut rng = DetRng::new(0xA1);
        // Ragged lengths around the 16-lane body, plus the serving shape.
        for (n_out, n_in) in [(1, 1), (3, 17), (8, 16), (5, 100), (16, 451), (16, 3600)] {
            let w = rand_vec(&mut rng, n_out * n_in);
            let bias = rand_vec(&mut rng, n_out);
            let x = rand_vec(&mut rng, n_in);
            let mut want = vec![0.0f32; n_out];
            for o in 0..n_out {
                let mut acc = bias[o] as f64;
                for i in 0..n_in {
                    acc += w[o * n_in + i] as f64 * x[i] as f64;
                }
                want[o] = acc as f32;
            }
            let mut base: Option<Vec<f32>> = None;
            for tier in SimdTier::runnable(MATVEC_TIERS) {
                let mut out = vec![f32::NAN; n_out];
                matvec(Some(tier), &w, &bias, &x, &mut out);
                for (o, (&g, &e)) in out.iter().zip(&want).enumerate() {
                    let tol = 1e-5 * (1.0 + e.abs()) * (n_in as f32).sqrt();
                    assert!((g - e).abs() <= tol, "{n_out}x{n_in} out {o}: {g} vs {e}");
                }
                match &base {
                    None => base = Some(out),
                    Some(b) => assert_eq!(b, &out, "tier {} diverges", tier.name()),
                }
            }
        }
    }

    #[test]
    fn relu_tiers_agree_and_handle_specials() {
        // One tier left, so "agree" is agreement with the defining select.
        let mut src: Vec<f32> = (-40..40).map(|i| i as f32 / 7.0).collect();
        src.extend([f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY]);
        let mut dst = vec![f32::NAN; src.len()];
        relu(&src, &mut dst);
        for (&s, &d) in src.iter().zip(&dst) {
            let want = if s > 0.0 { s } else { 0.0 };
            assert_eq!(d.to_bits(), want.to_bits(), "relu({s})");
        }
    }

    #[test]
    fn maxpool_tiers_match_scalar_reference_bitwise() {
        let mut rng = DetRng::new(0xA2);
        // Ragged widths around the 8-lane body, plus the serving planes
        // (24- and 32-wide first pools, 16-wide second pool).
        for (h, w) in [
            (2, 2),
            (4, 6),
            (5, 7),
            (30, 30),
            (17, 66),
            (2, 40),
            (24, 24),
            (32, 32),
            (16, 16),
        ] {
            let mut plane = rand_vec(&mut rng, h * w);
            if plane.len() > 4 {
                plane[1] = f32::NAN;
                plane[3] = f32::NEG_INFINITY;
            }
            let (oh, ow) = (h / 2, w / 2);
            let mut want = vec![0.0f32; oh * ow];
            pool_row_reference(&plane, h, w, &mut want);
            for tier in SimdTier::runnable(POOL_TIERS) {
                let mut got = vec![f32::NAN; oh * ow];
                maxpool2_plane(Some(tier), &plane, h, w, &mut got);
                assert_eq!(
                    bits(&want),
                    bits(&got),
                    "{h}x{w} tier {} diverges",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn pinning_a_tier_an_op_lacks_clamps_down() {
        // Neither op has an AVX-512 kernel: the pin must run the AVX2 one
        // (or portable where AVX2 is absent) — same bits, no illegal
        // instruction, and never a tier wider than the pin.
        for tiers in [MATVEC_TIERS, POOL_TIERS] {
            assert!(!tiers.contains(&SimdTier::Avx512));
            let widest = *SimdTier::runnable(tiers).last().expect("portable");
            assert_eq!(SimdTier::resolve(Some(SimdTier::Avx512), tiers), widest);
        }
        let mut rng = DetRng::new(0xA3);
        let (w, bias, x) = (
            rand_vec(&mut rng, 4 * 50),
            rand_vec(&mut rng, 4),
            rand_vec(&mut rng, 50),
        );
        let (mut pinned, mut portable) = ([0.0f32; 4], [0.0f32; 4]);
        matvec(Some(SimdTier::Avx512), &w, &bias, &x, &mut pinned);
        matvec(Some(SimdTier::Portable), &w, &bias, &x, &mut portable);
        assert_eq!(bits(&pinned), bits(&portable));
        let plane = rand_vec(&mut rng, 6 * 34);
        let (mut pinned, mut portable) = ([0.0f32; 3 * 17], [0.0f32; 3 * 17]);
        maxpool2_plane(Some(SimdTier::Avx512), &plane, 6, 34, &mut pinned);
        maxpool2_plane(Some(SimdTier::Portable), &plane, 6, 34, &mut portable);
        assert_eq!(bits(&pinned), bits(&portable));
    }

    /// Free-standing scalar pool over a plane (mirrors `MaxPool2::pool_one`).
    fn pool_row_reference(plane: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let (oh, ow) = (h / 2, w / 2);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let v = plane[(2 * oy + dy) * w + 2 * ox + dx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[oy * ow + ox] = best;
            }
        }
    }
}
