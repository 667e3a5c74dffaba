//! The non-GEMM layer sweeps: the ReLU inference sweep and the 2x2
//! max-pool inference sweep. `Dense` runs the GEMM at every batch size
//! (`gemm::gemm_prepacked`), so no dense kernel lives here.
//!
//! A SIMD tier exists here only where it beats the next-narrower one on
//! measured hardware (DESIGN.md, "Deletion ledger"): **max-pool** carries
//! an explicit AVX2 kernel ([`POOL_TIERS`]); its AVX-512 kernel lost to it
//! and is gone. **ReLU** is the portable loop alone — the compiler's
//! baseline vectorization of a compare-and-select ties the explicit AVX2
//! kernel and beats the AVX-512 one, so there is nothing to dispatch. Every
//! tier executes the **same IEEE operations in the same order**, so each
//! is bitwise identical to the portable reference (property-tested in
//! `tests/proptests.rs`); an unpinned request resolves through
//! [`SimdTier::resolve`].
//!
//! Bitwise-identity recipes:
//!
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
//! policy; debug builds assert every vector span here at runtime
//! (`tahoma_mathx::checked`).

use tahoma_mathx::checked;
use tahoma_mathx::SimdTier;

/// The tiers [`maxpool2_plane`] implements (AVX2 beats AVX-512 at every
/// serving plane width but 32).
pub const POOL_TIERS: &[SimdTier] = &[SimdTier::Portable, SimdTier::Avx2];

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
    // Debug builds restate the two-row window reads of the deepest output
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
    use core::arch::x86_64::*;

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

    /// One plane's 2x2 max-pool (`super::maxpool2_plane`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the dispatcher resolves the tier against
    /// runtime detection), `plane` holds at least `h * w` floats, and `out`
    /// holds `(h / 2) * (w / 2)`.
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

    /// An unpinned max-pool runs AVX2 wherever the ceiling admits it: a
    /// tier dropped from `POOL_TIERS` (a silent fallback to the portable
    /// loop) fails here on any CPU that has AVX2.
    #[test]
    fn unpinned_pool_runs_the_widest_tier_under_the_ceiling() {
        assert_eq!(
            SimdTier::resolve(None, POOL_TIERS),
            SimdTier::ceiling().min(SimdTier::Avx2)
        );
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
        // Max-pool has no AVX-512 kernel: the pin must run the AVX2 one (or
        // portable where AVX2 is absent) — same bits, no illegal
        // instruction, and never a tier wider than the pin.
        assert!(!POOL_TIERS.contains(&SimdTier::Avx512));
        let widest = *SimdTier::runnable(POOL_TIERS).last().expect("portable");
        assert_eq!(
            SimdTier::resolve(Some(SimdTier::Avx512), POOL_TIERS),
            widest
        );
        let mut rng = DetRng::new(0xA3);
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
