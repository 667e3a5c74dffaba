//! Property-based tests on the core invariants (proptest).

use proptest::prelude::*;
use tahoma::core::alc;
use tahoma::core::order::nan_last;
use tahoma::core::pareto::{is_pareto_optimal, pareto_frontier};
use tahoma::core::planner::{order_predicates, PlannedPredicate};
use tahoma::core::thresholds::{calibrate, negative_precision, positive_precision};
use tahoma::core::Cascade;
use tahoma::imagery::engine::{self, TranscodeEngine, TranscodePlan};
use tahoma::imagery::repr::apply_reference;
use tahoma::imagery::{transform, ColorMode, Image, ObjectKind, RawCodec, Representation};
use tahoma::mathx::SimdTier;
use tahoma::nn::gemm::{self, GemmScratch, Trans};
use tahoma::nn::{kernels, Conv2d, InferScratch, Layer, MaxPool2, Shape};

/// Fresh scratch directory for store property tests (unique per case so
/// shrinking never observes a previous case's files).
fn proptest_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tahoma-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Decode a selector pair into a float that may be perfectly ordinary or
/// one of the degenerate values the planner must survive: ±∞, NaN, zero.
fn degenerate_f64(selector: u32, raw: f64) -> f64 {
    match selector % 6 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => raw,
    }
}

/// The observable ordering key of a planned predicate (bit-exact so NaNs
/// compare equal to themselves across permutations).
fn planner_key(p: &PlannedPredicate) -> (u64, u64, ObjectKind) {
    (p.expected_cost_s.to_bits(), p.selectivity.to_bits(), p.kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kernel tier and thread count of the GEMM-path convolution
    /// forward agrees with the legacy scalar loop across random shapes,
    /// kernel sizes and weights (the GEMM paths sum in a different order
    /// than the scalar loop, so that comparison holds to a k-scaled float
    /// tolerance; the tiers are additionally bitwise identical to *each
    /// other*). Heights and widths from 1 to 13 cover one- and two-row
    /// tiles and ragged column chunks of the row sweep.
    #[test]
    fn conv_gemm_forward_matches_scalar_loop(
        c_in in 1usize..5, out_c in 1usize..9,
        h in 1usize..14, w in 1usize..14,
        half_k in 0usize..3, seed in 0u64..10_000
    ) {
        let shape = Shape::new(c_in, h, w);
        let kk = 2 * half_k + 1;
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let mut conv = Conv2d::new(shape, out_c, kk, &mut rng);
        let input: Vec<f32> = (0..shape.len())
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let scalar = conv.forward_scalar(&input);
        let (weights, bias) = conv.weights_bias();
        let (weights, bias) = (weights.to_vec(), bias.to_vec());
        let k_total = (c_in * kk * kk) as f32;
        let mut baseline: Option<Vec<f32>> = None;
        for kernel in SimdTier::runnable(gemm::TIERS) {
            let mut scratch = GemmScratch::with_kernel(kernel);
            let mut got = vec![f32::NAN; out_c * h * w];
            gemm::conv2d_forward(
                &mut scratch, &input, c_in, h, w, kk, &weights, &bias, out_c, &mut got,
            );
            prop_assert_eq!(scalar.len(), got.len());
            for (i, (&a, &b)) in scalar.iter().zip(&got).enumerate() {
                let tol = 1e-5 * (1.0 + a.abs()) * k_total.sqrt().max(1.0);
                prop_assert!(
                    (a - b).abs() <= tol,
                    "shape {}x{}x{} k{} out{} kernel {} idx {}: scalar {} gemm {}",
                    c_in, h, w, kk, out_c, kernel.name(), i, a, b
                );
            }
            match &baseline {
                None => baseline = Some(got),
                Some(base) => prop_assert_eq!(
                    base, &got, "conv kernel {} diverges bitwise", kernel.name()
                ),
            }
        }
    }

    /// `forward_batch` agrees with per-image `forward` for every image slot
    /// and batch size, including batch=1 (the wrapper the per-image API is
    /// built on).
    #[test]
    fn conv_forward_batch_matches_per_image(
        c_in in 1usize..4, out_c in 1usize..8,
        h in 2usize..11, w in 2usize..11,
        batch in 1usize..6, seed in 0u64..10_000
    ) {
        let shape = Shape::new(c_in, h, w);
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let mut conv = Conv2d::new(shape, out_c, 3, &mut rng);
        let input: Vec<f32> = (0..batch * shape.len())
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let mut batched = Vec::new();
        conv.forward_batch(&input, batch, &mut batched);
        let out_len = conv.output_shape().len();
        prop_assert_eq!(batched.len(), batch * out_len);
        for b in 0..batch {
            let single = conv.forward(&input[b * shape.len()..(b + 1) * shape.len()]);
            for (i, (&x, &y)) in single
                .iter()
                .zip(&batched[b * out_len..(b + 1) * out_len])
                .enumerate()
            {
                prop_assert!(
                    (x - y).abs() <= 1e-5 * (1.0 + x.abs()),
                    "image {} idx {}: single {} batched {}", b, i, x, y
                );
            }
        }
    }

    /// `order_predicates` never panics on degenerate statistics (NaN, ±∞,
    /// zero), yields an order that is total (ranks non-decreasing under the
    /// NaN-last ordering, with documented tie-breaks), and is invariant to
    /// the input permutation.
    #[test]
    fn order_predicates_is_total_and_permutation_invariant(
        specs in prop::collection::vec(
            ((0u32..6, 0.0f64..0.1), (0u32..6, 0.0f64..1.0)), 0..24),
        rotate in 0usize..24
    ) {
        let preds: Vec<PlannedPredicate> = specs
            .iter()
            .enumerate()
            .map(|(i, &((cs, craw), (ss, sraw)))| PlannedPredicate {
                kind: ObjectKind::ALL[i % ObjectKind::ALL.len()],
                cascade: Cascade::single(0),
                expected_cost_s: degenerate_f64(cs, craw),
                selectivity: degenerate_f64(ss, sraw),
            })
            .collect();
        let ordered = order_predicates(preds.clone());
        prop_assert_eq!(ordered.len(), preds.len());

        // Ranks come out non-decreasing under the NaN-last total order,
        // and rank ties are cost-ordered (NaN cost last).
        for w in ordered.windows(2) {
            let rank_cmp = nan_last(w[0].rank(), w[1].rank());
            prop_assert!(rank_cmp != std::cmp::Ordering::Greater,
                "ranks out of order: {} then {}", w[0].rank(), w[1].rank());
            if rank_cmp == std::cmp::Ordering::Equal {
                prop_assert!(
                    nan_last(w[0].expected_cost_s, w[1].expected_cost_s)
                        != std::cmp::Ordering::Greater,
                    "rank tie but costs out of order: {} then {}",
                    w[0].expected_cost_s, w[1].expected_cost_s
                );
            }
        }

        // Multiset preserved: same keys in, same keys out.
        let mut in_keys: Vec<_> = preds.iter().map(planner_key).collect();
        let mut out_keys: Vec<_> = ordered.iter().map(planner_key).collect();
        in_keys.sort();
        out_keys.sort();
        prop_assert_eq!(in_keys, out_keys);

        // Permutation invariance: a rotated input produces the same order.
        let mut rotated = preds.clone();
        let len = rotated.len();
        if len > 0 {
            rotated.rotate_left(rotate % len);
        }
        let reordered = order_predicates(rotated);
        let a: Vec<_> = ordered.iter().map(planner_key).collect();
        let b: Vec<_> = reordered.iter().map(planner_key).collect();
        prop_assert_eq!(a, b);
    }

    /// Every runtime-dispatchable GEMM tier is bitwise identical to the
    /// portable kernel (all tiers run the same per-element fused chain) and
    /// epsilon-close to an f64 reference.
    #[test]
    fn gemm_kernels_and_threads_agree(
        m in 1usize..20, n in 1usize..80, k in 1usize..40,
        seed in 0u64..10_000, trans_sel in 0u32..4
    ) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect();
        let (ta, tb) = [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ][trans_sel as usize];

        // f64 reference.
        let at = |i: usize, p: usize| match ta { Trans::N => a[i * k + p], Trans::T => a[p * m + i] };
        let bt = |p: usize, j: usize| match tb { Trans::N => b[p * n + j], Trans::T => b[j * k + p] };
        let mut reference = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += at(i, p) as f64 * bt(p, j) as f64;
                }
                reference[i * n + j] = acc as f32;
            }
        }

        let mut baseline: Option<Vec<f32>> = None;
        for kernel in SimdTier::runnable(gemm::TIERS) {
            let mut scratch = GemmScratch::with_kernel(kernel);
            let mut c = vec![0.0f32; m * n];
            gemm::gemm(&mut scratch, m, n, k, &a, ta, &b, tb, &mut c);
            for (i, (&got, &want)) in c.iter().zip(&reference).enumerate() {
                let tol = 1e-5 * (1.0 + want.abs()) * (k as f32).sqrt();
                prop_assert!(
                    (got - want).abs() <= tol,
                    "({},{},{}) {:?}{:?} kernel {} idx {}: {} vs {}",
                    m, n, k, ta, tb, kernel.name(), i, got, want
                );
            }
            match &baseline {
                None => baseline = Some(c),
                Some(base) => prop_assert_eq!(
                    base, &c, "kernel {} not bitwise identical", kernel.name()
                ),
            }
        }
    }

    /// The frontier is Pareto-optimal and every non-member is dominated.
    #[test]
    fn pareto_frontier_is_sound_and_complete(
        points in prop::collection::vec((0.0f32..1.0, 1.0f64..1e5), 1..300)
    ) {
        let acc: Vec<f32> = points.iter().map(|(a, _)| *a).collect();
        let thr: Vec<f64> = points.iter().map(|(_, t)| *t).collect();
        let frontier = pareto_frontier(&acc, &thr);
        prop_assert!(!frontier.is_empty());
        prop_assert!(is_pareto_optimal(&frontier, &acc, &thr));
        let members: std::collections::HashSet<usize> =
            frontier.iter().map(|p| p.idx).collect();
        for i in 0..acc.len() {
            if !members.contains(&i) {
                let dominated = frontier.iter().any(|p| {
                    p.accuracy >= acc[i] as f64 && p.throughput >= thr[i]
                });
                prop_assert!(dominated, "point {} not dominated", i);
            }
        }
    }

    /// ALC is monotone in the point set: adding points never shrinks it.
    #[test]
    fn alc_monotone_under_point_addition(
        base in prop::collection::vec((0.5f64..1.0, 1.0f64..1e4), 1..50),
        extra in prop::collection::vec((0.5f64..1.0, 1.0f64..1e4), 1..20)
    ) {
        let lo = 0.5;
        let hi = 1.0;
        let a1 = alc::alc(&base, lo, hi);
        let mut all = base.clone();
        all.extend(extra);
        let a2 = alc::alc(&all, lo, hi);
        prop_assert!(a2 >= a1 - 1e-9, "ALC shrank: {a1} -> {a2}");
    }

    /// ALC is additive over adjacent accuracy ranges.
    #[test]
    fn alc_splits_over_ranges(
        points in prop::collection::vec((0.5f64..1.0, 1.0f64..1e4), 1..60),
        mid in 0.6f64..0.9
    ) {
        let total = alc::alc(&points, 0.5, 1.0);
        let left = alc::alc(&points, 0.5, mid);
        let right = alc::alc(&points, mid, 1.0);
        prop_assert!((total - left - right).abs() < 1e-6 * total.max(1.0));
    }

    /// Calibrated thresholds always meet the precision target on the data
    /// they were calibrated on (whenever they decide anything at all).
    #[test]
    fn calibration_meets_target_precision(
        seed in 0u64..1000,
        target in 0.85f64..0.99,
        n in 50usize..300
    ) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2 == 0;
            let mu = if label { 0.65 } else { 0.35 };
            scores.push((mu + 0.2 * rng.standard_normal()).clamp(0.0, 1.0) as f32);
            labels.push(label);
        }
        let thr = calibrate(&scores, &labels, target);
        prop_assert!(thr.p_low < thr.p_high);
        if let Some(p) = positive_precision(thr, &scores, &labels) {
            prop_assert!(p >= target - 1e-9, "positive precision {p} < {target}");
        }
        if let Some(p) = negative_precision(thr, &scores, &labels) {
            prop_assert!(p >= target - 1e-9, "negative precision {p} < {target}");
        }
    }

    /// Raw codec roundtrip error is bounded by quantization everywhere.
    #[test]
    fn raw_codec_roundtrip(
        w in 1usize..24, h in 1usize..24, seed in 0u64..500
    ) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let img = Image::from_fn(w, h, ColorMode::Rgb, |_, _, _| {
            rng.uniform() as f32
        }).unwrap();
        let out = RawCodec.decode(&RawCodec.encode(&img)).unwrap();
        for (a, b) in img.data().iter().zip(out.data()) {
            prop_assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    /// Horizontal flip is an involution on arbitrary images.
    #[test]
    fn flip_involution(w in 1usize..20, h in 1usize..20, seed in 0u64..100) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let img = Image::from_fn(w, h, ColorMode::Rgb, |_, _, _| rng.uniform() as f32).unwrap();
        let back = transform::flip_horizontal(&transform::flip_horizontal(&img));
        prop_assert_eq!(img, back);
    }

    /// Bilinear resize output stays within the input's value range.
    #[test]
    fn resize_respects_range(
        w in 2usize..32, h in 2usize..32, ow in 1usize..32, oh in 1usize..32,
        seed in 0u64..100
    ) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let img = Image::from_fn(w, h, ColorMode::Gray, |_, _, _| rng.uniform() as f32).unwrap();
        let lo = img.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = img.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let out = transform::resize_bilinear(&img, ow, oh).unwrap();
        for &v in out.data() {
            prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    }

    /// Every transcode-engine kernel tier resizes bitwise-identically to
    /// the scalar reference loop across arbitrary shapes and color modes —
    /// the separable two-pass sweep evaluates the same lerp chain per
    /// output pixel.
    #[test]
    fn transcode_resize_tiers_match_reference_bitwise(
        w in 1usize..40, h in 1usize..40, ow in 1usize..40, oh in 1usize..40,
        mode_sel in 0usize..5, seed in 0u64..1000
    ) {
        let mode = ColorMode::ALL[mode_sel];
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let src = Image::from_fn(w, h, mode, |_, _, _| rng.uniform() as f32).unwrap();
        let want = transform::resize_bilinear_reference(&src, ow, oh).unwrap();
        for kernel in SimdTier::runnable(engine::TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            let got = e.resize_bilinear(&src, ow, oh).unwrap();
            prop_assert_eq!(got.data(), want.data(), "tier {}", kernel.name());
        }
    }

    /// Engine `apply` and the lattice-planned `apply_planned` both
    /// produce outputs bitwise identical to the seed reference pipeline,
    /// on every kernel tier, for arbitrary (non-square) sources and target
    /// sets — including with recycled output buffers (steady-state serving).
    #[test]
    fn transcode_lattice_matches_direct_reference_bitwise(
        w in 1usize..48, h in 1usize..48,
        sizes in prop::collection::vec(1usize..48, 1..5),
        mode_sels in prop::collection::vec(0usize..5, 1..5),
        seed in 0u64..1000, batch in 1usize..3
    ) {
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let frames: Vec<Image> = (0..batch)
            .map(|_| Image::from_fn(w, h, ColorMode::Rgb, |_, _, _| rng.uniform() as f32).unwrap())
            .collect();
        let reps: Vec<Representation> = sizes
            .iter()
            .zip(mode_sels.iter().cycle())
            .map(|(&s, &m)| Representation::new(s, ColorMode::ALL[m]))
            .collect();
        let references: Vec<Vec<Image>> = frames
            .iter()
            .map(|f| reps.iter().map(|&r| apply_reference(f, r).unwrap()).collect())
            .collect();
        for kernel in SimdTier::runnable(engine::TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            // Per-rep apply.
            for (f, refs) in frames.iter().zip(&references) {
                for (&rep, want) in reps.iter().zip(refs) {
                    let got = e.apply(f, rep).unwrap();
                    prop_assert_eq!(got.data(), want.data(), "apply tier {} rep {}", kernel.name(), rep);
                    prop_assert_eq!(got.mode(), want.mode());
                    e.recycle([got]);
                }
            }
            // Lattice-planned set, buffers recycled between frames.
            let plan = TranscodePlan::new(w, h, &reps);
            for (f, refs) in frames.iter().zip(&references) {
                let got = e.apply_planned(f, &plan).unwrap();
                for ((img, want), &rep) in got.iter().zip(refs).zip(&reps) {
                    prop_assert_eq!(
                        img.data(), want.data(),
                        "planned tier {} rep {}", kernel.name(), rep
                    );
                }
                e.recycle(got);
            }
        }
    }

    /// Every standardize tier agrees bitwise (shared eight-lane f64
    /// reduction) and produces zero mean / unit variance on non-constant
    /// images.
    #[test]
    fn transcode_standardize_tiers_agree_bitwise(
        w in 1usize..40, h in 1usize..40, mode_sel in 0usize..5, seed in 0u64..1000
    ) {
        let mode = ColorMode::ALL[mode_sel];
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let src = Image::from_fn(w, h, mode, |_, _, _| rng.uniform() as f32).unwrap();
        let mut base: Option<Image> = None;
        for kernel in SimdTier::runnable(engine::TIERS) {
            let mut e = TranscodeEngine::with_kernel(kernel);
            let s = e.standardize(&src);
            match &base {
                None => base = Some(s),
                Some(b) => prop_assert_eq!(
                    b.data(), s.data(), "standardize tier {} diverges", kernel.name()
                ),
            }
        }
        let s = base.expect("portable tier always runs");
        let data = s.data();
        let mean: f64 = data.iter().map(|&v| v as f64).sum::<f64>() / data.len() as f64;
        prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        let var: f64 = data.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>()
            / data.len() as f64;
        // Either standardized (var ~ 1) or a constant image mapped to zero.
        prop_assert!((var - 1.0).abs() < 1e-2 || data.iter().all(|&v| v == 0.0), "var {var}");
    }

    /// The query path's fused read — a stored payload dequantized and
    /// standardized in one pass straight into the row — is bitwise the
    /// codec's decode followed by the two-step standardize, on every tier:
    /// ragged lengths, constant payloads (spread 0, scaled by 0) including
    /// all-0 and all-255, and the served 24g / 32c / 64c shapes.
    #[test]
    fn stored_standardize_matches_decode_then_standardize_bitwise(
        fill_sel in 0u32..5, seed in 0u64..1000
    ) {
        let shapes = (1..=40)
            .map(|len| (len, 1, ColorMode::Gray))
            .chain([(24, 24, ColorMode::Gray), (32, 32, ColorMode::Rgb), (64, 64, ColorMode::Rgb)]);
        let mut rng = tahoma::mathx::DetRng::new(seed);
        for (w, h, mode) in shapes {
            let n = w * h * mode.channels();
            let constant = rng.index(256) as u8;
            let bytes: Vec<u8> = (0..n)
                .map(|_| match fill_sel {
                    0 => 0,
                    1 => 255,
                    2 => constant,
                    _ => rng.index(256) as u8,
                })
                .collect();
            let values = bytes.iter().map(|&b| b as f32 / 255.0).collect();
            let blob = RawCodec.encode(&Image::from_planar(w, h, mode, values).unwrap());
            let decoded = RawCodec.decode(&blob).unwrap();
            let samples = &blob[blob.len() - n..];
            prop_assert_eq!(samples, &bytes[..]);
            for kernel in SimdTier::runnable(engine::DEQUANTIZE_TIERS) {
                let e = TranscodeEngine::with_kernel(kernel);
                let mut want = vec![0.0f32; n];
                e.standardize_into(&decoded, &mut want);
                let mut got = vec![f32::NAN; n];
                e.standardize_stored(samples, &mut got);
                prop_assert!(
                    got.iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())),
                    "tier {} diverges on {}x{} {}", kernel.name(), w, h, mode
                );
                if fill_sel < 3 || n == 1 {
                    prop_assert!(got.iter().all(|&v| v == 0.0), "constant payload not mapped to 0");
                }
            }
        }
    }

    /// The ReLU sweep (one portable tier) is bitwise identical to the
    /// strict `> 0` select across arbitrary inputs including NaN, ±0 and
    /// ±∞ — the training path's masked semantics.
    #[test]
    fn relu_tiers_agree_bitwise(
        vals in prop::collection::vec((0u32..8, -1.0f32..1.0), 1..200)
    ) {
        let src: Vec<f32> = vals
            .iter()
            .map(|&(sel, raw)| match sel {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                _ => raw,
            })
            .collect();
        let want: Vec<u32> = src
            .iter()
            .map(|&v| (if v > 0.0 { v } else { 0.0 }).to_bits())
            .collect();
        let mut dst = vec![f32::NAN; src.len()];
        kernels::relu(&src, &mut dst);
        let got: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&got, &want);
    }

    /// The inference pool (`infer_shared`) is bitwise identical to the
    /// training path's scalar argmax pool across arbitrary shapes (odd
    /// dims exercise the floor semantics). One portable loop is left, so
    /// "tiers" is that loop; the served pool runs in the conv epilogue,
    /// pinned by `gemm::tests::row_sweep_matches_training_layers_bitwise`.
    #[test]
    fn maxpool_tiers_agree_bitwise(
        c in 1usize..4, h in 2usize..40, w in 2usize..40, seed in 0u64..10_000
    ) {
        let shape = Shape::new(c, h, w);
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let mut input: Vec<f32> = (0..shape.len())
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        input[seed as usize % shape.len()] = f32::NAN;
        let mut pool = MaxPool2::new(shape);
        let mut want = Vec::new();
        pool.forward_batch(&input, 1, &mut want);
        let mut got = Vec::new();
        pool.infer_shared(&input, 1, &mut got, &mut InferScratch::default());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&want), bits(&got), "inference pool diverges from argmax pool");
    }

    /// Segment framing round-trips arbitrary (id, representation,
    /// payload) sets — payloads of any bytes including empty, duplicate
    /// keys resolving last-write-wins — through append → fetch, and again
    /// through sync → reopen (the recovery scan).
    #[test]
    fn segment_framing_roundtrips_arbitrary_records(
        recs in prop::collection::vec(
            (0u64..1000, 0usize..5, 1usize..90,
             prop::collection::vec(0u8..255, 0..300)),
            1..32),
        shards in 1usize..5,
    ) {
        use std::collections::BTreeMap;
        use tahoma::imagery::SegmentStore;
        let dir = proptest_dir("segment-framing");
        let store = SegmentStore::create(&dir, shards).unwrap();
        let mut expect: BTreeMap<(u64, Representation), Vec<u8>> = BTreeMap::new();
        for (id, m, size, payload) in &recs {
            let rep = Representation::new(*size, ColorMode::ALL[*m]);
            store.append(*id, rep, payload).unwrap();
            expect.insert((*id, rep), payload.clone());
        }
        let mut scratch = Vec::new();
        for ((id, rep), want) in &expect {
            let got = store
                .with_payload(*id, *rep, &mut scratch, |b| b.to_vec())
                .unwrap();
            prop_assert_eq!(got.as_ref(), Some(want), "live fetch {} {}", id, rep);
        }
        store.sync().unwrap();
        prop_assert_eq!(store.records(), recs.len() as u64);
        drop(store);

        let (reopened, report) = SegmentStore::open(&dir, shards).unwrap();
        prop_assert_eq!(report.truncated_bytes, 0, "clean reopen truncated bytes");
        prop_assert_eq!(report.records, recs.len() as u64);
        for ((id, rep), want) in &expect {
            let got = reopened
                .with_payload(*id, *rep, &mut scratch, |b| b.to_vec())
                .unwrap();
            prop_assert_eq!(got.as_ref(), Some(want), "reopened fetch {} {}", id, rep);
        }
        prop_assert_eq!(reopened.verify_all().unwrap(), recs.len() as u64);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store holds exactly the direct-apply bytes: every frame's
    /// direct per-representation transform, snapped to the storage grid
    /// and encoded without the store, equals the stored record and decodes
    /// to the fetched pixels, both live and after sync → reopen.
    #[test]
    fn persistent_store_matches_direct_apply_bitwise(
        n in 1usize..10, src in 8usize..40, seed in 0u64..1000,
        sizes in prop::collection::vec(1usize..32, 1..4),
        mode_sels in prop::collection::vec(0usize..5, 1..4),
    ) {
        use tahoma::imagery::codec::quantize_roundtrip;
        use tahoma::imagery::{RepresentationStore, TranscodeEngine};
        let mut reps: Vec<Representation> = Vec::new();
        for (&s, &m) in sizes.iter().zip(mode_sels.iter().cycle()) {
            let rep = Representation::new(s, ColorMode::ALL[m]);
            if !reps.contains(&rep) {
                reps.push(rep);
            }
        }
        let mut rng = tahoma::mathx::DetRng::new(seed);
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(
                Image::from_fn(src, src, ColorMode::Rgb, |_, _, _| rng.uniform() as f32)
                    .unwrap(),
            );
        }
        // The oracle, one encoded record per (frame, rep) in that order.
        let mut want = Vec::with_capacity(n * reps.len());
        for f in &frames {
            let mut f_q = f.clone();
            quantize_roundtrip(&mut f_q);
            for &rep in &reps {
                want.push(RawCodec.encode(&apply_reference(&f_q, rep).unwrap()));
            }
        }
        let dir = proptest_dir("store-direct");
        let disk = RepresentationStore::persistent(reps.clone(), &dir, 3).unwrap();
        for (i, f) in frames.iter().enumerate() {
            disk.ingest(i as u64, f).unwrap();
        }
        let mut engine = TranscodeEngine::new();
        let mut check = |store: &RepresentationStore, phase: &str| -> Result<(), TestCaseError> {
            let mut want = want.iter();
            for id in 0..n as u64 {
                for &rep in &reps {
                    let want = want.next().unwrap();
                    let got = store.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
                    prop_assert_eq!(&got, want, "{} bytes {} {}", phase, id, rep);
                    let img = store.fetch(id, rep, &mut engine).unwrap().unwrap();
                    let decoded = RawCodec.decode(want).unwrap();
                    prop_assert_eq!(img.data(), decoded.data(), "{} pixels {} {}", phase, id, rep);
                    engine.recycle([img]);
                }
            }
            Ok(())
        };
        check(&disk, "live")?;
        disk.sync().unwrap();
        drop(disk);
        let (reopened, _report) = RepresentationStore::open(&dir).unwrap();
        check(&reopened, "reopened")?;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// DetRng is insensitive to interleaving: two streams derived from
    /// different coordinates never correlate exactly.
    #[test]
    fn rng_streams_are_distinct(seed in 0u64..10_000) {
        let mut a = tahoma::mathx::DetRng::from_coords(seed, 0);
        let mut b = tahoma::mathx::DetRng::from_coords(seed, 1);
        let matches = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        prop_assert!(matches < 4);
    }
}
