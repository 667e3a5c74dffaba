//! Synthetic planted-object corpus: the reproduction's stand-in for
//! ImageNet categories and web-scraped evaluation images (DESIGN.md §2).
//!
//! Each of the paper's ten Table II categories is mapped to a distinct
//! geometric glyph with its own color signature. A positive example renders
//! the glyph at a random position/scale/rotation/contrast over a cluttered,
//! noisy background; a negative example renders the same background and
//! clutter without the target. The renderer reports a per-image *difficulty*
//! in `[0, 1]` (small scale, low contrast, heavy clutter, heavy noise are
//! hard) which the surrogate classifier family and the real CNN path both
//! inherit, so hard images are hard for every model — the property that
//! makes cascade early-exit behave realistically.

use crate::color::ColorMode;
use crate::image::Image;
use std::fmt;
use tahoma_mathx::DetRng;

/// The ten object categories (paper Table II).
#[allow(clippy::disallowed_methods, reason = "total: no float fields")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKind {
    Acorn,
    Amphibian,
    Cloak,
    Coho,
    Fence,
    Ferret,
    Komondor,
    Pinwheel,
    Scorpion,
    Wallet,
}

impl ObjectKind {
    /// All ten kinds in Table II order.
    pub const ALL: [ObjectKind; 10] = [
        ObjectKind::Acorn,
        ObjectKind::Amphibian,
        ObjectKind::Cloak,
        ObjectKind::Coho,
        ObjectKind::Fence,
        ObjectKind::Ferret,
        ObjectKind::Komondor,
        ObjectKind::Pinwheel,
        ObjectKind::Scorpion,
        ObjectKind::Wallet,
    ];

    /// Lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Acorn => "acorn",
            ObjectKind::Amphibian => "amphibian",
            ObjectKind::Cloak => "cloak",
            ObjectKind::Coho => "coho",
            ObjectKind::Fence => "fence",
            ObjectKind::Ferret => "ferret",
            ObjectKind::Komondor => "komondor",
            ObjectKind::Pinwheel => "pinwheel",
            ObjectKind::Scorpion => "scorpion",
            ObjectKind::Wallet => "wallet",
        }
    }

    /// ImageNet synset id (paper Table II), kept for provenance.
    pub fn imagenet_id(self) -> &'static str {
        match self {
            ObjectKind::Acorn => "n12267677",
            ObjectKind::Amphibian => "n02704792",
            ObjectKind::Cloak => "n03045698",
            ObjectKind::Coho => "n02536864",
            ObjectKind::Fence => "n03930313",
            ObjectKind::Ferret => "n02443484",
            ObjectKind::Komondor => "n02105505",
            ObjectKind::Pinwheel => "n03944341",
            ObjectKind::Scorpion => "n01770393",
            ObjectKind::Wallet => "n04548362",
        }
    }

    /// Parse by lowercase name.
    pub fn from_name(name: &str) -> Option<ObjectKind> {
        ObjectKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stable small integer for seed derivation.
    pub fn index(self) -> usize {
        ObjectKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }

    /// RGB color signature of the glyph (distinct hues so that single-channel
    /// representations carry kind-dependent information).
    fn color(self) -> [f32; 3] {
        match self {
            ObjectKind::Acorn => [0.55, 0.35, 0.12],
            ObjectKind::Amphibian => [0.20, 0.60, 0.25],
            ObjectKind::Cloak => [0.35, 0.15, 0.45],
            ObjectKind::Coho => [0.75, 0.40, 0.35],
            ObjectKind::Fence => [0.60, 0.55, 0.45],
            ObjectKind::Ferret => [0.70, 0.62, 0.50],
            ObjectKind::Komondor => [0.85, 0.83, 0.78],
            ObjectKind::Pinwheel => [0.80, 0.25, 0.55],
            ObjectKind::Scorpion => [0.45, 0.30, 0.15],
            ObjectKind::Wallet => [0.30, 0.22, 0.16],
        }
    }

    /// Membership test for the glyph in object-local coordinates
    /// (`u`, `v` in [-1, 1]); `wobble` adds per-instance shape irregularity.
    fn contains(self, u: f32, v: f32, wobble: f32) -> bool {
        let r2 = u * u + v * v;
        match self {
            ObjectKind::Acorn => {
                // Ellipse body with a triangular cap on top.
                let body = (u * u) / 0.45 + ((v - 0.2) * (v - 0.2)) / 0.55 < 1.0 && v > -0.2;
                let cap = v <= -0.1 && v > -0.75 && u.abs() < 0.55 * (1.0 + (v + 0.1) / 0.65);
                body || cap
            }
            ObjectKind::Amphibian => {
                // Blob body plus four stubby legs.
                let body = (u * u) / 0.7 + (v * v) / 0.35 < 1.0;
                let leg = |cx: f32, cy: f32| (u - cx).abs() < 0.12 && (v - cy).abs() < 0.35;
                body || leg(-0.55, 0.45) || leg(0.55, 0.45) || leg(-0.55, -0.45) || leg(0.55, -0.45)
            }
            ObjectKind::Cloak => {
                // Trapezoid widening downward with a neck notch.
                let half_w = 0.25 + 0.6 * (v + 1.0) / 2.0;
                v > -0.9 && v < 0.9 && u.abs() < half_w && !(v < -0.55 && u.abs() < 0.12)
            }
            ObjectKind::Coho => {
                // Fish: ellipse body + tail triangle.
                let body = (u * u) / 0.55 + (v * v) / 0.18 < 1.0;
                let tail = u > 0.55 && u < 0.95 && v.abs() < (u - 0.55) * 0.9;
                body || tail
            }
            ObjectKind::Fence => {
                // Vertical pickets and two horizontal rails.
                let picket = ((u + 1.0) * 2.5 + wobble).fract().abs() < 0.4 && v.abs() < 0.9;
                let rail = (v - 0.35).abs() < 0.08 || (v + 0.35).abs() < 0.08;
                (picket || (rail && u.abs() < 1.0)) && r2 < 1.6
            }
            ObjectKind::Ferret => {
                // Long low ellipse with a head bump.
                let body = (u * u) / 0.85 + (v * v) / 0.12 < 1.0;
                let head = ((u + 0.8) * (u + 0.8)) / 0.08 + ((v + 0.1) * (v + 0.1)) / 0.08 < 1.0;
                body || head
            }
            ObjectKind::Komondor => {
                // Shaggy disk: radius modulated by angular wobble.
                let theta = v.atan2(u);
                let rim = 0.75 + 0.18 * (theta * 7.0 + wobble * 6.0).sin();
                r2.sqrt() < rim
            }
            ObjectKind::Pinwheel => {
                // Four sail triangles around the hub.
                let theta = v.atan2(u);
                let r = r2.sqrt();
                let sector = ((theta / std::f32::consts::FRAC_PI_2).floor() as i32).rem_euclid(4);
                let local = theta - (sector as f32 + 0.5) * std::f32::consts::FRAC_PI_2;
                let hub = r < 0.15;
                hub || (r < 0.95 && local > -0.55 && local < 0.05 && r > 0.1)
            }
            ObjectKind::Scorpion => {
                // Crescent body with a stinger dot.
                let outer = r2 < 0.85;
                let inner = (u - 0.25) * (u - 0.25) + v * v < 0.42;
                let sting = (u - 0.55) * (u - 0.55) + (v + 0.65) * (v + 0.65) < 0.035;
                (outer && !inner) || sting
            }
            ObjectKind::Wallet => {
                // Rounded rectangle with a horizontal slot.
                let inside = u.abs() < 0.85 && v.abs() < 0.55 && r2 < 1.1;
                let slot = v.abs() < 0.06 && u.abs() < 0.7;
                inside && !slot
            }
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs controlling scene hardness. Defaults match the main experiments.
#[derive(Debug, Clone, Copy)]
pub struct SceneParams {
    /// Square image side in pixels.
    pub size: usize,
    /// Minimum object scale as a fraction of the image side.
    pub min_scale: f32,
    /// Maximum object scale as a fraction of the image side.
    pub max_scale: f32,
    /// Minimum object/background contrast in [0, 1].
    pub min_contrast: f32,
    /// Maximum count of distractor shapes.
    pub max_clutter: usize,
    /// Maximum Gaussian pixel-noise sigma.
    pub max_noise: f32,
}

impl Default for SceneParams {
    fn default() -> Self {
        SceneParams {
            size: 224,
            min_scale: 0.12,
            max_scale: 0.42,
            min_contrast: 0.25,
            max_clutter: 7,
            max_noise: 0.05,
        }
    }
}

impl SceneParams {
    /// A small-image parameter set for fast tests and the real-CNN path.
    pub fn small(size: usize) -> SceneParams {
        SceneParams {
            size,
            ..SceneParams::default()
        }
    }

    /// An easier small-image set: large, high-contrast objects with little
    /// clutter. Used where tiny CNNs must learn from tiny datasets in
    /// seconds (the scaled-down real-training path).
    pub fn easy(size: usize) -> SceneParams {
        SceneParams {
            size,
            min_scale: 0.40,
            max_scale: 0.75,
            min_contrast: 0.55,
            max_clutter: 2,
            max_noise: 0.02,
        }
    }
}

/// Deterministic scene renderer for one object kind.
#[derive(Debug, Clone)]
pub struct SceneRenderer {
    kind: ObjectKind,
    params: SceneParams,
    seed: u64,
}

impl SceneRenderer {
    /// Create a renderer; `seed` controls every random choice.
    pub fn new(kind: ObjectKind, params: SceneParams, seed: u64) -> SceneRenderer {
        SceneRenderer { kind, params, seed }
    }

    /// The kind this renderer plants.
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// Render scene `id`. Returns the RGB image and its difficulty in [0, 1].
    ///
    /// The same `(seed, id, label)` always produces the same scene.
    pub fn render(&self, id: u64, label: bool) -> (Image, f32) {
        let stream = id.wrapping_mul(2).wrapping_add(label as u64);
        let mut rng = DetRng::from_coords(self.seed ^ ((self.kind.index() as u64) << 48), stream);
        let s = self.params.size;
        let mut img = self.background(&mut rng, s);

        // Clutter: distractor shapes that are never the target glyph.
        let clutter_n = rng.index(self.params.max_clutter + 1);
        for _ in 0..clutter_n {
            self.draw_distractor(&mut rng, &mut img);
        }

        // Target object.
        let (scale_frac, contrast) = if label {
            let scale =
                rng.uniform_in(self.params.min_scale as f64, self.params.max_scale as f64) as f32;
            let contrast = rng.uniform_in(self.params.min_contrast as f64, 1.0) as f32;
            self.draw_target(&mut rng, &mut img, scale, contrast);
            (scale, contrast)
        } else {
            // Negatives draw from the same knob distributions so difficulty
            // is comparable across classes.
            let scale =
                rng.uniform_in(self.params.min_scale as f64, self.params.max_scale as f64) as f32;
            let contrast = rng.uniform_in(self.params.min_contrast as f64, 1.0) as f32;
            (scale, contrast)
        };

        // Pixel noise.
        let sigma = rng.uniform_in(0.005, self.params.max_noise as f64) as f32;
        for v in img.data_mut() {
            *v = (*v + sigma * rng.standard_normal() as f32).clamp(0.0, 1.0);
        }

        let difficulty = self.difficulty(scale_frac, contrast, clutter_n, sigma);
        (img, difficulty)
    }

    /// Difficulty heuristic in [0, 1]; larger is harder.
    fn difficulty(&self, scale: f32, contrast: f32, clutter: usize, sigma: f32) -> f32 {
        let p = &self.params;
        let scale_term = 1.0 - (scale - p.min_scale) / (p.max_scale - p.min_scale).max(1e-6);
        let contrast_term = 1.0 - (contrast - p.min_contrast) / (1.0 - p.min_contrast).max(1e-6);
        let clutter_term = clutter as f32 / p.max_clutter.max(1) as f32;
        let noise_term = sigma / p.max_noise.max(1e-6);
        (0.40 * scale_term + 0.30 * contrast_term + 0.15 * clutter_term + 0.15 * noise_term)
            .clamp(0.0, 1.0)
    }

    fn background(&self, rng: &mut DetRng, s: usize) -> Image {
        // Low-frequency cosine field per channel over a base tone.
        let base = [
            rng.uniform_in(0.25, 0.55) as f32,
            rng.uniform_in(0.25, 0.55) as f32,
            rng.uniform_in(0.25, 0.55) as f32,
        ];
        let mut waves = [[0.0f32; 4]; 3];
        for wave in &mut waves {
            *wave = [
                rng.uniform_in(0.5, 3.0) as f32,
                rng.uniform_in(0.5, 3.0) as f32,
                rng.uniform_in(0.0, std::f64::consts::TAU) as f32,
                rng.uniform_in(0.03, 0.10) as f32,
            ];
        }
        Image::from_fn(s, s, ColorMode::Rgb, |c, y, x| {
            let [fx, fy, phase, amp] = waves[c];
            let u = x as f32 / s as f32;
            let v = y as f32 / s as f32;
            (base[c]
                + amp
                    * (fx * u * std::f32::consts::TAU + fy * v * std::f32::consts::TAU + phase)
                        .cos())
            .clamp(0.0, 1.0)
        })
        .expect("background dims valid")
    }

    fn draw_distractor(&self, rng: &mut DetRng, img: &mut Image) {
        let s = img.width();
        let cx = rng.uniform_in(0.1, 0.9) as f32 * s as f32;
        let cy = rng.uniform_in(0.1, 0.9) as f32 * s as f32;
        let half = (rng.uniform_in(0.02, 0.10) as f32 * s as f32).max(1.0);
        let color = [
            rng.uniform_in(0.1, 0.9) as f32,
            rng.uniform_in(0.1, 0.9) as f32,
            rng.uniform_in(0.1, 0.9) as f32,
        ];
        let alpha = rng.uniform_in(0.3, 0.8) as f32;
        let round = rng.bernoulli(0.5);
        let x0 = (cx - half).max(0.0) as usize;
        let x1 = ((cx + half) as usize).min(s - 1);
        let y0 = (cy - half).max(0.0) as usize;
        let y1 = ((cy + half) as usize).min(s - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                let du = x as f32 - cx;
                let dv = y as f32 - cy;
                let inside = if round {
                    du * du + dv * dv < half * half
                } else {
                    du.abs() < half && dv.abs() < half
                };
                if inside {
                    for (c, &tint) in color.iter().enumerate() {
                        let old = img.get(c, y, x);
                        img.set(c, y, x, old * (1.0 - alpha) + tint * alpha);
                    }
                }
            }
        }
    }

    fn draw_target(&self, rng: &mut DetRng, img: &mut Image, scale_frac: f32, contrast: f32) {
        let s = img.width();
        let half = (scale_frac * s as f32 / 2.0).max(2.0);
        let margin = half + 1.0;
        let cx = rng.uniform_in(margin as f64, (s as f32 - margin) as f64) as f32;
        let cy = rng.uniform_in(margin as f64, (s as f32 - margin) as f64) as f32;
        let theta = rng.uniform_in(0.0, std::f64::consts::TAU) as f32;
        let wobble = rng.uniform_in(0.0, 1.0) as f32;
        let (sin_t, cos_t) = theta.sin_cos();
        let base_color = self.kind.color();
        // Per-instance hue jitter keeps the class from being a constant color.
        let jitter = [
            rng.normal(0.0, 0.04) as f32,
            rng.normal(0.0, 0.04) as f32,
            rng.normal(0.0, 0.04) as f32,
        ];
        let x0 = (cx - half).max(0.0) as usize;
        let x1 = ((cx + half) as usize).min(s - 1);
        let y0 = (cy - half).max(0.0) as usize;
        let y1 = ((cy + half) as usize).min(s - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                // Rotate into object-local coordinates.
                let du = (x as f32 - cx) / half;
                let dv = (y as f32 - cy) / half;
                let u = du * cos_t + dv * sin_t;
                let v = -du * sin_t + dv * cos_t;
                if self.kind.contains(u, v, wobble) {
                    for c in 0..3 {
                        let old = img.get(c, y, x);
                        let target = (base_color[c] + jitter[c]).clamp(0.0, 1.0);
                        img.set(c, y, x, old * (1.0 - contrast) + target * contrast);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_kinds_with_unique_names_and_ids() {
        let names: std::collections::HashSet<_> =
            ObjectKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 10);
        let ids: std::collections::HashSet<_> =
            ObjectKind::ALL.iter().map(|k| k.imagenet_id()).collect();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn name_roundtrip() {
        for k in ObjectKind::ALL {
            assert_eq!(ObjectKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ObjectKind::from_name("zebra"), None);
    }

    #[test]
    fn render_is_deterministic() {
        let r = SceneRenderer::new(ObjectKind::Fence, SceneParams::small(48), 7);
        let (a, da) = r.render(3, true);
        let (b, db) = r.render(3, true);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn positive_and_negative_differ() {
        let r = SceneRenderer::new(ObjectKind::Pinwheel, SceneParams::small(48), 9);
        let (pos, _) = r.render(1, true);
        let (neg, _) = r.render(1, false);
        assert!(pos.mean_abs_diff(&neg).unwrap() > 0.0);
    }

    #[test]
    fn positives_contain_visible_object_signal() {
        // Averaged over scenes, positives should differ from negatives more
        // than negatives differ among themselves.
        let r = SceneRenderer::new(ObjectKind::Komondor, SceneParams::small(64), 11);
        let mut cross = 0.0;
        let n = 10;
        for id in 0..n {
            let (pos, _) = r.render(id, true);
            let (neg, _) = r.render(id, false);
            cross += pos.mean_abs_diff(&neg).unwrap();
        }
        assert!(cross / n as f32 > 0.002, "object signal too weak: {cross}");
    }

    #[test]
    fn difficulty_in_unit_interval() {
        for kind in ObjectKind::ALL {
            let r = SceneRenderer::new(kind, SceneParams::small(32), 5);
            for id in 0..20 {
                let (_, d) = r.render(id, id % 2 == 0);
                assert!((0.0..=1.0).contains(&d), "{kind}: difficulty {d}");
            }
        }
    }

    #[test]
    fn pixels_stay_in_unit_range() {
        let r = SceneRenderer::new(ObjectKind::Scorpion, SceneParams::small(40), 13);
        let (img, _) = r.render(0, true);
        for &v in img.data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn glyphs_are_nonempty_and_distinct() {
        // Rasterize each glyph mask at 64x64 and check it covers a sensible
        // area and differs from every other glyph.
        let mut masks: Vec<(ObjectKind, Vec<bool>)> = Vec::new();
        for kind in ObjectKind::ALL {
            let mut mask = vec![false; 64 * 64];
            let mut count = 0usize;
            for y in 0..64 {
                for x in 0..64 {
                    let u = (x as f32 / 63.0) * 2.0 - 1.0;
                    let v = (y as f32 / 63.0) * 2.0 - 1.0;
                    if kind.contains(u, v, 0.3) {
                        mask[y * 64 + x] = true;
                        count += 1;
                    }
                }
            }
            let frac = count as f32 / (64.0 * 64.0);
            assert!(
                (0.05..0.95).contains(&frac),
                "{kind}: coverage {frac} out of range"
            );
            masks.push((kind, mask));
        }
        for i in 0..masks.len() {
            for j in (i + 1)..masks.len() {
                let diff = masks[i]
                    .1
                    .iter()
                    .zip(&masks[j].1)
                    .filter(|(a, b)| a != b)
                    .count();
                assert!(
                    diff > 64,
                    "glyphs {} and {} nearly identical ({diff} px differ)",
                    masks[i].0,
                    masks[j].0
                );
            }
        }
    }

    #[test]
    fn different_ids_produce_different_scenes() {
        let r = SceneRenderer::new(ObjectKind::Wallet, SceneParams::small(32), 17);
        let (a, _) = r.render(0, true);
        let (b, _) = r.render(1, true);
        assert!(a.mean_abs_diff(&b).unwrap() > 0.0);
    }
}
