//! The SIMD kernel-tier policy shared by every dispatching crate: one
//! ordered tier enum and one rule.
//!
//! `tahoma_nn::{gemm, kernels}` and `tahoma_imagery::engine` carry explicit
//! `std::arch` kernels behind runtime feature detection. This module owns
//! everything they share: the ordered tier enum, the single cached
//! detection predicate, the single environment ceiling, and the rule that
//! turns a request into the tier that runs.
//!
//! The rule ([`SimdTier::resolve`]): every dispatcher states which tiers it
//! implements; an unpinned request (`None`, "auto") runs the **widest
//! implemented tier no wider than `min(detected, env ceiling)`**. There is
//! no per-op table to consult because a kernel exists only where it wins:
//! a (op, tier) pair that does not beat the next-narrower surviving tier on
//! measured hardware is deleted, not de-prioritised (DESIGN.md, "Deletion
//! ledger"). Every tier of every op is property-tested bitwise identical to
//! portable, so any resolution is equally correct — only speed differs.

use std::sync::OnceLock;

/// Environment variable capping the tier unpinned dispatch may use:
/// `portable`, `avx2`, `avx512`, or `auto` (same as unset). CI's
/// `forced-tier` matrix sets it so the narrower paths run on runners that
/// advertise more. It never *grants* a tier — the ceiling is further capped
/// by detection — and it does not affect explicitly pinned requests.
pub const TIER_ENV: &str = "TAHOMA_KERNEL_POLICY";

/// A SIMD kernel tier, ordered narrowest to widest. A CPU that can run a
/// tier can run every narrower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdTier {
    /// Plain scalar / auto-vectorized loops (any CPU) — the bitwise
    /// reference every other tier is tested against.
    Portable,
    /// Explicit AVX2-generation intrinsics (x86-64 with `avx2` **and**
    /// `fma`).
    Avx2,
    /// Explicit AVX-512 intrinsics (x86-64 with `avx512f` on top of the
    /// AVX2 tier's features).
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Portable, SimdTier::Avx2, SimdTier::Avx512];

    /// Stable lowercase name (`portable`, `avx2`, `avx512`) — bench ids and
    /// the [`TIER_ENV`] values.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Inverse of [`SimdTier::name`].
    pub fn from_name(name: &str) -> Option<SimdTier> {
        SimdTier::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The workspace's one definition of what each tier requires.
    fn for_features(avx2: bool, fma: bool, avx512f: bool) -> SimdTier {
        match (avx2 && fma, avx512f) {
            (false, _) => SimdTier::Portable,
            (true, false) => SimdTier::Avx2,
            (true, true) => SimdTier::Avx512,
        }
    }

    /// The widest tier the running CPU can execute (detected once).
    pub fn detected() -> SimdTier {
        static DETECTED: OnceLock<SimdTier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                SimdTier::for_features(
                    std::arch::is_x86_feature_detected!("avx2"),
                    std::arch::is_x86_feature_detected!("fma"),
                    std::arch::is_x86_feature_detected!("avx512f"),
                )
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Portable
        })
    }

    /// Parse a [`TIER_ENV`] value: `Ok(None)` for unset / empty / `auto`,
    /// `Ok(Some(tier))` for a tier name, `Err` for anything else.
    pub fn parse_ceiling(value: Option<&str>) -> Result<Option<SimdTier>, String> {
        match value.map(str::trim) {
            None | Some("") | Some("auto") => Ok(None),
            Some(name) => SimdTier::from_name(name).map(Some).ok_or_else(|| {
                format!("unrecognised {TIER_ENV}={name:?} (expected portable|avx2|avx512|auto)")
            }),
        }
    }

    /// The tier unpinned dispatch may not exceed: `min(detected, env)`,
    /// read once per process. An unrecognised [`TIER_ENV`] value is warned
    /// about on stderr and ignored rather than panicking inside whatever
    /// hot path first dispatched; `cpu_info` is the strict check CI runs.
    pub fn ceiling() -> SimdTier {
        static CEILING: OnceLock<SimdTier> = OnceLock::new();
        *CEILING.get_or_init(|| {
            let env = std::env::var(TIER_ENV).ok();
            let cap = SimdTier::parse_ceiling(env.as_deref()).unwrap_or_else(|e| {
                eprintln!("warning: {e}; ignoring it");
                None
            });
            SimdTier::detected().min(cap.unwrap_or(SimdTier::Avx512))
        })
    }

    /// The tier that runs for `request` on an op implementing
    /// `implemented`: the widest implemented tier no wider than the cap —
    /// [`SimdTier::ceiling`] for an unpinned request, `min(pin, detected)`
    /// for a pinned one. A pin the op lacks therefore clamps *down*, never
    /// up and never to an instruction the CPU cannot execute. Every op
    /// implements `Portable`, which is also the answer for an empty list.
    pub fn resolve(request: Option<SimdTier>, implemented: &[SimdTier]) -> SimdTier {
        let cap = match request {
            Some(pin) => pin.min(SimdTier::detected()),
            None => SimdTier::ceiling(),
        };
        widest_at_most(cap, implemented)
    }

    /// The tiers of `implemented` this CPU can execute — what tests and
    /// benches iterate to cover an op on exactly the tiers that exist.
    pub fn runnable(implemented: &[SimdTier]) -> Vec<SimdTier> {
        implemented
            .iter()
            .copied()
            .filter(|t| *t <= SimdTier::detected())
            .collect()
    }
}

fn widest_at_most(cap: SimdTier, implemented: &[SimdTier]) -> SimdTier {
    implemented
        .iter()
        .copied()
        .filter(|t| *t <= cap)
        .max()
        .unwrap_or(SimdTier::Portable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use SimdTier::{Avx2, Avx512, Portable};

    #[test]
    fn names_round_trip() {
        for tier in SimdTier::ALL {
            assert_eq!(SimdTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(SimdTier::from_name("sse9"), None);
        assert!(Portable < Avx2 && Avx2 < Avx512);
    }

    #[test]
    fn avx2_tier_requires_fma_too() {
        // One predicate for every crate: a CPU with avx2 but no fma is a
        // portable CPU (the GEMM and matvec AVX2 kernels issue FMAs).
        assert_eq!(SimdTier::for_features(true, false, false), Portable);
        assert_eq!(SimdTier::for_features(true, false, true), Portable);
        assert_eq!(SimdTier::for_features(false, true, true), Portable);
        assert_eq!(SimdTier::for_features(true, true, false), Avx2);
        assert_eq!(SimdTier::for_features(true, true, true), Avx512);
    }

    #[test]
    fn env_spec_forms() {
        assert_eq!(SimdTier::parse_ceiling(None), Ok(None));
        assert_eq!(SimdTier::parse_ceiling(Some("")), Ok(None));
        assert_eq!(SimdTier::parse_ceiling(Some("auto")), Ok(None));
        assert_eq!(SimdTier::parse_ceiling(Some(" avx2 ")), Ok(Some(Avx2)));
        assert_eq!(
            SimdTier::parse_ceiling(Some("portable")),
            Ok(Some(Portable))
        );
        // Typos and the retired list / file forms are errors, not defaults.
        for bad in ["protable", "AVX2", "gemm=avx2", "@/tmp/policy"] {
            assert!(SimdTier::parse_ceiling(Some(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn widest_implemented_tier_under_the_cap_wins() {
        let two = [Portable, Avx2];
        assert_eq!(widest_at_most(Avx512, &SimdTier::ALL), Avx512);
        assert_eq!(widest_at_most(Avx512, &two), Avx2);
        assert_eq!(widest_at_most(Avx2, &SimdTier::ALL), Avx2);
        assert_eq!(widest_at_most(Portable, &two), Portable);
        // A gap in the list clamps down across it, never up.
        assert_eq!(widest_at_most(Avx2, &[Portable, Avx512]), Portable);
        assert_eq!(widest_at_most(Avx512, &[]), Portable);
    }

    #[test]
    fn resolution_never_exceeds_detection_or_the_op() {
        let detected = SimdTier::detected();
        assert!(SimdTier::ceiling() <= detected);
        for implemented in [&SimdTier::ALL[..], &[Portable, Avx2], &[Portable]] {
            let runnable = SimdTier::runnable(implemented);
            assert_eq!(runnable[0], Portable);
            for request in [None, Some(Portable), Some(Avx2), Some(Avx512)] {
                let got = SimdTier::resolve(request, implemented);
                assert!(runnable.contains(&got), "{request:?} -> {got:?}");
                assert!(request.is_none_or(|pin| got <= pin));
            }
            // A pin is honoured exactly wherever it can be.
            for &tier in &runnable {
                assert_eq!(SimdTier::resolve(Some(tier), implemented), tier);
            }
        }
    }
}
