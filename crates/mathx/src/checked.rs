//! Debug-build assertions for the unsafe SIMD kernels.
//!
//! Every raw-pointer load, store, and gather in the workspace's kernel
//! files (`tahoma-nn`'s GEMM and layer kernels, `tahoma-imagery`'s pixel
//! engine, this crate's worker pool) is preceded by a call into this
//! module stating the invariant the unsafe operation relies on: the span
//! it touches is in bounds, every gathered index is in range, the pointer
//! is element-aligned. Under `debug_assertions` each invariant is a hard
//! `assert!`, so every debug `cargo test` runs the kernels with their
//! safety contracts machine-checked (see `SAFETY.md`). Release builds
//! compile each helper to an empty `#[inline(always)]` body.
//!
//! The checks never change results — they only observe — so a kernel's
//! debug and release builds produce the same bits; `tahoma-nn`'s
//! reference-equality tests hold in both.

/// Assert that `off..off + count` is in bounds for a buffer of `len`
/// elements — the contract of an unaligned vector load/store or a raw
/// row write at offset `off`.
#[inline(always)]
#[track_caller]
pub fn span(len: usize, off: usize, count: usize, what: &str) {
    if cfg!(debug_assertions) {
        assert!(
            off.checked_add(count).is_some_and(|end| end <= len),
            "kernel invariant: {what}: span {off}..{off}+{count} out of bounds for {len}"
        );
    }
}

/// Assert that every gather index addresses inside a buffer of `len`
/// elements — the contract of `_mm*_i32gather_ps` over `indices`.
#[inline(always)]
#[track_caller]
pub fn gather(indices: &[i32], len: usize, what: &str) {
    if cfg!(debug_assertions) {
        for (lane, &i) in indices.iter().enumerate() {
            assert!(
                i >= 0 && (i as usize) < len,
                "kernel invariant: {what}: gather lane {lane} index {i} out of bounds for {len}"
            );
        }
    }
}

/// Assert that `ptr` is aligned for its element type — unaligned vector
/// instructions only require element alignment, and slice-derived
/// pointers always have it, so a failure here means a pointer was
/// fabricated or miscast.
#[inline(always)]
#[track_caller]
pub fn aligned<T>(ptr: *const T, what: &str) {
    if cfg!(debug_assertions) {
        assert!(
            (ptr as usize).is_multiple_of(std::mem::align_of::<T>()),
            "kernel invariant: {what}: pointer {ptr:p} not aligned to {}",
            std::mem::align_of::<T>()
        );
    }
}

/// Assert an arbitrary kernel invariant stated at the call site (used
/// where the condition does not fit the shaped helpers above, e.g. the
/// worker pool's "no live borrowed jobs at scope exit").
#[inline(always)]
#[track_caller]
pub fn invariant(cond: bool, what: &str) {
    if cfg!(debug_assertions) {
        assert!(cond, "kernel invariant: {what}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // In release every helper must accept anything (they are empty); in
    // debug, the in-bounds cases here must still pass. The violating
    // cases only run under `debug_assertions`, where they must panic.

    #[test]
    fn in_bounds_cases_pass_in_both_modes() {
        span(16, 8, 8, "test");
        gather(&[0, 3, 15], 16, "test");
        aligned(vec![0f32; 4].as_ptr(), "test");
        invariant(true, "test");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn violations_panic_when_active() {
        use std::panic::catch_unwind;
        assert!(catch_unwind(|| span(16, 9, 8, "t")).is_err());
        assert!(catch_unwind(|| span(16, usize::MAX, 2, "t")).is_err());
        assert!(catch_unwind(|| gather(&[16], 16, "t")).is_err());
        assert!(catch_unwind(|| gather(&[-1], 16, "t")).is_err());
        // Address 1: misaligned for f32 (align 4) without any real allocation.
        let misaligned = std::ptr::dangling::<u8>().cast::<f32>();
        assert!(catch_unwind(|| aligned(misaligned, "t")).is_err());
        assert!(catch_unwind(|| invariant(false, "t")).is_err());
    }
}
