//! End-to-end lint coverage: seeded violations per lint must be caught,
//! clean fixtures must pass, the allowlist must excuse exactly what it
//! names (and fail when stale), and the real workspace must audit clean.

use std::collections::BTreeMap;
use tahoma_audit::{audit_in_memory, Allowlist, Report};

fn fixture(files: &[(&str, &str)]) -> BTreeMap<String, String> {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn audit(files: &[(&str, &str)]) -> Report {
    audit_in_memory(&fixture(files), &Allowlist::default())
}

fn lints_of(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.lint).collect()
}

/// A compliant crate: unsafe with SAFETY comments, the crate-level
/// attribute, no panicking calls in serve scope.
const CLEAN_LIB: &str = r#"
#![deny(unsafe_op_in_unsafe_fn)]
pub fn double(xs: &mut [f32]) {
    let p = xs.as_mut_ptr();
    for i in 0..xs.len() {
        // SAFETY: i < xs.len(), so p + i is in bounds.
        unsafe { *p.add(i) *= 2.0 };
    }
}
"#;

#[test]
fn clean_fixture_audits_clean() {
    let report = audit(&[
        ("crates/nn/src/gemm.rs", CLEAN_LIB),
        (
            "crates/nn/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\npub mod gemm;\n",
        ),
        (
            "crates/serve/src/lib.rs",
            "pub fn ok() -> Option<u32> { Some(1) }\n",
        ),
    ]);
    assert!(report.clean(), "unexpected findings: {}", report.human());
}

const NN_LIB: &str = "#![deny(unsafe_op_in_unsafe_fn)]\npub mod gemm;\n";

#[test]
fn a1_uncommented_unsafe_is_caught() {
    let report = audit(&[
        (
            "crates/nn/src/gemm.rs",
            "pub fn f(p: *const f32) -> f32 { unsafe { *p } }\n",
        ),
        ("crates/nn/src/lib.rs", NN_LIB),
    ]);
    assert_eq!(lints_of(&report), ["A1"], "{}", report.human());
    // The same unsafe with a SAFETY comment passes.
    let ok = audit(&[
        (
            "crates/nn/src/gemm.rs",
            "// SAFETY: caller contract.\npub fn f(p: *const f32) -> f32 { unsafe { *p } }\n",
        ),
        ("crates/nn/src/lib.rs", NN_LIB),
    ]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a1_doc_safety_section_counts() {
    let ok = audit(&[
        (
            "crates/nn/src/gemm.rs",
            "/// Reads one element.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const f32) -> f32 { unsafe { *p } }\n",
        ),
        ("crates/nn/src/lib.rs", NN_LIB),
    ]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a2_missing_crate_attribute_is_caught() {
    let report = audit(&[
        (
            "crates/widget/src/simd.rs",
            "// SAFETY: test fixture.\npub fn f(p: *const f32) -> f32 { unsafe { *p } }\n",
        ),
        ("crates/widget/src/lib.rs", "pub mod simd;\n"),
    ]);
    assert!(
        lints_of(&report).contains(&"A2"),
        "expected A2 for missing deny(unsafe_op_in_unsafe_fn): {}",
        report.human()
    );
}

#[test]
fn a3_partial_cmp_unwrap_is_caught_outside_order_module() {
    let bad = "pub fn max(xs: &[f32]) -> f32 {\n    let mut v = xs.to_vec();\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    v[v.len() - 1]\n}\n";
    let report = audit(&[("crates/nn/src/train.rs", bad)]);
    assert_eq!(lints_of(&report), ["A3"], "{}", report.human());
    // The NaN-total-order module itself is the sanctioned home.
    let order = audit(&[("crates/core/src/order.rs", bad)]);
    assert!(order.clean(), "{}", order.human());
}

#[test]
fn a4_unwrap_in_serve_scope_is_caught() {
    let report = audit(&[(
        "crates/serve/src/service.rs",
        "pub fn first(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
    )]);
    assert_eq!(lints_of(&report), ["A4"], "{}", report.human());
    // Same code in a non-serving crate is fine...
    let ok = audit(&[(
        "crates/nn/src/model.rs",
        "pub fn first(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
    )]);
    assert!(ok.clean(), "{}", ok.human());
    // ...and so is test code inside the serving crate.
    let test_ok = audit(&[(
        "crates/serve/src/service.rs",
        "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(*[1u32].first().unwrap(), 1); }\n}\n",
    )]);
    assert!(test_ok.clean(), "{}", test_ok.human());
}

#[test]
fn a4_panic_family_macros_are_caught_in_scope() {
    for (needle, body) in [
        ("panic!", "panic!(\"boom\")"),
        ("unreachable!", "unreachable!(\"never\")"),
        ("todo!", "todo!()"),
        ("unimplemented!", "unimplemented!()"),
        // The shape the scorers used to carry: no `.unwrap()` to see, only
        // the macro inside the closure.
        (
            "panic!",
            "None::<u32>.unwrap_or_else(|| panic!(\"model m{} is not registered\", 3))",
        ),
    ] {
        let src = format!("pub fn f() -> u32 {{ {body} }}\n");
        for scope in ["crates/serve/src/broker.rs", "crates/core/src/exec.rs"] {
            let report = audit(&[(scope, src.as_str())]);
            assert_eq!(
                lints_of(&report),
                ["A4"],
                "{needle} in {scope}: {}",
                report.human()
            );
            assert!(
                report.violations[0].message.contains(needle),
                "{}",
                report.human()
            );
        }
        // Out of scope, and in test code inside the scope, the macro is fine.
        let elsewhere = audit(&[("crates/core/src/materialized.rs", src.as_str())]);
        assert!(elsewhere.clean(), "{}", elsewhere.human());
        let in_test = format!("pub fn ok() {{}}\n#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        let test_ok = audit(&[("crates/serve/src/server.rs", in_test.as_str())]);
        assert!(test_ok.clean(), "{}", test_ok.human());
    }
    // `assert!`-family invariants, `std::panic::` paths and a `!=` after an
    // identifier named like a macro are not panics-by-macro.
    let benign = "use std::panic::catch_unwind;\npub fn g(panic: u32, n: usize) -> bool {\n    \
                  assert!(n > 0, \"non-empty\");\n    debug_assert_eq!(n, n);\n    panic != 3\n}\n";
    let ok = audit(&[("crates/serve/src/service.rs", benign)]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a5_raw_pointer_ops_confined_to_kernel_files() {
    let raw = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f(p: *const f32) -> f32 {\n    // SAFETY: fixture.\n    unsafe { *p.add(1) }\n}\n";
    let report = audit(&[
        ("crates/core/src/exec.rs", raw),
        (
            "crates/core/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\npub mod exec;\n",
        ),
    ]);
    assert!(
        lints_of(&report).contains(&"A5"),
        "raw pointer op outside the kernel files must be flagged: {}",
        report.human()
    );
    // The same op inside a sanctioned kernel file passes.
    let ok = audit(&[
        ("crates/nn/src/gemm.rs", raw),
        (
            "crates/nn/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\npub mod gemm;\n",
        ),
    ]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a6_lock_order_annotations_and_inversions() {
    // A Mutex field without a LOCK-ORDER annotation.
    let report = audit(&[(
        "crates/serve/src/thing.rs",
        "use std::sync::Mutex;\npub struct S {\n    inner: Mutex<u32>,\n}\n",
    )]);
    assert_eq!(lints_of(&report), ["A6"], "{}", report.human());

    // Descending acquisition order across two ranked mutexes.
    let inversion = r#"
use std::sync::{Mutex, MutexGuard};
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() { Ok(g) => g, Err(p) => p.into_inner() }
}
pub struct S {
    // LOCK-ORDER: 10
    low: Mutex<u32>,
    // LOCK-ORDER: 20
    high: Mutex<u32>,
}
impl S {
    pub fn bad(&self) -> u32 {
        let h = lock(&self.high);
        let l = lock(&self.low);
        *h + *l
    }
}
"#;
    let report = audit(&[("crates/serve/src/thing.rs", inversion)]);
    assert_eq!(lints_of(&report), ["A6"], "{}", report.human());

    // Ascending order passes.
    let ascending = inversion.replace(
        "let h = lock(&self.high);\n        let l = lock(&self.low);",
        "let l = lock(&self.low);\n        let h = lock(&self.high);",
    );
    let ok = audit(&[("crates/serve/src/thing.rs", ascending.as_str())]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a6_scope_covers_the_segment_store_shard_locks() {
    // The representation store and the sharded segment store hold
    // mutexes outside the serve crate; both files are explicitly in A6
    // scope so those ranks stay audited.
    let unranked = "use std::sync::Mutex;\npub struct Shard {\n    seg_writer: Mutex<u32>,\n}\n";
    let report = audit(&[("crates/imagery/src/segment.rs", unranked)]);
    assert_eq!(lints_of(&report), ["A6"], "{}", report.human());
    let report = audit(&[("crates/imagery/src/store.rs", unranked)]);
    assert_eq!(lints_of(&report), ["A6"], "{}", report.human());
    // The rest of the imagery crate is not in A6 scope.
    let ok = audit(&[("crates/imagery/src/codec.rs", unranked)]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn a7_fault_sites_confined_to_allowlisted_modules_and_marked() {
    // An injection site in a non-allowlisted module is flagged no matter
    // how well it is commented.
    let stray = "pub fn f() {\n    // FAULT: stray site.\n    tahoma_faults::fire(3);\n}\n";
    let report = audit(&[("crates/core/src/exec.rs", stray)]);
    assert_eq!(lints_of(&report), ["A7"], "{}", report.human());

    // In an allowlisted module, an unmarked site is flagged...
    let unmarked = "pub fn f() {\n    tahoma_faults::fire(3);\n}\n";
    let report = audit(&[("crates/serve/src/broker.rs", unmarked)]);
    assert_eq!(lints_of(&report), ["A7"], "{}", report.human());

    // ...a `// FAULT:` comment clears it, and one comment covers an
    // adjacent run of sites (the segment read path's idiom).
    let marked = "pub fn f() {\n    // FAULT: leader dies mid-batch.\n    tahoma_faults::fire(3);\n    tahoma_faults::stall(4);\n}\n";
    let ok = audit(&[("crates/serve/src/broker.rs", marked)]);
    assert!(ok.clean(), "{}", ok.human());

    // Test code arms plans rather than hosting sites: exempt, both as
    // in-file test modules and as tests/ files.
    let test_mod = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { tahoma_faults::fire(1); }\n}\n";
    let ok = audit(&[("crates/core/src/exec.rs", test_mod)]);
    assert!(ok.clean(), "{}", ok.human());
    let ok = audit(&[("crates/serve/tests/chaos.rs", unmarked)]);
    assert!(ok.clean(), "{}", ok.human());

    // The faults crate itself is where the machinery lives.
    let ok = audit(&[("crates/faults/src/lib.rs", unmarked)]);
    assert!(ok.clean(), "{}", ok.human());
}

#[test]
fn allowlist_excuses_named_violation_and_stale_entries_fail() {
    let files = fixture(&[(
        "crates/serve/src/service.rs",
        "pub fn first(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
    )]);
    let allow = Allowlist::parse(
        r#"
[[allow]]
file = "crates/serve/src/service.rs"
lint = "A4"
needle = "xs.first().unwrap()"
reason = "fixture"
"#,
    )
    .expect("valid allowlist");
    let report = audit_in_memory(&files, &allow);
    assert!(report.clean(), "{}", report.human());
    assert_eq!(report.allowed, 1);

    // The same allowlist against sources without the violation: the entry
    // is stale and must fail the audit as A0.
    let clean = fixture(&[("crates/serve/src/service.rs", "pub fn ok() {}\n")]);
    let report = audit_in_memory(&clean, &allow);
    assert_eq!(lints_of(&report), ["A0"], "{}", report.human());
}

#[test]
fn allowlist_rejects_entries_without_reason() {
    let err = Allowlist::parse("[[allow]]\nfile = \"x.rs\"\nlint = \"A4\"\n")
        .expect_err("reason is mandatory");
    assert!(err.contains("reason"), "unhelpful error: {err}");
}

/// The acceptance gate on the real tree: the workspace audits clean with
/// the committed allowlist, which stays within its entry budget.
#[test]
fn real_workspace_audits_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let allow_text =
        std::fs::read_to_string(root.join("audit-allow.toml")).expect("read audit-allow.toml");
    let allow = Allowlist::parse(&allow_text).expect("valid committed allowlist");
    assert!(
        allow.entries.len() <= 10,
        "allowlist over budget: {} entries",
        allow.entries.len()
    );
    let report = tahoma_audit::run_audit(&root, &allow).expect("scan workspace");
    assert!(
        report.clean(),
        "workspace must audit clean:\n{}",
        report.human()
    );
}
