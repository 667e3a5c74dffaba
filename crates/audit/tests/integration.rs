//! End-to-end lint coverage: seeded violations per lint must be caught,
//! clean fixtures must pass, and the real workspace must audit clean.

use std::collections::BTreeMap;
use tahoma_audit::{audit_in_memory, Report};

fn fixture(files: &[(&str, &str)]) -> BTreeMap<String, String> {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn audit(files: &[(&str, &str)]) -> Report {
    audit_in_memory(&fixture(files))
}

fn lints_of(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.lint).collect()
}

/// A compliant crate: raw-pointer ops in a kernel file, a ranked mutex
/// in serve scope.
const CLEAN_LIB: &str = r#"
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
        ("crates/nn/src/lib.rs", "pub mod gemm;\n"),
        (
            "crates/serve/src/lib.rs",
            "use std::sync::Mutex;\npub struct S {\n    // LOCK-ORDER: 10\n    inner: Mutex<u32>,\n}\n",
        ),
    ]);
    assert!(report.clean(), "unexpected findings: {}", report.human());
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
fn a5_raw_pointer_ops_confined_to_kernel_files() {
    let raw =
        "pub fn f(p: *const f32) -> f32 {\n    // SAFETY: fixture.\n    unsafe { *p.add(1) }\n}\n";
    let report = audit(&[("crates/core/src/exec.rs", raw)]);
    assert!(
        lints_of(&report).contains(&"A5"),
        "raw pointer op outside the kernel files must be flagged: {}",
        report.human()
    );
    // The same op inside a sanctioned kernel file passes.
    let ok = audit(&[("crates/nn/src/gemm.rs", raw)]);
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

/// The acceptance gate on the real tree: the workspace audits clean.
#[test]
fn real_workspace_audits_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = tahoma_audit::run_audit(&root).expect("scan workspace");
    assert!(
        report.clean(),
        "workspace must audit clean:\n{}",
        report.human()
    );
}
