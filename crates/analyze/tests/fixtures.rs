//! Golden-file tests: each fixture mini-crate under `tests/fixtures/` is a
//! deliberate rule violation (or allow-comment exercise); the analyzer's
//! rendered diagnostics must match `expected.txt` byte for byte.
//!
//! Regenerate a golden after an intentional message change with:
//! `cargo run -p setstream-analyze -- --root crates/analyze/tests/fixtures/<case> --fixture`

use setstream_analyze::{analyze, loc_by_crate, render, Config};
use std::path::{Path, PathBuf};

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case)
}

fn check_fixture(case: &str) {
    let root = fixture_root(case);
    let diags = analyze(&Config::fixture(&root)).expect("fixture tree is readable");
    let actual = render(&diags);
    let golden_path = root.join("expected.txt");
    let expected = std::fs::read_to_string(&golden_path).expect("golden file exists");
    assert_eq!(
        actual, expected,
        "fixture `{case}` diverged from its golden ({}) — if the change is \
         intentional, regenerate with `cargo run -p setstream-analyze -- \
         --root crates/analyze/tests/fixtures/{case} --fixture`",
        golden_path.display()
    );
}

#[test]
fn a00_malformed_allows_are_reported_and_do_not_waive() {
    check_fixture("a00_malformed");
}

#[test]
fn a01_atomic_orderings_outside_audited_modules() {
    check_fixture("a01_atomics");
}

#[test]
fn a02_raw_field_arithmetic_outside_field_module() {
    check_fixture("a02_field");
}

#[test]
fn a03_panic_class_constructs_in_library_code() {
    check_fixture("a03_panic");
}

#[test]
fn a04_internal_caller_of_deprecated_api() {
    check_fixture("a04_deprecated");
}

#[test]
fn a05_duplicated_container_magic() {
    check_fixture("a05_magic");
}

#[test]
fn a06_error_enum_without_impls() {
    check_fixture("a06_error");
}

#[test]
fn a07_cell_writes_outside_kernel() {
    check_fixture("a07_cells");
}

#[test]
fn a08_unsafe_without_safety_and_feature_discipline() {
    check_fixture("a08_unsafe");
}

#[test]
fn a09_lock_order_cycles_and_io_under_guard() {
    check_fixture("a09_locks");
}

#[test]
fn a10_unpaired_release_acquire() {
    check_fixture("a10_atomics");
}

#[test]
fn a11_allocation_reached_from_hot_root() {
    check_fixture("a11_hotpath");
}

#[test]
fn a11_unresolved_hot_root_is_reported() {
    check_fixture("a11_unresolved");
}

#[test]
fn a12_wildcard_arm_over_wire_enum() {
    check_fixture("a12_wire");
}

#[test]
fn allowed_fixture_is_clean() {
    check_fixture("allowed");
    // Belt and braces: the golden itself must be empty.
    let golden = fixture_root("allowed").join("expected.txt");
    let text = std::fs::read_to_string(golden).expect("golden file exists");
    assert!(text.is_empty(), "the `allowed` fixture must produce no diagnostics");
}

/// Pins the line-ratchet counting rule (`--loc`): code lines count,
/// trailing comments included; blank lines, `//`, `///` and `/* */`
/// comments, literal-only continuation lines and `#[cfg(test)]` regions
/// do not — code after a test module counts again.
#[test]
fn loc_counts_only_non_test_code_lines() {
    let root = fixture_root("loc");
    let counts = loc_by_crate(&Config::fixture(&root)).expect("fixture tree is readable");
    let actual: String = counts.iter().map(|(c, n)| format!("{c} {n}\n")).collect();
    let expected = std::fs::read_to_string(root.join("expected.txt")).expect("golden file exists");
    assert_eq!(actual, expected);
}

#[test]
fn every_fixture_directory_has_a_test() {
    // Guard against adding a fixture and forgetting to wire a golden test.
    let covered = [
        "a00_malformed",
        "a01_atomics",
        "a02_field",
        "a03_panic",
        "a04_deprecated",
        "a05_magic",
        "a06_error",
        "a07_cells",
        "a08_unsafe",
        "a09_locks",
        "a10_atomics",
        "a11_hotpath",
        "a11_unresolved",
        "a12_wire",
        "allowed",
        "loc",
    ];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir exists") {
        let entry = entry.expect("readable fixtures dir");
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if !covered.contains(&name.as_str()) {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "fixture dirs without a golden test here: {missing:?}"
    );
}

/// The real workspace must be clean: this is the same invariant
/// `scripts/tier1.sh` enforces by running the CLI, kept here too so plain
/// `cargo test` catches regressions without the script.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("analyze crate lives at <workspace>/crates/analyze")
        .to_path_buf();
    let diags = analyze(&Config::workspace(&root)).expect("workspace tree is readable");
    assert!(
        diags.is_empty(),
        "setstream-analyze found {} finding(s) in the workspace:\n{}",
        diags.len(),
        render(&diags)
    );
}
