//! Fixture-based integration tests: each rule fires exactly once on the
//! `violations` fixture workspace, the `clean` fixture is finding-free, and
//! the real workspace passes the default policy end to end.

use adv_lint::run_check;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_fixture_triggers_each_rule_exactly_once() {
    let report = run_check(&fixture("violations")).expect("fixture workspace must be walkable");

    let mut by_rule: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    by_rule.sort_unstable();
    assert_eq!(
        by_rule,
        vec![
            ("crate-error-types", "crates/fx-errors/src/lib.rs", 10),
            ("lint-ok-syntax", "crates/fx-allow/src/lib.rs", 13),
            ("ordering-justified", "crates/fx-ordering/src/lib.rs", 11),
        ],
        "each rule must fire exactly once, nowhere else: {:#?}",
        report.findings
    );
}

#[test]
fn violations_fixture_diagnostics_carry_file_line_and_caret() {
    let report = run_check(&fixture("violations")).expect("walkable");
    assert!(!report.is_clean());

    let text = report.render();
    assert!(
        text.contains("--> crates/fx-errors/src/lib.rs:10:"),
        "rustc-style file:line:col expected:\n{text}"
    );
    assert!(text.contains('^'), "caret underline expected:\n{text}");
    assert!(
        text.contains("error[crate-error-types]"),
        "rule id in header expected:\n{text}"
    );
}

#[test]
fn clean_fixture_has_no_findings_and_counts_allows() {
    let report = run_check(&fixture("clean")).expect("fixture must be walkable");
    assert!(
        report.is_clean(),
        "clean fixture must pass: {:#?}",
        report.findings
    );
    assert_eq!(
        report.allows, 3,
        "the lint-ok comment and both #[expect]s must be counted"
    );
    assert_eq!(report.allows_by_rule.get("clippy::unwrap_used"), Some(&1));
}

#[test]
fn missing_fixture_root_is_a_typed_error() {
    let err = run_check(&fixture("does-not-exist")).unwrap_err();
    assert!(matches!(err, adv_lint::LintError::NotAWorkspace { .. }));
}

/// The acceptance gate: the real workspace is clean. A seeded violation
/// of any adv-lint rule turns this red (and `cargo run -p adv-lint --
/// check` non-zero) with a file:line diagnostic.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint always sits two levels below the root")
        .to_path_buf();
    let report = run_check(&root).expect("workspace must be walkable");
    assert!(
        report.is_clean(),
        "workspace must pass its own linter:\n{}",
        report.render()
    );
    assert!(report.files_checked > 100, "whole workspace was walked");
    assert!(report.allows > 20, "allowlist audit trail present");
}

/// One fixture workspace per workspace-wide (pass-2) rule, each pinning
/// exactly one finding — the cross-file analogue of the `violations`
/// fixture above.
#[test]
fn each_workspace_rule_fires_exactly_once_in_its_fixture() {
    let cases = [
        (
            "ws-atomic",
            "atomic-protocol",
            "crates/fx-atomic/src/lib.rs",
        ),
        (
            "ws-alloc",
            "no-alloc-in-kernel",
            "crates/fx-alloc/src/lib.rs",
        ),
        ("ws-deadslot", "dead-slot", "crates/fx-deadslot/src/lib.rs"),
        ("ws-debt", "lint-debt", "lint_debt.json"),
    ];
    for (fx, rule, path) in cases {
        let report = run_check(&fixture(fx)).expect("fixture workspace must be walkable");
        assert_eq!(
            report.findings.len(),
            1,
            "{fx} must pin exactly one finding: {:#?}",
            report.findings
        );
        assert_eq!(report.findings[0].rule, rule, "{fx}");
        assert_eq!(report.findings[0].path, path, "{fx}");
    }
}
