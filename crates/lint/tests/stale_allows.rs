//! No stale allowlist comment: with every `lint-ok(..)` comment of the real
//! workspace blanked, each well-formed allow covers at least one finding of
//! the rule it names. The `atomic-protocol` rule's own stale check covers
//! only `ordering-justified` allows on proven Relaxed counters; this test
//! covers every rule.

use adv_lint::{lint_files, load_workspace};
use std::path::Path;

#[test]
fn every_allow_covers_a_finding_of_its_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint always sits two levels below the root");
    let files = load_workspace(root).expect("workspace must be walkable");
    let blanked: Vec<_> = files
        .iter()
        .cloned()
        .map(|mut file| {
            file.allows.clear();
            file.malformed_allows.clear();
            file
        })
        .collect();
    let findings = lint_files(&blanked);

    let allows: Vec<_> = files
        .iter()
        .flat_map(|file| file.allows.iter().map(move |allow| (file, allow)))
        .collect();
    assert!(allows.len() > 50, "the workspace's allows were loaded");
    let stale: Vec<String> = allows
        .iter()
        .filter(|(file, allow)| {
            !findings.iter().any(|f| {
                f.rule == allow.rule && f.path == file.rel && allow.lines.contains(&f.line)
            })
        })
        .map(|(file, allow)| {
            format!(
                "{}:{} lint-ok({})",
                file.rel, allow.comment_line, allow.rule
            )
        })
        .collect();
    assert!(stale.is_empty(), "allows that suppress nothing: {stale:#?}");
}
