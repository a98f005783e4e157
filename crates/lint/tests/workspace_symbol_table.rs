//! Pins the pass-1 symbol-table inventory over the *real* workspace, plus
//! the crate-level lint policy that rustc and clippy enforce but cannot
//! check the presence of.
//!
//! These assertions are the machine-checked form of DESIGN.md's claims
//! about the codebase: how many atomic fields exist, that every crate
//! forbids `unsafe` unless `unsafe_policy.txt` clears it, and that every
//! `KernelKind` slot is actually entered somewhere. When one of these
//! fails, either the code drifted (update DESIGN.md too) or the table
//! collector regressed.

use adv_lint::build_symbol_table;
use adv_lint::workspace::discover;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn pass1_inventory_matches_the_workspace() {
    let table = build_symbol_table(&workspace_root()).expect("workspace must be walkable");

    // Atomic protocol inventory: the workspace's lock-free state lives in a
    // known set of struct/static fields, and every load/store/RMW site
    // resolves to one of them.
    assert!(
        table.atomic_fields.len() >= 30,
        "expected the full atomic-field inventory, got {}: {:?}",
        table.atomic_fields.len(),
        table
            .atomic_fields
            .iter()
            .map(|f| format!("{}.{}", f.owner, f.field))
            .collect::<Vec<_>>()
    );
    assert!(
        !table.atomic_sites.is_empty(),
        "atomic access sites must be collected"
    );

    // Pure counters (every non-test access Relaxed, ops within the counter
    // set) are what lets atomic-protocol retire justification comments; the
    // workspace has plenty.
    assert!(
        table.relaxed_counters.len() >= 10,
        "expected proven Relaxed counters, got {:?}",
        table.relaxed_counters
    );

    // Kernel accounting: all fifteen KernelKind slots exist and each one
    // is entered by at least one non-test KernelScope::enter site.
    assert_eq!(
        table.kernel_variants.len(),
        15,
        "KernelKind inventory drifted: {:?}",
        table
            .kernel_variants
            .iter()
            .map(|v| v.name.clone())
            .collect::<Vec<_>>()
    );
    let dead: Vec<_> = table
        .dead_kernel_variants()
        .iter()
        .map(|v| v.name.clone())
        .collect();
    assert!(dead.is_empty(), "dead KernelKind slots: {dead:?}");
}

/// The crates `unsafe_policy.txt` clears to use `unsafe`: `<crate>: <reason>`
/// lines, `#` comments.
fn unsafe_policy() -> Vec<String> {
    let text = std::fs::read_to_string(workspace_root().join("unsafe_policy.txt"))
        .expect("unsafe_policy.txt sits at the workspace root");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, reason) = l.split_once(':').expect("`<crate>: <reason>` line");
            assert!(
                !reason.trim().is_empty(),
                "{name} is cleared without a reason"
            );
            name.trim().to_string()
        })
        .collect()
}

/// `#![forbid(unsafe_code)]` is the crate-level half of the unsafe policy
/// (clippy's `undocumented_unsafe_blocks` is the per-block half): every
/// workspace `lib.rs` carries it unless `unsafe_policy.txt` clears the
/// crate, and every cleared crate exists. A cleared crate still carries
/// `#![deny(unsafe_code)]`, so each of its unsafe sites needs an
/// `#[expect(unsafe_code, reason = "...")]` where it is.
#[test]
fn every_lib_forbids_unsafe_unless_the_policy_clears_it() {
    let crates = discover(&workspace_root()).expect("workspace must be walkable");
    let cleared = unsafe_policy();
    for name in &cleared {
        assert!(
            crates.iter().any(|c| &c.name == name),
            "unsafe_policy.txt clears `{name}`, which is not a workspace crate"
        );
    }
    let mut checked = 0;
    for krate in &crates {
        let Ok(lib) = std::fs::read_to_string(krate.src_dir.join("lib.rs")) else {
            continue;
        };
        checked += 1;
        let (attr, why) = if cleared.contains(&krate.name) {
            ("#![deny(unsafe_code)]", "is cleared")
        } else {
            ("#![forbid(unsafe_code)]", "is not cleared")
        };
        assert!(
            lib.lines().any(|l| l.trim() == attr),
            "{}/src/lib.rs must carry {attr}: `{}` {why} by unsafe_policy.txt",
            krate.rel_prefix,
            krate.name
        );
    }
    assert!(checked > 10, "every workspace lib.rs was read");
}

/// The bare-`unwrap` ban on bins, benches and examples is a package-level
/// `[lints]` entry, so it reaches a new target of a package that already
/// has one. A package that gains its first such target must add the entry.
#[test]
fn every_package_with_entrypoints_denies_bare_unwrap() {
    let crates = discover(&workspace_root()).expect("workspace must be walkable");
    for krate in &crates {
        let dir = &krate.crate_dir;
        let has_entrypoint = dir.join("src/main.rs").is_file()
            || ["src/bin", "benches", "examples"]
                .iter()
                .any(|d| dir.join(d).is_dir());
        if !has_entrypoint {
            continue;
        }
        let manifest =
            std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest is readable");
        assert!(
            manifest
                .lines()
                .any(|l| l.trim() == "unwrap_used = \"deny\""),
            "package `{}` has bin/bench/example targets, so its [lints.clippy] \
             table must set `unwrap_used = \"deny\"`",
            krate.name
        );
    }
}
