//! Pins the pass-1 symbol-table inventory over the *real* workspace.
//!
//! These assertions are the machine-checked form of DESIGN.md's claims
//! about the codebase: how many atomic fields exist, that the workspace is
//! unsafe-free ahead of the SIMD lane, and that every `KernelKind` slot is
//! actually entered somewhere. When one of these fails, either the code
//! drifted (update DESIGN.md too) or the table collector regressed.

use adv_lint::build_symbol_table;
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

    // Pre-SIMD baseline: zero `unsafe` anywhere, and every lib.rs carries
    // the forbid. unsafe_policy.txt pre-clears adv-tensor for the SIMD
    // lane, but clearance is not use.
    assert_eq!(
        table.unsafe_sites.len(),
        0,
        "workspace must be unsafe-free before the SIMD lane lands: {:?}",
        table.unsafe_sites
    );
    assert!(
        table.crate_unsafe.iter().all(|c| c.forbids_unsafe),
        "every lib.rs must carry #![forbid(unsafe_code)]: {:?}",
        table
            .crate_unsafe
            .iter()
            .filter(|c| !c.forbids_unsafe)
            .map(|c| c.name.clone())
            .collect::<Vec<_>>()
    );
    assert!(
        table.unsafe_policy.contains_key("adv-tensor"),
        "unsafe_policy.txt pre-clears the SIMD lane"
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

    // Metric registry: pass 1 sees the literal-name registrations and the
    // DESIGN.md schema block that mirrors them.
    assert!(
        table.has_metric_schema,
        "DESIGN.md must carry the metric-schema block"
    );
    let registered: std::collections::BTreeSet<&str> =
        table.metric_regs.iter().map(|r| r.name.as_str()).collect();
    for name in ["serve.submitted", "magnet.detected", "profile.dropped"] {
        assert!(registered.contains(name), "missing metric {name}");
    }
    assert_eq!(
        registered,
        table
            .doc_metrics
            .keys()
            .map(String::as_str)
            .collect::<std::collections::BTreeSet<&str>>(),
        "DESIGN.md schema and registered metrics must agree"
    );
}
