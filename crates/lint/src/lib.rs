//! adv-lint: the workspace invariant linter — the checks clippy cannot
//! express, as a two-pass, workspace-wide analysis.
//!
//! Clippy and rustc own the invariants they can see: panic-free library
//! code in the core crates (`clippy::unwrap_used` and friends, denied in
//! each core `lib.rs`), no bare `unwrap` in bins, benches and examples,
//! gated clock reads (`clippy::disallowed_methods`, configured in the root
//! `clippy.toml`), and `#![forbid(unsafe_code)]` with
//! `clippy::undocumented_unsafe_blocks` for `unsafe`. This crate enforces
//! the rest — a written rationale for every atomic ordering, a paired
//! acquire/release protocol, typed error enums on public fallible APIs,
//! allocation-free measured kernel regions, and no dead kernel slots —
//! with a token-level static analysis in two passes:
//!
//! - **Load**: each first-party target file (library code, binaries,
//!   benches, examples) becomes one [`source::SourceFile`]: its token
//!   stream ([`lexer`]: words, punctuation and literals with their line,
//!   column and paired delimiters), its original lines for snippets, its
//!   test regions and its allowlist comments.
//! - **Pass 1** ([`table`]) builds a workspace symbol table in one walk
//!   over each file's tokens: atomic field declarations and every
//!   load/store/RMW site keyed by field, and `KernelKind` variants vs
//!   `KernelScope::enter` call sites.
//! - **Pass 2** calls each rule in [`rules`] — plain functions over one
//!   file or over the table: `ordering-justified`, `crate-error-types`,
//!   `atomic-protocol`, `no-alloc-in-kernel`, `dead-slot` — plus the
//!   `lint-ok-syntax` check and the suppression-debt ratchet ([`debt`]).
//!
//! Findings render rustc-style ([`diagnostics`]). Run it over the workspace
//! with `cargo run -p adv-lint -- check`. A finding is suppressed only by
//! an allowlist comment that names the rule *and* gives a reason:
//!
//! ```text
//! // lint-ok(atomic-protocol): cross-thread handoff documented in DESIGN.md
//! self.state.store(OPEN, Ordering::Release);
//! ```
//!
//! Allowlist comments with a missing reason, or naming an unknown rule, are
//! themselves findings (`lint-ok-syntax`). The per-rule allow counts —
//! these comments plus every `#[expect(clippy::<lint>)]` suppressing a
//! clippy-owned invariant — are ratcheted against the committed
//! `lint_debt.json` baseline (`lint-debt`), so a stale or lazy allowlist
//! fails the build just like the violation it hides. The symbol table also
//! works *for* the allowlist: atomic fields whose every access is a
//! `Relaxed` pure counter are proven benign and need no justification at
//! all (stale ones are flagged).
//!
//! The analysis is deliberately token-level rather than type-aware (the
//! offline build environment has no `syn`/`rustc` driver): every rule
//! matches token patterns, and string or comment content never becomes a
//! token a pattern could match. The fixture suites under `tests/fixtures/`
//! pin each rule's behavior; the `workspace_is_clean` integration test
//! pins the whole workspace at zero findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod debt;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod table;
pub mod workspace;

pub use diagnostics::{render_text, Finding};
pub use table::SymbolTable;

use source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// Errors from the linter itself (not findings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// The given root has no `Cargo.toml`.
    NotAWorkspace {
        /// The root that was tried.
        root: String,
    },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            LintError::NotAWorkspace { root } => {
                write!(f, "{root} is not a workspace root (no Cargo.toml)")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Every surviving finding, in path/line order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_checked: usize,
    /// Number of `.rs` files under the root that the walk did *not* scan
    /// (tests, shims, fixtures) — printed so coverage gaps stay visible.
    pub skipped: usize,
    /// Number of suppressions seen: well-formed allowlist comments plus
    /// `#[expect(clippy::..)]` lint names.
    pub allows: usize,
    /// Suppressions per rule or `clippy::<lint>` (the suppression-debt
    /// counts).
    pub allows_by_rule: BTreeMap<String, usize>,
}

impl Report {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report: every finding rustc-style, then a summary line.
    pub fn render(&self) -> String {
        if self.findings.is_empty() {
            format!(
                "adv-lint: clean — {} files checked, {} skipped \
                 (tests/shims/fixtures), {} allowlisted sites\n",
                self.files_checked, self.skipped, self.allows
            )
        } else {
            format!(
                "{}adv-lint: {} finding(s) in {} files checked ({} skipped)\n",
                render_text(&self.findings),
                self.findings.len(),
                self.files_checked,
                self.skipped
            )
        }
    }
}

/// Lints the workspace at `root`.
///
/// # Errors
///
/// Propagates [`LintError`] from discovery and file loading; findings are
/// data, not errors.
pub fn run_check(root: &Path) -> Result<Report, LintError> {
    let files = load_workspace(root)?;
    let mut findings = lint_files(&files);
    let mut allows_by_rule: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files {
        for allow in &file.allows {
            *allows_by_rule.entry(allow.rule.clone()).or_insert(0) += 1;
        }
        debt::count_clippy_expects(&file.tokens, &mut allows_by_rule);
    }

    // The suppression-debt ratchet against the committed baseline.
    debt::check_debt(root, &allows_by_rule, &mut findings);

    let skipped = workspace::count_rs_files(root)?.saturating_sub(files.len());

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
    });
    Ok(Report {
        findings,
        files_checked: files.len(),
        skipped,
        allows: allows_by_rule.values().sum(),
        allows_by_rule,
    })
}

/// Runs every rule but the suppression-debt ratchet over `files`, which
/// must be the whole workspace: pass 1 (the symbol table) needs every file
/// in view before any cross-file rule can run. Findings come out unsorted.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let table = SymbolTable::build(files);
    let mut findings = Vec::new();

    // Pass 2a: per-file rules.
    for (idx, file) in files.iter().enumerate() {
        rules::lint_ok_syntax(file, &mut findings);
        rules::ordering_justified(file, idx, &table, &mut findings);
        rules::crate_error_types(file, &mut findings);
    }

    // Pass 2b: workspace-wide rules over the symbol table.
    rules::atomic_protocol(&table, files, &mut findings);
    rules::alloc_in_kernel(&table, files, &mut findings);
    rules::dead_slots(&table, files, &mut findings);
    findings
}

/// Builds just the pass-1 symbol table for the workspace at `root`
/// (used by the `workspace_symbol_table` integration test and exploratory
/// tooling; `run_check` builds its own).
///
/// # Errors
///
/// Propagates [`LintError`] from discovery and file loading.
pub fn build_symbol_table(root: &Path) -> Result<SymbolTable, LintError> {
    Ok(SymbolTable::build(&load_workspace(root)?))
}

/// Loads every scanned file of every discovered crate.
///
/// # Errors
///
/// Propagates [`LintError`] from discovery and file loading.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    for krate in workspace::discover(root)? {
        files.extend(workspace::load_sources(&krate)?);
    }
    Ok(files)
}
