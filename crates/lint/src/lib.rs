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
//! allocation-free measured kernel regions, and no dead kernel slots or
//! metrics — with a token-level static analysis in two passes:
//!
//! - **Pass 1** ([`table`]) walks every first-party target (library code,
//!   binaries, benches, examples) and builds a workspace symbol table:
//!   atomic field declarations and every load/store/RMW site keyed by
//!   field, `KernelKind` variants vs `KernelScope::enter` call sites, and
//!   metric registrations vs the DESIGN.md schema.
//! - **Pass 2** runs the per-file rules ([`rules`]) *and* the cross-file
//!   rules ([`rules::ws`]) over that table: `atomic-protocol`,
//!   `no-alloc-in-kernel`, `dead-slot`, `dead-metric`, plus the
//!   suppression-debt ratchet ([`debt`]).
//!
//! The building blocks are a comment/string-aware lexer ([`lexer`]), a
//! per-file model with test-region and allowlist maps ([`source`]), and a
//! diagnostics layer producing rustc-style text and a machine-readable
//! JSON report ([`diagnostics`]).
//!
//! Run it over the workspace with `cargo run -p adv-lint -- check`
//! (`--format json` for the report CI uploads). A finding is suppressed
//! only by an allowlist comment that names the rule *and* gives a reason:
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
//! matches surface syntax that cannot be confused by context once strings
//! and comments are scrubbed. The fixture suites under `tests/fixtures/`
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

pub use diagnostics::{render_json, render_text, Finding};
pub use table::SymbolTable;

use rules::{all_rule_ids, all_rules};
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
    /// An unknown CLI argument or value.
    Usage(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            LintError::NotAWorkspace { root } => {
                write!(f, "{root} is not a workspace root (no Cargo.toml)")
            }
            LintError::Usage(msg) => write!(f, "usage error: {msg}"),
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

    /// Renders the report as text or JSON.
    pub fn render(&self, json: bool) -> String {
        if json {
            render_json(
                &self.findings,
                self.files_checked,
                self.skipped,
                self.allows,
            )
        } else if self.findings.is_empty() {
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
    let rules = all_rules();
    let known = all_rule_ids();
    let mut findings = Vec::new();
    let mut allows_by_rule: BTreeMap<String, usize> = BTreeMap::new();

    // Load everything first: pass 1 (the symbol table) needs the whole
    // workspace in view before any cross-file rule can run.
    let files = load_workspace(root)?;
    let symbols = table::SymbolTable::build(root, &files);

    // Pass 2a: per-file rules.
    for file in &files {
        // A statement-scoped allow appears once per covered line; count
        // distinct comments, not coverage.
        let distinct: std::collections::BTreeSet<(usize, &str)> = file
            .allows
            .iter()
            .flatten()
            .map(|a| (a.comment_line, a.rule.as_str()))
            .collect();
        for (_, rule) in &distinct {
            *allows_by_rule.entry((*rule).to_string()).or_insert(0) += 1;
        }
        debt::count_clippy_expects(&file.code.join("\n"), &mut allows_by_rule);
        check_allow_comments(file, &known, &mut findings);
        for rule in &rules {
            rule.check(file, &mut findings);
        }
    }

    // The symbol table proves some ordering sites benign: fields whose
    // every access is a Relaxed pure counter need no justification, so
    // `ordering-justified` findings on those exact tokens are dropped.
    findings.retain(|f| {
        !(f.rule == "ordering-justified"
            && f.column > 0
            && symbols
                .exempt_ordering_tokens
                .contains(&(f.path.clone(), f.line, f.column - 1)))
    });

    // Pass 2b: workspace-wide rules over the symbol table.
    let ws_ctx = rules::WsCtx {
        files: files.iter().map(|f| (f.rel.as_str(), f)).collect(),
        design_lines: std::fs::read_to_string(root.join("DESIGN.md"))
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default(),
    };
    rules::check_workspace(&symbols, &ws_ctx, &mut findings);

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

/// Builds just the pass-1 symbol table for the workspace at `root`
/// (used by the `workspace_symbol_table` integration test and exploratory
/// tooling; `run_check` builds its own).
///
/// # Errors
///
/// Propagates [`LintError`] from discovery and file loading.
pub fn build_symbol_table(root: &Path) -> Result<table::SymbolTable, LintError> {
    Ok(table::SymbolTable::build(root, &load_workspace(root)?))
}

/// Loads every scanned file of every discovered crate.
fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    for krate in workspace::discover(root)? {
        files.extend(workspace::load_sources(&krate)?);
    }
    Ok(files)
}

/// Reports malformed allowlist comments (`lint-ok-syntax`): a missing
/// reason, or a rule id the engine does not know.
fn check_allow_comments(file: &SourceFile, known: &[&'static str], out: &mut Vec<Finding>) {
    for &line in &file.malformed_allows {
        if file.is_test_line(line) {
            continue;
        }
        out.push(Finding {
            rule: "lint-ok-syntax",
            path: file.rel.clone(),
            line,
            column: 1,
            width: 1,
            message: "`lint-ok(..)` comment without a reason".to_string(),
            snippet: file.lines.get(line - 1).cloned().unwrap_or_default(),
            help: "write `// lint-ok(<rule>): <reason>` — the reason is mandatory".to_string(),
        });
    }
    let mut reported: std::collections::BTreeSet<(usize, &str)> = std::collections::BTreeSet::new();
    for (idx, entries) in file.allows.iter().enumerate() {
        for allow in entries {
            if !known.contains(&allow.rule.as_str())
                && !file.is_test_line(allow.comment_line)
                && reported.insert((allow.comment_line, allow.rule.as_str()))
            {
                out.push(Finding {
                    rule: "lint-ok-syntax",
                    path: file.rel.clone(),
                    line: allow.comment_line,
                    column: 1,
                    width: 1,
                    message: format!("`lint-ok({})` names an unknown rule", allow.rule),
                    snippet: file
                        .lines
                        .get(allow.comment_line - 1)
                        .or_else(|| file.lines.get(idx))
                        .cloned()
                        .unwrap_or_default(),
                    help: "run `adv-lint rules` for the rule list".to_string(),
                });
            }
        }
    }
}
