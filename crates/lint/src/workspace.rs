//! Workspace discovery: find first-party crates and their Rust sources.
//!
//! The scan set covers every first-party *target*: library code (`src/**`),
//! binaries (`src/main.rs`, `src/bin/**`), benches
//! (`benches/**`) and examples (`examples/**`) — for the root package and
//! every `crates/*` member. `tests/` trees are test code by construction
//! and the `shims/` stand-ins for external crates are vendored surface,
//! not first-party code; both are skipped, but skipped `.rs` files are
//! *counted* ([`count_rs_files`]) so the report can surface coverage gaps
//! instead of silently narrowing. The fixture crates under
//! `crates/lint/tests/fixtures/` live under a `tests/` tree and are never
//! part of a workspace walk; fixture checks point the engine at them
//! explicitly.

use crate::source::SourceFile;
use crate::LintError;
use std::path::{Path, PathBuf};

/// One crate to lint: its package name and target directories.
#[derive(Debug, Clone)]
pub struct CrateSrc {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// The crate's root directory (holding `Cargo.toml`).
    pub crate_dir: PathBuf,
    /// The crate's `src/` directory.
    pub src_dir: PathBuf,
    /// Root-relative prefix for report paths (e.g. `crates/tensor`).
    pub rel_prefix: String,
}

/// Discovers first-party crates under `root`: the root package (if it has a
/// `src/`) plus every `crates/*` member. `shims/*` are excluded by design.
///
/// # Errors
///
/// [`LintError::NotAWorkspace`] when `root` has no `Cargo.toml`, and
/// [`LintError::Io`] on unreadable directories.
pub fn discover(root: &Path) -> Result<Vec<CrateSrc>, LintError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(LintError::NotAWorkspace {
            root: root.display().to_string(),
        });
    }
    let members = match root.join("crates") {
        dir if dir.is_dir() => read_dir_sorted(&dir)?,
        _ => Vec::new(),
    };
    let mut out = Vec::new();
    for dir in std::iter::once(root.to_path_buf()).chain(members) {
        let src_dir = dir.join("src");
        let Some(name) = package_name(&dir.join("Cargo.toml")).filter(|_| src_dir.is_dir()) else {
            continue;
        };
        out.push(CrateSrc {
            name,
            rel_prefix: rel_path(&dir, root),
            crate_dir: dir,
            src_dir,
        });
    }
    Ok(out)
}

/// Loads every `.rs` file belonging to the crate's targets: `src/**`
/// (binary targets `src/main.rs` / `src/bin/**` marked non-library), plus
/// `benches/**` and `examples/**` when present.
pub fn load_sources(krate: &CrateSrc) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    for tree in ["src", "benches", "examples"].map(|t| krate.crate_dir.join(t)) {
        if !tree.is_dir() {
            continue;
        }
        for path in rs_files(&tree, &[])? {
            let in_crate = rel_path(&path, &krate.crate_dir);
            let lib = in_crate.starts_with("src/")
                && in_crate != "src/main.rs"
                && !in_crate.starts_with("src/bin/");
            let rel = match krate.rel_prefix.as_str() {
                "" => in_crate,
                prefix => format!("{prefix}/{in_crate}"),
            };
            let src = std::fs::read_to_string(&path).map_err(io_error(&path))?;
            files.push(SourceFile::from_source(rel, lib, &src));
        }
    }
    Ok(files)
}

/// Counts every `.rs` file under `root`, excluding build output and VCS
/// metadata. The difference between this and the number of files the walk
/// loaded is the *skipped* count the report prints: tests, shims and
/// fixtures that are out of scope by design, visible instead of silent.
pub fn count_rs_files(root: &Path) -> Result<usize, LintError> {
    Ok(rs_files(root, &[".git", "target", "node_modules"])?.len())
}

/// Every `.rs` file under `dir` (depth first, each directory's entries by
/// name), not descending into directories named in `skip`.
fn rs_files(dir: &Path, skip: &[&str]) -> Result<Vec<PathBuf>, LintError> {
    let (mut out, mut stack) = (Vec::new(), vec![dir.to_path_buf()]);
    while let Some(dir) = stack.pop() {
        for entry in read_dir_sorted(&dir)? {
            if !entry.is_dir() {
                if entry.extension().is_some_and(|e| e == "rs") {
                    out.push(entry);
                }
            } else if !entry
                .file_name()
                .is_some_and(|n| skip.iter().any(|s| n == *s))
            {
                stack.push(entry);
            }
        }
    }
    Ok(out)
}

/// `path` relative to `base`, with `/` separators.
fn rel_path(path: &Path, base: &Path) -> String {
    let rel = path.strip_prefix(base).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Reads a directory, sorted by name for deterministic reports.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let entries = std::fs::read_dir(dir).map_err(io_error(dir))?;
    let mut paths = entries
        .map(|e| e.map(|e| e.path()).map_err(io_error(dir)))
        .collect::<Result<Vec<_>, _>>()?;
    paths.sort();
    Ok(paths)
}

/// Turns an I/O error on `path` into [`LintError::Io`].
fn io_error(path: &Path) -> impl Fn(std::io::Error) -> LintError + '_ {
    move |e| LintError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Extracts `name = "..."` from a manifest's `[package]` section with a
/// plain line scan (the workspace manifests are simple enough that a TOML
/// parser would be dead weight).
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        // crates/lint/.. /.. == the workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    }

    #[test]
    fn discovers_this_workspace() {
        let crates = discover(&workspace_root()).unwrap();
        let names: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"adv-lint"), "{names:?}");
        assert!(names.contains(&"adv-serve"), "{names:?}");
        assert!(names.contains(&"magnet-l1"), "{names:?}");
        assert!(
            !names.iter().any(|n| n.starts_with("shim")),
            "shims must not be linted: {names:?}"
        );
    }

    #[test]
    fn classifies_bin_files() {
        let crates = discover(&workspace_root()).unwrap();
        let core = crates.iter().find(|c| c.name == "adv-eval").unwrap();
        let files = load_sources(core).unwrap();
        let probe = files
            .iter()
            .find(|f| f.rel.ends_with("bin/serve_probe.rs"))
            .unwrap();
        assert!(!probe.lib);
        let lib = files
            .iter()
            .find(|f| f.rel.ends_with("src/lib.rs"))
            .unwrap();
        assert!(lib.lib);
    }

    #[test]
    fn scans_member_and_root_example_targets() {
        let crates = discover(&workspace_root()).unwrap();
        let profile = crates.iter().find(|c| c.name == "adv-profile").unwrap();
        let files = load_sources(profile).unwrap();
        let m = files
            .iter()
            .find(|f| f.rel.ends_with("examples/obs_overhead.rs"))
            .expect("member-crate examples must be scanned");
        assert!(!m.lib);

        let root_pkg = crates.iter().find(|c| c.name == "magnet-l1").unwrap();
        let files = load_sources(root_pkg).unwrap();
        let e = files
            .iter()
            .find(|f| f.rel == "examples/quickstart.rs")
            .expect("root examples must be scanned");
        assert!(!e.lib);
    }

    #[test]
    fn skipped_file_count_is_visible() {
        let root = workspace_root();
        let total = count_rs_files(&root).unwrap();
        let crates = discover(&root).unwrap();
        let scanned: usize = crates
            .iter()
            .map(|c| load_sources(c).map(|f| f.len()).unwrap_or(0))
            .sum();
        assert!(
            total > scanned,
            "tests/shims/fixtures should make total ({total}) > scanned ({scanned})"
        );
    }

    #[test]
    fn missing_workspace_is_a_typed_error() {
        let err = discover(Path::new("/nonexistent-lint-root")).unwrap_err();
        assert!(matches!(err, LintError::NotAWorkspace { .. }));
    }
}
