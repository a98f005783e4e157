//! `experiments_md` against the committed smoke golden: it renders every
//! section of `EXPERIMENTS.md` from the golden's CSVs, and with one CSV
//! missing it names that file, writes nothing and exits 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A fresh directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments_md_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Runs `experiments_md --scale smoke --out <results>` with `cwd` as its
/// working directory.
fn render(cwd: &Path, results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments_md"))
        .current_dir(cwd)
        .args(["--scale", "smoke", "--out"])
        .arg(results)
        .output()
        .expect("experiments_md starts")
}

/// The `##` and `###` headers of a Markdown text.
fn headers(md: &str) -> Vec<&str> {
    md.lines().filter(|l| l.starts_with("##")).collect()
}

#[test]
fn renders_every_section_from_the_golden() {
    let cwd = scratch("golden");
    let out = render(&cwd, &repo().join("tests/golden/smoke"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let md = std::fs::read_to_string(cwd.join("EXPERIMENTS.md")).unwrap();
    let committed = std::fs::read_to_string(repo().join("EXPERIMENTS.md")).unwrap();
    let written = headers(&md);
    // Scenario names and section titles do not depend on the scale, so the
    // committed quick-scale document has the same headers.
    assert_eq!(written, headers(&committed));
    for section in [
        "## Table I (mnist)",
        "## Table VII (cifar)",
        "## Figures 2–13",
        "## Extensions",
        "### Oblivious vs gray-box crafting",
        "### EAD optimizer and budget",
        "### Per-detector detection rates",
        "## Reproduction notes",
    ] {
        assert!(written.iter().any(|h| h.starts_with(section)), "{section}");
    }
    // A quoted cell with a comma stays one cell.
    assert!(md.contains("| mnist | ISTA, 1 bs step |"), "{md}");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn a_missing_csv_is_named_and_nothing_is_written() {
    let cwd = scratch("missing");
    let results = cwd.join("results");
    std::fs::create_dir_all(&results).unwrap();
    for entry in std::fs::read_dir(repo().join("tests/golden/smoke")).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, results.join(path.file_name().unwrap())).unwrap();
    }
    let gone = "detector_breakdown_mnist.csv";
    std::fs::remove_file(results.join(gone)).unwrap();

    let out = render(&cwd, &results);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(gone), "{stderr}");
    let named = stderr
        .lines()
        .filter(|l| l.starts_with("experiments_md: missing"));
    assert_eq!(named.count(), 1, "{stderr}");
    assert!(!cwd.join("EXPERIMENTS.md").exists());
    std::fs::remove_dir_all(&cwd).ok();
}
