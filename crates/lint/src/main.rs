//! adv-lint CLI.
//!
//! ```text
//! adv-lint check [--root DIR]
//! adv-lint debt  [--root DIR] [--write]
//! adv-lint rules
//! ```
//!
//! `check` prints every finding rustc-style, then a summary line. `debt`
//! prints the live per-rule suppression counts (`lint-ok` comments and
//! `#[expect(clippy::..)]` attributes) in the baseline format; `--write`
//! updates `lint_debt.json` at the root (the conscious act the `lint-debt`
//! rule requires when suppression debt grows).
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error — so CI can
//! distinguish "violations" from "the linter itself broke".

use adv_lint::rules::RULES;
use adv_lint::{debt, run_check};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: adv-lint <check|debt|rules> [--root DIR] [--write]";

/// Prints a usage error and returns exit code 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("adv-lint: usage error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let (mut root, mut write) = (PathBuf::from("."), false);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--root" => match argv.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    match command.as_str() {
        "rules" => {
            for (id, summary) in RULES {
                println!("{id:<20} {summary}");
            }
            return ExitCode::SUCCESS;
        }
        "check" | "debt" => {}
        "" => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        other => {
            eprintln!("adv-lint: unknown command '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let report = match run_check(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("adv-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if command == "check" {
        print!("{}", report.render());
        return ExitCode::from(u8::from(!report.is_clean()));
    }
    let rendered = debt::render_baseline(&report.allows_by_rule);
    if !write {
        print!("{rendered}");
        return ExitCode::SUCCESS;
    }
    let path = root.join(debt::DEBT_FILE);
    if let Err(e) = std::fs::write(&path, &rendered) {
        eprintln!("adv-lint: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("adv-lint: baseline written to {}", path.display());
    ExitCode::SUCCESS
}
