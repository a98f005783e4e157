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
use adv_lint::{debt, run_check, LintError};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    root: PathBuf,
    write: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, LintError> {
    let mut args = Args {
        command: String::new(),
        root: PathBuf::from("."),
        write: false,
    };
    let mut it = argv.iter();
    args.command = it.next().cloned().unwrap_or_default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write" => {
                args.write = true;
            }
            "--root" => {
                let value = it
                    .next()
                    .ok_or_else(|| LintError::Usage("--root needs a directory".into()))?;
                args.root = PathBuf::from(value);
            }
            other => {
                return Err(LintError::Usage(format!("unknown argument '{other}'")));
            }
        }
    }
    Ok(args)
}

fn usage() -> &'static str {
    "usage: adv-lint <check|debt|rules> [--root DIR] [--write]"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adv-lint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "rules" => {
            for (id, summary) in RULES {
                println!("{id:<20} {summary}");
            }
            ExitCode::SUCCESS
        }
        "debt" => match run_check(&args.root) {
            Ok(report) => {
                let rendered = debt::render_baseline(&report.allows_by_rule);
                if args.write {
                    let path = args.root.join(debt::DEBT_FILE);
                    if let Err(e) = std::fs::write(&path, &rendered) {
                        eprintln!("adv-lint: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                    println!("adv-lint: baseline written to {}", path.display());
                } else {
                    print!("{rendered}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("adv-lint: {e}");
                ExitCode::from(2)
            }
        },
        "check" => match run_check(&args.root) {
            Ok(report) => {
                print!("{}", report.render());
                if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("adv-lint: {e}");
                ExitCode::from(2)
            }
        },
        "" => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
        other => {
            eprintln!("adv-lint: unknown command '{other}'\n{}", usage());
            ExitCode::from(2)
        }
    }
}
