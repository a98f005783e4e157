//! adv-lint CLI.
//!
//! ```text
//! adv-lint check [--root DIR] [--format text|json] [--out FILE]
//! adv-lint debt  [--root DIR] [--write]
//! adv-lint rules
//! ```
//!
//! `debt` prints the live per-rule suppression counts (`lint-ok` comments
//! and `#[expect(clippy::..)]` attributes) in the baseline format;
//! `--write` updates `lint_debt.json` at the root (the conscious act the
//! `lint-debt` rule requires when suppression debt grows).
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error — so CI can
//! distinguish "violations" from "the linter itself broke".

use adv_lint::rules::{all_rules, WS_RULES};
use adv_lint::{debt, run_check, LintError};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    root: PathBuf,
    json: bool,
    write: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, LintError> {
    let mut args = Args {
        command: String::new(),
        root: PathBuf::from("."),
        json: false,
        write: false,
        out: None,
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
            "--format" => {
                let value = it
                    .next()
                    .ok_or_else(|| LintError::Usage("--format needs text|json".into()))?;
                match value.as_str() {
                    "json" => args.json = true,
                    "text" => args.json = false,
                    other => {
                        return Err(LintError::Usage(format!(
                            "unknown format '{other}' (expected text|json)"
                        )))
                    }
                }
            }
            "--out" => {
                let value = it
                    .next()
                    .ok_or_else(|| LintError::Usage("--out needs a file path".into()))?;
                args.out = Some(PathBuf::from(value));
            }
            other => {
                return Err(LintError::Usage(format!("unknown argument '{other}'")));
            }
        }
    }
    Ok(args)
}

fn usage() -> &'static str {
    "usage: adv-lint <check|debt|rules> [--root DIR] [--format text|json] [--out FILE] [--write]"
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
            println!("per-file rules:");
            for rule in all_rules() {
                println!("  {:<20} {}", rule.id(), rule.summary());
            }
            println!("workspace-wide rules (two-pass, over the symbol table):");
            for (id, summary) in WS_RULES {
                println!("  {id:<20} {summary}");
            }
            println!("engine checks:");
            println!(
                "  {:<20} allowlist comments must name a known rule and give a reason",
                "lint-ok-syntax"
            );
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
                let rendered = report.render(args.json);
                if let Some(out_path) = &args.out {
                    if let Err(e) = std::fs::write(out_path, &rendered) {
                        eprintln!("adv-lint: cannot write {}: {e}", out_path.display());
                        return ExitCode::from(2);
                    }
                    // Keep the human summary on stdout even when the report
                    // goes to a file.
                    if args.json {
                        println!(
                            "adv-lint: {} finding(s), report written to {}",
                            report.findings.len(),
                            out_path.display()
                        );
                    }
                } else {
                    print!("{rendered}");
                }
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
