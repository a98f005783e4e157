//! Regenerates every table and figure of the paper at the configured scale
//! and writes each one's output under the results directory.
//!
//! ```text
//! cargo run --release -p adv-eval --bin reproduce_all [--scale quick|paper] [--fine]
//!     [--only <artifact>[,<artifact>…]]
//! ```
//!
//! `--only` runs just the named rows of `adv_eval::artifacts::ARTIFACTS`
//! (`table1`, `tables_2_and_5`, `fig12`, …), which write the same files as
//! in a full run. The run is resumable: each stage is recorded in a
//! `run.manifest` journal under the output directory as it completes, and a
//! rerun after a crash or kill skips the recorded stages. The manifest is
//! keyed by the scale, the directories and the selection, so changing any
//! of them starts a fresh run; it is deleted once every stage is done.

use adv_eval::artifacts::{self, Artifact, ARTIFACTS};
use adv_eval::config::CliArgs;
use adv_eval::zoo::Zoo;
use std::path::Path;
use std::time::Instant;

type AnyError = Box<dyn std::error::Error>;

/// Fingerprints the run configuration: a manifest recorded under one scale,
/// directory layout or artifact selection must never satisfy a rerun under
/// another.
fn run_context(args: &CliArgs, selected: &[&Artifact]) -> u64 {
    let names: Vec<&str> = selected.iter().map(|a| a.name).collect();
    let key = format!(
        "{:?}|{}|{}|{}",
        args.scale,
        args.models_dir,
        args.out_dir,
        names.join(",")
    );
    adv_store::codec::fnv64(key.as_bytes())
}

fn usage_exit(err: &adv_eval::EvalError) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: reproduce_all [--only NAME[,NAME…]] [--scale smoke|quick|paper] [--n N] [--iters N] [--seed N] [--fine] [--models DIR] [--out DIR] [--obs DIR]"
    );
    std::process::exit(2);
}

fn main() -> Result<(), AnyError> {
    // `--only` belongs to this binary; everything else is a shared flag.
    let mut only = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--only" {
            only = Some(argv.next().unwrap_or_default());
        } else {
            rest.push(arg);
        }
    }
    let args = CliArgs::parse(rest).unwrap_or_else(|e| usage_exit(&e));
    let selected: Vec<&Artifact> = match &only {
        Some(list) => artifacts::select(list).unwrap_or_else(|e| usage_exit(&e)),
        None => ARTIFACTS.iter().collect(),
    };

    let obs = adv_eval::obs::ObsSession::from_args(&args);
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let out = args.out_dir.as_str();
    #[expect(
        clippy::disallowed_methods,
        reason = "total reproduction wall-clock is printed in the final summary"
    )]
    let t_total = Instant::now();

    println!(
        "Reproducing {} of {} artifacts at scale {:?}\n",
        selected.len(),
        ARTIFACTS.len(),
        args.scale
    );

    std::fs::create_dir_all(out)?;
    let mut manifest =
        adv_store::RunManifest::open(format!("{out}/run.manifest"), run_context(&args, &selected))?;
    if manifest.completed() > 0 {
        println!(
            "Resuming interrupted run: {} stage(s) already complete\n",
            manifest.completed()
        );
    }

    for stage in selected.iter().flat_map(|a| a.stages()) {
        let name = stage.name();
        let skipped = manifest.run_stage(&name, || -> adv_eval::Result<()> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            stage.run(&zoo, Path::new(out))?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{name} already complete — skipped]\n");
        }
    }

    // Every stage is recorded; the manifest has nothing left to resume.
    manifest.remove()?;

    println!(
        "{} artifact(s) regenerated in {:.1?}. Outputs in {out}/.",
        selected.len(),
        t_total.elapsed()
    );
    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
