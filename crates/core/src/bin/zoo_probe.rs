//! Model-zoo crash-recovery probe: the process half of the CI hot-swap
//! soak. Each invocation opens (or creates) a zoo under `--root`, runs one
//! subcommand, prints a single JSON line to stdout, and exits — so a shell
//! driver can `kill -9` it mid-promotion (via `--abort-after`, which calls
//! `std::process::abort()` at the named journal stage, indistinguishable
//! from an external kill) and then assert, from a fresh process, that
//! recovery resumed past the commit point or cleanly aborted.
//!
//! Subcommands:
//!
//! * `init --root R` — create the zoo, publish+promote v1 of the probe
//!   variant.
//! * `promote --root R --version N [--seed S] [--abort-after STAGE]
//!   [--fault-site SITE]` — publish and promote version `N`; with
//!   `--abort-after staged|warming|live|retired` the process aborts right
//!   after journaling that stage; with `--fault-site zoo/stage|zoo/warm|
//!   zoo/flip` a seeded chaos fault fires at that site instead.
//! * `status --root R [--expect-version N] [--expect-parity M]` — reopen,
//!   report live version, recovery counters, and a served-verdict parity
//!   check against the in-process pipeline; exits nonzero if an
//!   `--expect-*` assertion fails.
//!
//! The pipeline is a deterministic byte-driven stub (verdict = pure
//! function of blob seed and input), so parity across kill/recover cycles
//! is exact and needs no model files.

use adv_magnet::{DefensePipeline, DefenseScheme, StageTimings, Verdict};
use adv_serve::{FaultInjector, FaultPlan, RequestTag, ServeConfig, SiteFaults, VariantRouter};
use adv_tensor::{Shape, Tensor};
use adv_zoo::{ModelZoo, PipelineLoader, PromotionStage, WeightBlob, ZooConfig, ZooError};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const VARIANT: u32 = 1;

/// Deterministic stub pipeline: verdict is a pure function of the blob's
/// seed byte and the input bytes (mirrors the adv-zoo test fixtures).
#[derive(Debug)]
struct SeededPipeline {
    seed: u8,
}

fn seeded_verdict(seed: u8, item: &[f32]) -> Verdict {
    let sum: f32 = item.iter().sum();
    let q = (sum.abs() * 16.0) as usize + seed as usize;
    if q.is_multiple_of(7) {
        Verdict::Detected
    } else {
        Verdict::Classified(q % 10)
    }
}

impl DefensePipeline for SeededPipeline {
    fn name(&self) -> &str {
        "zoo-probe-stub"
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        _scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, StageTimings)> {
        let n = x.shape().dims().first().copied().unwrap_or(0);
        let data = x.as_slice();
        let item_len = data.len() / n.max(1);
        let verdicts = (0..n)
            .map(|i| seeded_verdict(self.seed, &data[i * item_len..(i + 1) * item_len]))
            .collect();
        Ok((verdicts, StageTimings::default()))
    }
}

#[derive(Debug)]
struct SeededLoader;

impl PipelineLoader for SeededLoader {
    fn build(&self, blob: &WeightBlob) -> Result<Arc<dyn DefensePipeline>, String> {
        let seed = blob.bytes().first().copied().unwrap_or(0);
        Ok(Arc::new(SeededPipeline { seed }))
    }
}

fn probe_item(offset: usize) -> Tensor {
    Tensor::from_fn(Shape::new(vec![1, 8, 8]), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
}

fn parse_stage(s: &str) -> Result<PromotionStage, String> {
    match s {
        "staged" => Ok(PromotionStage::Staged),
        "warming" => Ok(PromotionStage::Warming),
        "live" => Ok(PromotionStage::Live),
        "retired" => Ok(PromotionStage::Retired),
        other => Err(format!("unknown stage {other:?}")),
    }
}

struct Args {
    command: String,
    root: PathBuf,
    version: u32,
    seed: u8,
    abort_after: Option<PromotionStage>,
    fault_site: Option<String>,
    expect_version: Option<u32>,
    expect_parity: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("usage: zoo_probe <init|promote|status>")?;
    let mut args = Args {
        command,
        root: PathBuf::from("zoo_probe_state"),
        version: 2,
        seed: 7,
        abort_after: None,
        fault_site: None,
        expect_version: None,
        expect_parity: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--version" => {
                args.version = value("--version")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--abort-after" => args.abort_after = Some(parse_stage(&value("--abort-after")?)?),
            "--fault-site" => args.fault_site = Some(value("--fault-site")?),
            "--expect-version" => {
                args.expect_version = Some(
                    value("--expect-version")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--expect-parity" => {
                args.expect_parity = Some(
                    value("--expect-parity")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn open_zoo(args: &Args) -> Result<ModelZoo, Box<dyn std::error::Error>> {
    let mut cfg = ZooConfig::new(&args.root);
    cfg.shard = ServeConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_micros(500),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    cfg.warmup = (0..6).map(probe_item).collect();
    cfg.abort_after = args.abort_after;
    if let Some(site) = &args.fault_site {
        let plan = FaultPlan::new(u64::from(args.seed) | 0x5EED_0000)
            .with(SiteFaults::at(site).errors(1.0).limit(1));
        cfg.injector = Some(Arc::new(FaultInjector::new(plan)?));
    }
    Ok(ModelZoo::open(Arc::new(SeededLoader), cfg)?)
}

/// Served-vs-in-process parity over `n` probe items; returns mismatches.
fn parity_mismatches(
    zoo: &ModelZoo,
    seed: u8,
    n: usize,
) -> Result<usize, Box<dyn std::error::Error>> {
    let mut mismatches = 0;
    for i in 0..n {
        let input = probe_item(i);
        let expected = seeded_verdict(seed, input.as_slice());
        let got = zoo
            .submit_routed(
                VARIANT,
                input,
                RequestTag::default().with_variant(VARIANT),
                Duration::from_secs(10),
            )?
            .wait_timeout(Duration::from_secs(10))?
            .verdict;
        if got != expected {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("zoo_probe: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, Box<dyn std::error::Error>> {
    let args = parse_args()?;
    match args.command.as_str() {
        "init" => {
            let zoo = open_zoo(&args)?;
            zoo.publish(VARIANT, 1, &[args.seed])?;
            let report = zoo.promote(VARIANT, 1)?;
            println!(
                "{{\"command\":\"init\",\"live_version\":1,\"epoch\":{}}}",
                report.epoch
            );
            Ok(0)
        }
        "promote" => {
            let zoo = open_zoo(&args)?;
            zoo.publish(VARIANT, args.version, &[args.seed])?;
            // With --abort-after the process dies inside promote(); any
            // return at all means the abort stage was never reached.
            match zoo.promote(VARIANT, args.version) {
                Ok(report) => {
                    println!(
                        "{{\"command\":\"promote\",\"outcome\":\"live\",\"live_version\":{},\
                         \"epoch\":{},\"retired\":{}}}",
                        report.version,
                        report.epoch,
                        report
                            .retired_version
                            .map_or("null".into(), |v| v.to_string()),
                    );
                    Ok(0)
                }
                Err(ZooError::RolledBack { reason, .. }) => {
                    println!(
                        "{{\"command\":\"promote\",\"outcome\":\"rolled_back\",\
                         \"reason\":\"{reason}\",\"live_version\":{}}}",
                        zoo.live_version(VARIANT)
                            .map_or("null".into(), |v| v.to_string()),
                    );
                    Ok(0)
                }
                Err(e) => Err(e.into()),
            }
        }
        "status" => {
            let zoo = open_zoo(&args)?;
            let stats = zoo.stats();
            let live = zoo.live_version(VARIANT);
            let mismatches = match live {
                Some(_) => parity_mismatches(&zoo, args.seed, 12)?,
                None => 0,
            };
            println!(
                "{{\"command\":\"status\",\"live_version\":{},\"resumed_aborts\":{},\
                 \"resumed_retires\":{},\"blob_rejects\":{},\"parity_mismatches\":{}}}",
                live.map_or("null".into(), |v| v.to_string()),
                stats.resumed_aborts,
                stats.resumed_retires,
                stats.blob_rejects,
                mismatches,
            );
            let mut failed = false;
            if let Some(expect) = args.expect_version {
                if live != Some(expect) {
                    eprintln!("EXPECT FAILED: live_version {live:?} != {expect}");
                    failed = true;
                }
            }
            if let Some(limit) = args.expect_parity {
                if mismatches > limit {
                    eprintln!("EXPECT FAILED: parity_mismatches {mismatches} > {limit}");
                    failed = true;
                }
            }
            Ok(i32::from(failed))
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}
