//! Serving-engine probe: replays an adversarial corpus (C&W L2 vs EAD L1)
//! against the MNIST D+JSD defense three ways — serially, one `classify`
//! call per sample; through the batching `adv-serve` engine; and through a
//! `ModelZoo` shard — and reports throughput, latency percentiles, and
//! attack success rate for each.
//!
//! All three run MagNet's one pipeline pass, so they must agree
//! verdict-for-verdict; the verdicts are asserted equal before the
//! speedup is reported. Every path runs on one worker/thread and the
//! serial path already shares work between MagNet's stages within each
//! sample, so the printed speedup measures batching alone, not
//! parallelism.
//!
//! Usage: `serve_probe [--scale smoke|quick|paper] [--models <dir>] …`; the
//! corpus is 128 samples per attack (256 total) when the test pool at the
//! chosen scale is large enough.

use adv_eval::config::CliArgs;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::{DefenseScheme, MagnetDefense, Verdict};
use adv_serve::{RequestTag, ServeConfig, ServeEngine, VariantRouter, DEFAULT_VARIANT};
use adv_tensor::Tensor;
use adv_zoo::{ModelZoo, NullLoader, ZooConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-attack corpus size (two attacks → 256 total at full strength).
const PER_ATTACK: usize = 128;
const MAX_BATCH: usize = 32;

/// One replayed request: the adversarial image and its true label.
struct Sample {
    input: Tensor,
    label: usize,
}

/// Nearest-rank quantile of an ascending-sorted latency sample.
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Fraction of verdicts that fail to defend the true label.
fn asr(verdicts: &[Verdict], samples: &[Sample]) -> f32 {
    if verdicts.is_empty() {
        return 0.0;
    }
    let beaten = verdicts
        .iter()
        .zip(samples)
        .filter(|(v, s)| !v.defends(s.label))
        .count();
    beaten as f32 / verdicts.len() as f32
}

struct PathReport {
    verdicts: Vec<Verdict>,
    elapsed: Duration,
    p50: Duration,
    p99: Duration,
}

impl PathReport {
    fn print(&self, name: &str, samples: &[Sample]) {
        let n = self.verdicts.len() as f64;
        println!(
            "  {name:<8} {:>8.1} samples/s | p50 {:>8.2?} p99 {:>8.2?} | ASR {:>5.1}%",
            n / self.elapsed.as_secs_f64(),
            self.p50,
            self.p99,
            asr(&self.verdicts, samples) * 100.0,
        );
    }
}

/// The serial path: one `classify` call (one pipeline pass) per sample.
fn run_serial(
    defense: &MagnetDefense,
    samples: &[Sample],
) -> Result<PathReport, Box<dyn std::error::Error>> {
    let mut verdicts = Vec::with_capacity(samples.len());
    let mut latencies = Vec::with_capacity(samples.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "serving throughput over wall-clock is what the probe measures"
    )]
    let started = Instant::now();
    for s in samples {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-request latency is what the probe measures"
        )]
        let t0 = Instant::now();
        let x = Tensor::stack(std::slice::from_ref(&s.input))?;
        let mut v = defense.classify(&x, DefenseScheme::Full)?;
        latencies.push(t0.elapsed());
        verdicts.push(v.remove(0));
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    Ok(PathReport {
        verdicts,
        elapsed,
        p50: quantile(&latencies, 0.50),
        p99: quantile(&latencies, 0.99),
    })
}

/// The batched path: submit every sample to the engine, then wait.
fn run_served(
    defense: Arc<MagnetDefense>,
    samples: &[Sample],
) -> Result<PathReport, Box<dyn std::error::Error>> {
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: MAX_BATCH,
            max_wait: Duration::from_millis(2),
            queue_capacity: samples.len().max(1),
            workers: 1,
            scheme: DefenseScheme::Full,
            ..ServeConfig::default()
        },
    )?;
    #[expect(
        clippy::disallowed_methods,
        reason = "serving throughput over wall-clock is what the probe measures"
    )]
    let started = Instant::now();
    let pending: Vec<_> = samples
        .iter()
        .map(|s| engine.submit(s.input.clone()))
        .collect::<Result<_, _>>()?;
    let verdicts: Vec<Verdict> = pending
        .into_iter()
        .map(|p| p.wait().map(|r| r.verdict))
        .collect::<Result<_, _>>()?;
    let elapsed = started.elapsed();
    let metrics = engine.shutdown();
    Ok(PathReport {
        verdicts,
        elapsed,
        p50: metrics.p50_latency,
        p99: metrics.p99_latency,
    })
}

/// The registry path: the same corpus routed through a `ModelZoo`'s
/// default variant — the seam `adv-net` serves in production. Verdicts
/// must equal the serial path's (asserted in `main`).
fn run_zoo(
    defense: Arc<MagnetDefense>,
    samples: &[Sample],
) -> Result<PathReport, Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("serve_probe_zoo_{}", std::process::id()));
    let mut cfg = ZooConfig::new(&root);
    cfg.shard = ServeConfig {
        max_batch: MAX_BATCH,
        max_wait: Duration::from_millis(2),
        queue_capacity: samples.len().max(1),
        workers: 1,
        scheme: DefenseScheme::Full,
        ..ServeConfig::default()
    };
    let zoo = ModelZoo::open(Arc::new(NullLoader), cfg)?;
    zoo.install(DEFAULT_VARIANT, defense)?;
    #[expect(
        clippy::disallowed_methods,
        reason = "serving throughput over wall-clock is what the probe measures"
    )]
    let started = Instant::now();
    let pending: Vec<_> = samples
        .iter()
        .map(|s| {
            zoo.submit_routed(
                DEFAULT_VARIANT,
                s.input.clone(),
                RequestTag::default(),
                Duration::from_secs(60),
            )
        })
        .collect::<Result<_, _>>()?;
    let verdicts: Vec<Verdict> = pending
        .into_iter()
        .map(|p| p.wait().map(|r| r.verdict))
        .collect::<Result<_, _>>()?;
    let elapsed = started.elapsed();
    let metrics = zoo
        .variant_metrics(DEFAULT_VARIANT)
        .ok_or("default variant vanished from the routing table")?;
    drop(zoo);
    let _ = std::fs::remove_dir_all(&root);
    Ok(PathReport {
        verdicts,
        elapsed,
        p50: metrics.p50_latency,
        p99: metrics.p99_latency,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = CliArgs::from_env();
    let obs = adv_eval::obs::ObsSession::from_args(&args);
    args.scale.attack_count = PER_ATTACK;
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let mut runner = SweepRunner::new(&zoo, Scenario::Mnist)?;
    let defense = zoo.defense(Scenario::Mnist, Variant::DefaultJsd)?;
    println!(
        "serve_probe: MNIST {} | corpus {} per attack | 1 worker, max_batch {MAX_BATCH}",
        defense.name(),
        runner.attack_set().labels.len(),
    );

    // C&W L2 and EAD-L1 — the paper's contrast pair — at κ = 0.
    let labels = runner.attack_set().labels.clone();
    let mut corpora = Vec::new();
    for kind in AttackKind::figure_trio().into_iter().take(2) {
        let outcome = runner.outcome(&kind, 0.0)?;
        let samples: Vec<Sample> = (0..labels.len())
            .map(|i| {
                Ok(Sample {
                    input: outcome.adversarial.index_axis0(i)?,
                    label: labels[i],
                })
            })
            .collect::<Result<_, adv_tensor::TensorError>>()?;
        corpora.push((kind.label(), outcome.success_rate(), samples));
    }

    let defense = Arc::new(defense);
    let mut total = Duration::ZERO;
    let mut total_served = Duration::ZERO;
    for (label, undefended_asr, samples) in &corpora {
        println!(
            "\n{label} ({} samples, undefended ASR {:.1}%)",
            samples.len(),
            undefended_asr * 100.0
        );
        let serial = run_serial(&defense, samples)?;
        let served = run_served(defense.clone(), samples)?;
        let routed = run_zoo(defense.clone(), samples)?;
        serial.print("serial", samples);
        served.print("served", samples);
        routed.print("zoo", samples);
        assert_eq!(
            serial.verdicts, served.verdicts,
            "served verdicts diverged from serial on {label}"
        );
        assert_eq!(
            serial.verdicts, routed.verdicts,
            "zoo-routed verdicts diverged from serial on {label}"
        );
        println!(
            "  verdicts identical (serial = served = zoo); batching speedup {:.2}x",
            serial.elapsed.as_secs_f64() / served.elapsed.as_secs_f64()
        );
        total += serial.elapsed;
        total_served += served.elapsed;
    }
    println!(
        "\noverall: serial {total:.2?} vs served {total_served:.2?} (batching speedup {:.2}x)",
        total.as_secs_f64() / total_served.as_secs_f64()
    );
    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
