//! Telemetry probe: drives ≥10k tagged requests through the batched
//! `adv-serve` engine with an `adv-telemetry` recorder tapped in, then
//! answers the two questions the telemetry store exists for:
//!
//! 1. **Drift** — windowed detector-score quantiles (p50/p90) and degraded
//!    rate over the recorded tick range, straight off the sealed chunks.
//! 2. **Replay A/B** — the recorded time range replayed through the same
//!    defense under `Full` vs `DetectorOnly`, reporting verdict flips and
//!    the attack success rate delta.
//!
//! It also times an observer-on vs observer-off pass over the same corpus
//! and reports the recording overhead ratio, and writes the whole report as
//! JSON to `<out>/telemetry_report.json`.
//!
//! Usage: `telemetry_probe [--scale smoke|quick|paper] [--models <dir>]
//! [--out <dir>] …`; `TELEMETRY_REQUESTS` overrides the request count
//! (default 12000, floor 1).

use adv_eval::config::CliArgs;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::{DefenseScheme, MagnetDefense};
use adv_serve::{RequestTag, ResponseObserver, ServeConfig, ServeEngine};
use adv_telemetry::{
    drift_windows, replay_range, ChunkReader, RecorderConfig, ReplayReport, RowFilter,
    TelemetryRecorder, VecSamples, WindowAggregate,
};
use adv_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Adversarial corpus size per attack (two attacks).
const PER_ATTACK: usize = 64;
/// Default request volume (≥10k per the probe's contract).
const DEFAULT_REQUESTS: usize = 12_000;
/// Concurrent in-flight submissions per wave.
const WAVE: usize = 512;
/// Drift windows reported.
const WINDOWS: usize = 8;

struct Sample {
    input: Tensor,
    label: usize,
    attack: u32,
}

fn requests_from_env() -> usize {
    std::env::var("TELEMETRY_REQUESTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(DEFAULT_REQUESTS)
        .max(1)
}

/// The `i`-th request: corpus sample `i % len` plus a slowly growing
/// brightness drift, so detector scores move across the recorded range and
/// the drift windows have something to show.
fn request_input(corpus: &[Sample], i: usize, total: usize) -> (Tensor, u32, usize) {
    let s = &corpus[i % corpus.len()];
    let progress = i as f32 / total.max(1) as f32;
    let shift = 0.08 * progress * (1.0 + ((i % 7) as f32) / 14.0);
    let input = s.input.add_scalar(shift).clamp(0.0, 1.0);
    (input, s.attack, s.label)
}

fn start_engine(
    defense: Arc<MagnetDefense>,
    observer: Option<Arc<dyn ResponseObserver>>,
) -> Result<ServeEngine, Box<dyn std::error::Error>> {
    Ok(ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            queue_capacity: WAVE * 2,
            workers: 2,
            scheme: DefenseScheme::Full,
            observer,
            ..ServeConfig::default()
        },
    )?)
}

/// Replay fodder kept from a driven pass: each submitted input with its
/// ground-truth label, in submission (= sample id) order.
type SubmittedInputs = Vec<(Tensor, Option<usize>)>;

/// Submits `total` tagged requests in bounded waves; returns the submitted
/// inputs with labels (replay fodder) and the wall-clock serving time.
fn drive(
    engine: &ServeEngine,
    corpus: &[Sample],
    total: usize,
    keep: bool,
) -> Result<(SubmittedInputs, Duration), Box<dyn std::error::Error>> {
    let mut submitted = Vec::with_capacity(if keep { total } else { 0 });
    #[expect(
        clippy::disallowed_methods,
        reason = "submission wall-clock feeds the probe's throughput figure"
    )]
    let started = Instant::now();
    let mut next = 0usize;
    while next < total {
        let wave = WAVE.min(total - next);
        let pending: Vec<_> = (0..wave)
            .map(|k| {
                let i = next + k;
                let (input, attack, label) = request_input(corpus, i, total);
                if keep {
                    submitted.push((input.clone(), Some(label)));
                }
                engine.submit_tagged(input, RequestTag::new(1, attack, i as u32))
            })
            .collect::<Result<_, _>>()?;
        for p in pending {
            p.wait()?;
        }
        next += wave;
    }
    Ok((submitted, started.elapsed()))
}

fn window_json(w: &WindowAggregate) -> String {
    let sketch = w.sketches.first();
    let q = |q: f64| {
        sketch
            .and_then(|s| s.quantile(q))
            .map_or("null".to_string(), |v| format!("{v:.6}"))
    };
    format!(
        "{{\"start_tick\":{},\"end_tick\":{},\"rows\":{},\"detected_rate\":{:.6},\"degraded_rate\":{:.6},\"score_p50\":{},\"score_p90\":{}}}",
        w.start_tick,
        w.end_tick,
        w.rows,
        w.detected_rate(),
        w.degraded_rate(),
        q(0.50),
        q(0.90),
    )
}

fn replay_json(r: &ReplayReport) -> String {
    let scheme = |o: &adv_telemetry::SchemeOutcome| {
        format!(
            "{{\"scheme\":\"{:?}\",\"detected\":{},\"defended\":{},\"detected_rate\":{:.6},\"attack_success_rate\":{:.6}}}",
            o.scheme, o.detected, o.defended, o.detected_rate, o.attack_success_rate
        )
    };
    format!(
        "{{\"rows\":{},\"unresolved\":{},\"with_truth\":{},\"verdict_flips\":{},\"a\":{},\"b\":{}}}",
        r.rows,
        r.unresolved,
        r.with_truth,
        r.verdict_flips,
        scheme(&r.a),
        scheme(&r.b),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = CliArgs::from_env();
    let obs = adv_eval::obs::ObsSession::from_args(&args);
    args.scale.attack_count = PER_ATTACK;
    let total = requests_from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let mut runner = SweepRunner::new(&zoo, Scenario::Mnist)?;
    let defense = Arc::new(zoo.defense(Scenario::Mnist, Variant::DefaultJsd)?);

    // Adversarial corpus: the paper's C&W-L2 vs EAD-L1 contrast pair.
    let labels = runner.attack_set().labels.clone();
    let mut corpus = Vec::new();
    for (attack_idx, kind) in AttackKind::figure_trio().into_iter().take(2).enumerate() {
        let outcome = runner.outcome(&kind, 0.0)?;
        for (i, &label) in labels.iter().enumerate() {
            corpus.push(Sample {
                input: outcome.adversarial.index_axis0(i)?,
                label,
                attack: attack_idx as u32,
            });
        }
    }
    println!(
        "telemetry_probe: {} | corpus {} | {total} requests in waves of {WAVE}",
        defense.name(),
        corpus.len()
    );

    // Recorded pass: engine with the telemetry sink tapped in.
    let tele_dir = std::path::Path::new(&args.out_dir).join("telemetry");
    std::fs::remove_dir_all(&tele_dir).ok();
    let recorder = TelemetryRecorder::start(RecorderConfig {
        buffer: 8192,
        ..RecorderConfig::new(&tele_dir)
    })?;
    let engine = start_engine(defense.clone(), Some(Arc::new(recorder.sink())))?;
    let (submitted, recorded_elapsed) = drive(&engine, &corpus, total, true)?;
    engine.shutdown();
    recorder.flush()?;
    let dropped = recorder.sink().dropped();
    recorder.shutdown()?;
    println!(
        "recorded pass: {total} requests in {recorded_elapsed:.2?} ({:.0} req/s), {dropped} rows dropped",
        total as f64 / recorded_elapsed.as_secs_f64()
    );

    // Drift: windowed score quantiles + degraded rate over the full range.
    let reader = ChunkReader::open(&tele_dir)?;
    assert!(!reader.entries().is_empty(), "no sealed chunks recorded");
    let recorded_rows: u64 = reader
        .entries()
        .iter()
        .map(|e| u64::from(e.stats.rows))
        .sum();
    assert!(
        recorded_rows as usize + dropped as usize >= total,
        "rows lost untracked: {recorded_rows} recorded + {dropped} dropped < {total}"
    );
    let t0 = reader
        .entries()
        .iter()
        .map(|e| e.stats.tick_min)
        .min()
        .unwrap_or(0);
    let t1 = reader
        .entries()
        .iter()
        .map(|e| e.stats.tick_max)
        .max()
        .unwrap_or(0)
        + 1;
    let windows = drift_windows(&reader, t0..t1, WINDOWS, &RowFilter::default())?;
    assert!(
        windows.iter().any(|w| w.rows > 0),
        "drift windows are all empty"
    );
    println!("\ndrift windows ({WINDOWS} over ticks {t0}..{t1}):");
    for (i, w) in windows.iter().enumerate() {
        let p50 = w.sketches.first().and_then(|s| s.quantile(0.50));
        let p90 = w.sketches.first().and_then(|s| s.quantile(0.90));
        println!(
            "  w{i}: {:>6} rows | det0 p50 {:>9.5} p90 {:>9.5} | detected {:>5.1}% degraded {:>4.1}%",
            w.rows,
            p50.unwrap_or(f32::NAN),
            p90.unwrap_or(f32::NAN),
            w.detected_rate() * 100.0,
            w.degraded_rate() * 100.0,
        );
    }

    // Replay A/B: same rows, Full vs DetectorOnly, verdict flips + ASR.
    let provider = VecSamples::new(submitted);
    let replay = replay_range(
        &reader,
        &provider,
        defense.as_ref(),
        t0..t1,
        &RowFilter::default(),
        DefenseScheme::Full,
        DefenseScheme::DetectorOnly,
        32,
    )?;
    println!(
        "\nreplay A/B over {} rows ({} labelled, {} unresolved):",
        replay.rows, replay.with_truth, replay.unresolved
    );
    for o in [&replay.a, &replay.b] {
        println!(
            "  {:>12?}: detected {:>5.1}% | ASR {:>5.1}%",
            o.scheme,
            o.detected_rate * 100.0,
            o.attack_success_rate * 100.0
        );
    }
    println!("  verdict flips: {}", replay.verdict_flips);

    // Overhead: observer-on vs observer-off over a smaller timed slice.
    let probe_n = total.min(2_000);
    let bare = start_engine(defense.clone(), None)?;
    let (_, off_elapsed) = drive(&bare, &corpus, probe_n, false)?;
    bare.shutdown();
    let overhead_dir = std::path::Path::new(&args.out_dir).join("telemetry_overhead");
    std::fs::remove_dir_all(&overhead_dir).ok();
    let rec2 = TelemetryRecorder::start(RecorderConfig {
        buffer: 8192,
        ..RecorderConfig::new(&overhead_dir)
    })?;
    let tapped = start_engine(defense.clone(), Some(Arc::new(rec2.sink())))?;
    let (_, on_elapsed) = drive(&tapped, &corpus, probe_n, false)?;
    tapped.shutdown();
    rec2.shutdown()?;
    std::fs::remove_dir_all(&overhead_dir).ok();
    let overhead = on_elapsed.as_secs_f64() / off_elapsed.as_secs_f64();
    println!(
        "\noverhead: {probe_n} requests, observer off {off_elapsed:.2?} vs on {on_elapsed:.2?} ({:+.2}%)",
        (overhead - 1.0) * 100.0
    );

    // JSON report.
    let report = format!(
        "{{\n  \"requests\": {total},\n  \"recorded_rows\": {recorded_rows},\n  \"dropped_rows\": {dropped},\n  \"elapsed_s\": {:.3},\n  \"overhead_ratio\": {overhead:.4},\n  \"drift_windows\": [\n    {}\n  ],\n  \"replay\": {}\n}}\n",
        recorded_elapsed.as_secs_f64(),
        windows.iter().map(window_json).collect::<Vec<_>>().join(",\n    "),
        replay_json(&replay),
    );
    std::fs::create_dir_all(&args.out_dir)?;
    let report_path = std::path::Path::new(&args.out_dir).join("telemetry_report.json");
    std::fs::write(&report_path, report)?;
    println!("report written to {}", report_path.display());

    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
