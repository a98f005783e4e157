//! Profiling probe: drives a served adversarial corpus through the batched
//! `adv-serve` engine with the `adv-profile` kernel profiler on, then
//! answers the question continuous profiling exists for: **where did the
//! wall time go?**
//!
//! The probe:
//!
//! 1. builds the paper's C&W-L2 / EAD-L1 corpus and serves it through a
//!    single-worker engine (one worker, so the serving wall clock plus the
//!    wall time of the helper chunks its split passes fork is the
//!    attribution denominator);
//! 2. prints the per-kernel accounting table and writes the collapsed
//!    -stack dump (flamegraph folded format) plus a JSON report under
//!    `<out>/profile/`;
//! 3. renders the slowest latency-bucket exemplar's causal trace — queue
//!    wait, batch stages, kernels — as an indented span tree;
//! 4. prints how many helper chunks (`magnet/chunk` scopes) ran, and
//!    **fails (exit 1)** when less than `MIN_ATTRIBUTION` (80%) of that
//!    denominator is attributed to named kernel scopes — the CI guard that
//!    instrumentation coverage never rots.
//!
//! Usage: `profile_probe [--scale smoke|quick|paper] [--models <dir>]
//! [--out <dir>] …`; `PROFILE_REQUESTS` overrides the request volume
//! (default 4000).

use adv_eval::config::CliArgs;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::{DefenseScheme, MagnetDefense, STAGE_CHUNK};
use adv_profile::TraceId;
use adv_serve::{RequestTag, ServeConfig, ServeEngine};
use adv_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Adversarial corpus size per attack (two attacks).
const PER_ATTACK: usize = 32;
/// Default request volume.
const DEFAULT_REQUESTS: usize = 4_000;
/// Concurrent in-flight submissions per wave.
const WAVE: usize = 256;
/// Attribution floor: ≥80% of serving wall time must land in named kernel
/// scopes.
const MIN_ATTRIBUTION: f64 = 0.80;

struct Sample {
    input: Tensor,
    attack: u32,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

/// The `i`-th request: corpus sample `i % len` with a small per-request
/// brightness jitter, so the elementwise prep kernels see real work too.
fn request_input(corpus: &[Sample], i: usize, total: usize) -> (Tensor, u32) {
    let s = &corpus[i % corpus.len()];
    let shift = 0.05 * (i as f32 / total.max(1) as f32);
    (s.input.add_scalar(shift).clamp(0.0, 1.0), s.attack)
}

fn start_engine(defense: Arc<MagnetDefense>) -> Result<ServeEngine, Box<dyn std::error::Error>> {
    Ok(ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            queue_capacity: WAVE * 2,
            workers: 1,
            scheme: DefenseScheme::Full,
            observer: None,
            ..ServeConfig::default()
        },
    )?)
}

/// Submits `total` requests in bounded waves; returns the wall-clock
/// serving time and the trace id of the slowest observed response.
fn drive(
    engine: &ServeEngine,
    corpus: &[Sample],
    total: usize,
) -> Result<(Duration, TraceId), Box<dyn std::error::Error>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "end-to-end request latency is what the probe reports"
    )]
    let started = Instant::now();
    let mut slowest = (Duration::ZERO, TraceId::NONE);
    let mut next = 0usize;
    while next < total {
        let wave = WAVE.min(total - next);
        let pending: Vec<_> = (0..wave)
            .map(|k| {
                let i = next + k;
                let (input, attack) = request_input(corpus, i, total);
                engine.submit_tagged(input, RequestTag::new(1, attack, i as u32))
            })
            .collect::<Result<_, _>>()?;
        for p in pending {
            let response = p.wait()?;
            if response.latency > slowest.0 {
                slowest = (response.latency, response.trace);
            }
        }
        next += wave;
    }
    Ok((started.elapsed(), slowest.1))
}

fn kernel_json(r: &adv_profile::KernelReport) -> String {
    format!(
        "{{\"kernel\":\"{}\",\"calls\":{},\"wall_ns\":{},\"self_ns\":{},\"gflops\":{:.4},\"gbytes_per_s\":{:.4}}}",
        r.kind.name(),
        r.calls,
        r.wall_ns,
        r.self_ns,
        r.gflops(),
        r.gbytes_per_s(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = CliArgs::from_env();
    let obs = adv_eval::obs::ObsSession::from_args(&args);
    args.scale.attack_count = PER_ATTACK;
    let total = env_usize("PROFILE_REQUESTS", DEFAULT_REQUESTS);

    // Corpus construction runs unprofiled: the gate is about the serving
    // path, and attack generation would drown it in the report.
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let mut runner = SweepRunner::new(&zoo, Scenario::Mnist)?;
    let defense = Arc::new(zoo.defense(Scenario::Mnist, Variant::DefaultJsd)?);
    let mut corpus = Vec::new();
    for (attack_idx, kind) in AttackKind::figure_trio().into_iter().take(2).enumerate() {
        let outcome = runner.outcome(&kind, 0.0)?;
        for i in 0..outcome.adversarial.shape().dims()[0] {
            corpus.push(Sample {
                input: outcome.adversarial.index_axis0(i)?,
                attack: attack_idx as u32,
            });
        }
    }
    println!(
        "profile_probe: {} | corpus {} | {total} requests in waves of {WAVE} | floor {:.0}%",
        defense.name(),
        corpus.len(),
        MIN_ATTRIBUTION * 100.0
    );

    adv_profile::set_enabled(true);
    adv_profile::reset();
    let engine = start_engine(defense)?;
    let (elapsed, slow_trace) = drive(&engine, &corpus, total)?;
    engine.shutdown();
    adv_profile::flush_current_thread();

    let wall_ns = elapsed.as_nanos() as u64;
    let self_ns = adv_profile::total_kernel_self_ns();
    // Kernel self time sums over every profiled thread: the worker, the
    // helper threads its split passes fork, and the submitting main thread.
    // The helpers' time comes on top of serving wall, so their summed
    // chunk wall joins the denominator; without it, helpers could lift the
    // ratio to 100% with poor coverage.
    let (helper_chunks, chunk_ns) = adv_profile::frame_summaries()
        .into_iter()
        .find(|f| f.name == STAGE_CHUNK)
        .map_or((0, 0), |f| (f.count, f.total.as_nanos() as u64));
    let denominator_ns = wall_ns + chunk_ns;
    let attribution = self_ns as f64 / denominator_ns.max(1) as f64;
    println!(
        "\nserved {total} requests in {elapsed:.2?} ({:.0} req/s)",
        total as f64 / elapsed.as_secs_f64()
    );
    println!("\n{}", adv_profile::kernel_table());
    println!("helper chunks: {helper_chunks}");
    println!(
        "attribution: {self_ns} kernel-self ns / ({wall_ns} serving wall ns + {chunk_ns} helper-chunk wall ns) = {:.1}%",
        attribution * 100.0
    );

    // Causal drill-down: the slowest latency bucket's exemplar, falling
    // back to the slowest response this run observed directly.
    let exemplar = adv_profile::latency_exemplars()
        .into_iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, id)| TraceId::from_u64(id))
        .filter(|t| !t.is_none())
        .unwrap_or(slow_trace);
    if !exemplar.is_none() {
        let rendered = adv_profile::render_trace(exemplar);
        let mut lines = rendered.lines();
        println!("\nslowest-bucket exemplar:");
        for line in lines.by_ref().take(24) {
            println!("{line}");
        }
        if lines.next().is_some() {
            println!("  …");
        }
    }

    // Artifacts: collapsed stacks + JSON report under <out>/profile/.
    let profile_dir = std::path::Path::new(&args.out_dir).join("profile");
    std::fs::create_dir_all(&profile_dir)?;
    let folded_path = profile_dir.join("profile_collapsed.folded");
    std::fs::write(&folded_path, adv_profile::collapsed())?;
    let report = format!(
        "{{\n  \"requests\": {total},\n  \"elapsed_s\": {:.4},\n  \"wall_ns\": {wall_ns},\n  \"helper_chunks\": {helper_chunks},\n  \"helper_chunk_wall_ns\": {chunk_ns},\n  \"kernel_self_ns\": {self_ns},\n  \"attribution\": {attribution:.4},\n  \"min_attribution\": {MIN_ATTRIBUTION:.4},\n  \"dropped_stacks\": {},\n  \"dropped_spans\": {},\n  \"kernels\": [\n    {}\n  ]\n}}\n",
        elapsed.as_secs_f64(),
        adv_profile::dropped_stacks(),
        adv_profile::dropped_spans(),
        adv_profile::kernel_reports()
            .iter()
            .map(kernel_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let report_path = profile_dir.join("profile_report.json");
    std::fs::write(&report_path, report)?;
    println!(
        "\nartifacts: {} and {}",
        folded_path.display(),
        report_path.display()
    );

    if let Some(obs) = obs {
        obs.finish()?;
    }
    if attribution < MIN_ATTRIBUTION {
        eprintln!(
            "FAIL: only {:.1}% of serving and helper-chunk wall time attributed to named kernel scopes (floor {:.1}%)",
            attribution * 100.0,
            MIN_ATTRIBUTION * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "PASS: {:.1}% ≥ {:.1}% of serving and helper-chunk wall time attributed to named kernels",
        attribution * 100.0,
        MIN_ATTRIBUTION * 100.0
    );
    Ok(())
}
