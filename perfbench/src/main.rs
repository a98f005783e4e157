//! The repository benchmark: runs one named workload with one seed and
//! prints every metric by name and unit, with the last line of standard
//! output a JSON result.
//!
//! ```text
//! perfbench --workload <craft|serve_saturate|wire>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` additionally
//! runs the workload with the benchmark's spans and the adv-profile kernel
//! accounting on and reports the per-layer metrics. See README.md.

mod craft;
mod host;
mod outcome;
mod serve;
mod setup;
mod stats;
mod trace;
mod wrap;

use outcome::Outcome;
use setup::{CraftEnv, Result, RunDir, ServeEnv, SetupTimes};
use stats::{median, Latencies};
use std::time::{Duration, Instant};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Craft,
    ServeSaturate,
    Wire,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "craft" => Workload::Craft,
            "serve_saturate" => Workload::ServeSaturate,
            "wire" => Workload::Wire,
            _ => return None,
        })
    }

    /// Units of work per run: a constant rate times `--seconds`. Never
    /// derived from measured speed, so every build does the same work.
    fn total(self, seconds: u64) -> usize {
        let rate = match self {
            Workload::Craft => craft::NOMINAL_RATE,
            Workload::ServeSaturate => serve::SATURATE_RATE,
            Workload::Wire => serve::WIRE_RATE,
        };
        (rate * seconds as f64) as usize
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <craft|serve_saturate|wire> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.clamp(1, 60)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

enum Env {
    Craft(CraftEnv),
    Serve(ServeEnv),
}

fn set_up(args: &Args, run: &RunDir, rep: usize, times: &mut SetupTimes) -> Result<Env> {
    let dir = run.fresh(&format!("setup-{rep}"))?;
    let t0 = Instant::now();
    let env = match args.workload {
        Workload::Craft => Env::Craft(setup::craft(&dir, times)?),
        w => Env::Serve(setup::serve(&dir, args.seed, w == Workload::Wire, times)?),
    };
    times.total = t0.elapsed();
    Ok(env)
}

/// The serial verdicts every served answer is checked against.
fn expected(env: &Env) -> Result<Vec<adv_magnet::Verdict>> {
    match env {
        Env::Craft(_) => Ok(Vec::new()),
        Env::Serve(s) => setup::serial_verdicts(&s.defense, &s.corpus),
    }
}

fn warm_up(args: &Args, env: &mut Env) -> Result<()> {
    match env {
        Env::Craft(c) => craft::warm_up(c, args.seed),
        Env::Serve(s) => serve::warm_up(s),
    }
}

/// Runs the measured phase; `end_of_timing` is called as soon as the timed
/// work is done, before any output check that costs model work.
fn measure(
    args: &Args,
    env: &mut Env,
    expected: &[adv_magnet::Verdict],
    end_of_timing: &dyn Fn(),
) -> Result<Outcome> {
    let total = args.workload.total(args.seconds);
    let (out, stolen) = host::stolen_during(|| match env {
        Env::Craft(c) => craft::run(c, args.seed, total, end_of_timing),
        Env::Serve(s) => {
            let order = serve::order(s, args.seed, total);
            let out = match args.workload {
                Workload::ServeSaturate => serve::saturate(s, expected, &order),
                _ => serve::wire(s, expected, &order)?,
            };
            end_of_timing();
            Ok(out)
        }
    });
    let mut out = out?;
    out.stolen = stolen;
    Ok(out)
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced phase, scaled to the reference
/// host's speed by the phase's in-run readings (see [`host::slowdown`]).
fn end_to_end(setup_s: f64, out: &Outcome) -> Vec<Metric> {
    let ceiling = out.elapsed;
    let p50 = |l: &Latencies| l.quantile(500).map_or(0.0, |q| Latencies::ms(q, ceiling));
    let tail = |l: &Latencies| l.sliced_tail(ceiling).map_or(0.0, |(_, _, ms)| ms);
    let scaled = out.scaled_latencies();
    println!(
        "as measured: throughput_per_s {:.4} p50_ms {:.4} tail_ms {:.4}; \
         host slowdown {:.4} from {} in-run readings (reference {} ms), stolen share {:.4}",
        out.throughput(),
        p50(&out.latencies),
        tail(&out.latencies),
        host::slowdown(&out.readings),
        out.readings.len(),
        host::NOMINAL_READ_MS,
        out.stolen
    );
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
        metric("throughput_per_s", out.scaled_throughput(), "1/s"),
        metric("p50_ms", p50(&scaled), "ms"),
        metric("tail_ms", tail(&scaled), "ms"),
    ]
}

/// Kernels whose figures the traced run reports, forward then backward.
const KERNELS: [adv_profile::KernelKind; 7] = {
    use adv_profile::KernelKind as K;
    [
        K::Conv2d,
        K::MatMulABt,
        K::Im2col,
        K::MatMul,
        K::Conv2dBackward,
        K::MatMulAtB,
        K::Col2im,
    ]
};

/// Everything the traced phase recorded, beyond its [`Outcome`].
struct Traced {
    spans: Vec<trace::Span>,
    kernels: Vec<adv_profile::KernelReport>,
    pipeline: wrap::PipelineTotals,
}

/// The per-layer metrics of a traced phase.
fn per_layer(
    t: &Traced,
    out: &Outcome,
    setup: &SetupTimes,
    untraced_tput: f64,
    refs: (f64, f64),
) -> Vec<Metric> {
    let wall_ns = out.elapsed.as_nanos().max(1) as f64;
    let layers = trace::layer_times(&t.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let extra = |name: &str| out.extra.get(name).copied().unwrap_or(0.0);
    let mut m = Vec::new();
    for kind in KERNELS {
        let r = t.kernels.iter().find(|r| r.kind == kind);
        let name = kind.name();
        m.push(metric(
            format!("tensor.{name}.self_share"),
            r.map_or(0.0, |r| r.self_ns as f64 / wall_ns),
            "share",
        ));
        m.push(metric(
            format!("tensor.{name}.gflops"),
            r.map_or(0.0, |r| r.gflops()),
            "GFLOP/s",
        ));
        m.push(metric(
            format!("tensor.{name}.gbps"),
            r.map_or(0.0, |r| r.gbytes_per_s()),
            "GB/s",
        ));
        m.push(metric(
            format!("tensor.{name}.calls"),
            r.map_or(0.0, |r| r.calls as f64),
            "count",
        ));
    }
    let elementwise = t
        .kernels
        .iter()
        .find(|r| r.kind == adv_profile::KernelKind::Elementwise)
        .map_or(0.0, |r| r.self_ns as f64);
    let kernel_self: f64 = t.kernels.iter().map(|r| r.self_ns as f64).sum();
    m.push(metric(
        "tensor.elementwise.self_share",
        elementwise / wall_ns,
        "share",
    ));
    m.push(metric(
        "tensor.kernel_share",
        kernel_self / wall_ns,
        "share",
    ));

    let (fwd, bwd) = (layer("nn.forward"), layer("nn.backward_input"));
    let (ead, cw) = (layer("attacks.ead"), layer("attacks.cw"));
    let crafts = extra("crafts");
    m.push(metric("nn.forward_ms", fwd.mean_ms(), "ms"));
    m.push(metric("nn.backward_input_ms", bwd.mean_ms(), "ms"));
    m.push(metric(
        "nn.calls_per_craft",
        if crafts > 0.0 {
            (fwd.calls + bwd.calls) as f64 / crafts
        } else {
            0.0
        },
        "count",
    ));
    m.push(metric("attacks.ead_ms", ead.mean_ms(), "ms"));
    m.push(metric("attacks.cw_ms", cw.mean_ms(), "ms"));
    m.push(metric(
        "attacks.self_share",
        (ead.self_ns + cw.self_ns) as f64 / wall_ns,
        "share",
    ));
    m.push(metric(
        "attacks.success_share",
        extra("attacks.success_share"),
        "share",
    ));

    let batch = layer("magnet.batch");
    let p = &t.pipeline;
    let per_batch = |d: Duration| {
        if p.batches > 0 {
            d.as_secs_f64() * 1e3 / p.batches as f64
        } else {
            0.0
        }
    };
    m.push(metric("magnet.batch_ms", batch.mean_ms(), "ms"));
    m.push(metric(
        "magnet.item_ms",
        if p.items > 0 {
            batch.total_ns as f64 / 1e6 / p.items as f64
        } else {
            0.0
        },
        "ms",
    ));
    m.push(metric("magnet.detect_ms", per_batch(p.stages.detect), "ms"));
    m.push(metric("magnet.reform_ms", per_batch(p.stages.reform), "ms"));
    m.push(metric(
        "magnet.classify_ms",
        per_batch(p.stages.classify),
        "ms",
    ));

    m.push(metric(
        "serve.queue_wait_ms",
        extra("serve.queue_wait_ms"),
        "ms",
    ));
    m.push(metric(
        "serve.batch_size",
        extra("serve.batch_size"),
        "count",
    ));
    m.push(metric("serve.rejected", extra("serve.rejected"), "count"));
    m.push(metric("serve.shed", extra("serve.shed"), "count"));
    m.push(metric(
        "zoo.submit_us",
        layer("zoo.submit").mean_ms() * 1e3,
        "us",
    ));
    m.push(metric("net.overhead_us", extra("net.overhead_us"), "us"));
    m.push(metric(
        "net.connect_ms",
        layer("net.connect").mean_ms(),
        "ms",
    ));
    m.push(metric("net.busy", extra("net.busy"), "count"));

    m.push(metric("eval.train_s", setup.train.as_secs_f64(), "s"));
    m.push(metric("eval.corpus_s", setup.corpus.as_secs_f64(), "s"));
    m.push(metric(
        "host.slowdown",
        host::slowdown(&out.readings),
        "ratio",
    ));
    m.push(metric("host.stolen_share", out.stolen, "share"));
    m.push(metric("host.ref_ms", refs.0, "ms"));
    m.push(metric("host.ref_after_ms", refs.1, "ms"));
    m.push(metric(
        "trace.overhead_share",
        1.0 - out.scaled_throughput() / untraced_tput.max(1e-9),
        "share",
    ));
    m
}

/// Layer self times from the spans, largest first.
fn print_layer_table(t: &Traced, wall: Duration) {
    let mut rows: Vec<_> = trace::layer_times(&t.spans).into_iter().collect();
    rows.sort_by_key(|(_, lt)| std::cmp::Reverse(lt.self_ns));
    println!(
        "layer self time over {:.3} s of traced wall:",
        wall.as_secs_f64()
    );
    println!(
        "  {:<20} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, lt) in rows {
        println!(
            "  {name:<20} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            lt.calls,
            lt.total_ns as f64 / 1e6,
            lt.self_ns as f64 / 1e6,
            100.0 * lt.self_ns as f64 / wall.as_nanos().max(1) as f64
        );
    }
    print!("{}", adv_profile::kernel_table());
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_phase(label: &str, out: &Outcome) {
    println!(
        "{label}: attempted {} succeeded {} failed {} mismatches {} in {:.3} s",
        out.attempted,
        out.completed,
        out.failed,
        out.mismatches,
        out.elapsed.as_secs_f64()
    );
    if let Some(t0) = out.started {
        let rates = stats::slice_rates(t0, &out.done, stats::SLICES);
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
        println!("{label}: slice rates /s [{}]", rates.join(", "));
    }
    let points: Vec<String> = [500, 750, 900, 950, 990, 999]
        .iter()
        .filter_map(|&pm| {
            let q = out.latencies.quantile(pm)?;
            Some(format!(
                "p{} {:.3}",
                pm as f64 / 10.0,
                Latencies::ms(q, out.elapsed)
            ))
        })
        .collect();
    println!(
        "{label}: latency ms over the whole phase: {}",
        points.join(", ")
    );
    if let Some((pm, slices, _)) = out.latencies.sliced_tail(out.elapsed) {
        println!(
            "{label}: tail_ms is the median p{} of {slices} slices of {} samples",
            pm as f64 / 10.0,
            out.latencies.len()
        );
    }
    for e in &out.examples {
        println!("{label}: MISMATCH {e}");
    }
}

fn run(args: &Args) -> Result<bool> {
    // Profiling is the traced run's business only, whatever the environment says.
    adv_profile::set_enabled(false);
    let root = std::env::current_dir()?.join(".bench_run");
    let run = RunDir::create(&root)?;
    println!("stamp {}", host::stamp(run.path()));
    let ref_before = host::ref_ms();

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setup_raw, mut setup_s) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut times = SetupTimes::default();
    let mut env = None;
    for rep in 0..reps {
        // Drop the previous stack first so its threads and memory are gone.
        drop(env.take());
        times = SetupTimes::default();
        let ((built, stolen), readings) =
            host::sampled(|| host::stolen_during(|| set_up(args, &run, rep, &mut times)));
        env = Some(built?);
        let raw = times.total.as_secs_f64();
        setup_raw.push(raw);
        // The set-up is one long call into the program, so it is scaled
        // by readings taken alongside it rather than between its steps.
        setup_s.push(raw * (1.0 - host::clamp_stolen(stolen)) / host::slowdown(&readings));
    }
    let mut env = env.ok_or("no set-up ran")?;
    let round = |v: &[f64]| {
        v.iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    };
    println!(
        "setup: as measured {:?} s, at reference speed {:?} s (median {:.4})",
        round(&setup_raw),
        round(&setup_s),
        median(&setup_s)
    );
    let expected = expected(&env)?;
    warm_up(args, &mut env)?;

    let untraced = measure(args, &mut env, &expected, &|| {})?;
    report_phase("measured", &untraced);
    let mut correct = untraced.mismatches == 0;
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    let metrics = if args.trace {
        trace::set_enabled(true);
        adv_profile::reset();
        adv_profile::set_enabled(true);
        let stop = || {
            adv_profile::set_enabled(false);
            trace::set_enabled(false);
        };
        let traced = measure(args, &mut env, &expected, &stop);
        stop();
        let traced = traced?;
        let pipeline = match &env {
            Env::Serve(s) => s.pipeline.take_totals(),
            Env::Craft(_) => wrap::PipelineTotals::default(),
        };
        // Serving threads flush their kernel tails as they exit.
        drop(env);
        adv_profile::flush_current_thread();
        let t = Traced {
            spans: trace::take(),
            kernels: adv_profile::kernel_reports(),
            pipeline,
        };
        report_phase("traced", &traced);
        print_layer_table(&t, traced.elapsed);
        let path = root.join("traces").join(format!(
            "{}-seed{}.jsonl",
            format!("{:?}", args.workload).to_lowercase(),
            args.seed
        ));
        trace::write_jsonl(&path, &t.spans)?;
        println!("spans: {} written to {}", t.spans.len(), path.display());
        correct &= traced.mismatches == 0;
        attempted += traced.attempted;
        failed += traced.failed;
        let refs = (ref_before, host::ref_ms());
        per_layer(&t, &traced, &times, untraced.scaled_throughput(), refs)
    } else {
        drop(env);
        println!(
            "host.ref_ms before {ref_before:.4} after {:.4}",
            host::ref_ms()
        );
        end_to_end(median(&setup_s), &untraced)
    };
    for m in &metrics {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: output mismatch");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
