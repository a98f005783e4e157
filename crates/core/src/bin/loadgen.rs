//! Multi-tenant load generator for the `adv-net` front door.
//!
//! Replays the paper's C&W-L2 / EAD-L1 adversarial corpus through a real
//! TCP `NetServer` as many simulated tenants (derived-key policy, so tenant
//! count is unbounded) and checks the robustness invariants the front door
//! promises, in two phases:
//!
//! * **Phase A — parity.** Every corpus sample is classified over the wire
//!   at least once, served through a `ModelZoo`'s default variant (the
//!   production routing seam); every wire verdict must equal the
//!   in-process verdict for the same sample, so the attack success rate
//!   cannot diverge between the two paths, and the registry's per-variant
//!   accounting identity must hold at quiescence. Tenant token buckets are
//!   tight enough that a deliberately bursty tenant surfaces `RateLimited`
//!   refusals, which honest retry-after-hint clients absorb without losing
//!   samples.
//! * **Phase B — storm.** The defense is wrapped in a seeded
//!   `FaultyDefense` that fails the reformer stage, so the engine's
//!   breaker degrades the scheme; the degradation must be visible in the
//!   `degraded` flag of wire replies. Simultaneously a connect flood
//!   (more concurrent tenants than the connection cap) must produce
//!   `Overloaded` refusals at the door instead of queue collapse.
//!
//! Both phases assert the wire accounting identity
//! `accepted = answered + shed_expired + abandoned` at quiescence. The
//! outcome is written as JSON (`LOADGEN_REPORT`, default
//! `loadgen_report.json`) and the exit code is nonzero if any invariant
//! fails — CI treats this binary as a gate, not a demo.
//!
//! Knobs: `LOADGEN_TENANTS` (default 1000), `LOADGEN_THREADS` (default
//! 16), `LOADGEN_SEED` (default 7), plus the usual `--scale`/`--models`.

use adv_eval::config::CliArgs;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::{DefensePipeline, DefenseScheme, MagnetDefense, Verdict};
use adv_net::{
    derived_key, BusyReason, ClientConfig, NetClient, NetMetricsSnapshot, NetServer,
    NetServerConfig, Reply, TenantPolicy,
};
use adv_serve::{
    FaultInjector, FaultPlan, FaultyDefense, ServeConfig, ServeEngine, SiteFaults, VariantRouter,
    DEFAULT_VARIANT, SITE_REFORM,
};
use adv_tensor::Tensor;
use adv_zoo::{ModelZoo, NullLoader, ZooConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const SECRET: u64 = 0x10AD_6E4E_7E4A_4001;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Sample {
    input: Tensor,
    label: usize,
}

/// Fraction of verdicts that fail to defend the true label.
fn asr(verdicts: &[Verdict], samples: &[Sample]) -> f64 {
    if verdicts.is_empty() {
        return 0.0;
    }
    let beaten = verdicts
        .iter()
        .zip(samples)
        .filter(|(v, s)| !v.defends(s.label))
        .count();
    beaten as f64 / verdicts.len() as f64
}

fn net_json(s: &NetMetricsSnapshot) -> String {
    format!(
        "{{\"connections_accepted\":{},\"connections_refused\":{},\"auth_failures\":{},\
         \"requests\":{},\"accepted\":{},\"answered\":{},\"shed_expired\":{},\"abandoned\":{},\
         \"busy\":{},\"rate_limited\":{},\"retries\":{},\"frame_errors\":{},\"evicted_slow\":{}}}",
        s.connections_accepted,
        s.connections_refused,
        s.auth_failures,
        s.requests,
        s.accepted,
        s.answered,
        s.shed_expired,
        s.abandoned,
        s.busy,
        s.rate_limited,
        s.retries,
        s.frame_errors,
        s.evicted_slow,
    )
}

/// In-process truth: one stacked classify per sample, the same per-sample
/// path the experiment binaries use.
fn in_process_verdicts(
    defense: &MagnetDefense,
    samples: &[Sample],
) -> Result<Vec<Verdict>, Box<dyn std::error::Error>> {
    let mut verdicts = Vec::with_capacity(samples.len());
    for s in samples {
        let x = Tensor::stack(std::slice::from_ref(&s.input))?;
        let mut v = defense.classify(&x, DefenseScheme::Full)?;
        verdicts.push(v.remove(0));
    }
    Ok(verdicts)
}

struct PhaseA {
    delivered: usize,
    missing: usize,
    mismatches: usize,
    net: NetMetricsSnapshot,
    wire_asr: f64,
    zoo_accounting_holds: bool,
    zoo_routing_epoch: u64,
}

/// Phase A: `tenants` sessions spread over `threads` workers, each
/// classifying its round-robin slice of the corpus; a bursty tenant then
/// slams its token bucket to prove rate limiting fires. The corpus is
/// served through a `ModelZoo`'s default variant — the production routing
/// seam — rather than a bare engine, so the parity checks also cover the
/// registry's routing-table hop.
fn phase_a(
    defense: Arc<MagnetDefense>,
    samples: &[Sample],
    expected: &[Verdict],
    tenants: usize,
    threads: usize,
) -> Result<PhaseA, Box<dyn std::error::Error>> {
    let zoo_root = std::env::temp_dir().join(format!("loadgen_zoo_{}", std::process::id()));
    let mut zoo_cfg = ZooConfig::new(&zoo_root);
    zoo_cfg.shard = ServeConfig {
        workers: 2,
        max_batch: 32,
        max_wait: Duration::from_millis(2),
        queue_capacity: 512,
        ..ServeConfig::default()
    };
    let zoo = Arc::new(ModelZoo::open(Arc::new(NullLoader), zoo_cfg)?);
    zoo.install(DEFAULT_VARIANT, defense)?;
    let server = NetServer::start(
        zoo.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: threads * 2 + 8,
            tenants: TenantPolicy::Derived {
                secret: SECRET,
                rate_per_sec: 50.0,
                burst: 8.0,
            },
            ..NetServerConfig::default()
        },
    )?;
    let addr = server.addr();

    // Every corpus sample is assigned to ceil(tenants/corpus) tenants, so
    // coverage is complete whenever tenants >= corpus (and striped when
    // not).
    let requests = tenants.max(samples.len());
    let next = Arc::new(AtomicUsize::new(0));
    let results: Arc<Mutex<Vec<Option<Verdict>>>> = Arc::new(Mutex::new(vec![None; samples.len()]));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let inputs: Arc<Vec<Tensor>> = Arc::new(samples.iter().map(|s| s.input.clone()).collect());
    let expected: Arc<Vec<Verdict>> = Arc::new(expected.to_vec());

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let next = next.clone();
            let results = results.clone();
            let mismatches = mismatches.clone();
            let inputs = inputs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                loop {
                    // lint-ok(ordering-justified): work-stealing ticket
                    // counter; uniqueness is all that matters.
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= requests {
                        return;
                    }
                    let tenant = (t % u32::MAX as usize) as u32;
                    let sample_idx = t % inputs.len();
                    let key = derived_key(SECRET, tenant);
                    // One session per simulated tenant; rate-limit hints
                    // are honored, transient failures get a fresh session.
                    let mut attempts = 0;
                    'request: while attempts < 64 {
                        attempts += 1;
                        let mut client =
                            match NetClient::connect(addr, tenant, key, ClientConfig::default()) {
                                Ok(c) => c,
                                Err(_) => {
                                    std::thread::sleep(Duration::from_millis(10));
                                    continue 'request;
                                }
                            };
                        match client.classify(&inputs[sample_idx], 1, sample_idx as u32, 0) {
                            Ok(Reply::Verdict { verdict, .. }) => {
                                if verdict != expected[sample_idx] {
                                    // lint-ok(ordering-justified): pure
                                    // statistic, read after join.
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                                let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                                slots[sample_idx] = Some(verdict);
                                let _ = client.bye();
                                break 'request;
                            }
                            Ok(Reply::Busy { retry_after_ms, .. }) => {
                                let _ = client.bye();
                                std::thread::sleep(Duration::from_millis(
                                    u64::from(retry_after_ms).clamp(1, 200),
                                ));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("phase A worker panicked");
    }

    // Bursty tenant: fire a burst past the bucket with no pacing; at least
    // one request must bounce with RateLimited.
    let tenant = 0u32;
    let mut bursty = NetClient::connect(
        addr,
        tenant,
        derived_key(SECRET, tenant),
        ClientConfig::default(),
    )?;
    let mut bounced = 0usize;
    for _ in 0..16 {
        match bursty.classify(&inputs[0], 1, 0, 0) {
            Ok(Reply::Busy {
                reason: BusyReason::RateLimited,
                ..
            }) => bounced += 1,
            Ok(_) => {}
            Err(e) => return Err(format!("bursty tenant hit a hard error: {e}").into()),
        }
    }
    let _ = bursty.bye();
    let _ = bounced; // visible via net.rate_limited below

    // Read before shutdown: the shutdown drain flips the table once more.
    let zoo_routing_epoch = zoo.routing_epoch();
    let net = server.shutdown();
    let zoo_metrics = zoo
        .variant_metrics(DEFAULT_VARIANT)
        .ok_or("default variant vanished from the routing table")?;
    let zoo_accounting_holds = zoo_metrics.submitted
        == zoo_metrics.completed + zoo_metrics.failed + zoo_metrics.shed_expired;
    drop(zoo);
    let _ = std::fs::remove_dir_all(&zoo_root);

    let slots = results.lock().unwrap_or_else(|e| e.into_inner());
    let wire: Vec<Verdict> = slots.iter().flatten().cloned().collect();
    let delivered = wire.len();
    let wire_samples: Vec<&Sample> = samples
        .iter()
        .zip(slots.iter())
        .filter(|(_, v)| v.is_some())
        .map(|(s, _)| s)
        .collect();
    let wire_asr = if wire.is_empty() {
        0.0
    } else {
        wire.iter()
            .zip(&wire_samples)
            .filter(|(v, s)| !v.defends(s.label))
            .count() as f64
            / wire.len() as f64
    };
    Ok(PhaseA {
        delivered,
        missing: samples.len() - delivered,
        // lint-ok(ordering-justified): workers joined above; this is the
        // final value.
        mismatches: mismatches.load(Ordering::Relaxed),
        net,
        wire_asr,
        zoo_accounting_holds,
        zoo_routing_epoch,
    })
}

struct PhaseB {
    degraded_replies: usize,
    pipeline_errors: usize,
    refused_connections: usize,
    net: NetMetricsSnapshot,
}

/// Phase B: reformer faults trip the breaker while a connect flood hits
/// the connection cap.
fn phase_b(
    defense: Arc<MagnetDefense>,
    samples: &[Sample],
    seed: u64,
) -> Result<PhaseB, Box<dyn std::error::Error>> {
    let plan = FaultPlan::new(seed).with(SiteFaults::at(SITE_REFORM).errors(1.0).limit(48));
    let injector = Arc::new(FaultInjector::new(plan)?);
    let faulty: Arc<dyn DefensePipeline> = Arc::new(FaultyDefense::new(defense, injector));
    let engine = Arc::new(ServeEngine::start(
        faulty,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    )?);
    const CAP: usize = 12;
    const STORMERS: usize = 40;
    let server = NetServer::start(
        engine.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: CAP,
            tenants: TenantPolicy::Derived {
                secret: SECRET,
                rate_per_sec: 1e6,
                burst: 1e6,
            },
            ..NetServerConfig::default()
        },
    )?;
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(STORMERS));
    let inputs: Arc<Vec<Tensor>> =
        Arc::new(samples.iter().take(8).map(|s| s.input.clone()).collect());

    let stormers: Vec<_> = (0..STORMERS as u32)
        .map(|tenant| {
            let barrier = barrier.clone();
            let inputs = inputs.clone();
            std::thread::spawn(move || {
                let key = derived_key(SECRET, tenant);
                let mut degraded = 0usize;
                let mut errors = 0usize;
                let mut refused = 0usize;
                barrier.wait();
                // Reconnect pressure: every round is a fresh session, so
                // the door's connection cap stays contended for the whole
                // storm.
                for round in 0..6 {
                    let client = NetClient::connect(addr, tenant, key, ClientConfig::default());
                    let mut client = match client {
                        Ok(c) => c,
                        Err(adv_net::NetError::Refused {
                            reason: BusyReason::Overloaded,
                            ..
                        }) => {
                            refused += 1;
                            std::thread::sleep(Duration::from_millis(20));
                            continue;
                        }
                        Err(_) => {
                            std::thread::sleep(Duration::from_millis(20));
                            continue;
                        }
                    };
                    for (i, input) in inputs.iter().enumerate() {
                        match client.classify(input, 2, (round * 8 + i) as u32, 0) {
                            Ok(Reply::Verdict { degraded: true, .. }) => degraded += 1,
                            Ok(_) => {}
                            Err(_) => {
                                errors += 1;
                                break;
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let _ = client.bye();
                }
                (degraded, errors, refused)
            })
        })
        .collect();
    let mut degraded_replies = 0usize;
    let mut pipeline_errors = 0usize;
    let mut refused_connections = 0usize;
    for s in stormers {
        let (d, e, r) = s.join().expect("storm thread panicked");
        degraded_replies += d;
        pipeline_errors += e;
        refused_connections += r;
    }
    let net = server.shutdown();
    drop(engine);
    Ok(PhaseB {
        degraded_replies,
        pipeline_errors,
        refused_connections,
        net,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let tenants = env_usize("LOADGEN_TENANTS", 1000);
    let threads = env_usize("LOADGEN_THREADS", 16).max(1);
    let seed = env_usize("LOADGEN_SEED", 7) as u64;
    let report_path =
        std::env::var("LOADGEN_REPORT").unwrap_or_else(|_| "loadgen_report.json".into());

    let zoo = Zoo::new(&args.models_dir, args.scale);
    let mut runner = SweepRunner::new(&zoo, Scenario::Mnist)?;
    let defense = Arc::new(zoo.defense(Scenario::Mnist, Variant::DefaultJsd)?);

    // The C&W-L2 / EAD-L1 contrast pair at κ = 0, as in the paper.
    let labels = runner.attack_set().labels.clone();
    let mut samples = Vec::new();
    for kind in AttackKind::figure_trio().into_iter().take(2) {
        let outcome = runner.outcome(&kind, 0.0)?;
        for (i, &label) in labels.iter().enumerate() {
            samples.push(Sample {
                input: outcome.adversarial.index_axis0(i)?,
                label,
            });
        }
    }
    println!(
        "loadgen: corpus {} samples | {tenants} tenants on {threads} threads | seed {seed}",
        samples.len()
    );

    let expected = in_process_verdicts(&defense, &samples)?;
    let inproc_asr = asr(&expected, &samples);

    let a = phase_a(defense.clone(), &samples, &expected, tenants, threads)?;
    println!(
        "phase A: delivered {}/{} | mismatches {} | rate_limited {} | wire ASR {:.3} vs in-process {:.3}",
        a.delivered,
        samples.len(),
        a.mismatches,
        a.net.rate_limited,
        a.wire_asr,
        inproc_asr,
    );

    let b = phase_b(defense, &samples, seed)?;
    println!(
        "phase B: degraded replies {} | pipeline errors {} | refused connects {} (door count {})",
        b.degraded_replies, b.pipeline_errors, b.refused_connections, b.net.connections_refused,
    );

    let checks: Vec<(&str, bool)> = vec![
        ("corpus_fully_delivered", a.missing == 0),
        ("verdict_parity", a.mismatches == 0),
        ("asr_parity", (a.wire_asr - inproc_asr).abs() < 1e-9),
        ("rate_limit_visible", a.net.rate_limited > 0),
        ("accounting_phase_a", a.net.accounting_holds()),
        ("zoo_accounting", a.zoo_accounting_holds),
        ("zoo_table_stable", a.zoo_routing_epoch == 1),
        ("breaker_degradation_visible", b.degraded_replies > 0),
        ("connect_flood_refused", b.net.connections_refused > 0),
        ("accounting_phase_b", b.net.accounting_holds()),
    ];
    let pass = checks.iter().all(|(_, ok)| *ok);

    let invariants = checks
        .iter()
        .map(|(name, ok)| format!("\"{name}\":{ok}"))
        .collect::<Vec<_>>()
        .join(",");
    let report = format!(
        "{{\n  \"tenants\":{tenants},\n  \"threads\":{threads},\n  \"seed\":{seed},\n  \
         \"corpus\":{},\n  \"inprocess_asr\":{inproc_asr:.6},\n  \"phase_a\":{{\"delivered\":{},\
         \"missing\":{},\"mismatches\":{},\"wire_asr\":{:.6},\"net\":{}}},\n  \
         \"phase_b\":{{\"degraded_replies\":{},\"pipeline_errors\":{},\
         \"refused_connections\":{},\"net\":{}}},\n  \"invariants\":{{{invariants}}},\n  \
         \"pass\":{pass}\n}}\n",
        samples.len(),
        a.delivered,
        a.missing,
        a.mismatches,
        a.wire_asr,
        net_json(&a.net),
        b.degraded_replies,
        b.pipeline_errors,
        b.refused_connections,
        net_json(&b.net),
    );
    std::fs::write(&report_path, &report)?;
    println!("report written to {report_path}");

    if !pass {
        for (name, ok) in &checks {
            if !ok {
                eprintln!("INVARIANT FAILED: {name}");
            }
        }
        std::process::exit(1);
    }
    println!("all invariants hold");
    Ok(())
}
