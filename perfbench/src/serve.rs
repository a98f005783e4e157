//! The serving workloads: `serve_saturate` (closed loop, fixed window)
//! and `wire` (closed loop over TCP through `NetServer`). Both replay the
//! corpus through the `ModelZoo` default variant and check every verdict
//! against serial `MagnetDefense::classify` on the same input.

use crate::outcome::Outcome;
use crate::setup::{Result, Rng, ServeEnv, SECRET};
use crate::stats::{self, closed_window};
use crate::trace;
use adv_magnet::Verdict;
use adv_net::{derived_key, ClientConfig, NetClient, Reply};
use adv_serve::{PendingVerdict, RequestTag, ServeResponse, VariantRouter, DEFAULT_VARIANT};
use std::time::{Duration, Instant};

/// Outstanding requests in `serve_saturate`: two full batches.
pub const WINDOW: usize = 64;
/// Work counts per second of `--seconds`.
pub const SATURATE_RATE: f64 = 1000.0;
pub const WIRE_RATE: f64 = 400.0;
/// Client connections of the wire workload.
pub const CONNECTIONS: usize = 2;
/// Requests each wire connection sends before `Bye` and a reconnect.
pub const PER_CONNECTION: usize = 50;
/// Server-side deadline budget of in-process requests.
const BUDGET: Duration = Duration::from_secs(30);

/// Replays a seeded order of the corpus: request `i` sends corpus item
/// `order[i]`.
pub fn order(env: &ServeEnv, seed: u64, total: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 6);
    (0..total).map(|_| rng.below(env.corpus.len())).collect()
}

fn submit(env: &ServeEnv, item: usize, request: u64) -> adv_serve::Result<PendingVerdict> {
    let _span = trace::span("zoo.submit", request);
    let input = env.corpus[item].clone();
    let tag = RequestTag::new(0, 0, item as u32);
    env.zoo.submit_routed(DEFAULT_VARIANT, input, tag, BUDGET)
}

/// Serving-layer figures accumulated from responses.
#[derive(Default)]
struct Served {
    queue_wait_ms: Vec<f64>,
    batch_size: Vec<f64>,
}

impl Served {
    fn record(&mut self, queue_wait: Duration, batch: usize) {
        self.queue_wait_ms.push(queue_wait.as_secs_f64() * 1e3);
        self.batch_size.push(batch as f64);
    }

    fn finish(self, out: &mut Outcome) {
        out.extra
            .insert("serve.queue_wait_ms", stats::mean(&self.queue_wait_ms));
        out.extra
            .insert("serve.batch_size", stats::mean(&self.batch_size));
    }
}

/// Settles one in-process answer: checks the verdict and records it.
fn settle(
    out: &mut Outcome,
    served: &mut Served,
    expected: Verdict,
    i: usize,
    answer: adv_serve::Result<ServeResponse>,
) -> bool {
    match answer {
        Ok(r) => {
            if r.verdict != expected {
                out.mismatch(format!(
                    "request {i}: served {:?}, serial {expected:?}",
                    r.verdict
                ));
            }
            served.record(r.queue_wait, r.batch_size);
            true
        }
        Err(_) => false,
    }
}

/// Rejections and sheds the zoo counted during `f`.
fn with_engine_counts(env: &ServeEnv, out: &mut Outcome, f: impl FnOnce(&mut Outcome)) {
    let counts = || {
        env.zoo
            .variant_metrics(DEFAULT_VARIANT)
            .map_or((0, 0), |m| (m.rejected, m.shed_expired))
    };
    let before = counts();
    f(out);
    let after = counts();
    out.extra
        .insert("serve.rejected", after.0.saturating_sub(before.0) as f64);
    out.extra
        .insert("serve.shed", after.1.saturating_sub(before.1) as f64);
}

fn tally(out: &mut Outcome, samples: impl IntoIterator<Item = stats::Sample>) {
    for s in samples {
        out.attempted += 1;
        if s.is_some() {
            out.completed += 1;
        } else {
            out.failed += 1;
        }
        out.latencies.push(s);
    }
}

/// A short unmeasured burst so lazy set-up is out of the timing.
pub fn warm_up(env: &ServeEnv) -> Result<()> {
    for item in 0..WINDOW.min(env.corpus.len()) {
        submit(env, item, 0)?.wait()?;
    }
    Ok(())
}

/// `serve_saturate`: one thread keeps [`WINDOW`] requests outstanding.
pub fn saturate(env: &ServeEnv, expected: &[Verdict], order: &[usize]) -> Outcome {
    let mut out = Outcome::default();
    let ids: Vec<u64> = order.iter().map(|_| trace::next_id()).collect();
    // Readings of the warm-up are not this phase's.
    env.pipeline.probe.take();
    with_engine_counts(env, &mut out, |out| {
        let mut served = Served::default();
        let mut done = Vec::with_capacity(order.len());
        let started = Instant::now();
        let samples = closed_window(
            order.len(),
            WINDOW,
            |i| submit(env, order[i], ids[i]),
            |i, pending| {
                let _span = trace::span("serve.wait", ids[i]);
                let ok = settle(out, &mut served, expected[order[i]], i, pending.wait());
                if ok {
                    done.push(Instant::now());
                }
                ok
            },
        );
        out.started = Some(started);
        out.elapsed = started.elapsed();
        out.done = done;
        tally(out, samples);
        served.finish(out);
    });
    out.readings = env.pipeline.probe.take();
    out
}

/// What one wire client thread saw.
#[derive(Default)]
struct ClientLog {
    out: Outcome,
    samples: Vec<(usize, stats::Sample)>,
    overhead_us: Vec<f64>,
    served: Served,
    busy: usize,
}

/// `wire`: [`CONNECTIONS`] clients in a closed loop through the TCP front
/// door. Client `c` sends requests `c, c + CONNECTIONS, …`, reconnecting
/// as the next derived-key tenant every [`PER_CONNECTION`] requests.
pub fn wire(env: &ServeEnv, expected: &[Verdict], order: &[usize]) -> Result<Outcome> {
    let addr = env
        .server
        .as_ref()
        .ok_or("the wire workload needs a NetServer")?
        .addr();
    let mut out = Outcome::default();
    // Readings of the warm-up are not this phase's.
    env.pipeline.probe.take();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..order.len()).step_by(CONNECTIONS).collect();
                    let mut log = ClientLog::default();
                    for (k, chunk) in mine.chunks(PER_CONNECTION).enumerate() {
                        let tenant = (c * 1_000_000 + k) as u32;
                        session(env, addr, tenant, chunk, expected, order, &mut log);
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("a wire client thread panicked"))
            .collect()
    });
    out.started = Some(started);
    out.elapsed = started.elapsed();
    out.readings = env.pipeline.probe.take();
    let mut samples: Vec<(usize, stats::Sample)> = Vec::with_capacity(order.len());
    let mut served = Served::default();
    let mut overhead = Vec::new();
    let mut busy = 0;
    for log in logs {
        out.mismatches += log.out.mismatches;
        out.examples.extend(log.out.examples);
        out.done.extend(log.out.done);
        samples.extend(log.samples);
        served.queue_wait_ms.extend(log.served.queue_wait_ms);
        served.batch_size.extend(log.served.batch_size);
        overhead.extend(log.overhead_us);
        busy += log.busy;
    }
    samples.sort_by_key(|(i, _)| *i);
    tally(&mut out, samples.into_iter().map(|(_, s)| s));
    served.finish(&mut out);
    out.extra.insert("net.overhead_us", stats::mean(&overhead));
    out.extra.insert("net.busy", busy as f64);
    Ok(out)
}

/// One connection: connect as `tenant`, send `requests`, say `Bye`. A
/// refused or broken connection fails the requests it did not answer.
fn session(
    env: &ServeEnv,
    addr: std::net::SocketAddr,
    tenant: u32,
    requests: &[usize],
    expected: &[Verdict],
    order: &[usize],
    log: &mut ClientLog,
) {
    let key = derived_key(SECRET, tenant);
    let connected = {
        let _span = trace::span("net.connect", u64::from(tenant));
        NetClient::connect(addr, tenant, key, ClientConfig::default())
    };
    let Ok(mut client) = connected else {
        log.busy += 1;
        log.samples.extend(requests.iter().map(|&i| (i, None)));
        return;
    };
    for (n, &i) in requests.iter().enumerate() {
        let item = order[i];
        let request = trace::next_id();
        let t0 = Instant::now();
        let reply = {
            let _span = trace::span("net.classify", request);
            client.classify(&env.corpus[item], 0, item as u32, 0)
        };
        let rtt = t0.elapsed();
        match reply {
            Ok(Reply::Verdict {
                verdict,
                queue_ns,
                infer_ns,
                batch,
                ..
            }) => {
                if verdict != expected[item] {
                    log.out.mismatch(format!(
                        "request {i}: wire {verdict:?}, serial {:?}",
                        expected[item]
                    ));
                }
                let server_ns = queue_ns.saturating_add(infer_ns);
                log.overhead_us
                    .push((rtt.as_nanos() as f64 - server_ns as f64) / 1e3);
                log.served
                    .record(Duration::from_nanos(queue_ns), batch as usize);
                log.samples.push((i, Some(rtt)));
                log.out.done.push(Instant::now());
            }
            Ok(Reply::Busy { .. }) => {
                log.busy += 1;
                log.samples.push((i, None));
            }
            Err(_) => {
                // The connection is gone: the rest of this session fails.
                log.samples.extend(requests[n..].iter().map(|&j| (j, None)));
                return;
            }
        }
    }
    let _ = client.bye();
}
