//! Seeded network-chaos soak: the real server loop behind a
//! [`adv_net::NetFaultPlan`]-wrapped socket, hammered by tenant threads
//! that tolerate torn frames, bit flips, stalls, and mid-request
//! disconnects. Invariants checked after the storm:
//!
//! * **Wire accounting** — `accepted = answered + shed_expired +
//!   abandoned` at quiescence: every request admitted into the engine is
//!   answered exactly once or provably abandoned, never lost or double
//!   counted.
//! * **Engine accounting** — `submitted = completed + failed +
//!   shed_expired` in the engine's own ledger.
//! * **Verdict integrity** — every verdict that survives the wire matches
//!   the in-process truth (CRC plus id echo: corruption can kill a reply
//!   but never silently alter one).
//! * **Clean teardown** — `shutdown()` joins the accept loop and every
//!   handler; the process thread count returns to its pre-server level.
//!
//! The seed matrix comes from `NET_CHAOS_SEEDS` (comma-separated) so CI can
//! pin its own; the same seed replays the same fault schedule. With
//! `NET_CHAOS_METRICS_PATH` set, per-seed metrics JSON is written there for
//! the CI artifact.

mod common;

use adv_net::{
    derived_key, ClientConfig, NetClient, NetFaultPlan, NetServer, NetServerConfig, Reply,
    TenantPolicy,
};
use adv_serve::{ServeConfig, ServeEngine};
use common::{item, stub_verdict, StubPipeline};
use std::sync::Arc;
use std::time::Duration;

const SECRET: u64 = 0xA11C_E5ED_5EED_0001;
const TENANTS: usize = 8;
const REQUESTS_PER_TENANT: usize = 12;

fn seed_matrix() -> Vec<u64> {
    match std::env::var("NET_CHAOS_SEEDS") {
        Ok(csv) => csv
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![3, 17, 1031],
    }
}

/// Current thread count of this process, from /proc (Linux CI); `None`
/// elsewhere, which skips the leak check.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

struct TenantOutcome {
    verified: usize,
    mismatched: usize,
    busy: usize,
    errored: usize,
}

/// One tenant's session: send every request, reconnecting after injected
/// connection deaths, tolerating refusals and typed errors — but never a
/// wrong verdict.
fn run_tenant(addr: std::net::SocketAddr, tenant: u32) -> TenantOutcome {
    let key = derived_key(SECRET, tenant);
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_frame_bytes: 16 << 20,
    };
    let mut out = TenantOutcome {
        verified: 0,
        mismatched: 0,
        busy: 0,
        errored: 0,
    };
    let mut client: Option<NetClient> = None;
    for req in 0..REQUESTS_PER_TENANT {
        let offset = tenant as usize * REQUESTS_PER_TENANT + req;
        let input = item(offset);
        let expected = stub_verdict(input.as_slice());
        // Up to three attempts per request: a torn frame or disconnect
        // costs the connection, not the test.
        let mut delivered = false;
        for _attempt in 0..3 {
            if client.is_none() {
                match NetClient::connect(addr, tenant, key, cfg.clone()) {
                    Ok(c) => client = Some(c),
                    Err(_) => {
                        out.errored += 1;
                        continue;
                    }
                }
            }
            let Some(c) = client.as_mut() else { continue };
            match c.classify(&input, 1, offset as u32, 0) {
                Ok(Reply::Verdict { verdict, .. }) => {
                    if verdict == expected {
                        out.verified += 1;
                    } else {
                        out.mismatched += 1;
                    }
                    delivered = true;
                }
                Ok(Reply::Busy { .. }) => {
                    out.busy += 1;
                    delivered = true;
                }
                Err(_) => {
                    // Torn/flipped/disconnected somewhere in the exchange:
                    // drop the session and retry on a fresh one.
                    out.errored += 1;
                    client = None;
                }
            }
            if delivered {
                break;
            }
        }
    }
    out
}

fn soak(seed: u64) -> String {
    let engine = {
        let cfg = ServeConfig {
            workers: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let pipeline = StubPipeline {
            delay: Duration::from_millis(1),
            ..StubPipeline::default()
        };
        Arc::new(ServeEngine::start(Arc::new(pipeline), cfg).expect("engine start"))
    };
    let server = NetServer::start(
        engine.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: TENANTS * 2,
            read_poll: Duration::from_millis(10),
            idle_timeout: Duration::from_secs(2),
            frame_timeout: Duration::from_millis(500),
            handshake_timeout: Duration::from_secs(1),
            default_deadline: Duration::from_millis(500),
            wait_slack: Duration::from_millis(500),
            tenants: TenantPolicy::Derived {
                secret: SECRET,
                rate_per_sec: 1e6,
                burst: 1e6,
            },
            fault_plan: Some(Arc::new(NetFaultPlan::randomized(seed))),
            ..NetServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    let tenants: Vec<_> = (0..TENANTS as u32)
        .map(|tenant| std::thread::spawn(move || run_tenant(addr, tenant)))
        .collect();
    let mut verified = 0usize;
    let mut mismatched = 0usize;
    let mut busy = 0usize;
    let mut errored = 0usize;
    for handle in tenants {
        let out = handle.join().expect("tenant thread");
        verified += out.verified;
        mismatched += out.mismatched;
        busy += out.busy;
        errored += out.errored;
    }

    let net = server.shutdown();
    let engine_snap = Arc::try_unwrap(engine)
        .expect("server released its engine handle")
        .shutdown();

    assert_eq!(mismatched, 0, "seed {seed}: corrupted verdict survived");
    assert!(
        verified > 0,
        "seed {seed}: no request survived the fault schedule at all"
    );
    assert!(
        net.accounting_holds(),
        "seed {seed}: wire accounting broke: {net:?}"
    );
    assert_eq!(
        engine_snap.submitted,
        engine_snap.completed + engine_snap.failed + engine_snap.shed_expired,
        "seed {seed}: engine accounting broke: {engine_snap:?}"
    );
    assert!(
        net.accepted <= engine_snap.submitted,
        "seed {seed}: more wire acceptances than engine submissions"
    );

    format!(
        "{{\"seed\":{seed},\"verified\":{verified},\"busy\":{busy},\"client_errors\":{errored},\
         \"accepted\":{},\"answered\":{},\"shed_expired\":{},\"abandoned\":{},\
         \"frame_errors\":{},\"evicted_slow\":{},\"engine_submitted\":{}}}",
        net.accepted,
        net.answered,
        net.shed_expired,
        net.abandoned,
        net.frame_errors,
        net.evicted_slow,
        engine_snap.submitted,
    )
}

#[test]
fn seeded_net_chaos_soak_holds_the_front_door_contract() {
    let baseline_threads = thread_count();
    let mut artifacts = String::new();
    for seed in seed_matrix() {
        let line = soak(seed);
        artifacts.push_str(&line);
        artifacts.push('\n');
    }
    if let (Some(before), Some(after)) = (baseline_threads, thread_count()) {
        assert!(
            after <= before,
            "thread leak: {before} threads before the soak, {after} after"
        );
    }
    if let Ok(path) = std::env::var("NET_CHAOS_METRICS_PATH") {
        std::fs::write(&path, artifacts).expect("write net chaos metrics artifact");
    }
}

/// The same seed must drive the same fault schedule: two plans with equal
/// seeds agree on every decision, which is what makes a CI failure
/// replayable from its seed alone.
#[test]
fn fault_schedule_is_replayable_from_the_seed() {
    let a = NetFaultPlan::randomized(41);
    let b = NetFaultPlan::randomized(41);
    for conn in 0..4u64 {
        for op in 0..64u64 {
            assert_eq!(a.on_write(conn, op, 64), b.on_write(conn, op, 64));
            assert_eq!(a.on_read(conn, op), b.on_read(conn, op));
        }
    }
}
