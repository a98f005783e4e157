//! The listener: thread-per-connection serving of `ADVNET1` over TCP with
//! admission control in front of the [`adv_serve::ServeEngine`].
//!
//! The admission pipeline, in order, cheapest refusal first:
//!
//! 1. **Connection cap / draining** — at accept time: over the concurrent
//!    connection cap or during drain, the connect is answered with one
//!    `Busy` frame and closed before a handler thread is even spawned.
//! 2. **Authentication** — the first frame must be a valid `Hello` within
//!    the handshake timeout; unknown tenants get `Error(Auth)` and close.
//! 3. **Rate limit** — each `Request` draws a token from the tenant's
//!    bucket; an empty bucket answers `Busy(RateLimited)` with a
//!    retry-after hint. No engine work has happened yet.
//! 4. **Engine backpressure** — `submit` can still refuse with a full
//!    queue (`Busy(QueueFull)`) or a closed one (`Busy(Draining)`).
//!
//! Only past all four does a request enter the engine, carrying the
//! client's deadline into the shed-expired path; from that point the
//! accounting identity (`accepted = answered + shed_expired + abandoned`)
//! guarantees exactly one wire-level outcome. Transient pipeline failures
//! are retried server-side with jittered backoff before the client ever
//! sees an error.
//!
//! Slow-loris defense: once the first byte of a frame arrives, the whole
//! frame must complete within the frame timeout or the connection is
//! evicted. Idle connections (no first byte) are evicted after the idle
//! timeout; both bounds also double as the drain-responsiveness bound.

use crate::fault::{FaultyStream, NetStream};
use crate::frame::{decode_header, write_frame, Frame, FrameError, HEADER_LEN, PROTOCOL_VERSION};
use crate::limits::{TenantPolicy, TenantTable, TokenBucket};
use crate::metrics::{NetMetrics, NetMetricsSnapshot};
use crate::{BusyReason, NetError, WireErrorCode};
use adv_chaos::NetFaultPlan;
use adv_serve::{EngineHealth, RequestTag, ServeError, VariantRouter};
use adv_tensor::{Shape, Tensor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-door tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Concurrent connections served; further connects get `Busy` frames.
    pub max_connections: usize,
    /// Poll granularity of the request-loop read timeout (bounds how fast
    /// handlers notice a drain).
    pub read_poll: Duration,
    /// Idle eviction: a connection with no request activity this long is
    /// closed.
    pub idle_timeout: Duration,
    /// Slow-loris eviction: once a frame's first byte arrives, the whole
    /// frame must complete within this bound.
    pub frame_timeout: Duration,
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
    /// The `Hello` must arrive within this bound.
    pub handshake_timeout: Duration,
    /// Largest accepted frame payload, bytes.
    pub max_frame_bytes: usize,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Upper clamp on client-supplied deadlines.
    pub max_deadline: Duration,
    /// Extra wait past the deadline before the handler gives up on the
    /// engine's reply (covers batch execution already in flight).
    pub wait_slack: Duration,
    /// Server-side resubmissions after a transient pipeline failure.
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per attempt, jittered.
    pub retry_backoff: Duration,
    /// Who may connect, and at what rate.
    pub tenants: TenantPolicy,
    /// Chaos seam: when set, every accepted socket is wrapped in a
    /// [`FaultyStream`] driven by this plan. `None` in production.
    pub fault_plan: Option<Arc<NetFaultPlan>>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            read_poll: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(2),
            max_frame_bytes: 16 << 20,
            default_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(30),
            wait_slack: Duration::from_secs(1),
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            tenants: TenantPolicy::Static(Vec::new()),
            fault_plan: None,
        }
    }
}

/// State shared by the accept loop and every handler thread.
#[derive(Debug)]
struct ServerShared {
    router: Arc<dyn VariantRouter>,
    cfg: NetServerConfig,
    tenants: TenantTable,
    metrics: NetMetrics,
    epoch: Instant,
    stopping: AtomicBool,
    active: AtomicUsize,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerShared {
    /// Nanoseconds since the server started — the token buckets' time base.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn draining(&self) -> bool {
        // lint-ok(ordering-justified): one-way stop latch; a late reader
        // refuses one connect later.
        self.stopping.load(Ordering::Relaxed)
            || self.router.router_health() >= EngineHealth::Draining
    }
}

/// The TCP front door. Dropping (or [`shutdown`](Self::shutdown)) drains
/// gracefully: new connects are refused, in-flight requests answered,
/// handler threads joined.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop in
    /// front of `router` — a bare [`adv_serve::ServeEngine`] or a full
    /// model zoo; anything that implements [`VariantRouter`].
    ///
    /// # Errors
    ///
    /// Socket errors from bind, local-address resolution, or the accept
    /// thread spawn.
    pub fn start<R: VariantRouter + 'static>(
        router: Arc<R>,
        addr: &str,
        cfg: NetServerConfig,
    ) -> crate::Result<NetServer> {
        let router: Arc<dyn VariantRouter> = router;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let tenants = TenantTable::new(cfg.tenants.clone());
        #[expect(
            clippy::disallowed_methods,
            reason = "the epoch anchors every token bucket."
        )]
        let shared = Arc::new(ServerShared {
            router,
            cfg,
            tenants,
            metrics: NetMetrics::default(),
            epoch: Instant::now(),
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            handlers: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("adv-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(NetError::Io)?
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current front-door counters.
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The front door's metrics in the Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.shared.metrics.obs_snapshot().to_prometheus()
    }

    /// Graceful shutdown: refuse new connects, drain the engine, answer
    /// everything in flight, join every thread, return the final counters.
    pub fn shutdown(mut self) -> NetMetricsSnapshot {
        self.stop();
        self.shared.metrics.snapshot()
    }

    fn stop(&mut self) {
        // Order matters: the stop latch first (accept loop and handler
        // polls see it), then the engine drain (queued work still
        // answered), then wake the blocking accept with a throwaway
        // connect, then join everything.
        // lint-ok(ordering-justified): one-way latch, as above.
        self.shared.stopping.store(true, Ordering::Relaxed);
        self.shared.router.begin_drain();
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = adv_profile::sync::lock_unpoisoned(&self.shared.handlers);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut conn_seq: u64 = 0;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                // lint-ok(ordering-justified): one-way stop latch.
                if shared.stopping.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        // lint-ok(ordering-justified): one-way stop latch.
        if shared.stopping.load(Ordering::Relaxed) {
            return;
        }
        let conn = conn_seq;
        conn_seq += 1;
        refuse_or_spawn(shared, stream, conn);
    }
}

/// Door policy: refuse (one `Busy` frame, close) or hand to a handler.
fn refuse_or_spawn(shared: &Arc<ServerShared>, mut stream: TcpStream, conn: u64) {
    let refusal = if shared.draining() {
        Some(BusyReason::Draining)
    // lint-ok(ordering-justified): admission heuristic; racing accepts may
    // briefly overshoot the cap by the number of in-flight accept
    // decisions, which only softens the refusal.
    } else if shared.active.load(Ordering::Relaxed) >= shared.cfg.max_connections {
        Some(BusyReason::Overloaded)
    } else {
        None
    };
    if let Some(reason) = refusal {
        shared.metrics.record_connection_refused();
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
        let _ = write_frame(
            &mut stream,
            &Frame::Busy {
                id: 0,
                reason,
                retry_after_ms: 100,
            },
        );
        return;
    }
    shared.metrics.record_connection_accepted();
    // lint-ok(ordering-justified): the count only feeds the admission
    // heuristic above and a gauge; no memory is published through it.
    let n = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
    shared.metrics.set_active_connections(n);
    let handle = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name(format!("adv-net-conn-{conn}"))
            .spawn(move || {
                match &shared.cfg.fault_plan {
                    Some(plan) => {
                        let faulty = FaultyStream::new(stream, plan.clone(), conn);
                        handler_entry(&shared, faulty, conn);
                    }
                    None => handler_entry(&shared, stream, conn),
                }
                // lint-ok(ordering-justified): admission heuristic, as above.
                let n = shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
                shared.metrics.set_active_connections(n);
            })
    };
    match handle {
        Ok(handle) => {
            let mut guard = adv_profile::sync::lock_unpoisoned(&shared.handlers);
            // Reap finished handlers so a long-lived server doesn't hoard
            // dead thread stacks; live ones stay for the shutdown join.
            let mut keep = Vec::with_capacity(guard.len() + 1);
            for h in guard.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    keep.push(h);
                }
            }
            keep.push(handle);
            *guard = keep;
        }
        Err(_) => {
            // lint-ok(ordering-justified): admission heuristic, as above.
            let n = shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
            shared.metrics.set_active_connections(n);
        }
    }
}

/// Why the handler stopped serving a connection.
enum ConnEnd {
    /// Clean: `Bye`, EOF at a frame boundary, or a served refusal.
    Clean,
    /// The socket died or the peer violated the protocol.
    Errored,
}

fn handler_entry<S: NetStream>(shared: &ServerShared, mut stream: S, conn: u64) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = serve_connection(shared, &mut stream, conn);
    let _ = stream.shutdown();
}

fn serve_connection<S: NetStream>(
    shared: &ServerShared,
    stream: &mut S,
    conn: u64,
) -> std::result::Result<ConnEnd, ()> {
    // Handshake: exactly one Hello within the handshake timeout.
    let bucket = match read_frame_bounded(shared, stream, shared.cfg.handshake_timeout) {
        Ok(Frame::Hello { tenant, key }) => match shared.tenants.authenticate(tenant, key) {
            Some(bucket) => (tenant, bucket),
            None => {
                shared.metrics.record_auth_failure();
                let _ = write_frame(
                    stream,
                    &Frame::Error {
                        id: 0,
                        code: WireErrorCode::Auth,
                        message: format!("unknown tenant {tenant} or bad key"),
                    },
                );
                return Ok(ConnEnd::Clean);
            }
        },
        Ok(_) => {
            let _ = write_frame(
                stream,
                &Frame::Error {
                    id: 0,
                    code: WireErrorCode::Malformed,
                    message: "expected Hello".into(),
                },
            );
            return Ok(ConnEnd::Errored);
        }
        Err(e) => {
            answer_read_failure(shared, stream, 0, &e);
            return Ok(ConnEnd::Errored);
        }
    };
    let (tenant, bucket) = bucket;
    write_frame(
        stream,
        &Frame::Welcome {
            version: PROTOCOL_VERSION,
            max_frame: shared.cfg.max_frame_bytes.min(u32::MAX as usize) as u32,
            health: shared.router.router_health(),
            routes: shared.router.routes(),
        },
    )
    .map_err(|_| ())?;

    // Request loop: one frame at a time, in order.
    loop {
        let frame = match read_frame_bounded(shared, stream, shared.cfg.idle_timeout) {
            Ok(frame) => frame,
            Err(ReadEnd::Closed) => return Ok(ConnEnd::Clean),
            Err(e) => {
                answer_read_failure(shared, stream, 0, &e);
                return Ok(ConnEnd::Errored);
            }
        };
        match frame {
            Frame::Bye => return Ok(ConnEnd::Clean),
            Frame::StatusQuery => {
                // Ops probe: current health, routing epoch, and the live
                // routing table — answered even while draining, so a
                // client can watch a drain or promotion progress.
                let status = Frame::Status {
                    health: shared.router.router_health(),
                    epoch: shared.router.routing_epoch(),
                    routes: shared.router.routes(),
                };
                if write_frame(stream, &status).is_err() {
                    return Err(());
                }
            }
            Frame::Request {
                id,
                deadline_ms,
                route,
                sample,
                variant,
                dims,
                data,
            } => {
                shared.metrics.record_request();
                match handle_request(
                    shared,
                    stream,
                    conn,
                    tenant,
                    &bucket,
                    id,
                    deadline_ms,
                    route,
                    sample,
                    variant,
                    dims,
                    data,
                ) {
                    RequestEnd::Continue => {}
                    RequestEnd::Close => return Ok(ConnEnd::Clean),
                    RequestEnd::Dead => return Err(()),
                }
            }
            _ => {
                let _ = write_frame(
                    stream,
                    &Frame::Error {
                        id: 0,
                        code: WireErrorCode::Malformed,
                        message: "unexpected frame kind".into(),
                    },
                );
                return Ok(ConnEnd::Errored);
            }
        }
    }
}

/// How one request left the handler.
enum RequestEnd {
    /// Answered (or refused); keep serving this connection.
    Continue,
    /// Answered, but the connection should close (draining).
    Close,
    /// The connection died while delivering the reply.
    Dead,
}

#[expect(
    clippy::too_many_arguments,
    reason = "one request's connection, frame and reply state, passed by reference rather than bundled"
)]
fn handle_request<S: NetStream>(
    shared: &ServerShared,
    stream: &mut S,
    conn: u64,
    tenant: u32,
    bucket: &TokenBucket,
    id: u64,
    deadline_ms: u32,
    route: u32,
    sample: u32,
    variant: u32,
    dims: Vec<u32>,
    data: Vec<f32>,
) -> RequestEnd {
    // Admission gate 1: draining — refuse before any engine contact.
    if shared.draining() {
        shared.metrics.record_busy(false);
        let _ = write_frame(
            stream,
            &Frame::Busy {
                id,
                reason: BusyReason::Draining,
                retry_after_ms: 500,
            },
        );
        return RequestEnd::Close;
    }
    // Admission gate 2: the tenant's token bucket.
    if let Err(retry_after_ms) = bucket.try_take(shared.now_ns()) {
        shared.metrics.record_busy(true);
        return match write_frame(
            stream,
            &Frame::Busy {
                id,
                reason: BusyReason::RateLimited,
                retry_after_ms,
            },
        ) {
            Ok(()) => RequestEnd::Continue,
            Err(_) => RequestEnd::Dead,
        };
    }
    // Build the tensor; the codec already validated dims/data consistency.
    let shape = Shape::new(dims.iter().map(|&d| d as usize).collect());
    let input = match Tensor::from_vec(data, shape) {
        Ok(t) => t,
        Err(e) => {
            let _ = write_frame(
                stream,
                &Frame::Error {
                    id,
                    code: WireErrorCode::Malformed,
                    message: format!("bad tensor: {e}"),
                },
            );
            return RequestEnd::Continue;
        }
    };
    let budget = if deadline_ms == 0 {
        shared.cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms)).min(shared.cfg.max_deadline)
    };
    let tag = RequestTag::new(tenant, route, sample);

    // Admission gate 3: the engine queue. Past this point the request is
    // `accepted` and owes the client exactly one reply.
    let mut attempt = 0usize;
    let mut accepted = false;
    let reply = loop {
        let pending = match shared
            .router
            .submit_routed(variant, input.clone(), tag, budget)
        {
            Ok(pending) => pending,
            Err(ServeError::VariantUnavailable(_)) => {
                // Not in the live routing table (or its shard failed):
                // refuse without touching any engine. The client may retry
                // after the table flips — e.g. mid-promotion — so this is
                // Busy, not a hard error.
                if accepted {
                    break Frame::Error {
                        id,
                        code: WireErrorCode::Pipeline,
                        message: "retry rejected: variant left routing table".into(),
                    };
                }
                shared.metrics.record_busy(false);
                break Frame::Busy {
                    id,
                    reason: BusyReason::VariantUnavailable,
                    retry_after_ms: 100,
                };
            }
            Err(ServeError::QueueFull) => {
                if accepted {
                    // A retry resubmission hit backpressure: the original
                    // acceptance still owes a reply — report the pipeline
                    // failure we were retrying.
                    break Frame::Error {
                        id,
                        code: WireErrorCode::Pipeline,
                        message: "retry rejected by backpressure".into(),
                    };
                }
                shared.metrics.record_busy(false);
                break Frame::Busy {
                    id,
                    reason: BusyReason::QueueFull,
                    retry_after_ms: 10,
                };
            }
            Err(ServeError::ShuttingDown) => {
                if accepted {
                    break Frame::Error {
                        id,
                        code: WireErrorCode::Pipeline,
                        message: "retry rejected by drain".into(),
                    };
                }
                shared.metrics.record_busy(false);
                let _ = write_frame(
                    stream,
                    &Frame::Busy {
                        id,
                        reason: BusyReason::Draining,
                        retry_after_ms: 500,
                    },
                );
                return RequestEnd::Close;
            }
            Err(e) => {
                break Frame::Error {
                    id,
                    code: WireErrorCode::Internal,
                    message: e.to_string(),
                };
            }
        };
        if !accepted {
            accepted = true;
            shared.metrics.record_accepted();
        }
        match pending.wait_timeout(budget + shared.cfg.wait_slack) {
            Ok(resp) => {
                break Frame::Response {
                    id,
                    verdict: resp.verdict,
                    scheme: resp.scheme,
                    degraded: resp.degraded,
                    queue_ns: resp.queue_wait.as_nanos() as u64,
                    infer_ns: resp.stage_timings.total().as_nanos() as u64,
                    batch: resp.batch_size.min(u32::MAX as usize) as u32,
                };
            }
            Err(ServeError::Timeout) => {
                break Frame::Error {
                    id,
                    code: WireErrorCode::DeadlineExpired,
                    message: format!("deadline of {budget:?} expired"),
                };
            }
            Err(ServeError::Pipeline(msg)) | Err(ServeError::WorkerPanic(msg)) => {
                // Transient pipeline failure: bounded server-side retry
                // with jittered backoff before the client sees anything.
                if attempt < shared.cfg.max_retries {
                    attempt += 1;
                    shared.metrics.record_retry();
                    std::thread::sleep(jittered_backoff(
                        shared.cfg.retry_backoff,
                        attempt,
                        conn ^ id,
                    ));
                    continue;
                }
                break Frame::Error {
                    id,
                    code: WireErrorCode::Pipeline,
                    message: msg,
                };
            }
            Err(e) => {
                break Frame::Error {
                    id,
                    code: WireErrorCode::Internal,
                    message: e.to_string(),
                };
            }
        }
    };

    let shed = matches!(
        reply,
        Frame::Error {
            code: WireErrorCode::DeadlineExpired,
            ..
        }
    );
    match write_frame(stream, &reply) {
        Ok(()) => {
            if accepted {
                if shed {
                    shared.metrics.record_shed_expired();
                } else {
                    shared.metrics.record_answered();
                }
            }
            RequestEnd::Continue
        }
        Err(_) => {
            if accepted {
                shared.metrics.record_abandoned();
            }
            RequestEnd::Dead
        }
    }
}

/// Why a bounded frame read stopped without a frame.
#[derive(Debug)]
enum ReadEnd {
    /// EOF at a frame boundary: the peer hung up cleanly.
    Closed,
    /// No first byte within the idle bound (or the stop latch tripped
    /// while idle).
    Idle,
    /// First byte arrived but the frame dribbled past the frame timeout.
    SlowLoris,
    /// The codec rejected the bytes.
    Frame(FrameError),
    /// The socket failed.
    Io,
}

/// Tells the peer why its connection is being dropped, best-effort, and
/// counts the failure class.
fn answer_read_failure<S: NetStream>(shared: &ServerShared, stream: &mut S, id: u64, e: &ReadEnd) {
    match e {
        ReadEnd::Frame(err) => {
            shared.metrics.record_frame_error();
            let _ = write_frame(
                stream,
                &Frame::Error {
                    id,
                    code: if matches!(err, FrameError::TooLarge { .. }) {
                        WireErrorCode::TooLarge
                    } else {
                        WireErrorCode::Malformed
                    },
                    message: err.to_string(),
                },
            );
        }
        ReadEnd::SlowLoris => {
            shared.metrics.record_evicted_slow();
        }
        ReadEnd::Idle | ReadEnd::Closed | ReadEnd::Io => {}
    }
}

/// Reads one frame with the full timeout discipline: `idle_bound` for the
/// first byte, then [`NetServerConfig::frame_timeout`] for the rest of the
/// frame (slow-loris eviction), polling at `read_poll` granularity so the
/// stop latch is noticed promptly.
fn read_frame_bounded<S: NetStream>(
    shared: &ServerShared,
    stream: &mut S,
    idle_bound: Duration,
) -> std::result::Result<Frame, ReadEnd> {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_poll));
    #[expect(
        clippy::disallowed_methods,
        reason = "idle/slow-loris eviction deadlines are the feature of this loop."
    )]
    let idle_start = Instant::now();
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    let mut frame_start: Option<Instant> = None;

    // Phase 1: the header, with the idle bound before the first byte and
    // the frame bound after it.
    while filled < HEADER_LEN {
        let (_, rest) = header.split_at_mut(filled);
        match stream.read(rest) {
            Ok(0) => {
                return Err(if filled == 0 {
                    ReadEnd::Closed
                } else {
                    ReadEnd::SlowLoris
                });
            }
            Ok(n) => {
                filled += n;
                #[expect(clippy::disallowed_methods, reason = "see above.")]
                if frame_start.is_none() {
                    frame_start = Some(Instant::now());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                match frame_start {
                    None => {
                        // lint-ok(ordering-justified): one-way stop latch.
                        if shared.stopping.load(Ordering::Relaxed)
                            || idle_start.elapsed() >= idle_bound
                        {
                            return Err(ReadEnd::Idle);
                        }
                    }
                    Some(start) => {
                        if start.elapsed() >= shared.cfg.frame_timeout {
                            return Err(ReadEnd::SlowLoris);
                        }
                    }
                }
            }
            Err(_) => return Err(ReadEnd::Io),
        }
    }
    let (kind, payload_len, stored_crc) = decode_header(&header).map_err(ReadEnd::Frame)?;
    if payload_len > shared.cfg.max_frame_bytes {
        return Err(ReadEnd::Frame(FrameError::TooLarge {
            len: payload_len as u64,
            max: shared.cfg.max_frame_bytes as u64,
        }));
    }

    // Phase 2: the payload, entirely under the frame bound.
    let deadline = frame_start.map(|s| s + shared.cfg.frame_timeout);
    let mut payload = vec![0u8; payload_len];
    let mut filled = 0usize;
    while filled < payload_len {
        let (_, rest) = payload.split_at_mut(filled);
        match stream.read(rest) {
            Ok(0) => return Err(ReadEnd::SlowLoris),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                #[expect(clippy::disallowed_methods, reason = "see above.")]
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(ReadEnd::SlowLoris);
                }
            }
            Err(_) => return Err(ReadEnd::Io),
        }
    }
    Frame::decode_body(kind, &payload, stored_crc).map_err(ReadEnd::Frame)
}

/// Deterministically jittered exponential backoff: base × 2^attempt scaled
/// by a factor in [0.5, 1.5) drawn from a splitmix-style hash of `salt` —
/// no RNG state, no clock, yet retry storms from many connections decohere.
fn jittered_backoff(base: Duration, attempt: usize, salt: u64) -> Duration {
    let mut z = salt
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
    let scaled = base.saturating_mul(1u32 << attempt.min(10) as u32);
    Duration::from_nanos((scaled.as_nanos() as f64 * jitter) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_backoff_grows_and_stays_bounded() {
        let base = Duration::from_millis(4);
        for attempt in 1..6 {
            for salt in 0..32u64 {
                let d = jittered_backoff(base, attempt, salt);
                let nominal = base * (1u32 << attempt);
                assert!(d >= nominal / 2, "attempt {attempt} salt {salt}: {d:?}");
                assert!(d < nominal * 3 / 2, "attempt {attempt} salt {salt}: {d:?}");
            }
        }
    }

    #[test]
    fn jitter_decoheres_different_salts() {
        let base = Duration::from_millis(10);
        let a = jittered_backoff(base, 1, 1);
        let b = jittered_backoff(base, 1, 2);
        assert_ne!(a, b);
        // Same salt replays the same backoff (determinism for the soak).
        assert_eq!(a, jittered_backoff(base, 1, 1));
    }
}
