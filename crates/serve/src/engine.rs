//! The micro-batching engine: bounded request queue in front of a
//! supervised worker pool that coalesces requests into batches and runs a
//! shared [`DefensePipeline`] on each batch.
//!
//! Fault tolerance (see `DESIGN.md`, "Fault tolerance & chaos testing"):
//!
//! * Workers execute every batch group under `catch_unwind`, with the
//!   requests' response senders held *outside* the unwinding closure — a
//!   panicking pipeline therefore answers each in-flight request with
//!   [`ServeError::WorkerPanic`] instead of leaving callers to observe a
//!   dropped channel ([`ServeError::Disconnected`]).
//! * A supervisor thread respawns panicked workers under a
//!   [`RestartPolicy`] (exponential backoff, bounded restarts per sliding
//!   window); exhausting the budget drives the engine to
//!   [`EngineHealth::Failed`]: the queue is closed and every still-queued
//!   request is answered with an error.
//! * Requests may carry a server-side deadline
//!   ([`ServeEngine::submit_with_deadline`]); workers shed already-expired
//!   requests with [`ServeError::Timeout`] (counted, never silently
//!   dropped). Transient pipeline failures are retried per batch with
//!   bounded exponential backoff.
//! * A consecutive-failure circuit breaker ([`DegradePolicy`]) degrades
//!   the served [`DefenseScheme`] one fallback step at a time, stamps the
//!   affected responses as degraded, and periodically probes the original
//!   scheme to restore it.
//! * A [`FaultInjector`] can be plumbed in via [`ServeConfig::injector`]
//!   to exercise all of the above deterministically; the default is
//!   `None`, a single never-taken branch on the hot path.

use crate::breaker::{BatchRole, Breaker, BreakerEvent};
use crate::fault::FaultInjector;
use crate::health::HealthState;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::observe::{RequestTag, ResponseObserver, ServedRecord};
use crate::queue::{BoundedQueue, PushError};
use crate::{DegradePolicy, EngineHealth, RestartPolicy};
use crate::{Result, ServeError};
use adv_magnet::{DefensePipeline, DefenseScheme, StageTimings, Verdict};
use adv_profile::StageScope;
use adv_profile::TraceId;
use adv_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fault-injection site consulted by each worker between batches (before
/// any request is held, so an injected panic there can never lose one).
pub const SITE_POLL: &str = "serve/poll";

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch a worker will form before running the pipeline.
    pub max_batch: usize,
    /// The longest a worker holding a partial batch waits for more
    /// requests. Workers batch by Nagle's rule: a worker that finds
    /// requests queued takes them and leaves at once unless another
    /// worker's pass is running, in which case it lingers until the batch
    /// fills, that pass ends, or `max_wait` passes. A one-worker engine
    /// therefore never lingers, and `max_wait` has no effect on it: the
    /// requests that arrive during a pass form the next batch.
    pub max_wait: Duration,
    /// Queue capacity; submissions beyond it are rejected (backpressure).
    pub queue_capacity: usize,
    /// Worker threads sharing the defense.
    pub workers: usize,
    /// Defense scheme every request is served under (the breaker may
    /// temporarily degrade it; see [`DegradePolicy`]).
    pub scheme: DefenseScheme,
    /// Re-executions of a batch after a transient pipeline failure.
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// How the supervisor handles worker panics.
    pub restart: RestartPolicy,
    /// When and how the engine falls back to a reduced scheme.
    pub degrade: DegradePolicy,
    /// Deterministic fault injector for chaos tests. `None` (the default)
    /// costs one branch per batch poll and nothing per request.
    pub injector: Option<Arc<FaultInjector>>,
    /// Per-response observer (e.g. a telemetry recorder). `None` (the
    /// default) keeps the unscored pipeline path and adds nothing per
    /// request; when set, batches run through the scored pipeline and every
    /// served request is reported via [`ResponseObserver::on_response`].
    pub observer: Option<Arc<dyn ResponseObserver>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            workers: 2,
            scheme: DefenseScheme::Full,
            max_retries: 1,
            retry_backoff: Duration::from_micros(200),
            restart: RestartPolicy::default(),
            degrade: DegradePolicy::default(),
            injector: None,
            observer: None,
        }
    }
}

/// One served verdict, with the latency breakdown of the batch it rode in.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The defense pipeline's decision for this input.
    pub verdict: Verdict,
    /// Per-stage wall-clock time of the executed batch (shared by every
    /// request in the batch).
    pub stage_timings: StageTimings,
    /// Number of requests coalesced into the executed batch.
    pub batch_size: usize,
    /// Time from submission until the batch started executing.
    pub queue_wait: Duration,
    /// Total time from submission to response.
    pub latency: Duration,
    /// Scheme the batch actually ran under (differs from the configured
    /// scheme while the breaker is open).
    pub scheme: DefenseScheme,
    /// `true` when [`scheme`](Self::scheme) is a degraded fallback of the
    /// configured scheme.
    pub degraded: bool,
    /// The request's causal trace id ([`TraceId::NONE`] while profiling is
    /// off). Resolve it to a span tree with `adv_profile::render_trace`.
    pub trace: TraceId,
}

/// Handle to a submitted request; resolves to its [`ServeResponse`].
#[derive(Debug)]
pub struct PendingVerdict {
    rx: mpsc::Receiver<Result<ServeResponse>>,
}

impl PendingVerdict {
    /// Blocks until the verdict arrives.
    ///
    /// # Errors
    ///
    /// Returns the pipeline error for a failed batch, or
    /// [`ServeError::Disconnected`] if the engine died without answering.
    pub fn wait(self) -> Result<ServeResponse> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), plus [`ServeError::Timeout`] on expiry.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResponse> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }
}

/// A queued classification request.
#[derive(Debug)]
struct Request {
    input: Tensor,
    tag: RequestTag,
    trace: TraceId,
    submitted: Instant,
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<ServeResponse>>,
}

/// State shared by submitters, workers, and the supervisor.
#[derive(Debug)]
struct Shared {
    queue: BoundedQueue<Request>,
    metrics: ServeMetrics,
    health: HealthState,
    breaker: Breaker,
}

/// Everything a worker (or a respawn of one) needs.
#[derive(Debug, Clone)]
struct WorkerCtx {
    shared: Arc<Shared>,
    pipeline: Arc<dyn DefensePipeline>,
    cfg: Arc<ServeConfig>,
    events: mpsc::Sender<WorkerEvent>,
}

/// A worker announcing its own exit to the supervisor.
#[derive(Debug)]
struct WorkerEvent {
    worker: usize,
    panicked: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum WorkerExit {
    /// Queue closed and drained: clean shutdown.
    Closed,
    /// A batch panicked (already answered); the worker must be replaced.
    Panicked,
}

/// The serving engine. Dropping (or [`shutdown`](Self::shutdown)) closes the
/// queue, drains every queued request, and joins the workers.
#[derive(Debug)]
pub struct ServeEngine {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts the supervised worker pool around a shared, already-calibrated
    /// defense pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero-sized knobs and
    /// [`ServeError::WorkerSpawn`] when the OS refuses a thread (any
    /// requests accepted in the meantime are failed, not dropped).
    pub fn start(pipeline: Arc<dyn DefensePipeline>, cfg: ServeConfig) -> Result<Self> {
        if cfg.max_batch == 0 || cfg.workers == 0 || cfg.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(format!(
                "max_batch {}, workers {} and queue_capacity {} must all be nonzero",
                cfg.max_batch, cfg.workers, cfg.queue_capacity
            )));
        }
        if cfg.degrade.enabled && cfg.degrade.failure_threshold == 0 {
            return Err(ServeError::InvalidConfig(
                "degrade.failure_threshold must be nonzero when degradation is enabled".into(),
            ));
        }
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            metrics: ServeMetrics::default(),
            health: HealthState::new(),
            breaker: Breaker::new(cfg.scheme, cfg.degrade.clone()),
        });
        let (event_tx, event_rx) = mpsc::channel();
        let workers = cfg.workers;
        let ctx = WorkerCtx {
            shared: shared.clone(),
            pipeline,
            cfg: Arc::new(cfg),
            events: event_tx,
        };
        let mut handles = HashMap::with_capacity(workers);
        for i in 0..workers {
            match spawn_worker(i, ctx.clone()) {
                Ok(handle) => {
                    handles.insert(i, handle);
                }
                Err(e) => {
                    let err = ServeError::WorkerSpawn(format!("worker {i} of {workers}: {e}"));
                    fail_engine(&shared, &err);
                    for (_, handle) in handles {
                        let _ = handle.join();
                    }
                    return Err(err);
                }
            }
        }
        let supervisor = {
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name("adv-serve-supervisor".into())
                .spawn(move || supervisor_loop(ctx, event_rx, handles, workers))
        };
        match supervisor {
            Ok(handle) => Ok(ServeEngine {
                shared,
                supervisor: Some(handle),
            }),
            Err(e) => {
                let err = ServeError::WorkerSpawn(format!("supervisor: {e}"));
                fail_engine(&shared, &err);
                Err(err)
            }
        }
    }

    /// Submits one input (per-item shape, e.g. `[C, H, W]`) for
    /// classification.
    ///
    /// Never blocks: when the queue is at capacity the request is rejected so
    /// the caller can shed load or retry.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] under backpressure,
    /// [`ServeError::ShuttingDown`] after shutdown began (or after the
    /// engine entered [`EngineHealth::Failed`]).
    pub fn submit(&self, input: Tensor) -> Result<PendingVerdict> {
        self.submit_inner(input, RequestTag::default(), None)
    }

    /// Like [`submit`](Self::submit), but attaches a [`RequestTag`]
    /// (tenant/route/sample identity) that rides along to the response
    /// observer — recorded traffic becomes filterable and replayable.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_tagged(&self, input: Tensor, tag: RequestTag) -> Result<PendingVerdict> {
        self.submit_inner(input, tag, None)
    }

    /// Like [`submit`](Self::submit), but gives the request a server-side
    /// deadline of `budget` from now: if no worker starts its batch before
    /// the deadline the request is shed with [`ServeError::Timeout`].
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); the `Timeout` itself surfaces on
    /// [`PendingVerdict::wait`].
    pub fn submit_with_deadline(&self, input: Tensor, budget: Duration) -> Result<PendingVerdict> {
        self.submit_inner(input, RequestTag::default(), Some(budget))
    }

    /// [`submit_tagged`](Self::submit_tagged) with a server-side deadline.
    ///
    /// # Errors
    ///
    /// As [`submit_with_deadline`](Self::submit_with_deadline).
    pub fn submit_tagged_with_deadline(
        &self,
        input: Tensor,
        tag: RequestTag,
        budget: Duration,
    ) -> Result<PendingVerdict> {
        self.submit_inner(input, tag, Some(budget))
    }

    fn submit_inner(
        &self,
        input: Tensor,
        tag: RequestTag,
        budget: Option<Duration>,
    ) -> Result<PendingVerdict> {
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the submission timestamp feeds the queue-wait/latency fields of ServeResponse and anchors the server-side deadline — timing is the serving contract, not incidental instrumentation."
        )]
        let submitted = Instant::now();
        let request = Request {
            input,
            tag,
            trace: adv_profile::next_trace_id(),
            submitted,
            deadline: budget.map(|b| submitted + b),
            tx,
        };
        match self.shared.queue.try_push(request) {
            Ok(depth) => {
                self.shared.metrics.record_submitted(depth);
                Ok(PendingVerdict { rx })
            }
            Err(PushError::Full(_)) => {
                self.shared.metrics.record_rejected();
                Err(ServeError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Number of requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The engine's current health: `Degraded` while the breaker is open or
    /// a worker restart is within the restart window; `Failed` (terminal)
    /// once the restart budget is exhausted.
    pub fn health(&self) -> EngineHealth {
        self.shared.health.health(self.shared.breaker.is_open())
    }

    /// Current counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The engine's metrics in the Prometheus text exposition format
    /// (counters, the queue-depth high-water gauge, and the latency
    /// histogram with cumulative `le` buckets).
    pub fn metrics_prometheus(&self) -> String {
        self.shared.metrics.obs_snapshot().to_prometheus()
    }

    /// The engine's metrics as a JSON object (same content as
    /// [`metrics_prometheus`](Self::metrics_prometheus)).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.obs_snapshot().to_json()
    }

    /// Begins a graceful drain: the queue stops accepting new requests
    /// (submissions return [`ServeError::ShuttingDown`]) while workers keep
    /// answering everything already accepted, and [`health`](Self::health)
    /// reports [`EngineHealth::Draining`] so front ends (e.g. a network
    /// listener) can refuse new connects instead of racing the queue close.
    /// Idempotent; [`shutdown`](Self::shutdown) or drop still joins the
    /// workers afterwards.
    pub fn begin_drain(&self) {
        self.shared.health.set_draining();
        self.shared.queue.close();
    }

    /// Stops accepting work, drains every queued request, joins the workers,
    /// and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.shared.metrics.snapshot()
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends a response, counting (rather than ignoring) callers that dropped
/// their [`PendingVerdict`] without waiting.
fn respond(
    shared: &Shared,
    tx: &mpsc::Sender<Result<ServeResponse>>,
    result: Result<ServeResponse>,
) {
    if tx.send(result).is_err() {
        shared.metrics.record_response_abandoned();
    }
}

/// Closes the queue and fails every request still on it with `err`. The
/// close must precede the drain: `pop_batch` on an open empty queue blocks,
/// and on a closed one it never lingers. Each drained batch's pass ends
/// with its loop iteration.
fn fail_engine(shared: &Shared, err: &ServeError) {
    shared.queue.close();
    while let Some((batch, _pass)) = shared.queue.pop_batch(64, Duration::ZERO) {
        for request in batch {
            shared.metrics.record_failed();
            respond(shared, &request.tx, Err(err.clone()));
        }
    }
}

fn spawn_worker(id: usize, ctx: WorkerCtx) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("adv-serve-worker-{id}"))
        .spawn(move || worker_entry(id, ctx))
}

/// Outermost worker frame: runs the loop under `catch_unwind` so panics
/// outside batch execution (e.g. an injected poll-site panic) also turn
/// into a supervised respawn, then reports the exit to the supervisor.
fn worker_entry(id: usize, ctx: WorkerCtx) {
    let panicked = match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx))) {
        Ok(WorkerExit::Closed) => false,
        Ok(WorkerExit::Panicked) => true,
        Err(_) => {
            // Panicked while holding no requests (batch panics are caught —
            // and counted — inside process_batch).
            ctx.shared.metrics.record_worker_panic();
            true
        }
    };
    let _ = ctx.events.send(WorkerEvent {
        worker: id,
        panicked,
    });
}

/// Worker body: coalesce, execute, respond — until close-and-drained.
fn worker_loop(ctx: &WorkerCtx) -> WorkerExit {
    loop {
        if let Some(injector) = &ctx.cfg.injector {
            // The poll site runs before any request is held: injected
            // panics kill only the worker (supervised), injected errors
            // have no request to fail and are deliberately dropped,
            // injected delays emulate a stalled worker.
            let _ = injector.apply(SITE_POLL);
        }
        let popped = {
            // Poll time covers both idle waiting and batch coalescing; in a
            // trace it shows up as the worker's non-pipeline time.
            let _poll = StageScope::enter("serve/poll");
            ctx.shared
                .queue
                .pop_batch(ctx.cfg.max_batch, ctx.cfg.max_wait)
        };
        // `_pass` counts this batch as running until the batch is answered
        // (or the worker unwinds): meanwhile other workers holding a
        // partial batch linger for more requests.
        let Some((batch, _pass)) = popped else {
            return WorkerExit::Closed;
        };
        if process_batch(ctx, batch) == WorkerExit::Panicked {
            return WorkerExit::Panicked;
        }
    }
}

/// Executes one coalesced batch and answers every request in it — exactly
/// once, whatever happens: shed, served, failed, or panicked.
///
/// Requests are grouped by input shape first, so one oddly-shaped request
/// fails alone instead of poisoning the whole batch.
fn process_batch(ctx: &WorkerCtx, batch: Vec<Request>) -> WorkerExit {
    let shared = &ctx.shared;
    let cfg = &ctx.cfg;

    // Shed requests whose server-side deadline expired while queued: they
    // are answered (and counted), never silently dropped.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline enforcement is the feature."
    )]
    let now = Instant::now();
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for request in batch {
        if request.deadline.is_some_and(|deadline| now >= deadline) {
            shared.metrics.record_shed_expired();
            respond(shared, &request.tx, Err(ServeError::Timeout));
        } else {
            live.push(request);
        }
    }

    let mut groups: VecDeque<Vec<Request>> = VecDeque::new();
    for request in live {
        match groups.iter_mut().find(|g| {
            g.first()
                .is_some_and(|r| r.input.shape() == request.input.shape())
        }) {
            Some(group) => group.push(request),
            None => groups.push_back(vec![request]),
        }
    }

    while let Some(group) = groups.pop_front() {
        let _batch_span = StageScope::enter("serve/batch");
        #[expect(
            clippy::disallowed_methods,
            reason = "batch start time feeds the queue_wait and latency response fields; measuring it is part of the API."
        )]
        let started = Instant::now();
        let (scheme, role) = shared.breaker.scheme_for_batch(shared.health.now_ns());
        let degraded = scheme != cfg.scheme;
        // One trace id per executed batch; each request's trace is linked
        // to it, and the guard tags every kernel/stage scope the pipeline
        // runs on this thread with the batch id. All of this is a no-op
        // (null ids, inactive guard) while profiling is off.
        let batch_trace = adv_profile::next_trace_id();
        for request in &group {
            adv_profile::link(request.trace, batch_trace);
        }
        let _trace_guard = adv_profile::record_into(batch_trace);
        let inputs: Vec<Tensor> = group.iter().map(|r| r.input.clone()).collect();

        // The response senders stay in `group`, outside the unwinding
        // closure — a panicking pipeline can never drop them, so callers
        // get WorkerPanic, not Disconnected.
        let mut attempt = 0;
        let outcome = loop {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let stacked = {
                    let _stack = StageScope::enter("serve/stack");
                    Tensor::stack(&inputs).map_err(|e| ServeError::Pipeline(e.to_string()))
                };
                stacked.and_then(|x| {
                    let _pipeline = StageScope::enter("serve/pipeline");
                    // MagNet runs the same pass for a batch as for one
                    // input, so batching changes throughput, not results
                    // (the equivalence tests pin this). The detector scores
                    // cost no extra work; they are dropped below unless an
                    // observer wants them.
                    ctx.pipeline
                        .classify_batch_scored(&x, scheme)
                        .map_err(|e| ServeError::Pipeline(e.to_string()))
                })
            }));
            match run {
                Ok(Ok(ok)) => break Exec::Served(ok),
                Ok(Err(err)) => {
                    if attempt < cfg.max_retries {
                        attempt += 1;
                        shared.metrics.record_batch_retry();
                        std::thread::sleep(retry_backoff(cfg.retry_backoff, attempt));
                        continue;
                    }
                    break Exec::Failed(err);
                }
                Err(payload) => break Exec::Panicked(panic_message(payload.as_ref())),
            }
        };

        match outcome {
            Exec::Served((verdicts, det_scores, timings)) => {
                if shared.breaker.on_success(role) == Some(BreakerEvent::Closed) {
                    shared.metrics.record_breaker_closed();
                    let _t = StageScope::enter("serve/breaker/close");
                }
                shared
                    .metrics
                    .record_batch(timings.detect, timings.reform, timings.classify);
                let batch_size = group.len();
                for (i, (request, verdict)) in group.into_iter().zip(verdicts).enumerate() {
                    let response = ServeResponse {
                        verdict,
                        stage_timings: timings,
                        batch_size,
                        queue_wait: started.duration_since(request.submitted),
                        latency: request.submitted.elapsed(),
                        scheme,
                        degraded,
                        trace: request.trace,
                    };
                    adv_profile::record_event(
                        request.trace,
                        "queue_wait",
                        response.queue_wait.as_nanos() as u64,
                    );
                    adv_profile::observe_latency(response.latency.as_nanos() as u64, request.trace);
                    shared.metrics.record_completed(response.latency);
                    if degraded {
                        shared.metrics.record_degraded_response();
                    }
                    if let Some(observer) = &cfg.observer {
                        // Gather this item's score across the per-detector
                        // columns; allocated only on the observed path.
                        let scores: Vec<f32> = det_scores
                            .iter()
                            .filter_map(|col| col.get(i).copied())
                            .collect();
                        observer.on_response(&ServedRecord {
                            tag: request.tag,
                            verdict,
                            scheme,
                            degraded,
                            queue_ns: response.queue_wait.as_nanos() as u64,
                            infer_ns: timings.total().as_nanos() as u64,
                            tick_ns: shared.health.now_ns(),
                            trace_id: request.trace.as_u64(),
                            scores: &scores,
                        });
                    }
                    respond(shared, &request.tx, Ok(response));
                }
            }
            Exec::Failed(err) => {
                record_group_failure(ctx, role);
                for request in group {
                    shared.metrics.record_failed();
                    respond(shared, &request.tx, Err(err.clone()));
                }
            }
            Exec::Panicked(msg) => {
                record_group_failure(ctx, role);
                shared.metrics.record_worker_panic();
                let err = ServeError::WorkerPanic(msg);
                // The worker is about to die; answer the current group and
                // the rest of the batch now so no request rides down with
                // it (its senders would otherwise drop as Disconnected).
                for request in group.into_iter().chain(groups.drain(..).flatten()) {
                    shared.metrics.record_failed();
                    respond(shared, &request.tx, Err(err.clone()));
                }
                return WorkerExit::Panicked;
            }
        }
    }
    WorkerExit::Closed
}

/// How one batch group's execution ended.
enum Exec {
    Served((Vec<Verdict>, Vec<Vec<f32>>, StageTimings)),
    Failed(ServeError),
    Panicked(String),
}

/// Feeds a failed batch group into the breaker and records any resulting
/// transition.
fn record_group_failure(ctx: &WorkerCtx, role: BatchRole) {
    let shared = &ctx.shared;
    if let Some(BreakerEvent::Opened { .. }) =
        shared.breaker.on_failure(role, shared.health.now_ns())
    {
        shared.metrics.record_breaker_opened();
        let _t = StageScope::enter("serve/breaker/open");
    }
}

fn retry_backoff(base: Duration, attempt: usize) -> Duration {
    base.saturating_mul(1u32 << attempt.min(10) as u32)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Supervisor body: joins exited workers, respawns panicked ones under the
/// restart policy, and fails the engine when the budget runs out.
fn supervisor_loop(
    ctx: WorkerCtx,
    events: mpsc::Receiver<WorkerEvent>,
    mut handles: HashMap<usize, JoinHandle<()>>,
    workers: usize,
) {
    let restart = ctx.cfg.restart.clone();
    let window_ns = restart.window.as_nanos() as u64;
    let mut live = workers;
    let mut next_id = workers;
    let mut history: VecDeque<u64> = VecDeque::new();
    while live > 0 {
        let Ok(event) = events.recv() else {
            break;
        };
        if let Some(handle) = handles.remove(&event.worker) {
            // The worker already sent its exit event; the join is prompt.
            let _ = handle.join();
        }
        if !event.panicked {
            live -= 1;
            continue;
        }
        let now = ctx.shared.health.now_ns();
        while history
            .front()
            .is_some_and(|&t| now.saturating_sub(t) > window_ns)
        {
            history.pop_front();
        }
        if history.len() >= restart.max_restarts {
            ctx.shared.health.set_failed();
            fail_engine(
                &ctx.shared,
                &ServeError::WorkerPanic(format!(
                    "restart budget exhausted ({} restarts in {:?}); engine failed",
                    history.len(),
                    restart.window
                )),
            );
            live -= 1;
            continue;
        }
        // Backoff before the respawn; pending events just queue up behind
        // it (the backoff is capped well below typical event rates).
        std::thread::sleep(restart.backoff(history.len()));
        history.push_back(now);
        ctx.shared.health.mark_degraded(restart.window);
        ctx.shared.metrics.record_worker_restart();
        let _respawn = StageScope::enter("serve/worker/respawn");
        let id = next_id;
        next_id += 1;
        match spawn_worker(id, ctx.clone()) {
            Ok(handle) => {
                handles.insert(id, handle);
            }
            Err(e) => {
                ctx.shared.health.set_failed();
                fail_engine(
                    &ctx.shared,
                    &ServeError::WorkerSpawn(format!("respawn of worker {id}: {e}")),
                );
                live -= 1;
            }
        }
    }
    for (_, handle) in handles {
        let _ = handle.join();
    }
}
