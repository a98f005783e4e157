//! The model zoo: per-variant engine shards behind an epoch-counted
//! routing table, with journaled blue-green promotion.
//!
//! ## Isolation
//!
//! Every variant runs its own [`ServeEngine`] shard — its own worker
//! pool, bounded queue, circuit breaker, restart budget, and
//! [`EngineHealth`]. A panicking or degrading variant exhausts *its*
//! budgets; the routing table keeps every other shard untouched, so their
//! verdict streams are bit-identical to a fault-free run (pinned by the
//! isolation tests).
//!
//! ## Promotion state machine
//!
//! ```text
//!            blob CRC ok            shard up          parity+health ok
//! promote() ──────────────▶ Staged ─────────▶ Warming ───────────────▶ Live ──▶ Retired
//!                │                     │              │                  (old shard drained)
//!                │ corrupt → quarantine│ loader/spawn │ mismatch, unhealthy,
//!                ▼                     ▼              ▼ injected fault
//!           BlobRejected            Aborted        Aborted (auto-rollback)
//! ```
//!
//! Every transition is fsync-journaled through adv-store *before* it takes
//! effect in memory, so a kill -9 at any point resumes deterministically:
//! no `Live` record → the flip never happened and recovery aborts the
//! promotion (old version keeps serving); a `Live` record → the flip is
//! authoritative and recovery finishes the retirement. The routing table
//! itself is an immutable `Arc` swapped under an epoch counter — in-flight
//! requests finish on the table (and shard) they resolved, and a retiring
//! shard is only shut down once every reader has released it, so a
//! successful flip drops zero requests.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use adv_magnet::DefensePipeline;
use adv_serve::{
    EngineHealth, FaultInjector, MetricsSnapshot, PendingVerdict, RequestTag, RouteInfo,
    ServeConfig, ServeEngine, ServeError, VariantRouter,
};
use adv_tensor::Tensor;

use crate::blob::{BlobStore, WeightBlob};
use crate::journal::{PromotionLog, PromotionRecord, PromotionStage};
use crate::metrics::{ZooMetrics, ZooStats};
use crate::{Result, ZooError};

/// Fault site: blob staging (`FaultInjector` errors fail the promotion
/// before anything is journaled).
pub const SITE_STAGE: &str = "zoo/stage";
/// Fault site: shadow warm-up (one decision per warm-up sample; an
/// injected error rolls the promotion back).
pub const SITE_WARM: &str = "zoo/warm";
/// Fault site: the routing-table flip (an injected error aborts the
/// promotion at the last gate — the old version keeps serving).
pub const SITE_FLIP: &str = "zoo/flip";

/// Builds a defense pipeline from a CRC-verified weight blob. The zoo
/// never interprets blob bytes itself; tests use cheap stub loaders and
/// production wires the MagNet variants in.
pub trait PipelineLoader: Send + Sync + std::fmt::Debug {
    /// Deserializes `blob` into a ready-to-serve pipeline.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the zoo rolls the promotion back and
    /// journals `Aborted`.
    fn build(&self, blob: &WeightBlob) -> std::result::Result<Arc<dyn DefensePipeline>, String>;
}

/// A loader for zoos that only [`install`](ModelZoo::install) in-process
/// pipelines and never promote from blobs (the probe binaries): every
/// `build` is refused, so a stray blob promotion rolls back instead of
/// serving bytes nobody can interpret.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullLoader;

impl PipelineLoader for NullLoader {
    fn build(&self, _blob: &WeightBlob) -> std::result::Result<Arc<dyn DefensePipeline>, String> {
        Err("null loader: this zoo only serves installed pipelines".into())
    }
}

/// Why a promotion was automatically rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RollbackReason {
    /// The loader could not turn the (CRC-valid) blob into a pipeline.
    LoaderFailed(String),
    /// The candidate shard failed to start or errored during warm-up.
    WarmFailed(String),
    /// Shadow parity: the candidate disagreed with the live shard on more
    /// warm-up verdicts than the configured tolerance.
    ShadowMismatch {
        /// Disagreeing verdicts observed.
        mismatches: u64,
        /// Configured tolerance ([`ZooConfig::max_shadow_mismatches`]).
        allowed: u64,
    },
    /// The candidate shard's health regressed during warm-up.
    ShardUnhealthy(EngineHealth),
    /// A seeded chaos fault fired at a `zoo/*` site.
    InjectedFault(String),
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackReason::LoaderFailed(d) => write!(f, "loader failed: {d}"),
            RollbackReason::WarmFailed(d) => write!(f, "warm-up failed: {d}"),
            RollbackReason::ShadowMismatch {
                mismatches,
                allowed,
            } => write!(
                f,
                "shadow parity regressed: {mismatches} mismatches (allowed {allowed})"
            ),
            RollbackReason::ShardUnhealthy(h) => write!(f, "candidate shard is {h}"),
            RollbackReason::InjectedFault(d) => write!(f, "injected fault: {d}"),
        }
    }
}

/// Outcome of a successful [`ModelZoo::promote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionReport {
    /// Variant promoted.
    pub variant: u32,
    /// Version now live.
    pub version: u32,
    /// Routing-table epoch after the flip.
    pub epoch: u64,
    /// Shadow-parity mismatches observed during warm-up (≤ tolerance).
    pub shadow_mismatches: u64,
    /// The version that was retired, if the variant was already live.
    pub retired_version: Option<u32>,
}

/// Zoo configuration. `root` hosts the blob store and promotion journal;
/// `shard` is the per-variant engine template.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Durable root: `<root>/blobs/` and `<root>/promotions.journal`.
    pub root: PathBuf,
    /// Engine configuration applied to every variant shard.
    pub shard: ServeConfig,
    /// Shadow traffic replayed through a warming candidate (and mirrored
    /// to the live shard for the verdict-parity probe).
    pub warmup: Vec<Tensor>,
    /// Parity mismatches tolerated before auto-rollback (default 0: any
    /// disagreement with the live shard kills the promotion).
    pub max_shadow_mismatches: u64,
    /// Per-verdict wait bound during warm-up.
    pub warm_timeout: Duration,
    /// Bound on waiting for in-flight readers to release a retiring shard
    /// before falling back to drain-in-place.
    pub retire_wait: Duration,
    /// Seeded chaos injector for the `zoo/*` fault sites.
    pub injector: Option<Arc<FaultInjector>>,
    /// Crash-harness hook: `process::abort()` immediately after the given
    /// stage is journaled, simulating kill -9 mid-promotion (used by
    /// `zoo_probe` and the CI hot-swap soak; never set in production).
    pub abort_after: Option<PromotionStage>,
}

impl ZooConfig {
    /// A config with serving defaults, rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> ZooConfig {
        ZooConfig {
            root: root.into(),
            shard: ServeConfig::default(),
            warmup: Vec::new(),
            max_shadow_mismatches: 0,
            warm_timeout: Duration::from_secs(5),
            retire_wait: Duration::from_secs(2),
            injector: None,
            abort_after: None,
        }
    }
}

/// One variant's serving shard: a version-stamped engine.
#[derive(Debug)]
struct Shard {
    version: u32,
    engine: ServeEngine,
}

/// The immutable routing table. Readers clone the `Arc` and resolve
/// shards by reference — they never clone shard `Arc`s, so
/// `Arc::strong_count` on a shard counts exactly the tables (and the
/// retirer) that reference it.
#[derive(Debug)]
struct RoutingTable {
    epoch: u64,
    draining: bool,
    shards: BTreeMap<u32, Arc<Shard>>,
}

/// Counter totals carried over from retired shards so per-variant
/// accounting identities survive hot swaps.
#[derive(Debug, Default, Clone)]
struct RetiredTotals {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    batches: u64,
    max_queue_depth: u64,
    detect: Duration,
    reform: Duration,
    classify: Duration,
    shed_expired: u64,
    batch_retries: u64,
    worker_panics: u64,
    worker_restarts: u64,
    responses_abandoned: u64,
    degraded_responses: u64,
    breaker_opened: u64,
    breaker_closed: u64,
}

impl RetiredTotals {
    fn absorb(&mut self, s: &MetricsSnapshot) {
        self.submitted += s.submitted;
        self.rejected += s.rejected;
        self.completed += s.completed;
        self.failed += s.failed;
        self.batches += s.batches;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
        self.detect += s.detect_time;
        self.reform += s.reform_time;
        self.classify += s.classify_time;
        self.shed_expired += s.shed_expired;
        self.batch_retries += s.batch_retries;
        self.worker_panics += s.worker_panics;
        self.worker_restarts += s.worker_restarts;
        self.responses_abandoned += s.responses_abandoned;
        self.degraded_responses += s.degraded_responses;
        self.breaker_opened += s.breaker_opened;
        self.breaker_closed += s.breaker_closed;
    }

    /// Folds the carried totals into a live snapshot. Latency percentiles
    /// and mean batch size stay those of the live shard (histograms do not
    /// merge across engines); every counter is cumulative across versions.
    fn merge_into(&self, s: &mut MetricsSnapshot) {
        s.submitted += self.submitted;
        s.rejected += self.rejected;
        s.completed += self.completed;
        s.failed += self.failed;
        s.batches += self.batches;
        s.max_queue_depth = s.max_queue_depth.max(self.max_queue_depth);
        s.detect_time += self.detect;
        s.reform_time += self.reform;
        s.classify_time += self.classify;
        s.shed_expired += self.shed_expired;
        s.batch_retries += self.batch_retries;
        s.worker_panics += self.worker_panics;
        s.worker_restarts += self.worker_restarts;
        s.responses_abandoned += self.responses_abandoned;
        s.degraded_responses += self.degraded_responses;
        s.breaker_opened += self.breaker_opened;
        s.breaker_closed += self.breaker_closed;
    }
}

/// State serialized under one mutex: the journal plus promotion progress.
/// Held for the whole of a `promote()`/`install()` call so promotions
/// never interleave; the submit path only touches the `RwLock`ed table.
#[derive(Debug)]
struct Inner {
    log: PromotionLog,
}

/// The variant registry: every MagNet variant served concurrently from
/// one process, with journaled blue-green promotion. See the module docs
/// for the state machine and crash-recovery contract.
#[derive(Debug)]
pub struct ModelZoo {
    cfg: ZooConfig,
    loader: Arc<dyn PipelineLoader>,
    blobs: BlobStore,
    metrics: ZooMetrics,
    inner: Mutex<Inner>,
    table: RwLock<Arc<RoutingTable>>,
    retired: Mutex<BTreeMap<u32, RetiredTotals>>,
}

impl ModelZoo {
    /// Opens the zoo at `cfg.root`, replaying the promotion journal.
    ///
    /// Recovery resolves every interrupted promotion: machines without a
    /// `Live` record are journaled `Aborted` (the flip never happened);
    /// `Live` records missing their `Retired` are closed out. The routing
    /// table is rebuilt from the last `Live` version of each variant whose
    /// blob still CRC-verifies — a blob that went corrupt on disk (or
    /// whose CRC no longer matches the journaled one) is quarantined and
    /// its variant left unrouted rather than ever serving doubtful bytes.
    ///
    /// # Errors
    ///
    /// [`ZooError::Store`] on journal I/O, [`ZooError::JournalSchema`] on
    /// foreign journal contents, [`ZooError::Serve`] if a recovered
    /// shard's engine cannot start.
    pub fn open(loader: Arc<dyn PipelineLoader>, cfg: ZooConfig) -> Result<ModelZoo> {
        std::fs::create_dir_all(&cfg.root).map_err(adv_store::StoreError::Io)?;
        let blobs = BlobStore::new(&cfg.root);
        let mut log = PromotionLog::open(&cfg.root)?;
        let records = log.records()?;
        let metrics = ZooMetrics::default();

        // Replay: final state per variant.
        let mut live: BTreeMap<u32, (u32, u32)> = BTreeMap::new(); // variant -> (version, crc)
        let mut pending: BTreeMap<u32, u32> = BTreeMap::new(); // variant -> candidate version
        let mut unretired: BTreeMap<u32, u32> = BTreeMap::new(); // variant -> previous live version
        for r in &records {
            match r.stage {
                PromotionStage::Staged | PromotionStage::Warming => {
                    pending.insert(r.variant, r.version);
                }
                PromotionStage::Live => {
                    pending.remove(&r.variant);
                    if let Some((prev_version, _)) = live.insert(r.variant, (r.version, r.crc)) {
                        unretired.insert(r.variant, prev_version);
                    }
                }
                PromotionStage::Retired => {
                    unretired.remove(&r.variant);
                }
                PromotionStage::Aborted => {
                    pending.remove(&r.variant);
                }
            }
        }

        // Close out every interrupted machine before serving anything.
        for (variant, version) in pending {
            log.append(PromotionRecord {
                stage: PromotionStage::Aborted,
                variant,
                version,
                crc: 0,
            })?;
            metrics.resumed_aborts.incr();
        }
        for (variant, version) in unretired {
            log.append(PromotionRecord {
                stage: PromotionStage::Retired,
                variant,
                version,
                crc: 0,
            })?;
            metrics.resumed_retires.incr();
        }

        // Rebuild shards from the last Live version of each variant.
        let mut shards = BTreeMap::new();
        for (variant, (version, journaled_crc)) in live {
            let blob = match blobs.load(variant, version) {
                Ok(blob) => blob,
                Err(_) => {
                    metrics.blob_rejects.incr();
                    continue;
                }
            };
            if blob.crc() != journaled_crc {
                // CRC-valid envelope but not the journaled bytes: the blob
                // was replaced out-of-band. Quarantine; never serve it.
                adv_store::quarantine(&blobs.path_for(variant, version));
                metrics.blob_rejects.incr();
                continue;
            }
            let pipeline = match loader.build(&blob) {
                Ok(p) => p,
                Err(_) => {
                    metrics.blob_rejects.incr();
                    continue;
                }
            };
            let engine = ServeEngine::start(pipeline, cfg.shard.clone())?;
            shards.insert(variant, Arc::new(Shard { version, engine }));
        }

        metrics.live_variants.set(shards.len() as f64);
        metrics.routing_epoch.set(0.0);
        Ok(ModelZoo {
            blobs,
            loader,
            cfg,
            metrics,
            inner: Mutex::new(Inner { log }),
            table: RwLock::new(Arc::new(RoutingTable {
                epoch: 0,
                draining: false,
                shards,
            })),
            retired: Mutex::new(BTreeMap::new()),
        })
    }

    /// Seals `payload` as the weight blob for `(variant, version)`,
    /// ready to [`promote`](Self::promote).
    ///
    /// # Errors
    ///
    /// [`ZooError::Store`] on I/O failure.
    pub fn publish(&self, variant: u32, version: u32, payload: &[u8]) -> Result<WeightBlob> {
        self.blobs.publish(variant, version, payload)
    }

    /// Installs an already-built pipeline as `variant`'s live shard
    /// (version 0, unjournaled). This is the bootstrap path for probes and
    /// tests — unlike [`promote`](Self::promote) it is *not* durable:
    /// reopening the zoo forgets installs. Replaces (and drains) any
    /// previous shard for the variant.
    ///
    /// # Errors
    ///
    /// [`ZooError::Draining`] after [`VariantRouter::begin_drain`];
    /// [`ZooError::Serve`] if the shard cannot start.
    pub fn install(&self, variant: u32, pipeline: Arc<dyn DefensePipeline>) -> Result<()> {
        let _inner = self.lock_inner();
        if self.current_table().draining {
            return Err(ZooError::Draining);
        }
        let engine = ServeEngine::start(pipeline, self.cfg.shard.clone())?;
        let shard = Arc::new(Shard { version: 0, engine });
        let (old_table, new_table) = self.flip_table(|cur| {
            let mut shards = cur.shards.clone();
            shards.insert(variant, Arc::clone(&shard));
            RoutingTable {
                epoch: 0,
                draining: cur.draining,
                shards,
            }
        });
        if new_table.draining {
            shard.engine.begin_drain();
        }
        let old_shard = old_table.shards.get(&variant).map(Arc::clone);
        drop(old_table);
        if let Some(old_shard) = old_shard {
            self.retire_shard(variant, old_shard);
        }
        Ok(())
    }

    /// Blue-green promotion of `(variant, version)`: Staged → Warming →
    /// Live → Retired, with auto-rollback. See the module docs for the
    /// full contract. Returns the report of a completed flip.
    ///
    /// # Errors
    ///
    /// [`ZooError::BlobRejected`] when the blob is missing or corrupt
    /// (quarantined; nothing journaled, the promotion never starts);
    /// [`ZooError::RolledBack`] for every started-then-aborted promotion
    /// (loader failure, warm-up failure, shadow-parity regression,
    /// candidate health regression, injected `zoo/*` fault) — the journal
    /// gains an `Aborted` record and the previous version keeps serving,
    /// verdict-stream untouched; [`ZooError::Draining`] once draining.
    pub fn promote(&self, variant: u32, version: u32) -> Result<PromotionReport> {
        let mut inner = self.lock_inner();
        if self.current_table().draining {
            return Err(ZooError::Draining);
        }

        // ── Stage: fault gate + CRC-verified blob load ──
        if let Err(detail) = self.apply_fault(SITE_STAGE) {
            self.metrics.rollbacks.incr();
            return Err(ZooError::RolledBack {
                variant,
                version,
                reason: RollbackReason::InjectedFault(detail),
            });
        }
        let blob = match self.blobs.load(variant, version) {
            Ok(blob) => blob,
            Err(e) => {
                self.metrics.blob_rejects.incr();
                return Err(e);
            }
        };
        inner.log.append(PromotionRecord {
            stage: PromotionStage::Staged,
            variant,
            version,
            crc: blob.crc(),
        })?;
        self.crash_hook(PromotionStage::Staged);

        // ── Build + start the candidate shard ──
        let pipeline = match self.loader.build(&blob) {
            Ok(p) => p,
            Err(detail) => {
                return self.rollback(
                    &mut inner,
                    variant,
                    version,
                    RollbackReason::LoaderFailed(detail),
                )
            }
        };
        let candidate = match ServeEngine::start(pipeline, self.cfg.shard.clone()) {
            Ok(engine) => engine,
            Err(e) => {
                return self.rollback(
                    &mut inner,
                    variant,
                    version,
                    RollbackReason::WarmFailed(e.to_string()),
                )
            }
        };
        inner.log.append(PromotionRecord {
            stage: PromotionStage::Warming,
            variant,
            version,
            crc: blob.crc(),
        })?;
        self.crash_hook(PromotionStage::Warming);

        // ── Warm on shadow traffic with the live shard as parity oracle ──
        let table_at_warm = self.current_table();
        let live_shard = table_at_warm.shards.get(&variant).map(Arc::clone);
        let warm = self.warm_candidate(&candidate, live_shard.as_deref(), variant);
        drop(live_shard);
        drop(table_at_warm);
        let shadow_mismatches = match warm {
            Ok(m) => m,
            Err(reason) => {
                let _ = candidate.shutdown();
                return self.rollback(&mut inner, variant, version, reason);
            }
        };

        // ── Flip gate ──
        if let Err(detail) = self.apply_fault(SITE_FLIP) {
            let _ = candidate.shutdown();
            return self.rollback(
                &mut inner,
                variant,
                version,
                RollbackReason::InjectedFault(detail),
            );
        }

        // ── Live: journal first (the record is the commit point), then
        //    swap the table atomically ──
        inner.log.append(PromotionRecord {
            stage: PromotionStage::Live,
            variant,
            version,
            crc: blob.crc(),
        })?;
        self.crash_hook(PromotionStage::Live);
        let new_shard = Arc::new(Shard {
            version,
            engine: candidate,
        });
        let (old_table, new_table) = self.flip_table(|cur| {
            let mut shards = cur.shards.clone();
            shards.insert(variant, Arc::clone(&new_shard));
            RoutingTable {
                epoch: 0,
                draining: cur.draining,
                shards,
            }
        });
        if new_table.draining {
            new_shard.engine.begin_drain();
        }
        self.metrics.promotions.incr();

        // ── Retire the previous shard: in-flight requests finish on the
        //    old version, then it drains out ──
        let old_shard = old_table.shards.get(&variant).map(Arc::clone);
        drop(old_table);
        let retired_version = match old_shard {
            Some(old_shard) => {
                let old_version = old_shard.version;
                self.retire_shard(variant, old_shard);
                inner.log.append(PromotionRecord {
                    stage: PromotionStage::Retired,
                    variant,
                    version: old_version,
                    crc: 0,
                })?;
                self.crash_hook(PromotionStage::Retired);
                Some(old_version)
            }
            None => None,
        };

        Ok(PromotionReport {
            variant,
            version,
            epoch: new_table.epoch,
            shadow_mismatches,
            retired_version,
        })
    }

    /// The version currently live for `variant`, if any.
    pub fn live_version(&self, variant: u32) -> Option<u32> {
        self.current_table().shards.get(&variant).map(|s| s.version)
    }

    /// Zoo-level counters (promotions, rollbacks, parity, routing state).
    pub fn stats(&self) -> ZooStats {
        self.metrics.snapshot()
    }

    /// Prometheus exposition of the `zoo.*` registry.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.obs_snapshot().to_prometheus()
    }

    // ── internals ────────────────────────────────────────────────────

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn current_table(&self) -> Arc<RoutingTable> {
        Arc::clone(&self.table.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Atomically replaces the routing table: builds the successor from
    /// the *current* table under the write lock (so concurrent drains are
    /// never lost), bumps the epoch, and publishes the new `Arc`.
    fn flip_table<F>(&self, build: F) -> (Arc<RoutingTable>, Arc<RoutingTable>)
    where
        F: FnOnce(&RoutingTable) -> RoutingTable,
    {
        let mut guard = self.table.write().unwrap_or_else(|p| p.into_inner());
        let old = Arc::clone(&guard);
        let mut next = build(&old);
        next.epoch = old.epoch + 1;
        let next = Arc::new(next);
        *guard = Arc::clone(&next);
        drop(guard);
        self.metrics.routing_epoch.set(next.epoch as f64);
        self.metrics.live_variants.set(next.shards.len() as f64);
        (old, next)
    }

    fn apply_fault(&self, site: &str) -> std::result::Result<(), String> {
        match &self.cfg.injector {
            Some(injector) => injector.apply(site).map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    fn crash_hook(&self, stage: PromotionStage) {
        if self.cfg.abort_after == Some(stage) {
            // Simulated kill -9 for the crash-recovery harness: die without
            // unwinding, exactly as the CI soak's real `kill -9` would.
            std::process::abort();
        }
    }

    fn rollback(
        &self,
        inner: &mut Inner,
        variant: u32,
        version: u32,
        reason: RollbackReason,
    ) -> Result<PromotionReport> {
        self.metrics.rollbacks.incr();
        inner.log.append(PromotionRecord {
            stage: PromotionStage::Aborted,
            variant,
            version,
            crc: 0,
        })?;
        Err(ZooError::RolledBack {
            variant,
            version,
            reason,
        })
    }

    /// Replays the shadow corpus through the candidate; each verdict is
    /// compared against the live shard's (when one exists). Returns the
    /// mismatch count, or the rollback reason.
    fn warm_candidate(
        &self,
        candidate: &ServeEngine,
        live: Option<&Shard>,
        variant: u32,
    ) -> std::result::Result<u64, RollbackReason> {
        let mut mismatches = 0u64;
        let tag = RequestTag::default().with_variant(variant);
        for input in &self.cfg.warmup {
            if let Err(detail) = self.apply_fault(SITE_WARM) {
                return Err(RollbackReason::InjectedFault(detail));
            }
            let pending = candidate
                .submit_tagged(input.clone(), tag)
                .map_err(|e| RollbackReason::WarmFailed(e.to_string()))?;
            let answer = pending
                .wait_timeout(self.cfg.warm_timeout)
                .map_err(|e| RollbackReason::WarmFailed(e.to_string()))?;
            if let Some(live) = live {
                let reference = live
                    .engine
                    .submit_tagged(input.clone(), tag)
                    .ok()
                    .and_then(|p| p.wait_timeout(self.cfg.warm_timeout).ok());
                // A live shard that cannot answer shadow traffic (it may be
                // degraded or saturated by real load) skips the parity
                // probe for this sample rather than failing the candidate.
                if let Some(reference) = reference {
                    if reference.verdict != answer.verdict {
                        mismatches += 1;
                        self.metrics.shadow_mismatches.incr();
                    }
                }
            }
        }
        if mismatches > self.cfg.max_shadow_mismatches {
            return Err(RollbackReason::ShadowMismatch {
                mismatches,
                allowed: self.cfg.max_shadow_mismatches,
            });
        }
        let health = candidate.health();
        if health > EngineHealth::Healthy {
            return Err(RollbackReason::ShardUnhealthy(health));
        }
        Ok(mismatches)
    }

    /// Shuts a replaced shard down without dropping requests: waits (with
    /// a bound) for every in-flight reader to release the shard, then
    /// drains and joins it, folding its final counters into the variant's
    /// retired totals.
    fn retire_shard(&self, variant: u32, shard: Arc<Shard>) {
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds the reader-release wait — the retire deadline is part of the hot-swap serving contract, not incidental instrumentation."
        )]
        let deadline = Instant::now() + self.cfg.retire_wait;
        #[expect(
            clippy::disallowed_methods,
            reason = "polls the same retire deadline as above."
        )]
        while Arc::strong_count(&shard) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let finals = match Arc::try_unwrap(shard) {
            Ok(shard) => shard.engine.shutdown(),
            Err(shard) => {
                // A reader is still holding the shard past the bound (it
                // can only be mid-submit). Stop admissions and snapshot;
                // the engine finishes draining when the last Arc drops.
                shard.engine.begin_drain();
                shard.engine.metrics()
            }
        };
        let mut retired = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        retired.entry(variant).or_default().absorb(&finals);
        drop(retired);
        self.metrics.retired_shards.incr();
    }
}

impl VariantRouter for ModelZoo {
    fn submit_routed(
        &self,
        variant: u32,
        input: Tensor,
        tag: RequestTag,
        budget: Duration,
    ) -> adv_serve::Result<PendingVerdict> {
        let table = self.current_table();
        let Some(shard) = table.shards.get(&variant) else {
            self.metrics.variant_unavailable.incr();
            return Err(ServeError::VariantUnavailable(variant));
        };
        if shard.engine.health() == EngineHealth::Failed {
            // A failed shard's queue is closed; report it as an unroutable
            // variant (clients can fail over) instead of ShuttingDown,
            // which would read as whole-process drain.
            self.metrics.variant_unavailable.incr();
            return Err(ServeError::VariantUnavailable(variant));
        }
        shard
            .engine
            .submit_tagged_with_deadline(input, tag.with_variant(variant), budget)
    }

    /// Aggregate health with isolation semantics: one sick variant makes
    /// the zoo *Degraded*, never Failed — the front door only reports
    /// Failed when every shard has failed (and Draining only after
    /// [`begin_drain`](VariantRouter::begin_drain)).
    fn router_health(&self) -> EngineHealth {
        let table = self.current_table();
        if table.draining {
            return EngineHealth::Draining;
        }
        if table.shards.is_empty() {
            return EngineHealth::Degraded;
        }
        let mut worst = EngineHealth::Healthy;
        let mut all_failed = true;
        for shard in table.shards.values() {
            let h = shard.engine.health();
            worst = worst.max(h);
            all_failed &= h == EngineHealth::Failed;
        }
        if all_failed {
            EngineHealth::Failed
        } else if worst > EngineHealth::Healthy {
            EngineHealth::Degraded
        } else {
            EngineHealth::Healthy
        }
    }

    fn routes(&self) -> Vec<RouteInfo> {
        self.current_table()
            .shards
            .iter()
            .map(|(&variant, shard)| RouteInfo {
                variant,
                version: shard.version,
                health: shard.engine.health(),
            })
            .collect()
    }

    fn routing_epoch(&self) -> u64 {
        self.current_table().epoch
    }

    fn begin_drain(&self) {
        let (_, new_table) = self.flip_table(|cur| RoutingTable {
            epoch: 0,
            draining: true,
            shards: cur.shards.clone(),
        });
        for shard in new_table.shards.values() {
            shard.engine.begin_drain();
        }
    }

    fn variant_metrics(&self, variant: u32) -> Option<MetricsSnapshot> {
        let table = self.current_table();
        let live = table.shards.get(&variant).map(|s| s.engine.metrics());
        let retired = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        let carried = retired.get(&variant).cloned();
        drop(retired);
        match (live, carried) {
            (Some(mut snapshot), Some(totals)) => {
                totals.merge_into(&mut snapshot);
                Some(snapshot)
            }
            (Some(snapshot), None) => Some(snapshot),
            (None, Some(totals)) => {
                let mut snapshot = empty_snapshot();
                totals.merge_into(&mut snapshot);
                Some(snapshot)
            }
            (None, None) => None,
        }
    }
}

/// An all-zero snapshot to merge retired totals into when a variant has no
/// live shard left.
fn empty_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        submitted: 0,
        rejected: 0,
        completed: 0,
        failed: 0,
        batches: 0,
        max_queue_depth: 0,
        mean_batch_size: 0.0,
        p50_latency: Duration::ZERO,
        p99_latency: Duration::ZERO,
        detect_time: Duration::ZERO,
        reform_time: Duration::ZERO,
        classify_time: Duration::ZERO,
        shed_expired: 0,
        batch_retries: 0,
        worker_panics: 0,
        worker_restarts: 0,
        responses_abandoned: 0,
        degraded_responses: 0,
        breaker_opened: 0,
        breaker_closed: 0,
    }
}
