//! Variant routing: the seam between the network front door and whatever
//! serves requests behind it.
//!
//! A single [`ServeEngine`] hosts exactly one defense
//! pipeline. The model zoo (`adv-zoo`) hosts one engine shard per variant
//! behind an epoch-counted routing table. Both sit behind this trait so
//! `adv-net`'s listener, the probes, and the load generator are agnostic
//! to which one answers: every request carries a variant key, and the
//! router either admits it to that variant's shard or refuses it with
//! [`ServeError::VariantUnavailable`](crate::ServeError::VariantUnavailable).

use std::time::Duration;

use adv_tensor::Tensor;

use crate::{EngineHealth, MetricsSnapshot, PendingVerdict, RequestTag, Result, ServeEngine};

/// The variant id a plain single-pipeline engine serves, and the variant
/// untagged submissions are routed to.
pub const DEFAULT_VARIANT: u32 = 0;

/// One live entry in a router's routing table, as reported to ops clients
/// (the net `Welcome` frame carries exactly these fields per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Variant id requests address.
    pub variant: u32,
    /// Version of the weight blob currently live for this variant
    /// (0 when the pipeline was installed directly, without a blob).
    pub version: u32,
    /// The serving shard's health, isolated per variant.
    pub health: EngineHealth,
}

/// Anything that can serve variant-keyed requests: a bare
/// [`ServeEngine`] (default variant only) or a multi-shard model zoo.
pub trait VariantRouter: Send + Sync + std::fmt::Debug {
    /// Submit `input` to the shard serving `variant`, with a request tag
    /// and a server-side deadline budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::VariantUnavailable`](crate::ServeError::VariantUnavailable)
    /// when `variant` is not in the live routing table; otherwise as
    /// [`ServeEngine::submit_tagged_with_deadline`].
    fn submit_routed(
        &self,
        variant: u32,
        input: Tensor,
        tag: RequestTag,
        budget: Duration,
    ) -> Result<PendingVerdict>;

    /// Aggregate health across every live shard (the worst shard wins, so
    /// the front door drains when any route has begun draining).
    fn router_health(&self) -> EngineHealth;

    /// The live routing table: one entry per variant currently admitting
    /// traffic, sorted by variant id.
    fn routes(&self) -> Vec<RouteInfo>;

    /// The epoch of the current routing table. A bare engine is epoch 0
    /// forever; the zoo bumps the epoch on every atomic table flip.
    fn routing_epoch(&self) -> u64;

    /// Stop admitting new requests on every shard while answering what was
    /// already accepted.
    fn begin_drain(&self);

    /// Aggregate metrics for `variant`'s shard (including any retired
    /// predecessors of the live version), or `None` for unknown variants.
    fn variant_metrics(&self, variant: u32) -> Option<MetricsSnapshot>;
}

impl VariantRouter for ServeEngine {
    fn submit_routed(
        &self,
        variant: u32,
        input: Tensor,
        tag: RequestTag,
        budget: Duration,
    ) -> Result<PendingVerdict> {
        if variant != DEFAULT_VARIANT {
            return Err(crate::ServeError::VariantUnavailable(variant));
        }
        self.submit_tagged_with_deadline(input, tag.with_variant(variant), budget)
    }

    fn router_health(&self) -> EngineHealth {
        self.health()
    }

    fn routes(&self) -> Vec<RouteInfo> {
        vec![RouteInfo {
            variant: DEFAULT_VARIANT,
            version: 0,
            health: self.health(),
        }]
    }

    fn routing_epoch(&self) -> u64 {
        0
    }

    fn begin_drain(&self) {
        ServeEngine::begin_drain(self);
    }

    fn variant_metrics(&self, variant: u32) -> Option<MetricsSnapshot> {
        if variant == DEFAULT_VARIANT {
            Some(self.metrics())
        } else {
            None
        }
    }
}
