//! Zoo-level counters on a private `adv-profile` registry: promotion outcomes,
//! shadow parity, blob hygiene, and routing-table state.
//!
//! Per-request serving counters stay on each shard's own engine registry
//! (`serve.*`); the `zoo.*` names here count only what the zoo itself does
//! — promotions, rollbacks, flips, and refusals — so the two registries
//! never cross-count.

use std::sync::Arc;

use adv_profile::{Counter, Gauge, Registry, Snapshot};

/// Point-in-time view of the zoo counters, from
/// [`ModelZoo::stats`](crate::ModelZoo::stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZooStats {
    /// Promotions that reached Live (the routing table flipped).
    pub promotions: u64,
    /// Promotions auto-rolled back before going Live.
    pub rollbacks: u64,
    /// Shadow-warmup verdicts that disagreed with the live shard.
    pub shadow_mismatches: u64,
    /// Weight blobs rejected at load time (corrupt → quarantined, or
    /// missing); a rejected blob never reaches a shard.
    pub blob_rejects: u64,
    /// Routed submissions refused because the variant had no live shard.
    pub variant_unavailable: u64,
    /// Epoch of the current routing table (bumps on every flip).
    pub routing_epoch: u64,
    /// Variants currently admitting traffic.
    pub live_variants: u64,
    /// Interrupted promotions aborted during journal recovery.
    pub resumed_aborts: u64,
    /// Interrupted retirements completed during journal recovery.
    pub resumed_retires: u64,
    /// Shards retired after a successful flip (old versions drained out).
    pub retired_shards: u64,
}

/// Shared zoo counters on a private registry.
#[derive(Debug)]
pub(crate) struct ZooMetrics {
    registry: Arc<Registry>,
    pub(crate) promotions: Arc<Counter>,
    pub(crate) rollbacks: Arc<Counter>,
    pub(crate) shadow_mismatches: Arc<Counter>,
    pub(crate) blob_rejects: Arc<Counter>,
    pub(crate) variant_unavailable: Arc<Counter>,
    pub(crate) routing_epoch: Arc<Gauge>,
    pub(crate) live_variants: Arc<Gauge>,
    pub(crate) resumed_aborts: Arc<Counter>,
    pub(crate) resumed_retires: Arc<Counter>,
    pub(crate) retired_shards: Arc<Counter>,
}

impl Default for ZooMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        ZooMetrics {
            promotions: registry.counter("zoo.promotions"),
            rollbacks: registry.counter("zoo.rollbacks"),
            shadow_mismatches: registry.counter("zoo.shadow_mismatches"),
            blob_rejects: registry.counter("zoo.blob_rejects"),
            variant_unavailable: registry.counter("zoo.variant_unavailable"),
            routing_epoch: registry.gauge("zoo.routing_epoch"),
            live_variants: registry.gauge("zoo.live_variants"),
            resumed_aborts: registry.counter("zoo.resumed_aborts"),
            resumed_retires: registry.counter("zoo.resumed_retires"),
            retired_shards: registry.counter("zoo.retired_shards"),
            registry,
        }
    }
}

impl ZooMetrics {
    /// Raw `adv-profile` snapshot, for the Prometheus/JSON exporters.
    pub(crate) fn obs_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    pub(crate) fn snapshot(&self) -> ZooStats {
        ZooStats {
            promotions: self.promotions.get(),
            rollbacks: self.rollbacks.get(),
            shadow_mismatches: self.shadow_mismatches.get(),
            blob_rejects: self.blob_rejects.get(),
            variant_unavailable: self.variant_unavailable.get(),
            routing_epoch: self.routing_epoch.get() as u64,
            live_variants: self.live_variants.get() as u64,
            resumed_aborts: self.resumed_aborts.get(),
            resumed_retires: self.resumed_retires.get(),
            retired_shards: self.retired_shards.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = ZooMetrics::default();
        m.promotions.incr();
        m.rollbacks.incr();
        m.rollbacks.incr();
        m.shadow_mismatches.add(3);
        m.routing_epoch.set(7.0);
        m.live_variants.set(2.0);
        let s = m.snapshot();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.rollbacks, 2);
        assert_eq!(s.shadow_mismatches, 3);
        assert_eq!(s.routing_epoch, 7);
        assert_eq!(s.live_variants, 2);
        let prom = m.obs_snapshot().to_prometheus();
        assert!(prom.contains("zoo_promotions 1"), "{prom}");
        assert!(prom.contains("zoo_rollbacks 2"), "{prom}");
    }
}
