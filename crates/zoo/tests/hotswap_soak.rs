//! Soak: client threads hammer the routing table while promotions flip it
//! underneath them. The zero-drop contract — no request accepted before a
//! flip is lost by it, and no request observes `VariantUnavailable` for a
//! variant that stays in the table throughout — plus the per-variant
//! accounting identity across live and retired shards.

#[expect(dead_code, reason = "this test uses a subset of the shared helpers")]
mod common;

use adv_serve::{RequestTag, ServeConfig, VariantRouter};
use adv_zoo::{ModelZoo, ZooConfig};
use common::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const VARIANTS: [u32; 2] = [1, 2];
const CLIENTS_PER_VARIANT: usize = 2;
const PROMOTIONS: u32 = 6;

fn zoo_cfg(root: &Path) -> ZooConfig {
    let mut cfg = ZooConfig::new(root);
    cfg.shard = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 512,
        ..ServeConfig::default()
    };
    cfg.warmup = (0..4).map(item).collect();
    cfg
}

#[test]
fn traffic_survives_repeated_hot_swaps_without_drops() {
    let root = scratch("hotswap_soak");
    let zoo = Arc::new(ModelZoo::open(Arc::new(StubLoader), zoo_cfg(&root)).expect("open zoo"));
    for v in VARIANTS {
        zoo.publish(v, 1, &payload(MODE_OK, v as u8)).unwrap();
        zoo.promote(v, 1).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let unavailable = Arc::new(AtomicU64::new(0));
    let wrong_verdicts = Arc::new(AtomicU64::new(0));
    let resolved = Arc::new(AtomicU64::new(0));

    let mut clients = Vec::new();
    for variant in VARIANTS {
        for worker in 0..CLIENTS_PER_VARIANT {
            let zoo = Arc::clone(&zoo);
            let stop = Arc::clone(&stop);
            let unavailable = Arc::clone(&unavailable);
            let wrong_verdicts = Arc::clone(&wrong_verdicts);
            let resolved = Arc::clone(&resolved);
            clients.push(std::thread::spawn(move || {
                let mut i = worker * 10_000;
                while !stop.load(Ordering::Relaxed) {
                    let input = item(i);
                    let expected = stub_verdict(variant as u8, input.as_slice());
                    match zoo.submit_routed(
                        variant,
                        input,
                        RequestTag::default().with_variant(variant),
                        Duration::from_secs(5),
                    ) {
                        Ok(pending) => {
                            // Zero-drop contract: every accepted request
                            // resolves even if its shard retires mid-flight.
                            let outcome = pending
                                .wait_timeout(Duration::from_secs(5))
                                .expect("accepted request must resolve across hot swaps");
                            resolved.fetch_add(1, Ordering::Relaxed);
                            // Every promotion in this soak republishes the
                            // same seed, so verdicts are version-invariant.
                            if outcome.verdict != expected {
                                wrong_verdicts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(adv_serve::ServeError::VariantUnavailable(_)) => {
                            unavailable.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(adv_serve::ServeError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    i += 1;
                }
            }));
        }
    }

    // Flip both variants repeatedly while traffic flows; each promotion
    // reuses the variant's seed so shadow parity always passes.
    for version in 2..=(PROMOTIONS + 1) {
        for v in VARIANTS {
            zoo.publish(v, version, &payload(MODE_OK, v as u8)).unwrap();
            let report = zoo.promote(v, version).expect("promotion under load");
            assert_eq!(report.retired_version, Some(version - 1));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }

    assert_eq!(
        unavailable.load(Ordering::Relaxed),
        0,
        "variants never left the table, so no request may see VariantUnavailable"
    );
    assert_eq!(
        wrong_verdicts.load(Ordering::Relaxed),
        0,
        "same-seed hot swaps must be verdict-invariant"
    );
    assert!(
        resolved.load(Ordering::Relaxed) > 0,
        "soak produced no traffic"
    );

    // Per-variant accounting identity across live + retired shards.
    for v in VARIANTS {
        let m = zoo.variant_metrics(v).expect("metrics");
        assert_eq!(
            m.submitted,
            m.completed + m.failed + m.shed_expired,
            "variant {v}: accounting identity across {PROMOTIONS} swaps"
        );
        assert_eq!(
            m.failed, 0,
            "variant {v}: no request may fail in a clean soak"
        );
        assert_eq!(
            m.shed_expired, 0,
            "variant {v}: no shedding in a clean soak"
        );
    }

    let stats = zoo.stats();
    // Initial bootstrap (2) + PROMOTIONS rounds x 2 variants.
    assert_eq!(stats.promotions, u64::from(2 + PROMOTIONS * 2));
    assert_eq!(stats.retired_shards, u64::from(PROMOTIONS * 2));
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(zoo.routing_epoch(), u64::from(2 + PROMOTIONS * 2));
    let _ = std::fs::remove_dir_all(&root);
}
