//! The blue-green promotion state machine, end to end: staged → warming →
//! live → retired on the happy path, and auto-rollback on every failure
//! class — corrupt blob, loader refusal, warm-up failure, worker panic,
//! shadow-parity regression, and seeded chaos faults at the `zoo/*` sites.
//! After every failed promotion the previous version must keep serving
//! with its verdict stream bit-identical.

mod common;

use adv_magnet::Verdict;
use adv_serve::{
    EngineHealth, FaultInjector, FaultPlan, RequestTag, ServeConfig, SiteFaults, VariantRouter,
};
use adv_zoo::{
    ModelZoo, PromotionStage, RollbackReason, ZooConfig, ZooError, SITE_FLIP, SITE_STAGE, SITE_WARM,
};
use common::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const VARIANT: u32 = 1;

fn zoo_cfg(root: &Path) -> ZooConfig {
    let mut cfg = ZooConfig::new(root);
    cfg.shard = ServeConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    cfg.warmup = (0..6).map(item).collect();
    cfg
}

fn open_zoo(root: &Path) -> ModelZoo {
    ModelZoo::open(Arc::new(StubLoader), zoo_cfg(root)).expect("open zoo")
}

/// Drives `n` requests through `variant` and returns the verdicts.
fn drive(zoo: &ModelZoo, variant: u32, n: usize) -> Vec<Verdict> {
    (0..n)
        .map(|i| {
            zoo.submit_routed(
                variant,
                item(i),
                RequestTag::default(),
                Duration::from_secs(5),
            )
            .expect("submit")
            .wait_timeout(Duration::from_secs(5))
            .expect("verdict")
            .verdict
        })
        .collect()
}

#[test]
fn first_promotion_goes_live_and_serves() {
    let root = scratch("first_live");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    let report = zoo.promote(VARIANT, 1).expect("promote");
    assert_eq!((report.variant, report.version), (VARIANT, 1));
    assert_eq!(report.retired_version, None);
    assert_eq!(report.epoch, 1);
    assert_eq!(zoo.live_version(VARIANT), Some(1));
    assert_eq!(zoo.routing_epoch(), 1);

    let routes = zoo.routes();
    assert_eq!(routes.len(), 1);
    assert_eq!((routes[0].variant, routes[0].version), (VARIANT, 1));

    let verdicts = drive(&zoo, VARIANT, 8);
    for (i, v) in verdicts.iter().enumerate() {
        assert_eq!(*v, stub_verdict(7, item(i).as_slice()), "request {i}");
    }
    let stats = zoo.stats();
    assert_eq!((stats.promotions, stats.rollbacks), (1, 0));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_variant_is_refused_and_counted() {
    let root = scratch("unknown_variant");
    let zoo = open_zoo(&root);
    let err = zoo
        .submit_routed(99, item(0), RequestTag::default(), Duration::from_secs(1))
        .expect_err("no such variant");
    assert!(matches!(err, adv_serve::ServeError::VariantUnavailable(99)));
    assert_eq!(zoo.stats().variant_unavailable, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn upgrade_retires_old_version_and_accounting_survives_the_swap() {
    let root = scratch("upgrade");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 1).unwrap();
    let before = drive(&zoo, VARIANT, 10);

    // Same seed → same behavior → shadow parity passes.
    zoo.publish(VARIANT, 2, &payload(MODE_OK, 7)).unwrap();
    let report = zoo.promote(VARIANT, 2).expect("promote v2");
    assert_eq!(report.retired_version, Some(1));
    assert_eq!(report.shadow_mismatches, 0);
    assert_eq!(zoo.live_version(VARIANT), Some(2));

    let after = drive(&zoo, VARIANT, 10);
    assert_eq!(before, after, "same-seed upgrade must not change verdicts");

    // Per-variant accounting identity across the swap: counters from the
    // retired v1 shard are carried into the variant's merged snapshot.
    let m = zoo.variant_metrics(VARIANT).expect("metrics");
    assert_eq!(
        m.submitted,
        m.completed + m.failed + m.shed_expired,
        "accounting identity must survive the hot swap"
    );
    // 20 driven requests + warm-up traffic (candidate replay + live
    // parity oracle) all land in the merged totals.
    assert!(m.completed >= 20, "completed {} < driven 20", m.completed);
    let stats = zoo.stats();
    assert_eq!(stats.promotions, 2);
    assert_eq!(stats.retired_shards, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_blob_is_rejected_quarantined_and_never_live() {
    let root = scratch("corrupt_blob");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 1).unwrap();
    let before = drive(&zoo, VARIANT, 6);

    let blob = zoo.publish(VARIANT, 2, &payload(MODE_OK, 7)).unwrap();
    drop(blob);
    let path = root.join("blobs/variant_1_v2.blob");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    match zoo.promote(VARIANT, 2) {
        Err(ZooError::BlobRejected {
            variant, version, ..
        }) => assert_eq!((variant, version), (VARIANT, 2)),
        other => panic!("expected BlobRejected, got {other:?}"),
    }
    assert!(!path.exists(), "corrupt blob must be quarantined");
    assert_eq!(zoo.live_version(VARIANT), Some(1));
    assert_eq!(drive(&zoo, VARIANT, 6), before);
    let stats = zoo.stats();
    assert_eq!(stats.blob_rejects, 1);
    // Nothing was journaled: reopening must not see an interrupted machine.
    drop(zoo);
    let zoo = open_zoo(&root);
    assert_eq!(zoo.stats().resumed_aborts, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rollback_reasons_cover_loader_warmup_and_parity() {
    silence_injected_panics();
    let root = scratch("rollback_matrix");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 1).unwrap();
    let before = drive(&zoo, VARIANT, 8);

    // Loader refuses the blob.
    zoo.publish(VARIANT, 2, &payload(MODE_UNLOADABLE, 7))
        .unwrap();
    match zoo.promote(VARIANT, 2) {
        Err(ZooError::RolledBack {
            reason: RollbackReason::LoaderFailed(_),
            ..
        }) => {}
        other => panic!("expected LoaderFailed, got {other:?}"),
    }

    // Candidate errors on every warm-up batch.
    zoo.publish(VARIANT, 3, &payload(MODE_ERROR, 7)).unwrap();
    match zoo.promote(VARIANT, 3) {
        Err(ZooError::RolledBack {
            reason: RollbackReason::WarmFailed(_),
            ..
        }) => {}
        other => panic!("expected WarmFailed, got {other:?}"),
    }

    // Candidate panics mid-warm: the shard's supervisor catches it; the
    // wait surfaces a worker failure and the promotion rolls back.
    zoo.publish(VARIANT, 4, &payload(MODE_PANIC, 7)).unwrap();
    match zoo.promote(VARIANT, 4) {
        Err(ZooError::RolledBack { reason, .. }) => assert!(
            matches!(
                reason,
                RollbackReason::WarmFailed(_) | RollbackReason::ShardUnhealthy(_)
            ),
            "unexpected reason {reason:?}"
        ),
        other => panic!("expected rollback, got {other:?}"),
    }

    // Different seed → verdicts disagree with the live shard → parity kill.
    zoo.publish(VARIANT, 5, &payload(MODE_OK, 8)).unwrap();
    match zoo.promote(VARIANT, 5) {
        Err(ZooError::RolledBack {
            reason: RollbackReason::ShadowMismatch { mismatches, .. },
            ..
        }) => assert!(mismatches > 0),
        other => panic!("expected ShadowMismatch, got {other:?}"),
    }

    // Through it all, v1 kept serving bit-identically.
    assert_eq!(zoo.live_version(VARIANT), Some(1));
    assert_eq!(drive(&zoo, VARIANT, 8), before);
    let stats = zoo.stats();
    assert_eq!(stats.rollbacks, 4);
    assert_eq!(stats.promotions, 1);
    assert!(stats.shadow_mismatches > 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn seeded_chaos_faults_roll_back_at_every_zoo_site() {
    let root = scratch("chaos_sites");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    for site in [SITE_STAGE, SITE_WARM, SITE_FLIP] {
        let plan = FaultPlan::new(0xC0FFEE).with(SiteFaults::at(site).errors(1.0).limit(1));
        let mut cfg = zoo_cfg(&root);
        cfg.injector = Some(Arc::new(FaultInjector::new(plan).unwrap()));
        let zoo = ModelZoo::open(Arc::new(StubLoader), cfg).expect("open");
        let before = drive(&zoo, VARIANT, 4);
        zoo.publish(VARIANT, 9, &payload(MODE_OK, 7)).unwrap();
        match zoo.promote(VARIANT, 9) {
            Err(ZooError::RolledBack {
                reason: RollbackReason::InjectedFault(_),
                ..
            }) => {}
            other => panic!("site {site}: expected InjectedFault, got {other:?}"),
        }
        assert_eq!(zoo.live_version(VARIANT), Some(1), "site {site}");
        assert_eq!(drive(&zoo, VARIANT, 4), before, "site {site}");
        assert_eq!(zoo.stats().rollbacks, 1, "site {site}");
        // The fault was limited to one hit: the retry promotes cleanly.
        let report = zoo.promote(VARIANT, 9).expect("retry after fault");
        assert_eq!(report.version, 9);
        // Reset to v1 for the next site (same behavior, parity passes).
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_zoo_refuses_promotions_and_reports_draining() {
    let root = scratch("draining");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 1).unwrap();
    zoo.begin_drain();
    assert_eq!(zoo.router_health(), EngineHealth::Draining);
    zoo.publish(VARIANT, 2, &payload(MODE_OK, 7)).unwrap();
    assert!(matches!(zoo.promote(VARIANT, 2), Err(ZooError::Draining)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn journal_records_the_full_machine() {
    let root = scratch("journal_shape");
    let zoo = open_zoo(&root);
    zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 1).unwrap();
    zoo.publish(VARIANT, 2, &payload(MODE_OK, 8)).unwrap();
    let _ = zoo.promote(VARIANT, 2); // parity rollback
    zoo.publish(VARIANT, 3, &payload(MODE_OK, 7)).unwrap();
    zoo.promote(VARIANT, 3).unwrap();
    drop(zoo);

    let log = adv_zoo::PromotionLog::open(&root).unwrap();
    let stages: Vec<PromotionStage> = log.records().unwrap().iter().map(|r| r.stage).collect();
    assert_eq!(
        stages,
        vec![
            // v1: clean first promotion (no previous shard to retire).
            PromotionStage::Staged,
            PromotionStage::Warming,
            PromotionStage::Live,
            // v2: rolled back during warm-up parity.
            PromotionStage::Staged,
            PromotionStage::Warming,
            PromotionStage::Aborted,
            // v3: clean upgrade, retiring v1.
            PromotionStage::Staged,
            PromotionStage::Warming,
            PromotionStage::Live,
            PromotionStage::Retired,
        ]
    );
    let _ = std::fs::remove_dir_all(&root);
}
