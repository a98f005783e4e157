//! Crash recovery: the journal is the source of truth. A zoo reopened over
//! an interrupted promotion must either resume past the commit point (Live
//! journaled → finish the retire) or cleanly abort (no Live → journal
//! Aborted and keep the old version), and a blob that no longer matches
//! its journaled CRC must be quarantined, never routed.

#[expect(dead_code, reason = "this test uses a subset of the shared helpers")]
mod common;

use adv_serve::{RequestTag, ServeConfig, VariantRouter};
use adv_zoo::{ModelZoo, PromotionLog, PromotionRecord, PromotionStage, ZooConfig};
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
        queue_capacity: 128,
        ..ServeConfig::default()
    };
    cfg.warmup = (0..4).map(item).collect();
    cfg
}

fn open_zoo(root: &Path) -> ModelZoo {
    ModelZoo::open(Arc::new(StubLoader), zoo_cfg(root)).expect("open zoo")
}

fn verdict_of(zoo: &ModelZoo, i: usize) -> adv_magnet::Verdict {
    zoo.submit_routed(
        VARIANT,
        item(i),
        RequestTag::default(),
        Duration::from_secs(5),
    )
    .expect("submit")
    .wait_timeout(Duration::from_secs(5))
    .expect("verdict")
    .verdict
}

/// Simulates a kill -9 at `stage` of promoting `version`: publishes the
/// blob, appends exactly the journal prefix a crashed promotion would have
/// left behind, then reopens and returns the recovered zoo. (The in-process
/// equivalent of the CI soak's real `std::process::abort` crash hook —
/// `ZooConfig::abort_after` can't be exercised inside a test process.)
fn crash_at(root: &Path, stage: PromotionStage, version: u32) -> ModelZoo {
    let crc = {
        let zoo = open_zoo(root);
        zoo.publish(VARIANT, version, &payload(MODE_OK, 7))
            .unwrap()
            .crc()
    };
    let prefix: &[PromotionStage] = match stage {
        PromotionStage::Staged => &[PromotionStage::Staged],
        PromotionStage::Warming => &[PromotionStage::Staged, PromotionStage::Warming],
        _ => &[
            PromotionStage::Staged,
            PromotionStage::Warming,
            PromotionStage::Live,
        ],
    };
    {
        let mut log = PromotionLog::open(root).unwrap();
        for &s in prefix {
            log.append(PromotionRecord {
                stage: s,
                variant: VARIANT,
                version,
                crc,
            })
            .unwrap();
        }
    }
    open_zoo(root)
}

#[test]
fn reopen_restores_the_last_live_version() {
    let root = scratch("reopen_live");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
        zoo.publish(VARIANT, 2, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 2).unwrap();
    }
    let zoo = open_zoo(&root);
    assert_eq!(zoo.live_version(VARIANT), Some(2));
    assert_eq!(zoo.stats().resumed_aborts, 0);
    assert_eq!(zoo.stats().resumed_retires, 0);
    assert_eq!(
        verdict_of(&zoo, 3),
        stub_verdict(7, item(3).as_slice()),
        "recovered shard must serve"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_before_commit_point_aborts_and_keeps_the_old_version() {
    let root = scratch("crash_precommit");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    for (round, stage) in [PromotionStage::Staged, PromotionStage::Warming]
        .into_iter()
        .enumerate()
    {
        let version = 10 + round as u32;
        let zoo = crash_at(&root, stage, version);
        assert_eq!(
            zoo.live_version(VARIANT),
            Some(1),
            "{stage:?}: crash before Live must keep v1"
        );
        assert_eq!(zoo.stats().resumed_aborts, 1, "{stage:?}");
        assert_eq!(
            verdict_of(&zoo, round),
            stub_verdict(7, item(round).as_slice())
        );
        drop(zoo);
        // The journal must now close the interrupted machine with Aborted.
        let log = PromotionLog::open(&root).unwrap();
        let last = *log.records().unwrap().last().expect("journal non-empty");
        assert_eq!(
            (last.stage, last.variant, last.version),
            (PromotionStage::Aborted, VARIANT, version),
            "{stage:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_after_commit_point_resumes_the_promotion() {
    let root = scratch("crash_postcommit");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    // Live is journaled (the commit point) but the crash lands before
    // Retired: recovery must serve v2 and close the machine.
    let zoo = crash_at(&root, PromotionStage::Live, 2);
    assert_eq!(
        zoo.live_version(VARIANT),
        Some(2),
        "Live was durable, so recovery must finish the promotion"
    );
    assert_eq!(zoo.stats().resumed_retires, 1);
    assert_eq!(zoo.stats().resumed_aborts, 0);
    assert_eq!(verdict_of(&zoo, 5), stub_verdict(7, item(5).as_slice()));
    drop(zoo);
    let log = PromotionLog::open(&root).unwrap();
    let last = *log.records().unwrap().last().expect("journal non-empty");
    // The Retired record names the version that was retired — v1.
    assert_eq!(
        (last.stage, last.variant, last.version),
        (PromotionStage::Retired, VARIANT, 1)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn journaled_crc_mismatch_quarantines_the_blob_on_recovery() {
    let root = scratch("crc_mismatch");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    // Replace the live blob out-of-band with a *valid* envelope holding
    // different bytes: the store's own CRC passes, but the journaled CRC
    // — what actually went through warm-up — does not.
    {
        let zoo = open_zoo(&root);
        drop(zoo);
    }
    let staging = scratch("crc_mismatch_staging");
    {
        let other = open_zoo(&staging);
        other.publish(VARIANT, 1, &payload(MODE_OK, 9)).unwrap();
    }
    std::fs::copy(
        staging.join("blobs/variant_1_v1.blob"),
        root.join("blobs/variant_1_v1.blob"),
    )
    .unwrap();

    let zoo = open_zoo(&root);
    assert_eq!(
        zoo.live_version(VARIANT),
        None,
        "a swapped blob must never be routed"
    );
    assert!(zoo.stats().blob_rejects >= 1);
    assert!(
        root.join("blobs/variant_1_v1.blob.corrupt").exists(),
        "swapped blob must be quarantined"
    );
    assert!(matches!(
        zoo.submit_routed(
            VARIANT,
            item(0),
            RequestTag::default(),
            Duration::from_secs(1)
        ),
        Err(adv_serve::ServeError::VariantUnavailable(VARIANT))
    ));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&staging);
}

#[test]
fn truncated_journal_tail_is_ignored_not_fatal() {
    let root = scratch("torn_tail");
    {
        let zoo = open_zoo(&root);
        zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        zoo.promote(VARIANT, 1).unwrap();
    }
    // Simulate a torn append: write half a record at the tail.
    let path = root.join("promotions.journal");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
    drop(f);

    let zoo = open_zoo(&root);
    assert_eq!(zoo.live_version(VARIANT), Some(1));
    assert_eq!(verdict_of(&zoo, 2), stub_verdict(7, item(2).as_slice()));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn hand_written_journal_replays_to_the_recorded_state() {
    let root = scratch("hand_journal");
    // Publish blobs through a zoo (for envelope + CRC), then write the
    // journal by hand and check replay lands exactly where it says.
    let (crc1, crc2) = {
        let zoo = open_zoo(&root);
        let b1 = zoo.publish(VARIANT, 1, &payload(MODE_OK, 7)).unwrap();
        let b2 = zoo.publish(VARIANT, 2, &payload(MODE_OK, 7)).unwrap();
        (b1.crc(), b2.crc())
    };
    std::fs::remove_file(root.join("promotions.journal")).ok();
    {
        let mut log = PromotionLog::open(&root).unwrap();
        for (stage, version, crc) in [
            (PromotionStage::Staged, 1, crc1),
            (PromotionStage::Warming, 1, crc1),
            (PromotionStage::Live, 1, crc1),
            (PromotionStage::Staged, 2, crc2),
            (PromotionStage::Warming, 2, crc2),
            (PromotionStage::Live, 2, crc2),
            // Retired names the version that left the table.
            (PromotionStage::Retired, 1, 0),
        ] {
            log.append(PromotionRecord {
                stage,
                variant: VARIANT,
                version,
                crc,
            })
            .unwrap();
        }
    }
    let zoo = open_zoo(&root);
    assert_eq!(zoo.live_version(VARIANT), Some(2));
    assert_eq!(verdict_of(&zoo, 1), stub_verdict(7, item(1).as_slice()));
    let _ = std::fs::remove_dir_all(&root);
}
