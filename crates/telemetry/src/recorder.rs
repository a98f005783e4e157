//! The recording front door: a bounded, non-blocking channel between the
//! serving workers and the chunk-store writer thread.
//!
//! The contract is **drop, never block**: [`TelemetrySink::record`] is a
//! `try_send` — when the buffer is full (or the writer is gone) the row is
//! dropped and counted (`telemetry.rows_dropped`), and the serving worker
//! proceeds untouched. Per response, the enabled path costs one
//! [`TelemetryRow`] build plus that `try_send`.
//!
//! The writer thread owns the [`ChunkStore`]. Seal failures (disk full,
//! injected faults) are logged and retried on later appends; if the open
//! chunk grows past twice its seal capacity the excess rows are discarded
//! and counted rather than letting memory grow without bound.

use crate::store::ChunkStore;
use crate::{metric_names, obs, Result, TelemetryError, TelemetryRow};
use adv_serve::{ResponseObserver, ServedRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Recorder tuning knobs.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Directory the chunk store writes under.
    pub dir: PathBuf,
    /// Rows per sealed chunk.
    pub chunk_rows: usize,
    /// Capacity of the bounded channel between sinks and the writer; rows
    /// submitted beyond it are dropped (and counted), never queued
    /// unboundedly.
    pub buffer: usize,
}

impl RecorderConfig {
    /// Defaults (1024-row chunks, 4096-row buffer) under `dir`.
    pub fn new(dir: impl AsRef<Path>) -> RecorderConfig {
        RecorderConfig {
            dir: dir.as_ref().to_path_buf(),
            chunk_rows: 1024,
            buffer: 4096,
        }
    }
}

enum Msg {
    Row(TelemetryRow),
    Flush(mpsc::Sender<std::result::Result<(), String>>),
    Stop(mpsc::Sender<std::result::Result<(), String>>),
}

/// The cloneable, non-blocking recording handle. Implements
/// `adv_serve::ResponseObserver`, so an `Arc<TelemetrySink>` drops straight
/// into [`adv_serve::ServeConfig`]'s `observer` field.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    tx: mpsc::SyncSender<Msg>,
    dropped: Arc<AtomicU64>,
}

impl TelemetrySink {
    /// Hands one row to the writer. Never blocks: a full buffer or a dead
    /// writer drops the row, bumps `telemetry.rows_dropped`, and returns.
    pub fn record(&self, row: TelemetryRow) {
        if self.tx.try_send(Msg::Row(row)).is_err() {
            // lint-ok(ordering-justified): a monotonically increasing drop
            // counter with no other state depending on its value; Relaxed
            // suffices.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            obs::bump(metric_names::ROWS_DROPPED);
        }
    }

    /// Rows this recorder's sinks have dropped (shared across clones).
    pub fn dropped(&self) -> u64 {
        // lint-ok(ordering-justified): see `record` — an independent
        // counter read, no ordering relationship to enforce.
        self.dropped.load(Ordering::Relaxed)
    }
}

impl ResponseObserver for TelemetrySink {
    fn on_response(&self, record: &ServedRecord<'_>) {
        self.record(
            TelemetryRow::new(
                record.tick_ns,
                record.tag.tenant,
                record.tag.route,
                record.tag.sample,
                record.scheme,
                record.degraded,
                record.verdict,
                record.queue_ns,
                record.infer_ns,
                record.trace_id,
                record.scores,
            )
            .with_variant(record.tag.variant),
        );
    }
}

/// Owns the writer thread. Sinks ([`sink`](Self::sink)) stay valid for the
/// recorder's lifetime; [`shutdown`](Self::shutdown) seals the open chunk
/// and joins the writer even while sink clones are still held elsewhere.
#[derive(Debug)]
pub struct TelemetryRecorder {
    sink: TelemetrySink,
    dir: PathBuf,
    writer: Option<JoinHandle<()>>,
}

impl TelemetryRecorder {
    /// Opens the chunk store under `cfg.dir` (resuming an existing one) and
    /// starts the writer thread.
    ///
    /// # Errors
    ///
    /// Store/config errors opening the chunk store; a failed thread spawn.
    pub fn start(cfg: RecorderConfig) -> Result<TelemetryRecorder> {
        if cfg.buffer == 0 {
            return Err(TelemetryError::InvalidConfig(
                "buffer must be at least 1".into(),
            ));
        }
        // Open in the caller's thread so configuration and I/O errors
        // surface synchronously instead of as dropped rows.
        let store = ChunkStore::open(&cfg.dir, cfg.chunk_rows)?;
        let dir = cfg.dir.clone();
        let (tx, rx) = mpsc::sync_channel(cfg.buffer);
        let writer = std::thread::Builder::new()
            .name("adv-telemetry-writer".into())
            .spawn(move || writer_loop(store, &rx, cfg.chunk_rows))
            .map_err(|e| TelemetryError::Recorder(format!("cannot spawn writer: {e}")))?;
        Ok(TelemetryRecorder {
            sink: TelemetrySink {
                tx,
                dropped: Arc::new(AtomicU64::new(0)),
            },
            dir,
            writer: Some(writer),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A recording handle to hand out (e.g. as the engine's observer).
    pub fn sink(&self) -> TelemetrySink {
        self.sink.clone()
    }

    /// Drains the buffer and seals any partial open chunk, making every row
    /// recorded so far visible to readers. Blocks until the writer acks.
    ///
    /// # Errors
    ///
    /// The writer's seal error, or [`TelemetryError::Recorder`] if the
    /// writer is gone.
    pub fn flush(&self) -> Result<()> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.sink
            .tx
            .send(Msg::Flush(ack_tx))
            .map_err(|_| TelemetryError::Recorder("writer thread is gone".into()))?;
        match ack_rx.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(msg)) => Err(TelemetryError::Recorder(msg)),
            Err(_) => Err(TelemetryError::Recorder("writer died during flush".into())),
        }
    }

    /// Seals the open chunk and joins the writer. Sink clones held
    /// elsewhere keep dropping rows harmlessly afterwards.
    ///
    /// # Errors
    ///
    /// The final seal's error; the writer is joined either way.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        let (ack_tx, ack_rx) = mpsc::channel();
        let result = match self.sink.tx.send(Msg::Stop(ack_tx)) {
            Ok(()) => match ack_rx.recv() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(msg)) => Err(TelemetryError::Recorder(msg)),
                Err(_) => Err(TelemetryError::Recorder(
                    "writer died during shutdown".into(),
                )),
            },
            Err(_) => Err(TelemetryError::Recorder("writer thread is gone".into())),
        };
        let _ = writer.join();
        result
    }
}

impl Drop for TelemetryRecorder {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Writer body: append rows, seal on capacity, cap open-chunk growth when
/// sealing keeps failing, ack flush/stop requests.
fn writer_loop(mut store: ChunkStore, rx: &mpsc::Receiver<Msg>, chunk_rows: usize) {
    let cap = chunk_rows.saturating_mul(2).max(2);
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Row(row) => {
                if let Err(e) = store.append(&row) {
                    // The row is retained in the open chunk; the seal will
                    // be retried by subsequent appends or an explicit
                    // flush. Bound memory meanwhile.
                    eprintln!("[adv-telemetry] seal failed (will retry): {e}");
                    if store.open_rows() >= cap {
                        let lost = store.discard_open();
                        obs::add(metric_names::ROWS_DROPPED, lost as u64);
                        eprintln!(
                            "[adv-telemetry] open chunk exceeded {cap} rows under seal failures; dropped {lost} buffered rows"
                        );
                    }
                }
            }
            Msg::Flush(ack) => {
                let _ = ack.send(store.flush().map_err(|e| e.to_string()));
            }
            Msg::Stop(ack) => {
                let _ = ack.send(store.flush().map_err(|e| e.to_string()));
                return;
            }
        }
    }
    // All senders dropped without a Stop: best-effort final seal.
    if let Err(e) = store.flush() {
        eprintln!("[adv-telemetry] final seal failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ChunkReader;
    use adv_magnet::{DefenseScheme, Verdict};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_telemetry_rec_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn row(i: u64) -> TelemetryRow {
        TelemetryRow::new(
            i,
            1,
            2,
            i as u32,
            DefenseScheme::Full,
            false,
            Verdict::Classified(0),
            5,
            7,
            i + 100,
            &[0.1, 0.2],
        )
    }

    #[test]
    fn record_flush_read_roundtrip() {
        let dir = tmp("roundtrip");
        let rec = TelemetryRecorder::start(RecorderConfig {
            dir: dir.clone(),
            chunk_rows: 8,
            buffer: 64,
        })
        .unwrap();
        let sink = rec.sink();
        for i in 0..20 {
            sink.record(row(i));
        }
        rec.flush().unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        let total: u32 = reader.entries().iter().map(|e| e.stats.rows).sum();
        assert_eq!(total, 20);
        assert_eq!(sink.dropped(), 0);
        rec.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_seals_partial_chunk() {
        let dir = tmp("shutdown");
        let rec = TelemetryRecorder::start(RecorderConfig {
            dir: dir.clone(),
            chunk_rows: 100,
            buffer: 16,
        })
        .unwrap();
        let sink = rec.sink();
        for i in 0..5 {
            sink.record(row(i));
        }
        rec.shutdown().unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        assert_eq!(reader.entries().len(), 1);
        assert_eq!(reader.entries()[0].stats.rows, 5);
        // The sink outlives the recorder; further records drop, not hang.
        sink.record(row(99));
        assert_eq!(sink.dropped(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_buffer_drops_rows_without_blocking() {
        let dir = tmp("drops");
        let rec = TelemetryRecorder::start(RecorderConfig {
            dir: dir.clone(),
            chunk_rows: 4,
            buffer: 1,
        })
        .unwrap();
        // Stall the writer by flooding faster than it can seal; with a
        // buffer of 1 at least some of a rapid burst must drop, and the
        // burst itself must not block.
        let sink = rec.sink();
        for i in 0..10_000 {
            sink.record(row(i));
        }
        rec.flush().unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        let total: u64 = reader
            .entries()
            .iter()
            .map(|e| u64::from(e.stats.rows))
            .sum();
        assert_eq!(total + sink.dropped(), 10_000, "dropped + stored = sent");
        rec.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_buffer_is_rejected() {
        let err = TelemetryRecorder::start(RecorderConfig {
            dir: tmp("zero"),
            chunk_rows: 8,
            buffer: 0,
        })
        .unwrap_err();
        assert!(matches!(err, TelemetryError::InvalidConfig(_)));
    }
}
