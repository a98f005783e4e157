//! Run manifests: stage-completion journals for multi-stage pipelines.
//!
//! `reproduce_all` executes a dozen independent stages (tables, figures),
//! each minutes long. A [`RunManifest`] records every completed stage in an
//! append-only [`Journal`] keyed by a context fingerprint of
//! the run configuration; a rerun after a kill skips the stages already
//! recorded and resumes at the first unfinished one. Changing the
//! configuration changes the context, which resets the manifest — stale
//! completions never leak across configurations.

use crate::journal::Journal;
use crate::{metric_names, Result};
use std::collections::HashSet;
use std::path::Path;

/// A durable set of completed stage names. See the module docs.
#[derive(Debug)]
pub struct RunManifest {
    journal: Journal,
    done: HashSet<String>,
}

impl RunManifest {
    /// Opens (or creates) the manifest at `path` for a run configuration
    /// fingerprinted by `context`. A context mismatch resets the manifest.
    ///
    /// # Errors
    ///
    /// Filesystem errors only.
    pub fn open(path: impl AsRef<Path>, context: u64) -> Result<RunManifest> {
        let journal = Journal::open(path, context)?;
        let done = journal
            .records()
            .iter()
            .filter_map(|r| std::str::from_utf8(r).ok())
            .map(str::to_string)
            .collect();
        Ok(RunManifest { journal, done })
    }

    /// `true` when `stage` was recorded complete (this run or a previous
    /// interrupted one).
    pub fn is_done(&self, stage: &str) -> bool {
        self.done.contains(stage)
    }

    /// Number of stages recorded complete.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Durably records `stage` as complete. Recording a stage twice is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected transient write faults.
    pub fn record(&mut self, stage: &str) -> Result<()> {
        if self.done.contains(stage) {
            return Ok(());
        }
        self.journal.append(stage.as_bytes())?;
        self.done.insert(stage.to_string());
        Ok(())
    }

    /// Runs `stage` through `f` unless the manifest already recorded it,
    /// then records it. Returns `true` when the stage was skipped. Skips
    /// bump the `store.stages_skipped` counter.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns, or the manifest write after it succeeds.
    pub fn run_stage<E>(
        &mut self,
        stage: &str,
        f: impl FnOnce() -> std::result::Result<(), E>,
    ) -> std::result::Result<bool, E>
    where
        E: From<crate::StoreError>,
    {
        if self.is_done(stage) {
            adv_profile::count(metric_names::STAGES_SKIPPED, 1);
            return Ok(true);
        }
        f()?;
        self.record(stage)?;
        Ok(false)
    }

    /// Deletes the manifest file — call when the whole run has completed
    /// and its completion marks are no longer needed.
    ///
    /// # Errors
    ///
    /// Filesystem errors (a missing file is fine).
    pub fn remove(self) -> Result<()> {
        self.journal.remove()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_store_manifest_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("run.manifest")
    }

    #[test]
    fn records_survive_reopen() {
        let path = tmp("reopen");
        let mut m = RunManifest::open(&path, 11).unwrap();
        assert!(!m.is_done("table1"));
        m.record("table1").unwrap();
        m.record("table3").unwrap();
        drop(m);
        let m = RunManifest::open(&path, 11).unwrap();
        assert!(m.is_done("table1"));
        assert!(m.is_done("table3"));
        assert!(!m.is_done("table4"));
        assert_eq!(m.completed(), 2);
    }

    #[test]
    fn context_change_resets() {
        let path = tmp("ctx");
        let mut m = RunManifest::open(&path, 1).unwrap();
        m.record("table1").unwrap();
        drop(m);
        let m = RunManifest::open(&path, 2).unwrap();
        assert!(!m.is_done("table1"), "new context must not inherit stages");
    }

    #[test]
    fn run_stage_skips_completed_work() {
        let path = tmp("skip");
        let mut m = RunManifest::open(&path, 5).unwrap();
        let mut runs = 0;
        let skipped = m
            .run_stage("fig2", || -> Result<()> {
                runs += 1;
                Ok(())
            })
            .unwrap();
        assert!(!skipped);
        let skipped = m
            .run_stage("fig2", || -> Result<()> {
                runs += 1;
                Ok(())
            })
            .unwrap();
        assert!(skipped, "second run of the same stage must be skipped");
        assert_eq!(runs, 1);
    }

    #[test]
    fn failed_stage_is_not_recorded() {
        let path = tmp("fail");
        let mut m = RunManifest::open(&path, 9).unwrap();
        let err = m.run_stage("fig3", || {
            Err::<(), crate::StoreError>(crate::StoreError::Corrupt {
                path: PathBuf::from("x"),
                reason: "synthetic".to_string(),
            })
        });
        assert!(err.is_err());
        assert!(!m.is_done("fig3"));
        // A later successful attempt records it.
        m.run_stage("fig3", || Ok::<(), crate::StoreError>(()))
            .unwrap();
        assert!(m.is_done("fig3"));
    }

    #[test]
    fn double_record_is_idempotent() {
        let path = tmp("dup");
        let mut m = RunManifest::open(&path, 3).unwrap();
        m.record("t").unwrap();
        m.record("t").unwrap();
        drop(m);
        let m = RunManifest::open(&path, 3).unwrap();
        assert_eq!(m.completed(), 1);
    }
}
