//! `--obs` session support for the experiment binaries.
//!
//! An [`ObsSession`] turns on full telemetry ([`adv_obs::ObsLevel::Trace`]:
//! metrics, stage spans and kernel accounting) for the process, and at
//! experiment end dumps into the chosen directory:
//!
//! * `metrics.json` — the global registry snapshot as JSON, including the
//!   kernel totals published as gauges;
//! * `metrics.prom` — the same snapshot in Prometheus text format;
//! * `trace.jsonl` — one span per line from `adv-profile`'s span sink;
//! * `profile_kernels.txt` — the per-kernel accounting table
//!   (calls/wall/self/GFLOP/s);
//! * `profile_collapsed.folded` — collapsed stacks in flamegraph folded
//!   format (`frame;frame self_ns`);
//!
//! plus a self-time/total-time/count summary table printed to stderr, with
//! each frame's share of the session's wall-clock.
//!
//! An explicit `ADV_OBS=off|metrics|trace` environment override wins over
//! the flag, so a run can keep `--obs out/` in its command line while
//! telemetry is dialed down externally; below `trace` no spans are
//! recorded and the two profile artifacts are skipped.

use crate::config::CliArgs;
use std::path::PathBuf;
use std::time::Instant;

/// A live observability session: level raised at construction, artifacts
/// written by [`finish`](ObsSession::finish).
#[derive(Debug)]
pub struct ObsSession {
    dir: PathBuf,
    started: Instant,
}

impl ObsSession {
    /// Starts a session when the `--obs <dir>` flag was given.
    pub fn from_args(args: &CliArgs) -> Option<ObsSession> {
        args.obs_dir.as_deref().map(ObsSession::start)
    }

    /// Starts a session dumping into `dir`.
    ///
    /// Raises the process level to [`adv_obs::ObsLevel::Trace`] unless the
    /// `ADV_OBS` environment variable is set, which then takes precedence.
    #[expect(
        clippy::disallowed_methods,
        reason = "the session's wall time is part of the artifacts it writes"
    )]
    pub fn start(dir: impl Into<PathBuf>) -> ObsSession {
        if std::env::var_os("ADV_OBS").is_none() {
            adv_obs::set_level(adv_obs::ObsLevel::Trace);
        }
        ObsSession {
            dir: dir.into(),
            started: Instant::now(),
        }
    }

    /// The artifact directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Writes `metrics.json`, `metrics.prom` and `trace.jsonl` into the
    /// session directory (plus `profile_kernels.txt` and
    /// `profile_collapsed.folded` when [`adv_profile::enabled`]), prints the
    /// frame summary table to stderr, and returns the written paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or writing the
    /// artifacts.
    pub fn finish(self) -> std::io::Result<Vec<PathBuf>> {
        let wall = self.started.elapsed();
        std::fs::create_dir_all(&self.dir)?;
        let profiled = adv_profile::enabled();
        if profiled {
            adv_profile::publish_to(adv_obs::global());
        }
        let snapshot = adv_obs::global().snapshot();
        let spans = adv_profile::take_spans();
        let mut artifacts = vec![
            ("metrics.json", snapshot.to_json()),
            ("metrics.prom", snapshot.to_prometheus()),
            ("trace.jsonl", adv_profile::spans_to_jsonl(&spans)),
        ];
        if profiled {
            artifacts.extend([
                ("profile_kernels.txt", adv_profile::kernel_table()),
                ("profile_collapsed.folded", adv_profile::collapsed()),
            ]);
        }
        let mut written = Vec::with_capacity(artifacts.len());
        for (name, content) in artifacts {
            let path = self.dir.join(name);
            std::fs::write(&path, content)?;
            written.push(path);
        }
        let summaries = adv_profile::frame_summaries();
        if !summaries.is_empty() {
            eprintln!("\n{}", adv_profile::render_summary(&summaries, wall));
        }
        eprintln!(
            "observability artifacts written to {} ({} spans)",
            self.dir.display(),
            spans.len()
        );
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both `finish` tests change the process-wide level, so they
    /// serialize on this lock.
    fn level_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn from_args_requires_the_flag() {
        let args = CliArgs::parse(std::iter::empty()).unwrap();
        assert!(ObsSession::from_args(&args).is_none());
    }

    #[test]
    fn finish_writes_all_artifacts() {
        // Other adv-eval tests don't change the level; this one raises it
        // only for its own duration.
        let _serial = level_lock();
        let before = adv_obs::level();
        let dir = std::env::temp_dir().join(format!("adv_obs_session_{}", std::process::id()));
        let session = ObsSession::start(&dir);
        adv_obs::set_level(adv_obs::ObsLevel::Trace);
        adv_profile::reset();
        {
            let _stage = adv_profile::StageScope::enter("test/obs_session");
            let _k = adv_profile::KernelScope::enter(adv_profile::KernelKind::MatMul, || {
                adv_profile::Work::matmul(4, 4, 4)
            });
            adv_obs::global().counter("test.obs_session").incr();
        }
        let written = session.finish().unwrap();
        adv_obs::set_level(before);
        assert_eq!(written.len(), 5);
        let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(json.contains("test.obs_session"));
        assert!(json.contains("profile.kernel.matmul.calls"), "{json}");
        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(trace.contains("test/obs_session"), "{trace}");
        let table = std::fs::read_to_string(dir.join("profile_kernels.txt")).unwrap();
        assert!(table.contains("matmul"), "{table}");
        let folded = std::fs::read_to_string(dir.join("profile_collapsed.folded")).unwrap();
        assert!(folded.contains("test/obs_session;matmul "), "{folded}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_below_trace_skips_profile_artifacts() {
        let _serial = level_lock();
        let before = adv_obs::level();
        let dir = std::env::temp_dir().join(format!("adv_obs_session_met_{}", std::process::id()));
        let session = ObsSession::start(&dir);
        adv_obs::set_level(adv_obs::ObsLevel::Metrics);
        adv_profile::reset();
        {
            let _stage = adv_profile::StageScope::enter("test/obs_metrics");
            adv_obs::global().counter("test.obs_metrics").incr();
        }
        let written = session.finish().unwrap();
        adv_obs::set_level(before);
        assert_eq!(written.len(), 3);
        let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(json.contains("test.obs_metrics"));
        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(!trace.contains("test/obs_metrics"), "{trace}");
        assert!(!dir.join("profile_kernels.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
