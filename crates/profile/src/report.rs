//! Profile exports: the per-kernel achieved-rate table, the per-frame
//! self/total/count summary, the collapsed-stack (flamegraph-compatible)
//! dump, and gauges published into an `adv-obs` registry.

use crate::kernel::{self, KernelKind, StackMap};
use adv_obs::sync::lock_unpoisoned;
use adv_obs::Registry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One kernel's accumulated accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelReport {
    /// The kernel.
    pub kind: KernelKind,
    /// Completed invocations.
    pub calls: u64,
    /// Total wall time inside the kernel, children included (ns).
    pub wall_ns: u64,
    /// Wall time minus time inside child scopes (ns).
    pub self_ns: u64,
    /// Output elements produced across all calls.
    pub elems: u64,
    /// Declared floating-point operations across all calls.
    pub flops: u64,
    /// Declared bytes moved across all calls.
    pub bytes: u64,
}

impl KernelReport {
    /// Achieved GFLOP/s over the kernel's wall time (0 when unmeasured).
    pub fn gflops(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.wall_ns as f64
    }

    /// Achieved GB/s of declared traffic over the kernel's wall time.
    pub fn gbytes_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.wall_ns as f64
    }
}

/// Snapshot of every kernel with at least one completed call, sorted by
/// self time descending.
pub fn kernel_reports() -> Vec<KernelReport> {
    let slots = kernel::slots();
    let mut reports: Vec<KernelReport> = KernelKind::ALL
        .iter()
        .filter_map(|&kind| {
            let slot = slots.get(kind as usize)?;
            // Reporting-only reads of independent counters: a snapshot
            // racing a recording thread may tear across fields, which only
            // skews a report momentarily — every load below is Relaxed.
            let calls = slot.calls.load(Ordering::Relaxed); // lint-ok(ordering-justified): reporting-only read, see block comment
            if calls == 0 {
                return None;
            }
            Some(KernelReport {
                kind,
                calls,
                wall_ns: slot.wall_ns.load(Ordering::Relaxed), // lint-ok(ordering-justified): reporting-only read, see block comment
                self_ns: slot.self_ns.load(Ordering::Relaxed), // lint-ok(ordering-justified): reporting-only read, see block comment
                elems: slot.elems.load(Ordering::Relaxed), // lint-ok(ordering-justified): reporting-only read, see block comment
                flops: slot.flops.load(Ordering::Relaxed), // lint-ok(ordering-justified): reporting-only read, see block comment
                bytes: slot.bytes.load(Ordering::Relaxed), // lint-ok(ordering-justified): reporting-only read, see block comment
            })
        })
        .collect();
    reports.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    reports
}

/// Sum of kernel self time across all kinds — the numerator of the
/// "fraction of wall time attributed to named kernels" check. Self time
/// (not wall) so nested kernels never double-count.
pub fn total_kernel_self_ns() -> u64 {
    kernel_reports().iter().map(|r| r.self_ns).sum()
}

/// Renders the per-kernel table the probes print:
///
/// ```text
/// kernel            calls      total       self   GFLOP/s     GB/s
/// matmul             1520    1.203s      1.203s      1.84     2.51
/// ```
pub fn kernel_table() -> String {
    let reports = kernel_reports();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>11} {:>11} {:>9} {:>8}",
        "kernel", "calls", "total", "self", "GFLOP/s", "GB/s"
    );
    for r in &reports {
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>11} {:>11} {:>9.2} {:>8.2}",
            r.kind.name(),
            r.calls,
            format_ns(r.wall_ns),
            format_ns(r.self_ns),
            r.gflops(),
            r.gbytes_per_s(),
        );
    }
    let total = total_kernel_self_ns();
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>11} {:>11}",
        "TOTAL (self)",
        "",
        "",
        format_ns(total)
    );
    let dropped = kernel::dropped_stacks() + crate::trace::dropped_spans();
    if dropped > 0 {
        let _ = writeln!(out, "({dropped} profile entries dropped under contention)");
    }
    out
}

/// Runs `f` over the collapsed-stack sink after flushing the calling
/// thread.
fn with_stacks<R>(f: impl FnOnce(&StackMap) -> R) -> R {
    kernel::flush_current_thread();
    f(&lock_unpoisoned(&kernel::stack_sink().stacks))
}

/// The collapsed-stack dump in the flamegraph "folded" format — one line
/// per distinct call path, `frame;frame;frame self_ns`, sorted for stable
/// output. Feed it straight to `flamegraph.pl` or `inferno`.
pub fn collapsed() -> String {
    let mut lines: Vec<String> = with_stacks(|stacks| {
        stacks
            .iter()
            .map(|(path, stat)| format!("{} {}", path.join(";"), stat.self_ns))
            .collect()
    });
    lines.sort();
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Aggregated timing of one frame name (stage or kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSummary {
    /// Frame name.
    pub name: &'static str,
    /// Completed occurrences.
    pub count: u64,
    /// Wall time inside the frame, children included.
    pub total: Duration,
    /// Wall time inside the frame minus time inside child frames.
    pub self_time: Duration,
}

/// Per-name summary of every frame recorded so far, sorted by self time
/// descending. Derived from the collapsed stacks: a path's total is its
/// own self time plus that of every path below it.
pub fn frame_summaries() -> Vec<FrameSummary> {
    let by_name = with_stacks(|stacks| {
        let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        for (path, stat) in stacks {
            let Some(&name) = path.last() else { continue };
            let total_ns: u64 = stacks
                .iter()
                .filter(|(below, _)| below.starts_with(path))
                .map(|(_, s)| s.self_ns)
                .sum();
            let entry = by_name.entry(name).or_default();
            entry.0 += stat.calls;
            entry.1 += total_ns;
            entry.2 += stat.self_ns;
        }
        by_name
    });
    let mut summaries: Vec<FrameSummary> = by_name
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| FrameSummary {
            name,
            count,
            total: Duration::from_nanos(total_ns),
            self_time: Duration::from_nanos(self_ns),
        })
        .collect();
    summaries.sort_by(|a, b| b.self_time.cmp(&a.self_time).then(a.name.cmp(b.name)));
    summaries
}

/// Renders the self/total/count summary table printed at experiment end.
/// `wall` is the experiment's wall-clock time; each row and the footer
/// report their self time's share of it.
pub fn render_summary(summaries: &[FrameSummary], wall: Duration) -> String {
    let share = |d: Duration| {
        if wall.is_zero() {
            0.0
        } else {
            100.0 * d.as_secs_f64() / wall.as_secs_f64()
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12} {:>8}",
        "frame", "count", "total", "self", "% wall"
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>7.1}%",
            s.name,
            s.count,
            format_ns(s.total.as_nanos() as u64),
            format_ns(s.self_time.as_nanos() as u64),
            share(s.self_time)
        );
    }
    let self_sum: Duration = summaries.iter().map(|s| s.self_time).sum();
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12} {:>7.1}%",
        "TOTAL (self)",
        "",
        "",
        format_ns(self_sum.as_nanos() as u64),
        share(self_sum)
    );
    let dropped = crate::trace::dropped_spans();
    if dropped > 0 {
        let _ = writeln!(out, "({dropped} spans dropped at the sink cap)");
    }
    out
}

/// Publishes the current kernel accounting into `registry` as gauges
/// (`profile.kernel.<name>.{calls,wall_ns,self_ns,gflops}` plus the two
/// below). Gauge semantics make republishing idempotent — probes call this
/// right before exporting the registry snapshot.
///
/// - `profile.self_ns_total`: self time accounted to named kernels, in ns.
/// - `profile.dropped`: spans evicted at the sink cap plus profile entries
///   dropped under contention.
pub fn publish_to(registry: &Registry) {
    for r in kernel_reports() {
        let base = format!("profile.kernel.{}", r.kind.name());
        registry.gauge(&format!("{base}.calls")).set(r.calls as f64);
        registry
            .gauge(&format!("{base}.wall_ns"))
            .set(r.wall_ns as f64);
        registry
            .gauge(&format!("{base}.self_ns"))
            .set(r.self_ns as f64);
        registry.gauge(&format!("{base}.gflops")).set(r.gflops());
    }
    registry
        .gauge("profile.self_ns_total")
        .set(total_kernel_self_ns() as f64);
    registry
        .gauge("profile.dropped")
        .set((kernel::dropped_stacks() + crate::trace::dropped_spans()) as f64);
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_enabled_lock;
    use crate::{KernelScope, StageScope, Work};

    #[test]
    fn reports_table_and_registry_cover_recorded_kernels() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _s = KernelScope::enter(KernelKind::MatMul, || Work::matmul(8, 8, 8));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::set_enabled(false);
        kernel::flush_current_thread();

        let reports = kernel_reports();
        assert_eq!(reports.len(), 1);
        let r = reports.first().unwrap();
        assert_eq!(r.kind, KernelKind::MatMul);
        assert_eq!(r.calls, 1);
        assert_eq!(r.flops, 2 * 8 * 8 * 8);
        assert!(r.gflops() > 0.0);
        assert!(total_kernel_self_ns() >= 1_000_000);

        let table = kernel_table();
        assert!(table.contains("matmul"), "{table}");
        assert!(table.contains("TOTAL (self)"), "{table}");

        let registry = Registry::new();
        publish_to(&registry);
        let snap = registry.snapshot();
        assert!(snap.gauge("profile.kernel.matmul.calls").is_some());
        assert!(snap.gauge("profile.self_ns_total").unwrap() >= 1e6);
    }

    #[test]
    fn collapsed_output_is_folded_format() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = KernelScope::enter(KernelKind::Conv2d, || Work::custom(1, 0, 0));
            let _inner = KernelScope::enter(KernelKind::MatMulABt, || Work::matmul(2, 2, 2));
        }
        crate::set_enabled(false);
        let folded = collapsed();
        let line = folded
            .lines()
            .find(|l| l.starts_with("conv2d;matmul_a_bt"))
            .unwrap_or("");
        assert!(!line.is_empty(), "{folded}");
        let mut parts = line.rsplitn(2, ' ');
        let ns: u64 = parts.next().unwrap_or("x").parse().unwrap_or(u64::MAX);
        assert!(ns < u64::MAX, "numeric self field: {line}");
    }

    #[test]
    fn nested_frames_attribute_self_time_to_parent_minus_children() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = StageScope::enter("test/outer");
            std::thread::sleep(Duration::from_millis(4));
            for _ in 0..2 {
                let _inner = StageScope::enter("test/inner");
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        crate::set_enabled(false);
        let summaries = frame_summaries();
        let find = |name: &str| summaries.iter().find(|s| s.name == name).cloned();
        let (Some(outer), Some(inner)) = (find("test/outer"), find("test/inner")) else {
            panic!("both frames summarised: {summaries:?}");
        };
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(inner.total >= Duration::from_millis(6));
        assert_eq!(inner.self_time, inner.total, "leaf self time is its total");
        // Outer self time excludes the inner frames.
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert!(outer.self_time >= Duration::from_millis(4));

        let spans = crate::take_spans();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let Some(outer_ev) = spans.iter().find(|s| s.name == "test/outer") else {
            panic!("outer span recorded: {spans:?}");
        };
        assert_eq!(outer_ev.depth, 0);
        let inner_evs: Vec<_> = spans.iter().filter(|s| s.name == "test/inner").collect();
        assert_eq!(inner_evs.len(), 2);
        // Children start and end within the parent's interval.
        for e in &inner_evs {
            assert_eq!(e.depth, 1);
            assert!(e.start_ns >= outer_ev.start_ns);
            assert!(e.start_ns + e.dur_ns <= outer_ev.start_ns + outer_ev.dur_ns + 1_000_000);
        }
    }

    #[test]
    fn summary_table_reports_wall_fraction() {
        let summaries = [
            FrameSummary {
                name: "x",
                count: 2,
                total: Duration::from_millis(90),
                self_time: Duration::from_millis(90),
            },
            FrameSummary {
                name: "y",
                count: 1,
                total: Duration::from_millis(5),
                self_time: Duration::from_millis(5),
            },
        ];
        let table = render_summary(&summaries, Duration::from_millis(100));
        assert!(table.contains("x"), "{table}");
        assert!(table.contains("90.0%"), "{table}");
        assert!(table.contains("TOTAL (self)"), "{table}");
        assert!(table.contains("95.0%"), "{table}");
    }
}
