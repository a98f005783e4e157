//! Spans recorded by the benchmark's own wrappers around each layer's
//! public calls. Off unless the traced run switches them on; kept in memory
//! and written out as JSONL when the run ends.
//!
//! A span's parent is the span open on the same thread when it began, so
//! self time is the span's duration minus its children's. Spans that serve
//! one request carry that request's id; batch spans carry their batch id.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 at the top.
    pub parent: u64,
    /// The request (or batch) this span served; spans of one request share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Switches recording on or off for the whole process. Statistic-only
/// flag: no data is published through it, so every access is `Relaxed`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh id for a request or batch (unique within the process).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span measures the scope that holds it"]
pub struct Guard {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` for `request`, or returns `None` while
/// recording is off (one relaxed load on the untraced path).
pub fn span(name: &'static str, request: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = next_id();
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        request,
        name,
        start_ns: epoch().elapsed().as_nanos() as u64,
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = epoch().elapsed().as_nanos() as u64;
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned sink only means another recorder panicked mid-push;
        // the Vec is still valid, so keep recording.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Takes every span recorded so far, in recording order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration per call in milliseconds (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "attack", 0, 100),
            span(2, 1, "forward", 10, 30),
            span(3, 1, "backward", 40, 70),
            span(4, 3, "inner", 45, 50),
            span(5, 0, "attack", 200, 250),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["attack"],
            LayerTime {
                calls: 2,
                total_ns: 150,
                self_ns: 100
            }
        );
        assert_eq!(t["backward"].self_ns, 25);
        assert_eq!(t["forward"].self_ns, 20);
        assert_eq!(t["inner"].self_ns, 5);
        assert_eq!(t["attack"].mean_ms(), 75e-6);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        // Tests share the global sink, so look only at this test's names.
        set_enabled(true);
        {
            let _outer = super::span("test.outer", 1);
            let _inner = super::span("test.inner", 1);
        }
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let outer = spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer");
        let inner = spans
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
