//! Contract tests for `scripts/perf_gate.jq`, the judging step of the CI
//! perf gate: one case per rule, each on run records synthesised the way
//! `scripts/perf_gate` writes them and judged by the committed
//! BENCHMARK.json's bounds.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["craft", "serve_saturate", "wire"];

/// Every end-to-end metric in BENCHMARK.json, with a plausible value.
const METRICS: [(&str, f64); 5] = [
    ("setup_s", 1.5),
    ("peak_rss_mb", 26.0),
    ("throughput_per_s", 2800.0),
    ("p50_ms", 22.0),
    ("tail_ms", 25.0),
];

/// One run as `scripts/perf_gate` records it.
struct Run {
    workload: &'static str,
    change: bool,
    pair: u32,
    exit: i32,
    correct: bool,
    failed: u32,
    values: [f64; 5],
}

impl Run {
    fn scale(&mut self, metric: &str, factor: f64) {
        let i = METRICS.iter().position(|(name, _)| *name == metric);
        self.values[i.expect("a BENCHMARK.json metric")] *= factor;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = METRICS
            .iter()
            .zip(self.values)
            .map(|((name, _), v)| format!(r#""{name}": {{"value": {v}, "unit": "u"}}"#))
            .collect();
        let result = format!(
            r#"{{"correct": {}, "attempted": 600, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.failed,
            metrics.join(", ")
        );
        format!(
            r#"{{"workload": "{}", "side": "{}", "pair": {}, "exit": {}, "result": {}}}"#,
            self.workload,
            if self.change { "change" } else { "parent" },
            self.pair,
            self.exit,
            if self.exit == 0 { &result } else { "null" },
        )
    }
}

/// Judges ten pairs per workload in which neither side is better (the
/// sides take turns reading 1% higher, and the host drifts ±2% from pair
/// to pair) after `edit` has changed each run as a case needs. Returns
/// whether the gate passed, and its table.
fn gate(edit: impl Fn(&mut Run)) -> (bool, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut lines = vec![bench];
    for workload in WORKLOADS {
        for pair in 1..=10u32 {
            for change in [false, true] {
                let drift = 0.98 + 0.01 * f64::from(pair % 5);
                let turn = if change == (pair % 2 == 0) { 1.01 } else { 1.0 };
                let mut run = Run {
                    workload,
                    change,
                    pair,
                    exit: 0,
                    correct: true,
                    failed: 0,
                    values: METRICS.map(|(_, v)| v * drift * turn),
                };
                edit(&mut run);
                lines.push(run.to_json());
            }
        }
    }
    let input = std::env::temp_dir().join(format!(
        "adv_perf_gate_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&input, lines.join("\n")).expect("temp dir must be writable");
    let out = Command::new("jq")
        .args(["-s", "-r", "-f"])
        .arg(root.join("scripts/perf_gate.jq"))
        .arg(&input)
        .output()
        .expect("the perf gate needs jq on PATH");
    std::fs::remove_file(&input).ok();
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "the judge broke: {out:?}"
    );
    let rows = table
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| workload"));
    assert_eq!(rows.count(), 15, "one row per workload × metric\n{table}");
    (out.status.success(), table)
}

/// `edit` applied to the change's runs of one workload only.
fn on_change(workload: &'static str, edit: impl Fn(&mut Run)) -> impl Fn(&mut Run) {
    move |r| {
        if r.change && r.workload == workload {
            edit(r);
        }
    }
}

#[test]
fn a_clean_set_passes() {
    let (passed, table) = gate(|_| {});
    assert!(passed && table.ends_with("perf_gate: pass\n"), "{table}");
}

#[test]
fn a_thirty_percent_throughput_drop_that_wins_no_pair_fails() {
    let (passed, table) = gate(on_change("serve_saturate", |r| {
        r.scale("throughput_per_s", 0.7)
    }));
    let failure = "- serve_saturate throughput_per_s: median worse by 30% (bound 24%), \
                   change wins 0/10 pairs";
    assert!(!passed && table.contains(failure), "{table}");
}

#[test]
fn a_median_past_the_bound_that_wins_three_pairs_passes() {
    // Seven pairs 30% down and three 2% up: the median is past the 24%
    // bound, but three pairs contradict it.
    let (passed, table) = gate(on_change("craft", |r| {
        r.scale("throughput_per_s", if r.pair <= 3 { 1.02 } else { 0.7 })
    }));
    assert!(passed, "{table}");
    let row =
        |l: &str| l.starts_with("| craft | throughput_per_s |") && l.ends_with("| 3/10 | ok |");
    assert!(table.lines().any(row), "{table}");
    // A shift within the bound passes even when it wins no pair.
    let (passed, table) = gate(on_change("craft", |r| r.scale("throughput_per_s", 0.8)));
    assert!(passed, "{table}");
}

#[test]
fn lower_is_better_metrics_are_judged_in_their_direction() {
    for (metric, worse, better) in [("p50_ms", 1.3, 0.7), ("peak_rss_mb", 1.2, 0.8)] {
        for (factor, fails) in [(worse, true), (better, false)] {
            let (passed, table) = gate(on_change("wire", |r| r.scale(metric, factor)));
            assert_eq!(passed, !fails, "{metric} × {factor}\n{table}");
        }
    }
}

#[test]
fn a_wrong_output_or_a_failed_run_fails() {
    let (passed, table) = gate(on_change("craft", |r| r.correct = r.pair != 4));
    let failure = r#"- craft change pair 4: "correct": false"#;
    assert!(!passed && table.contains(failure), "{table}");

    let (passed, table) =
        gate(|r| r.exit = i32::from(!r.change && r.workload == "wire" && r.pair == 9));
    let failure = "- wire parent pair 9: exit 1";
    assert!(!passed && table.contains(failure), "{table}");
}

#[test]
fn a_higher_failed_share_fails() {
    let (passed, table) = gate(on_change("wire", |r| r.failed = u32::from(r.pair == 2) * 3));
    let failure = "- wire: failed share 0.1% is above the parent's 0%";
    assert!(!passed && table.contains(failure), "{table}");
    // The same share on both sides is no regression.
    let (passed, table) = gate(|r| r.failed = u32::from(r.pair == 2) * 3);
    assert!(passed, "{table}");
}

#[test]
fn a_workload_the_parent_rejects_is_reported_and_not_gated() {
    let new_wire = |r: &mut Run| match (r.workload, r.change) {
        ("wire", false) => r.exit = 2,
        ("wire", true) => r.scale("throughput_per_s", 0.5),
        _ => {}
    };
    let (passed, table) = gate(new_wire);
    assert!(passed, "{table}");
    let not_gated = |l: &&str| l.starts_with("| wire |") && l.ends_with("(not gated) |");
    assert_eq!(table.lines().filter(not_gated).count(), 5, "{table}");
    // The new workload's own runs are still checked.
    let (passed, table) = gate(|r| {
        new_wire(r);
        r.correct = !(r.workload == "wire" && r.pair == 1);
    });
    let failure = r#"- wire change pair 1: "correct": false"#;
    assert!(!passed && table.contains(failure), "{table}");
}
