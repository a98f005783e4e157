//! The split pass: `MagnetDefense::classify_staged` runs a batch of
//! `2 × MIN_CHUNK_ROWS` rows or more as row chunks on several threads, and
//! must answer exactly as one row at a time does, with the same hooks and
//! metrics. The core budget, the obs level and the profiler are
//! process-wide, so every test holds `LOCK`. Assertions that need a split
//! are skipped on a one-core host, where no pass splits.

use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::fork::{cores, CoreClaim};
use adv_magnet::{
    Autoencoder, DefenseScheme, Detector, JsdDetector, MagnetDefense, MagnetError,
    ReconstructionDetector, ReconstructionNorm, Verdict, MIN_CHUNK_ROWS, STAGE_CHUNK,
    STAGE_CLASSIFY, STAGE_DETECT, STAGE_REFORM,
};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Rows of the test batch: a split gives `min(cores, 4)` chunks.
const ROWS: usize = 32;

/// Marks the panics [`Spy`] raises on purpose.
const SPY_PANIC: &str = "spy: scored on a helper thread";

/// A reconstruction detector that logs the thread and row count of every
/// scoring call, and panics off the `home` thread when told to.
#[derive(Debug)]
struct Spy {
    inner: ReconstructionDetector,
    calls: Arc<Mutex<Vec<(ThreadId, usize)>>>,
    panic_off: Option<ThreadId>,
}

impl Detector for Spy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn models(&self) -> (Arc<Autoencoder>, Option<Arc<Sequential>>) {
        self.inner.models()
    }

    fn scores_from(
        &self,
        x: &Tensor,
        recon: &Tensor,
        logits: Option<(&Tensor, &Tensor)>,
    ) -> adv_magnet::Result<Vec<f32>> {
        let me = std::thread::current().id();
        self.calls.lock().unwrap().push((me, x.shape().dim(0)));
        if self.panic_off.is_some_and(|home| home != me) {
            panic!("{SPY_PANIC}");
        }
        self.inner.scores_from(x, recon, logits)
    }

    fn threshold(&self) -> Option<f32> {
        self.inner.threshold()
    }

    fn set_threshold(&mut self, threshold: f32) {
        self.inner.set_threshold(threshold);
    }
}

type Calls = Arc<Mutex<Vec<(ThreadId, usize)>>>;

/// The paper's D+JSD pattern over 8×8 inputs: one auto-encoder shared by
/// the (spied) reconstruction detector, two JSD detectors and the
/// reformer. The last detector flags nothing, so the OR must carry the
/// others' flags.
fn defense(panic_off: Option<ThreadId>) -> (MagnetDefense, Calls) {
    let ae = Arc::new(
        Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap(),
    );
    // Seed 4: an untrained classifier whose predictions vary by input.
    let classifier =
        Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap());
    let calls = Calls::default();
    let spy = Spy {
        inner: ReconstructionDetector::new(Arc::clone(&ae), ReconstructionNorm::L2),
        calls: calls.clone(),
        panic_off,
    };
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(spy),
        Box::new(JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), 10.0).unwrap()),
        Box::new(JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), 40.0).unwrap()),
    ];
    for det in &mut detectors {
        det.calibrate(&batch(64, |_| true), 0.05).unwrap();
    }
    detectors.last_mut().unwrap().set_threshold(f32::INFINITY);
    calls.lock().unwrap().clear();
    (
        MagnetDefense::new("split-toy", detectors, ae, classifier),
        calls,
    )
}

/// `n` 8×8 rows: rows where `clean(row)` holds look like the calibration
/// data, the others are saturated stripes far from it.
fn batch(n: usize, clean: impl Fn(usize) -> bool) -> Tensor {
    Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
        if clean(i / 64) {
            ((i * 7) % 11) as f32 / 11.0
        } else {
            ((i / 3) % 2) as f32
        }
    })
}

/// Blocks of four clean rows and four stripes, so every chunk holds both.
fn mixed(n: usize) -> Tensor {
    batch(n, |row| (row / 4) % 2 == 0)
}

fn bits(scores: &[Vec<f32>]) -> Vec<Vec<u32>> {
    scores
        .iter()
        .map(|col| col.iter().map(|s| s.to_bits()).collect())
        .collect()
}

fn no_hook(_: &'static str) -> adv_magnet::Result<()> {
    Ok(())
}

/// Chunks a pass of `rows` rows splits into with the whole budget free.
fn expected_chunks(rows: usize) -> usize {
    cores().min(rows / MIN_CHUNK_ROWS).max(1)
}

#[test]
fn split_pass_equals_per_row_classify_bit_for_bit() {
    let _l = lock();
    let (d, calls) = defense(None);
    let x = mixed(ROWS);
    // The batch must tell the stages apart: some rows detected, some not,
    // and some prediction changed by the reformer.
    let detect_only = d.classify(&x, DefenseScheme::DetectorOnly).unwrap();
    assert!(detect_only.contains(&Verdict::Detected));
    assert!(detect_only.iter().any(|v| *v != Verdict::Detected));
    assert_ne!(
        d.classify(&x, DefenseScheme::None).unwrap(),
        d.classify(&x, DefenseScheme::ReformerOnly).unwrap()
    );
    for scheme in DefenseScheme::ALL {
        calls.lock().unwrap().clear();
        let (got, got_scores, _) = d.classify_staged(&x, scheme, &no_hook).unwrap();
        let scored = !got_scores.is_empty();
        if scored {
            let seen = calls.lock().unwrap().clone();
            let k = expected_chunks(ROWS);
            assert_eq!(seen.len(), k, "{scheme:?}: one scoring call per chunk");
            assert!(seen.iter().all(|(_, rows)| *rows == ROWS / k), "{seen:?}");
        }
        let mut want = Vec::new();
        let mut want_scores = vec![Vec::new(); got_scores.len()];
        for row in 0..ROWS {
            let one = x.slice_axis0(row, row + 1).unwrap();
            let (v, s, _) = d.classify_staged(&one, scheme, &no_hook).unwrap();
            want.extend(v);
            for (all, part) in want_scores.iter_mut().zip(s) {
                all.extend(part);
            }
        }
        assert_eq!(got, want, "{scheme:?}");
        assert_eq!(bits(&got_scores), bits(&want_scores), "{scheme:?}");
        assert_eq!(got_scores.len(), if scored { d.num_detectors() } else { 0 });
    }
}

#[test]
fn small_batches_never_split() {
    let _l = lock();
    let (d, calls) = defense(None);
    let me = std::thread::current().id();
    for rows in [1, 2, 2 * MIN_CHUNK_ROWS - 1] {
        calls.lock().unwrap().clear();
        d.classify(&mixed(rows), DefenseScheme::Full).unwrap();
        assert_eq!(*calls.lock().unwrap(), vec![(me, rows)], "{rows} rows");
    }
}

#[test]
fn an_exhausted_core_budget_runs_the_pass_unsplit() {
    let _l = lock();
    let (d, calls) = defense(None);
    let x = mixed(ROWS);
    let split = d
        .classify_staged(&x, DefenseScheme::Full, &no_hook)
        .unwrap();
    let hold = CoreClaim::take(cores());
    assert_eq!(hold.granted(), cores(), "no pass is running");
    calls.lock().unwrap().clear();
    let unsplit = d
        .classify_staged(&x, DefenseScheme::Full, &no_hook)
        .unwrap();
    assert_eq!(
        *calls.lock().unwrap(),
        vec![(std::thread::current().id(), ROWS)]
    );
    drop(hold);
    assert_eq!(split.0, unsplit.0);
    assert_eq!(bits(&split.1), bits(&unsplit.1));
}

#[test]
fn an_unsplit_pass_keeps_its_core_from_concurrent_splits() {
    let _l = lock();
    // Two workers on a busy host: A splits over every core, so B's pass
    // runs unsplit on its own thread, and that thread still counts.
    let a = CoreClaim::take(cores());
    let b = CoreClaim::take(cores());
    assert_eq!((a.granted(), b.granted()), (cores(), 1));
    // A's pass ends while B's runs: A's next pass splits over only the
    // cores B leaves free, so the two never run more threads than cores.
    drop(a);
    let a = CoreClaim::take(cores());
    assert_eq!(a.granted(), (cores() - 1).max(1));
    if cores() >= 2 {
        assert_eq!(a.granted() + b.granted(), cores());
    }
    drop((a, b));
    // With one pass held, a concurrent 32-row pass splits over the rest.
    let (d, calls) = defense(None);
    for held in 1..=cores() {
        let hold = CoreClaim::take(held);
        assert_eq!(hold.granted(), held);
        calls.lock().unwrap().clear();
        d.classify(&mixed(ROWS), DefenseScheme::Full).unwrap();
        let chunks = (cores() - held).clamp(1, ROWS / MIN_CHUNK_ROWS);
        assert_eq!(calls.lock().unwrap().len(), chunks, "{held} held");
    }
    assert_eq!(CoreClaim::take(cores()).granted(), cores());
}

/// Runs `Full` with a hook that logs each stage and its thread, failing at
/// `fail_at`.
fn hook_log(
    d: &MagnetDefense,
    x: &Tensor,
    fail_at: Option<&'static str>,
) -> (Vec<(&'static str, ThreadId)>, bool) {
    let seen = Mutex::new(Vec::new());
    let result = d.classify_staged(x, DefenseScheme::Full, &|stage| {
        seen.lock()
            .unwrap()
            .push((stage, std::thread::current().id()));
        if Some(stage) == fail_at {
            return Err(MagnetError::Stage {
                stage: stage.to_string(),
                message: "injected".into(),
            });
        }
        Ok(())
    });
    (seen.into_inner().unwrap(), result.is_ok())
}

#[test]
fn hooks_run_once_per_stage_on_the_calling_thread_split_or_not() {
    let _l = lock();
    let (d, _) = defense(None);
    let x = mixed(ROWS);
    let me = std::thread::current().id();
    let want = vec![(STAGE_DETECT, me), (STAGE_REFORM, me), (STAGE_CLASSIFY, me)];
    let (split, ok) = hook_log(&d, &x, None);
    assert!(ok);
    assert_eq!(split, want);
    let hold = CoreClaim::take(cores());
    let (unsplit, ok) = hook_log(&d, &x, None);
    drop(hold);
    assert!(ok);
    assert_eq!(unsplit, want);
}

#[test]
fn a_hook_error_ends_the_pass_and_returns_the_cores() {
    let _l = lock();
    let (d, calls) = defense(None);
    let x = mixed(ROWS);
    let me = std::thread::current().id();
    let (seen, ok) = hook_log(&d, &x, Some(STAGE_REFORM));
    assert!(!ok);
    assert_eq!(seen, vec![(STAGE_DETECT, me), (STAGE_REFORM, me)]);
    assert_eq!(
        calls.lock().unwrap().len(),
        expected_chunks(ROWS),
        "detect ran once"
    );
    let (seen, ok) = hook_log(&d, &x, Some(STAGE_DETECT));
    assert!(!ok);
    assert_eq!(seen, vec![(STAGE_DETECT, me)]);
    assert_eq!(
        calls.lock().unwrap().len(),
        expected_chunks(ROWS),
        "no chunk scored after the failing hook"
    );
    assert_eq!(CoreClaim::take(cores()).granted(), cores());
}

#[test]
fn a_panic_in_a_helper_chunk_unwinds_the_caller_and_returns_the_cores() {
    let _l = lock();
    let me = std::thread::current().id();
    let (d, calls) = defense(Some(me));
    let x = mixed(ROWS);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.classify(&x, DefenseScheme::Full)
    }));
    assert_eq!(CoreClaim::take(cores()).granted(), cores());
    if cores() < 2 {
        assert!(outcome.is_ok(), "one core: nothing runs on a helper");
        return;
    }
    let payload = outcome.expect_err("the helper's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains(SPY_PANIC), "{message}");
    assert!(calls.lock().unwrap().iter().any(|(t, _)| *t != me));
}

#[test]
fn verdict_and_score_metrics_count_each_row_once() {
    let _l = lock();
    let before = adv_profile::level();
    adv_profile::set_level(adv_profile::ObsLevel::Metrics);
    let (d, _) = defense(None);
    let x = mixed(ROWS);
    let r = adv_profile::global();
    let count = |name: &str| {
        r.snapshot()
            .histogram(&format!("magnet.detector_score.{name}"))
            .map_or(0, |h| h.count)
    };
    let names: Vec<String> = d.detectors().iter().map(|det| det.name()).collect();
    let verdicts = r.counter("magnet.verdicts").get();
    let scores: Vec<u64> = names.iter().map(|n| count(n)).collect();
    for _ in 0..3 {
        d.classify(&x, DefenseScheme::Full).unwrap();
    }
    assert_eq!(
        r.counter("magnet.verdicts").get() - verdicts,
        3 * ROWS as u64
    );
    // The two JSD detectors share a name, so theirs grows twice as fast.
    for (name, was) in names.iter().zip(scores) {
        let same = names.iter().filter(|n| *n == name).count() as u64;
        assert_eq!(count(name) - was, 3 * ROWS as u64 * same, "{name}");
    }
    adv_profile::set_level(before);
}

#[test]
fn helper_kernels_join_the_batch_trace() {
    let _l = lock();
    let (d, _) = defense(None);
    let x = mixed(ROWS);
    adv_profile::set_enabled(true);
    let trace = adv_profile::next_trace_id();
    {
        let _rec = adv_profile::record_into(trace);
        d.classify(&x, DefenseScheme::Full).unwrap();
    }
    adv_profile::set_enabled(false);
    let spans = adv_profile::spans_for(trace);
    let mut kernel_threads: Vec<u64> = spans
        .iter()
        .filter(|s| !s.name.starts_with("magnet/"))
        .map(|s| s.thread)
        .collect();
    kernel_threads.sort_unstable();
    kernel_threads.dedup();
    let chunks = spans.iter().filter(|s| s.name == STAGE_CHUNK).count();
    if cores() < 2 {
        assert_eq!((kernel_threads.len(), chunks), (1, 0));
        return;
    }
    assert!(kernel_threads.len() >= 2, "{kernel_threads:?}");
    // One helper chunk per helper per stage.
    assert_eq!(chunks, 3 * (expected_chunks(ROWS) - 1), "{spans:?}");
}
