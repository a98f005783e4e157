//! Shared fixtures for the adv-zoo integration tests: a deterministic
//! blob-driven pipeline (verdicts are a pure function of the blob's seed
//! byte and the input bytes) so the tests exercise the *promotion* path,
//! not inference cost.

use adv_magnet::{DefensePipeline, DefenseScheme, MagnetError, StageTimings, Verdict};
use adv_tensor::{Shape, Tensor};
use adv_zoo::{PipelineLoader, WeightBlob};
use std::path::PathBuf;
use std::sync::Arc;

/// Blob layout byte 0: pipeline behavior mode.
pub const MODE_OK: u8 = 0;
/// Every batch fails with a transient stage error.
pub const MODE_ERROR: u8 = 1;
/// Every batch panics (exercises the worker supervisor during warm-up).
pub const MODE_PANIC: u8 = 2;
/// The loader refuses to build the pipeline.
pub const MODE_UNLOADABLE: u8 = 3;

/// Builds a blob payload: `[mode, seed]`.
pub fn payload(mode: u8, seed: u8) -> Vec<u8> {
    vec![mode, seed]
}

/// The verdict the stub pipeline produces for one item under `seed` —
/// shared with the tests so routed verdicts can be checked against the
/// in-process truth.
pub fn stub_verdict(seed: u8, item: &[f32]) -> Verdict {
    let sum: f32 = item.iter().sum();
    let q = (sum.abs() * 16.0) as usize + seed as usize;
    if q.is_multiple_of(7) {
        Verdict::Detected
    } else {
        Verdict::Classified(q % 10)
    }
}

/// A deterministic, dependency-free pipeline parameterized by blob bytes.
#[derive(Debug)]
pub struct BlobPipeline {
    mode: u8,
    seed: u8,
}

impl DefensePipeline for BlobPipeline {
    fn name(&self) -> &str {
        "zoo-stub"
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        _scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, StageTimings)> {
        match self.mode {
            MODE_ERROR => {
                return Err(MagnetError::Stage {
                    stage: "zoo-stub".into(),
                    message: "injected stage failure".into(),
                })
            }
            MODE_PANIC => panic!("zoo-stub: injected panic"),
            _ => {}
        }
        let n = x.shape().dims().first().copied().unwrap_or(0);
        let data = x.as_slice();
        let item_len = data.len() / n.max(1);
        let verdicts = (0..n)
            .map(|i| stub_verdict(self.seed, &data[i * item_len..(i + 1) * item_len]))
            .collect();
        Ok((verdicts, StageTimings::default()))
    }
}

/// Loader that interprets the two-byte blob layout above.
#[derive(Debug, Default)]
pub struct StubLoader;

impl PipelineLoader for StubLoader {
    fn build(&self, blob: &WeightBlob) -> Result<Arc<dyn DefensePipeline>, String> {
        let bytes = blob.bytes();
        let mode = bytes.first().copied().unwrap_or(MODE_OK);
        let seed = bytes.get(1).copied().unwrap_or(0);
        if mode == MODE_UNLOADABLE {
            return Err("blob declared unloadable".into());
        }
        Ok(Arc::new(BlobPipeline { mode, seed }))
    }
}

/// A deterministic `[1, 8, 8]` input, distinct per `offset`.
pub fn item(offset: usize) -> Tensor {
    Tensor::from_fn(Shape::new(vec![1, 8, 8]), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
}

/// A fresh per-test scratch directory.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adv_zoo_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Silences the panic hook for the stub's injected panics so MODE_PANIC
/// soaks don't spam the test output.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("zoo-stub:"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("zoo-stub:"));
            if !injected {
                previous(info);
            }
        }));
    });
}
