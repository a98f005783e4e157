//! Traffic replay: feed a recorded time range back through a defense
//! pipeline and A/B-compare schemes.
//!
//! Rows store sample *ids*, not tensors — a [`SampleProvider`] resolves
//! ids back to inputs (and optional ground-truth labels) at replay time.
//! [`replay_range`] then runs every resolved input through the pipeline
//! under two schemes and reports verdict flips, detection rates, and
//! attack success rates — the gate to run before promoting a defense
//! config: "would the candidate have flipped yesterday's verdicts?"

use crate::query::{query, RowFilter};
use crate::store::ChunkReader;
use crate::{Result, TelemetryError};
use adv_magnet::{DefensePipeline, DefenseScheme, Verdict};
use adv_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;

/// Resolves recorded sample ids back to inputs for replay.
pub trait SampleProvider {
    /// The input tensor (per-item shape, e.g. `[C, H, W]`) and optional
    /// ground-truth label behind `id`; `None` when the sample is no longer
    /// available (counted, not fatal).
    fn sample(&self, id: u32) -> Option<(Tensor, Option<usize>)>;
}

/// An in-memory [`SampleProvider`]: sample id = index into a list.
#[derive(Debug, Default)]
pub struct VecSamples {
    samples: Vec<(Tensor, Option<usize>)>,
}

impl VecSamples {
    /// Wraps a list of (input, optional truth label) pairs.
    pub fn new(samples: Vec<(Tensor, Option<usize>)>) -> VecSamples {
        VecSamples { samples }
    }

    /// Number of held samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl SampleProvider for VecSamples {
    fn sample(&self, id: u32) -> Option<(Tensor, Option<usize>)> {
        self.samples.get(id as usize).cloned()
    }
}

/// One scheme's aggregate outcome over the replayed rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeOutcome {
    /// The scheme replayed.
    pub scheme: DefenseScheme,
    /// Inputs flagged Detected.
    pub detected: u64,
    /// Inputs defended (detected or correctly classified) among those with
    /// a ground-truth label.
    pub defended: u64,
    /// Fraction of replayed inputs flagged Detected.
    pub detected_rate: f64,
    /// Attack success rate: fraction of labelled inputs neither detected
    /// nor correctly classified (`NaN`-free: 0 when nothing is labelled).
    pub attack_success_rate: f64,
}

/// The A/B result of [`replay_range`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Rows the range query matched.
    pub rows: u64,
    /// Rows whose sample id the provider could not resolve (skipped).
    pub unresolved: u64,
    /// Replayed inputs carrying a ground-truth label (the ASR denominator).
    pub with_truth: u64,
    /// Outcome under the first scheme.
    pub a: SchemeOutcome,
    /// Outcome under the second scheme.
    pub b: SchemeOutcome,
    /// Inputs whose verdict differs between the two schemes.
    pub verdict_flips: u64,
    /// Sample ids of the first flipped inputs (capped at 64 for reporting).
    pub flipped_samples: Vec<u32>,
}

/// How many flipped sample ids a report retains.
const FLIP_EXAMPLES: usize = 64;

/// Replays the recorded rows in `range` (post-`filter`) through `pipeline`
/// under `scheme_a` and `scheme_b`, batching resolved inputs `batch_size`
/// at a time (grouped by shape).
///
/// # Errors
///
/// [`TelemetryError::InvalidConfig`] for a zero batch size;
/// [`TelemetryError::Pipeline`] when a replayed batch fails; query errors
/// as in [`query`].
#[expect(
    clippy::too_many_arguments,
    reason = "the source, window, filter, both schemes and batch size are independent inputs"
)]
pub fn replay_range(
    reader: &ChunkReader,
    provider: &dyn SampleProvider,
    pipeline: &dyn DefensePipeline,
    range: Range<u64>,
    filter: &RowFilter,
    scheme_a: DefenseScheme,
    scheme_b: DefenseScheme,
    batch_size: usize,
) -> Result<ReplayReport> {
    if batch_size == 0 {
        return Err(TelemetryError::InvalidConfig(
            "batch_size must be at least 1".into(),
        ));
    }
    let result = query(reader, range, filter)?;
    let mut unresolved = 0u64;
    // Resolve ids, then group same-shaped inputs so batches stack cleanly.
    let mut resolved: Vec<(u32, Tensor, Option<usize>)> = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        match provider.sample(row.sample) {
            Some((tensor, truth)) => resolved.push((row.sample, tensor, truth)),
            None => unresolved += 1,
        }
    }
    let mut by_shape: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
    for (i, (_, tensor, _)) in resolved.iter().enumerate() {
        by_shape
            .entry(tensor.shape().dims().to_vec())
            .or_default()
            .push(i);
    }

    let mut verdicts_a: Vec<Option<Verdict>> = vec![None; resolved.len()];
    let mut verdicts_b: Vec<Option<Verdict>> = vec![None; resolved.len()];
    // Deterministic batch order regardless of hash iteration.
    let mut shapes: Vec<Vec<usize>> = by_shape.keys().cloned().collect();
    shapes.sort();
    for shape in shapes {
        let indices = by_shape.get(&shape).map(Vec::as_slice).unwrap_or(&[]);
        for batch in indices.chunks(batch_size) {
            let inputs: Vec<Tensor> = batch
                .iter()
                .filter_map(|&i| resolved.get(i).map(|(_, t, _)| t.clone()))
                .collect();
            let stacked = Tensor::stack(&inputs)
                .map_err(|e| TelemetryError::Pipeline(format!("stack: {e}")))?;
            for (scheme, out) in [(scheme_a, &mut verdicts_a), (scheme_b, &mut verdicts_b)] {
                let (verdicts, _) = pipeline
                    .classify_batch(&stacked, scheme)
                    .map_err(|e| TelemetryError::Pipeline(e.to_string()))?;
                for (&i, verdict) in batch.iter().zip(verdicts) {
                    if let Some(slot) = out.get_mut(i) {
                        *slot = Some(verdict);
                    }
                }
            }
        }
    }

    let mut with_truth = 0u64;
    let mut verdict_flips = 0u64;
    let mut flipped_samples = Vec::new();
    let tally = |verdicts: &[Option<Verdict>], scheme: DefenseScheme| {
        let mut detected = 0u64;
        let mut defended = 0u64;
        for ((_, _, truth), verdict) in resolved.iter().zip(verdicts) {
            let Some(verdict) = verdict else { continue };
            if *verdict == Verdict::Detected {
                detected += 1;
            }
            if let Some(truth) = truth {
                if verdict.defends(*truth) {
                    defended += 1;
                }
            }
        }
        (scheme, detected, defended)
    };
    let (_, detected_a, defended_a) = tally(&verdicts_a, scheme_a);
    let (_, detected_b, defended_b) = tally(&verdicts_b, scheme_b);
    for ((sample, _, truth), (va, vb)) in resolved
        .iter()
        .zip(verdicts_a.iter().zip(verdicts_b.iter()))
    {
        if truth.is_some() {
            with_truth += 1;
        }
        if let (Some(va), Some(vb)) = (va, vb) {
            if va != vb {
                verdict_flips += 1;
                if flipped_samples.len() < FLIP_EXAMPLES {
                    flipped_samples.push(*sample);
                }
            }
        }
    }
    let replayed = resolved.len() as u64;
    let outcome = |scheme, detected: u64, defended: u64| SchemeOutcome {
        scheme,
        detected,
        defended,
        detected_rate: if replayed == 0 {
            0.0
        } else {
            detected as f64 / replayed as f64
        },
        attack_success_rate: if with_truth == 0 {
            0.0
        } else {
            1.0 - defended as f64 / with_truth as f64
        },
    };
    Ok(ReplayReport {
        rows: result.rows.len() as u64,
        unresolved,
        with_truth,
        a: outcome(scheme_a, detected_a, defended_a),
        b: outcome(scheme_b, detected_b, defended_b),
        verdict_flips,
        flipped_samples,
    })
}
