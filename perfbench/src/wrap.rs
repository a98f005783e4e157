//! Timing wrappers handed to the program in place of its own objects: a
//! `Differentiable` around the victim for the attacks, and a
//! `DefensePipeline` around MagNet for the serving engine. They add a span
//! per call while tracing and forward everything unchanged.

use crate::host::Probe;
use crate::trace;
use adv_magnet::{DefensePipeline, DefenseScheme, MagnetDefense, StageTimings, Verdict};
use adv_nn::{Differentiable, Sequential};
use adv_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The victim as the attacks see it.
pub struct TracedModel<'a> {
    pub inner: &'a mut Sequential,
    /// The craft this model is serving, shared by its spans.
    pub request: u64,
}

impl Differentiable for TracedModel<'_> {
    fn forward(&mut self, input: &Tensor) -> adv_nn::Result<Tensor> {
        let _span = trace::span("nn.forward", self.request);
        Differentiable::forward(self.inner, input)
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> adv_nn::Result<Tensor> {
        let _span = trace::span("nn.backward_input", self.request);
        self.inner.backward_input(grad_output)
    }
}

/// Per-stage totals the pipeline reported while tracing.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineTotals {
    pub batches: u64,
    pub items: u64,
    pub stages: StageTimings,
}

/// Items the engine worker serves between two in-run readings.
const ITEMS_PER_READING: u64 = 64;

/// MagNet as the serving engine sees it.
#[derive(Debug)]
pub struct TracedPipeline {
    inner: Arc<MagnetDefense>,
    totals: Mutex<PipelineTotals>,
    /// Readings taken on the engine worker, the thread that does the
    /// serving workloads' compute.
    pub probe: Probe,
    items: AtomicU64,
}

impl TracedPipeline {
    pub fn new(inner: Arc<MagnetDefense>) -> TracedPipeline {
        TracedPipeline {
            inner,
            totals: Mutex::new(PipelineTotals::default()),
            probe: Probe::default(),
            items: AtomicU64::new(0),
        }
    }

    /// Takes the totals accumulated since the last call.
    pub fn take_totals(&self) -> PipelineTotals {
        std::mem::take(&mut *self.totals.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl DefensePipeline for TracedPipeline {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, StageTimings)> {
        let span = trace::span("magnet.batch", trace::next_id());
        let out = self.inner.classify_batch(x, scheme)?;
        if span.is_some() {
            let mut t = self.totals.lock().unwrap_or_else(|e| e.into_inner());
            t.batches += 1;
            t.items += out.0.len() as u64;
            t.stages.detect += out.1.detect;
            t.stages.reform += out.1.reform;
            t.stages.classify += out.1.classify;
        }
        drop(span);
        // A reading every ITEMS_PER_READING items, on this worker thread
        // and outside the batch's span.
        let n = out.0.len() as u64;
        let before = self.items.fetch_add(n, Ordering::Relaxed);
        if before / ITEMS_PER_READING != (before + n) / ITEMS_PER_READING {
            self.probe.read();
        }
        Ok(out)
    }
}
