//! The telemetry row: one served request, as the store records it.

use adv_magnet::{DefenseScheme, Verdict};

/// Detector-score columns a chunk carries. The paper's largest assembly
/// (D+256+JSD) deploys four detectors; rows from smaller assemblies leave
/// the surplus columns at zero with `nscores` marking the live prefix.
pub const MAX_DETECTORS: usize = 4;

/// One served request. Plain `Copy` data — the store's unit of recording,
/// filtering, and replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRow {
    /// Monotonic timestamp tick in nanoseconds (the serving engine's
    /// `now_ns` time base); the time index queries range over this.
    pub tick: u64,
    /// Tenant key of the submitting client (0 when untagged).
    pub tenant: u32,
    /// Route key (e.g. which corpus or endpoint produced the input).
    pub route: u32,
    /// Sample id — resolves back to the input through a
    /// [`crate::SampleProvider`] at replay time.
    pub sample: u32,
    /// Model-zoo variant that served the request (0 = the default
    /// variant / a bare engine). The A/B axis of replay comparisons.
    pub variant: u32,
    /// Defense scheme the batch actually ran under.
    pub scheme: DefenseScheme,
    /// `true` when the breaker had degraded the configured scheme.
    pub degraded: bool,
    /// The pipeline's decision for this input.
    pub verdict: Verdict,
    /// Time the request waited in the queue, nanoseconds.
    pub queue_ns: u64,
    /// Pipeline execution time of the request's batch, nanoseconds.
    pub infer_ns: u64,
    /// Causal trace id of the request (`adv_profile::TraceId` raw value; 0
    /// when profiling was off). Joins this row with recorded span trees.
    pub trace: u64,
    /// Number of live entries in [`scores`](Self::scores).
    pub nscores: u8,
    /// Per-detector anomaly scores (first `nscores` entries are live).
    pub scores: [f32; MAX_DETECTORS],
}

impl TelemetryRow {
    /// The live detector scores.
    pub fn live_scores(&self) -> &[f32] {
        let n = (self.nscores as usize).min(MAX_DETECTORS);
        self.scores.get(..n).unwrap_or(&[])
    }

    /// Builds a row from loose parts, clamping the score list to
    /// [`MAX_DETECTORS`] columns.
    #[expect(clippy::too_many_arguments, reason = "one argument per row column")]
    pub fn new(
        tick: u64,
        tenant: u32,
        route: u32,
        sample: u32,
        scheme: DefenseScheme,
        degraded: bool,
        verdict: Verdict,
        queue_ns: u64,
        infer_ns: u64,
        trace: u64,
        detector_scores: &[f32],
    ) -> TelemetryRow {
        let mut scores = [0f32; MAX_DETECTORS];
        let n = detector_scores.len().min(MAX_DETECTORS);
        for (slot, s) in scores.iter_mut().zip(detector_scores.iter().take(n)) {
            *slot = *s;
        }
        TelemetryRow {
            tick,
            tenant,
            route,
            sample,
            variant: 0,
            scheme,
            degraded,
            verdict,
            queue_ns,
            infer_ns,
            trace,
            nscores: n as u8,
            scores,
        }
    }

    /// Sets the serving variant (builder-style; [`new`](Self::new) defaults
    /// it to 0, the bare-engine / default-variant id).
    #[must_use]
    pub fn with_variant(mut self, variant: u32) -> TelemetryRow {
        self.variant = variant;
        self
    }
}

/// Encodes a scheme as one byte (stable across versions — the on-disk id).
pub(crate) fn scheme_code(scheme: DefenseScheme) -> u8 {
    match scheme {
        DefenseScheme::None => 0,
        DefenseScheme::DetectorOnly => 1,
        DefenseScheme::ReformerOnly => 2,
        DefenseScheme::Full => 3,
    }
}

/// Decodes a scheme byte; unknown codes reject the chunk.
pub(crate) fn scheme_from_code(code: u8) -> Option<DefenseScheme> {
    match code {
        0 => Some(DefenseScheme::None),
        1 => Some(DefenseScheme::DetectorOnly),
        2 => Some(DefenseScheme::ReformerOnly),
        3 => Some(DefenseScheme::Full),
        _ => None,
    }
}

/// Encodes a verdict: `-1` = detected, otherwise the predicted class.
pub(crate) fn verdict_code(verdict: Verdict) -> i32 {
    match verdict {
        Verdict::Detected => -1,
        Verdict::Classified(c) => i32::try_from(c).unwrap_or(i32::MAX),
    }
}

/// Decodes a verdict code; negative means detected.
pub(crate) fn verdict_from_code(code: i32) -> Verdict {
    if code < 0 {
        Verdict::Detected
    } else {
        Verdict::Classified(code as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_codes_roundtrip() {
        for scheme in DefenseScheme::ALL {
            assert_eq!(scheme_from_code(scheme_code(scheme)), Some(scheme));
        }
        assert_eq!(scheme_from_code(9), None);
    }

    #[test]
    fn verdict_codes_roundtrip() {
        assert_eq!(
            verdict_from_code(verdict_code(Verdict::Detected)),
            Verdict::Detected
        );
        for c in [0usize, 3, 9, 4096] {
            assert_eq!(
                verdict_from_code(verdict_code(Verdict::Classified(c))),
                Verdict::Classified(c)
            );
        }
    }

    #[test]
    fn new_clamps_scores() {
        let row = TelemetryRow::new(
            1,
            2,
            3,
            4,
            DefenseScheme::Full,
            false,
            Verdict::Detected,
            10,
            20,
            0,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(row.nscores as usize, MAX_DETECTORS);
        assert_eq!(row.live_scores(), &[1.0, 2.0, 3.0, 4.0]);
        let short = TelemetryRow::new(
            1,
            2,
            3,
            4,
            DefenseScheme::None,
            false,
            Verdict::Classified(7),
            10,
            20,
            0,
            &[0.5],
        );
        assert_eq!(short.live_scores(), &[0.5]);
    }
}
