//! The structured error taxonomy of the batch engine.
//!
//! Every per-program failure the engine can observe — a malformed source,
//! a faulting or over-budget interpreted run, a panicking stage function,
//! a stalled or out-of-time job, or a miscompile caught by the
//! verification subsystem — is folded into one [`EngineError`]
//! that records *where* it happened ([`Stage`]) and *what class* of
//! failure it was ([`ErrorKind`]). The classification drives graceful
//! degradation: dynamic-stage failures keep their static results (see
//! `engine`), and the batch counters (`panics`, `budget_exceeded`) are
//! keyed off the kind.

use parpat_core::AnalyzeError;

use crate::stage::Stage;

/// The class of a per-program engine failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Parse/check failure in the source language.
    Lang,
    /// The interpreted run faulted (out-of-bounds, missing `main`, …).
    Runtime,
    /// A stage function panicked; the unwind was caught at the stage
    /// boundary and the payload preserved in the detail.
    Panic,
    /// An execution budget was exhausted (instruction ceiling, call-depth
    /// ceiling, or wall-clock deadline).
    Budget,
    /// The watchdog declared the job stale and cancelled it cooperatively;
    /// the batch scheduler requeues the job once before giving up.
    Stalled,
    /// A request-scoped deadline expired and the job was cancelled
    /// cooperatively (same mechanism as [`ErrorKind::Stalled`], but the
    /// clock — not the heartbeat — pulled the trigger). Never requeued:
    /// the time budget is spent. Dynamic-stage deadline failures
    /// still yield a degraded (static-only) report.
    Deadline,
    /// The verification subsystem rejected the pipeline's own artifacts:
    /// the IR verifier found structural violations after lowering, the
    /// differential oracle observed the interpreter diverging from the
    /// reference evaluator, or the trace sanitizer rejected the dependence
    /// stream. Unlike every other kind, the fault is in the *toolchain*,
    /// not the program — so no degraded report is emitted (the static
    /// artifacts are equally untrustworthy).
    Miscompile,
}

impl ErrorKind {
    /// Every kind, for name round-tripping.
    pub const ALL: [ErrorKind; 7] = [
        ErrorKind::Lang,
        ErrorKind::Runtime,
        ErrorKind::Panic,
        ErrorKind::Budget,
        ErrorKind::Stalled,
        ErrorKind::Deadline,
        ErrorKind::Miscompile,
    ];

    /// Stable lowercase name (used in JSON and stats).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Lang => "lang",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Panic => "panic",
            ErrorKind::Budget => "budget",
            ErrorKind::Stalled => "stalled",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Miscompile => "miscompile",
        }
    }

    /// Inverse of [`ErrorKind::name`] (used when replaying journal
    /// records).
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    fn phrase(self) -> &'static str {
        match self {
            ErrorKind::Lang => "language error",
            ErrorKind::Runtime => "runtime error",
            ErrorKind::Panic => "panic",
            ErrorKind::Budget => "budget exceeded",
            ErrorKind::Stalled => "stall",
            ErrorKind::Deadline => "deadline exceeded",
            ErrorKind::Miscompile => "miscompile",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured per-program failure: which stage, what kind, and a
/// human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The stage whose resolution failed.
    pub stage: Stage,
    /// The failure class.
    pub kind: ErrorKind,
    /// Human-readable detail (language diagnostic, panic payload, …).
    pub detail: String,
}

impl EngineError {
    /// Build an error from its parts.
    pub fn new(stage: Stage, kind: ErrorKind, detail: impl Into<String>) -> Self {
        EngineError { stage, kind, detail: detail.into() }
    }

    /// A language (parse/check) failure at `stage`.
    pub fn lang(stage: Stage, detail: impl Into<String>) -> Self {
        Self::new(stage, ErrorKind::Lang, detail)
    }

    /// Classify a `parpat-core` analysis error observed at `stage`:
    /// budget-kind runtime errors become [`ErrorKind::Budget`], cancelled
    /// runs (the watchdog tripped mid-interpretation)
    /// [`ErrorKind::Stalled`], other runtime errors [`ErrorKind::Runtime`].
    pub fn from_analyze(stage: Stage, e: &AnalyzeError) -> Self {
        match e {
            AnalyzeError::Lang(l) => Self::new(stage, ErrorKind::Lang, l.to_string()),
            AnalyzeError::Runtime(r) if r.is_budget() => {
                Self::new(stage, ErrorKind::Budget, r.to_string())
            }
            AnalyzeError::Runtime(r) if r.is_cancelled() => {
                Self::new(stage, ErrorKind::Stalled, r.to_string())
            }
            AnalyzeError::Runtime(r) => Self::new(stage, ErrorKind::Runtime, r.to_string()),
        }
    }

    /// Convert a caught panic payload into a structured error, preserving
    /// `&str`/`String` payloads verbatim.
    pub fn from_panic(stage: Stage, payload: &(dyn std::any::Any + Send)) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_owned()
        };
        Self::new(stage, ErrorKind::Panic, detail)
    }

    /// `true` when the failure is budget exhaustion.
    pub fn is_budget(&self) -> bool {
        self.kind == ErrorKind::Budget
    }

    /// Hand-rolled JSON object (`stage`, `kind`, `detail`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stage\": {}, \"kind\": {}, \"detail\": {}}}",
            crate::stats::json_str(self.stage.name()),
            crate::stats::json_str(self.kind.name()),
            crate::stats::json_str(&self.detail),
        )
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {} stage: {}", self.kind.phrase(), self.stage, self.detail)
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use parpat_ir::RuntimeError;

    #[test]
    fn display_names_stage_and_kind() {
        let e = EngineError::new(Stage::Profile, ErrorKind::Budget, "ceiling of 10 hit");
        assert_eq!(e.to_string(), "budget exceeded at profile stage: ceiling of 10 hit");
        assert!(e.is_budget());
    }

    #[test]
    fn analyze_errors_split_budget_from_fault() {
        let budget = AnalyzeError::Runtime(RuntimeError::budget(3, "over".to_owned()));
        let fault = AnalyzeError::Runtime(RuntimeError::new(4, "oob".to_owned()));
        assert_eq!(EngineError::from_analyze(Stage::Profile, &budget).kind, ErrorKind::Budget);
        assert_eq!(EngineError::from_analyze(Stage::Profile, &fault).kind, ErrorKind::Runtime);
    }

    #[test]
    fn panic_payloads_survive() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        let e = EngineError::from_panic(Stage::Detect, payload.as_ref());
        assert_eq!(e.kind, ErrorKind::Panic);
        assert_eq!(e.detail, "boom 7");
    }

    #[test]
    fn cancelled_runs_classify_as_stalled() {
        let c = AnalyzeError::Runtime(RuntimeError::cancelled(9, "cancelled".to_owned()));
        let e = EngineError::from_analyze(Stage::Profile, &c);
        assert_eq!(e.kind, ErrorKind::Stalled);
    }

    #[test]
    fn deadline_names_and_renders() {
        assert_eq!(ErrorKind::from_name("deadline"), Some(ErrorKind::Deadline));
        let e = EngineError::new(Stage::Profile, ErrorKind::Deadline, "out of time");
        assert_eq!(e.to_string(), "deadline exceeded at profile stage: out of time");
    }

    #[test]
    fn kind_names_round_trip() {
        for k in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ErrorKind::from_name("gremlin"), None);
    }

    #[test]
    fn json_has_all_fields() {
        let e = EngineError::new(Stage::Rank, ErrorKind::Runtime, "bad \"record\"");
        let j = e.to_json();
        assert!(j.contains("\"stage\": \"rank\""));
        assert!(j.contains("\"kind\": \"runtime\""));
        assert!(j.contains("bad \\\"record\\\""));
    }
}
