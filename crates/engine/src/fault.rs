//! Deterministic fault injection for the batch engine.
//!
//! A [`FaultPlan`] arms one trap: when the program at a given batch index
//! reaches a given stage, the stage either fails with a chosen
//! [`ErrorKind`], panics mid-flight, stalls before completing, or
//! miscompiles its lowered IR. Plans ride in on `EngineConfig`, so the
//! whole injection surface is plain configuration — no test-only hooks
//! compiled into the hot path, and the same engine binary exercises every
//! failure mode reproducibly.
//!
//! The fault-injection test suite (`tests/faults.rs`) drives plans across
//! every stage × mode × job-count combination; [`crate::xorshift64`] (the
//! workspace PRNG, re-exported from `parpat_minilang::genprog`) drives
//! randomized plan/corruption selection.

use crate::error::ErrorKind;
use crate::stage::Stage;

/// What an armed fault does when its (stage, input) slot executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The stage resolution returns a structured error of this kind.
    Fail(ErrorKind),
    /// The stage function panics mid-flight (exercises the unwind path).
    Panic,
    /// The stage sleeps this many milliseconds, then completes normally —
    /// a slow stage, not a failing one. The sleep is cooperative: it is cut
    /// short (and turned into an [`ErrorKind::Stalled`] failure) if the
    /// watchdog cancels the job mid-stall. A stall fires once per plan: a
    /// requeued job finds the trap already sprung and completes normally,
    /// modelling a one-off hang rather than a permanently wedged stage.
    Stall(u64),
    /// Armed at [`Stage::Lower`]: the stage completes, then the lowered IR
    /// is corrupted with `parpat_ir::corrupt(SwapAddSub)` — a structurally
    /// valid but semantically wrong program. The IR verifier cannot see
    /// it; only the differential oracle catches it, at the profile stage,
    /// as an [`ErrorKind::Miscompile`]. Exercises the verification
    /// subsystem end to end.
    Miscompile,
}

/// One injected fault, armed for a single (stage, batch-index) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The stage at which the fault trips.
    pub stage: Stage,
    /// The batch input index it trips for (`analyze_one` runs as index 0).
    pub input: usize,
    /// What happens when it trips.
    pub mode: FaultMode,
}

impl FaultPlan {
    /// Arm `mode` at `stage` for batch input `input`.
    pub fn at(stage: Stage, input: usize, mode: FaultMode) -> Self {
        FaultPlan { stage, input, mode }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn plans_compare_by_value() {
        let p = FaultPlan::at(Stage::Profile, 3, FaultMode::Fail(ErrorKind::Runtime));
        assert_eq!(p, FaultPlan { stage: Stage::Profile, input: 3, mode: p.mode });
        assert_ne!(p.mode, FaultMode::Panic);
    }
}
