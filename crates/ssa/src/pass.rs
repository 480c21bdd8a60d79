//! The [`Pass`] trait and a [`PassManager`] that refuses to cut corners:
//! the structural verifier runs after *every* pass, and each pass's wall
//! time is recorded so the engine's stats (and `BENCH_static.json`) can
//! show where analysis time goes. The standard roster is
//! [`PASS_NAMES`](crate::PASS_NAMES): `cse`, then `licm`.

use crate::cfg::SsaFunc;
use crate::verify::{verify_func, SsaViolation};
use std::time::Instant;

/// A transformation (or analysis) over one SSA function.
pub trait Pass {
    /// Stable, machine-readable pass name.
    fn name(&self) -> &'static str;
    /// Run the pass. Returns `true` when the function was changed.
    fn run(&mut self, f: &mut SsaFunc) -> bool;
}

/// Wall time and outcome of one pass, accumulated across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass's stable name.
    pub name: &'static str,
    /// Total nanoseconds spent inside the pass (verification excluded).
    pub nanos: u128,
    /// Number of functions the pass ran over.
    pub runs: u64,
    /// Did any run change a function?
    pub changed: bool,
}

/// Runs a pass roster over functions, verifying after each pass.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    timings: Vec<PassTiming>,
}

impl PassManager {
    /// A manager over an explicit roster.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> PassManager {
        let timings = passes
            .iter()
            .map(|p| PassTiming { name: p.name(), nanos: 0, runs: 0, changed: false })
            .collect();
        PassManager { passes, timings }
    }

    /// The standard roster: cse → licm.
    pub fn standard() -> PassManager {
        PassManager::new(crate::passes::standard_pipeline())
    }

    /// Run every pass over `f` in order. After each pass the structural
    /// verifier must come back clean; a violation aborts immediately with
    /// the offending pass named in the detail.
    pub fn run(&mut self, f: &mut SsaFunc) -> Result<(), SsaViolation> {
        for (i, p) in self.passes.iter_mut().enumerate() {
            let t0 = Instant::now();
            let changed = p.run(f);
            let dt = t0.elapsed().as_nanos();
            let t = &mut self.timings[i];
            t.nanos += dt;
            t.runs += 1;
            t.changed |= changed;
            if let Some(mut v) = verify_func(f).into_iter().next() {
                v.detail = format!("after pass `{}`: {}", p.name(), v.detail);
                return Err(v);
            }
        }
        Ok(())
    }

    /// Per-pass timings accumulated so far.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Consume the manager, yielding its timings.
    pub fn into_timings(self) -> Vec<PassTiming> {
        self.timings
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::cfg::{Op, SsaFunc};
    use crate::ssa::promote_to_ssa;
    use parpat_minilang::parse_checked;

    fn ssa(src: &str) -> SsaFunc {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let mut f = SsaFunc::build(&ir, ir.entry.unwrap());
        promote_to_ssa(&mut f);
        f
    }

    #[test]
    fn standard_roster_is_pass_names() {
        let pm = PassManager::standard();
        let names: Vec<&str> = pm.timings().iter().map(|t| t.name).collect();
        assert_eq!(names, crate::PASS_NAMES);
    }

    #[test]
    fn timings_accumulate_per_pass() {
        let mut f = ssa("fn main() { let s = 0; for i in 0..9 { s = s + 1 + 2; } return s; }");
        let mut pm = PassManager::standard();
        pm.run(&mut f).unwrap();
        for t in pm.timings() {
            assert_eq!(t.runs, 1, "pass {} should have run once", t.name);
        }
        assert!(pm.timings().iter().any(|t| t.changed));
    }

    #[test]
    fn a_bad_pass_is_caught_by_the_verifier() {
        struct Vandal;
        impl Pass for Vandal {
            fn name(&self) -> &'static str {
                "vandal"
            }
            fn run(&mut self, f: &mut SsaFunc) -> bool {
                // Break phi arity (or any structure available).
                for blk in &mut f.blocks {
                    for &v in &blk.insts.clone() {
                        if let Op::Phi { args, .. } = &mut f.insts[v as usize].op {
                            args.push(0);
                            return true;
                        }
                    }
                }
                // No phi to vandalize: orphan an edge instead.
                f.blocks[0].preds.push(0);
                true
            }
        }
        let mut f = ssa("fn main() { let x = 1; if x > 0 { x = 2; } return x; }");
        let mut pm = PassManager::new(vec![Box::new(Vandal)]);
        let err = pm.run(&mut f).unwrap_err();
        assert!(err.detail.contains("after pass `vandal`"), "{err:?}");
    }
}
