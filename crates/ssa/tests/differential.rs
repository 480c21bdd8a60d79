//! The differential oracle that gates the CFG/SSA refactor.
//!
//! Every program — all suite apps and the 200-program generative fuzz
//! corpus (same seeds as `crates/minilang/tests/fuzz.rs`) — runs through
//! both pipelines:
//!
//! - **reference**: parse → lower → tree interpreter
//!   ([`parpat_ir::run_function_captured`]);
//! - **candidate**: parse → lower → CFG → SSA promotion → full standard
//!   pass roster (verifier green after every pass, or `build_optimized`
//!   fails) → SSA executor.
//!
//! Return values and final global memory are compared bit-for-bit (NaN
//! agreeing with NaN); structured faults must match line, message, and
//! kind. Any disagreement is a **Miscompile** in the new midsection.

use parpat_ir::event::NullObserver;
use parpat_ir::{run_function_captured, ExecLimits, IrProgram};
use parpat_minilang::{genprog, parse_checked};
use parpat_ssa::{build_optimized, run_ssa, SsaExecError, SsaLimits, PASS_NAMES};

/// f64 agreement: bit-identical, or both NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Run both pipelines and compare. Returns `true` when the tree run
/// completed (i.e. the case genuinely exercised the comparison) and
/// panics with a `Miscompile` report on any divergence.
fn differential(label: &str, src: &str, ir: &IrProgram) -> bool {
    let (ssa, timings) = build_optimized(ir)
        .unwrap_or_else(|v| panic!("verifier rejected {label}: {v} (kind {:?})\n{src}", v.kind));
    assert_eq!(
        timings.len(),
        PASS_NAMES.len(),
        "{label}: the pass manager must run the whole roster, got {timings:?}"
    );
    let Some(entry) = ir.entry else {
        return false;
    };
    let tree_limits = ExecLimits { max_insts: 400_000, timeout_ms: None, ..Default::default() };
    let tree = run_function_captured(ir, entry, &[], &mut NullObserver, tree_limits, None);
    match tree {
        Err(e) if e.is_budget() => false, // candidate not comparable; skip
        Err(tree_fault) => {
            // The optimized pipeline must fault identically: same line,
            // same message, same kind.
            let mine = run_ssa(ir, &ssa, entry, &[], SsaLimits::default());
            match mine {
                Err(SsaExecError::Fault(f)) => {
                    assert_eq!(
                        f, tree_fault,
                        "Miscompile in {label}: fault mismatch\n{src}"
                    );
                    true
                }
                other => panic!(
                    "Miscompile in {label}: tree faulted ({tree_fault}) but SSA returned {other:?}\n{src}"
                ),
            }
        }
        Ok(cap) => {
            // Generous headroom relative to what the tree actually needed:
            // exhausting it means the lowered CFG diverged (e.g. an
            // infinite loop the tree did not have).
            let limits = SsaLimits {
                max_steps: cap.outcome.insts.saturating_mul(8) + 100_000,
                ..Default::default()
            };
            match run_ssa(ir, &ssa, entry, &[], limits) {
                Ok(mine) => {
                    assert!(
                        same(cap.outcome.return_value, mine.return_value),
                        "Miscompile in {label}: return {} vs {}\n{src}",
                        cap.outcome.return_value,
                        mine.return_value
                    );
                    assert_eq!(cap.globals.len(), mine.globals.len(), "Miscompile in {label}");
                    for (i, (a, b)) in cap.globals.iter().zip(&mine.globals).enumerate() {
                        assert!(
                            same(*a, *b),
                            "Miscompile in {label}: global cell {i} holds {a} vs {b}\n{src}"
                        );
                    }
                    true
                }
                Err(e) => {
                    panic!("Miscompile in {label}: tree completed but SSA failed with {e:?}\n{src}")
                }
            }
        }
    }
}

#[test]
fn suite_apps_compile_and_execute_identically() {
    let apps = parpat_suite::all_apps();
    assert!(apps.len() >= 17, "expected the full suite, got {}", apps.len());
    let mut compared = 0usize;
    for app in &apps {
        let ast = parse_checked(app.model)
            .unwrap_or_else(|e| panic!("suite app {} failed to parse: {e}", app.name));
        let ir = parpat_ir::lower(&ast);
        if differential(app.name, app.model, &ir) {
            compared += 1;
        }
    }
    // Every suite app must actually complete under the tree interpreter —
    // a skip here would silently shrink the gate.
    assert_eq!(compared, apps.len(), "all suite apps must be compared, not skipped");
}

#[test]
fn fuzz_corpus_executes_identically_in_tree_and_optimized_ssa() {
    let mut skipped = 0u32;
    for case in 0..200u64 {
        let seed = 0x00D1_FF00 + case;
        let src = genprog::generate(seed);
        let ast = parse_checked(&src).unwrap_or_else(|e| {
            panic!("generator emitted invalid source (seed {seed}): {e}\n{src}")
        });
        let ir = parpat_ir::lower(&ast);
        if !differential(&format!("fuzz seed {seed}"), &src, &ir) {
            skipped += 1;
        }
    }
    // The corpus must mostly exercise the comparison; a budget-bound flood
    // would make this gate vacuous.
    assert!(skipped < 50, "too many skipped cases ({skipped}/200)");
}

#[test]
fn faulting_programs_fault_identically_after_optimization() {
    // Hand-picked adversarial cases for the pass roster's safety rules:
    // merges and hoists must neither erase nor introduce faults.
    for src in [
        // Constant arithmetic around a zero divisor.
        "fn main() { return (2 + 3) / (4 - 4); }",
        // Loop-invariant 1/x where x is zero, in a zero-trip loop: must NOT
        // fault (LICM must not speculate it).
        "fn main() { let x = 0; let n = 0; let s = 0; for i in 0..n { s = 1 / x; } return s; }",
        // Same, but the loop runs: must fault on the right line.
        "fn main() { let x = 0; let s = 0; for i in 0..3 { s = 1 / x; } return s; }",
        // OOB store whose value expression would also fault.
        "global a[2]; fn main() { a[7] = 1 / 0; }",
        // OOB only on the last iteration: prior iterations' effects must be
        // visible in the final globals of the tree run... which errors, so
        // both sides must report the identical fault.
        "global a[4]; fn main() { for i in 0..9 { a[i] = i; } }",
        // Modulo by zero reached through short-circuit: the rhs only
        // evaluates when the lhs is true.
        "fn main() { let x = 1; if x > 0 && 1 % 0 > 0 { x = 2; } return x; }",
        // NaN subscript.
        "global a[4]; fn main() { a[sqrt(0 - 1)] = 1; }",
    ] {
        let ast = parse_checked(src).unwrap_or_else(|e| panic!("bad case: {e}\n{src}"));
        let ir = parpat_ir::lower(&ast);
        differential("adversarial case", src, &ir);
    }
}

#[test]
fn optimization_actually_fires_on_the_corpus() {
    // Sanity: the roster is not a no-op pipeline. Over the corpus, at
    // least one pass must report a change for a healthy majority of
    // programs.
    let mut changed = 0usize;
    for case in 0..50u64 {
        let src = genprog::generate(0x00D1_FF00 + case);
        let ir = parpat_ir::lower(&parse_checked(&src).expect("valid"));
        let (_, timings) = build_optimized(&ir).expect("verifies");
        if timings.iter().any(|t| t.changed) {
            changed += 1;
        }
    }
    assert!(changed > 25, "passes changed only {changed}/50 programs");
}

/// A malicious pass would be caught by the verifier — but so must a
/// malicious *lowering*. Corrupting the SSA function after promotion must
/// be flagged, proving the gate has teeth end to end.
#[test]
fn verifier_gate_has_teeth() {
    let src = "fn main() { let x = 1; if x > 0 { x = 2; } else { x = 3; } return x; }";
    let ir = parpat_ir::lower(&parse_checked(src).expect("valid"));
    let mut f = parpat_ssa::SsaFunc::build(&ir, ir.entry.expect("entry"));
    parpat_ssa::promote_to_ssa(&mut f);
    // Corrupt: make a phi reference a value from the wrong arm.
    let mut corrupted = false;
    'outer: for b in 0..f.blocks.len() {
        for &v in &f.blocks[b].insts.clone() {
            if let parpat_ssa::Op::Phi { args, .. } = &mut f.insts[v as usize].op {
                if args.len() == 2 {
                    args.swap(0, 1);
                    // Swapping alone may still verify (both dominate their
                    // edges only if symmetric); also break arity.
                    args.pop();
                    corrupted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(corrupted, "test setup: no phi found");
    assert!(!parpat_ssa::verify_func(&f).is_empty(), "corruption must be detected");
}
