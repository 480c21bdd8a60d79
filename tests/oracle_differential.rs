//! Differential gate for the oracle's evaluator: the resolved
//! [`evaluate_with_limits`] must return exactly what the name-lookup
//! [`ReferenceEvaluator`] returns — return value and global state bit for
//! bit, step count, fault message and line — on every suite model, on the
//! seeded generated corpus (a third of which faults), on the scaled
//! models, under budgets that run out mid-program, and on scoping corner
//! cases, checked and unchecked.

use parpat_minilang::reference::ReferenceEvaluator;
use parpat_minilang::{evaluate_with_limits, EvalError, EvalLimits, EvalOutcome, Program};

type Outcome = Result<EvalOutcome, EvalError>;

fn same_value(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            same_value(a.return_value, b.return_value)
                && a.steps == b.steps
                && a.globals.len() == b.globals.len()
                && a.globals.iter().zip(&b.globals).all(|(x, y)| same_value(*x, *y))
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Evaluate `prog` both ways under `limits`, assert agreement, and return
/// the (shared) outcome.
fn check(name: &str, prog: &Program, limits: EvalLimits) -> Outcome {
    let new = evaluate_with_limits(prog, limits);
    let old = ReferenceEvaluator::evaluate(prog, limits);
    assert!(
        same(&new, &old),
        "{name} under {limits:?}: evaluators differ\nresolved: {new:?}\nreference: {old:?}"
    );
    new
}

fn checked(name: &str, src: &str) -> Program {
    parpat_minilang::parse_checked(src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn suite() -> Vec<(String, Program)> {
    parpat_suite::all_apps()
        .iter()
        .chain(&parpat_suite::synthetic_apps())
        .map(|a| (a.name.to_owned(), checked(a.name, a.model)))
        .collect()
}

fn generated() -> Vec<(String, Program)> {
    (0..300)
        .map(|seed| {
            let name = format!("genprog seed {seed}");
            let prog = checked(&name, &parpat_minilang::genprog::generate(seed));
            (name, prog)
        })
        .collect()
}

/// Step budgets small enough to run out inside any program of the corpus.
const SMALL_STEPS: [u64; 12] = [0, 1, 2, 3, 4, 5, 8, 13, 40, 100, 1_000, 10_000];

/// Re-run `prog` under every small step budget, under a budget ending on
/// its last step and one ending halfway, and under small call depths.
/// Returns how many runs ended on a budget.
fn sweep(name: &str, prog: &Program, full: &Outcome) -> usize {
    let mut budgets = 0;
    let mut limits: Vec<EvalLimits> = SMALL_STEPS
        .iter()
        .map(|&max_steps| EvalLimits { max_steps, ..EvalLimits::default() })
        .collect();
    if let Ok(out) = full {
        for max_steps in [out.steps.saturating_sub(1), out.steps / 2] {
            limits.push(EvalLimits { max_steps, ..EvalLimits::default() });
        }
    }
    for max_call_depth in 0..4 {
        limits.push(EvalLimits { max_steps: 200_000, max_call_depth });
    }
    for l in limits {
        if matches!(check(name, prog, l), Err(e) if e.is_budget()) {
            budgets += 1;
        }
    }
    budgets
}

#[test]
fn suite_models_evaluate_like_the_reference() {
    for (name, prog) in suite() {
        let out = check(&name, &prog, EvalLimits::default());
        assert!(out.is_ok(), "{name}: {out:?}");
        assert!(sweep(&name, &prog, &out) >= SMALL_STEPS.len(), "{name}: budgets never ran out");
    }
}

#[test]
fn generated_programs_evaluate_and_fault_like_the_reference() {
    let mut faults = 0;
    for (name, prog) in generated() {
        let out = check(&name, &prog, EvalLimits::default());
        if matches!(&out, Err(e) if !e.is_budget()) {
            faults += 1;
        }
        sweep(&name, &prog, &out);
    }
    assert!(faults >= 50, "only {faults} of 300 generated programs faulted");
}

#[test]
fn scaled_models_evaluate_like_the_reference() {
    for (name, src) in parpat_suite::scaled::profile_models() {
        let prog = checked(name, &src);
        let out = check(name, &prog, EvalLimits::default());
        let steps = out.as_ref().map_or(0, |o| o.steps);
        assert!(steps >= 200_000, "scaled {name} took only {steps} steps: {out:?}");
        // The full-length budgets are covered by the run above; a second
        // and third full run of the slow reference buys nothing here.
        for max_steps in SMALL_STEPS {
            let _ = check(name, &prog, EvalLimits { max_steps, ..EvalLimits::default() });
        }
        for max_call_depth in 0..3 {
            let _ = check(name, &prog, EvalLimits { max_steps: 200_000, max_call_depth });
        }
    }
}

/// Checked programs whose scoping the resolve pass must reproduce, with
/// the value each returns.
const SCOPE_CASES: &[(&str, &str, f64)] = &[
    (
        // A `for` body shares one scope across iterations: from the
        // second iteration on, the use before `let x` sees the body's x.
        "let in a for body, re-declared each iteration",
        "fn main() {
            let x = 100;
            let s = 0;
            for i in 0..4 {
                s += x;
                let x = i * 10;
                x += 1;
            }
            return s + x;
        }",
        233.0,
    ),
    (
        "a for-body let whose initializer reads the name it declares",
        "fn main() {
            let x = 1;
            let s = 0;
            for i in 0..3 {
                let x = x * 2 + i;
                s += x;
            }
            return s * 10 + x;
        }",
        191.0,
    ),
    (
        "the same through a nested loop and a compound assignment",
        "global a[4];
        fn main() {
            let y = 7;
            for i in 0..3 {
                for j in 0..2 {
                    a[j] += y;
                    y += 1;
                }
                let y = i;
            }
            return y * 1000 + a[0] * 10 + a[1];
        }",
        9091.0,
    ),
    (
        "a while body gets a fresh scope each iteration",
        "fn main() {
            let x = 5;
            let n = 0;
            let s = 0;
            while n < 3 {
                s += x;
                let x = n;
                x += 10;
                n += 1;
            }
            return s * 10 + x;
        }",
        155.0,
    ),
    (
        "nested blocks shadow and unshadow",
        "fn main() {
            let x = 1;
            if true {
                x = 7;
                let x = 2;
                x += 1;
                if x > 2 {
                    let x = x * 10;
                    x += 1;
                } else {
                    x = 0;
                }
                x += 100;
            }
            return x;
        }",
        7.0,
    ),
    (
        "let overwrites a name in the same scope, including the loop variable",
        "fn main() {
            let a = 1;
            let a = a + 1;
            let s = 0;
            for i in 0..5 {
                let i = i * 2;
                s += i;
            }
            return a * 100 + s;
        }",
        220.0,
    ),
    (
        "parameters are mutable and shadowable",
        "fn f(p, q) {
            p += q;
            let q = p * 2;
            return p + q;
        }
        fn main() { return f(1, 2); }",
        9.0,
    ),
    (
        "recursion keeps each activation's slots apart",
        "global memo[20];
        fn fib(n) {
            if n < 2 { return n; }
            let a = fib(n - 1);
            let b = fib(n - 2);
            memo[n] = a + b;
            return a + b;
        }
        fn even(n) { if n == 0 { return 1; } return odd(n - 1); }
        fn odd(n) { if n == 0 { return 0; } return even(n - 1); }
        fn main() {
            let s = 0;
            for k in 0..6 { s += even(k); }
            return fib(15) * 10 + s;
        }",
        6103.0,
    ),
];

#[test]
fn scoping_corner_cases_match_the_reference() {
    for (name, src, want) in SCOPE_CASES {
        let prog = checked(name, src);
        let out = check(name, &prog, EvalLimits::default());
        let got = out.as_ref().map(|o| o.return_value);
        assert_eq!(got, Ok(*want), "{name}");
        sweep(name, &prog, &out);
    }
}

/// Parsed but unchecked programs: names the resolve pass cannot bind,
/// type mismatches and arity errors must fault exactly when, where and
/// how the reference faults — or not at all on a path never taken.
const UNCHECKED: &[&str] = &[
    "fn main() { if false { return y; } return 1; }",
    "fn main() { let a = 2; return a + y; }",
    "fn main() { z = 1 + 2; }",
    "fn main() { z += 1 + 2; }",
    "fn main() { for i in 0..2 { } return i; }",
    "fn main() { let s = 0; for i in 0..3 { if i > 0 { s += w; } let w = i; } return s; }",
    "fn main() { let s = 0; for i in 0..3 { s += w; let w = i; } return s; }",
    "fn main() { return q[1]; }",
    "global a[4]; fn main() { return a[1][2]; }",
    "global a[4]; fn main() { b[0] = 1; }",
    "global m[2][2]; fn main() { m[1] += 1; }",
    "fn main() { return nope(1, 2 * 3); }",
    "fn main() { return nope(1 / 0); }",
    "fn main() { return sqrt(1, 2); }",
    "fn main() { return max(1); }",
    "fn f(a) { return a; } fn main() { return f(1, 2); }",
    "fn f(a, a) { return a; } fn main() { return f(1, 2); }",
    "fn main(a) { let a = 2; return a; }",
    "fn main(a) { return a; }",
    "fn main() { let x = true; }",
    "fn main() { return 1 < 2; }",
    "fn main() { if 3 { } }",
    "fn main() { while 1 + 1 { } }",
    "fn main() { return -true; }",
    "fn main() { return 1 + (2 < 3); }",
    "fn main() { if !1 { } }",
    "fn main() { if (1 < 2) && 3 { } }",
    "fn main() { if (1 > 2) && 3 { } return 4; }",
    "fn main() { if (1 < 2) || 3 { } return 5; }",
    "global a[3]; fn main() { a[true] = 1; }",
    "fn f() { break; } fn main() { return f() + 1; }",
    "fn f() { return 1; } fn f() { return 2; } fn main() { return f(); }",
    "global a[2]; global a[3]; fn main() { a[2] = 1; return a[1]; }",
    "fn main() { }",
    "fn f() { }",
];

#[test]
fn unchecked_programs_fault_like_the_reference() {
    for src in UNCHECKED {
        let prog = parpat_minilang::parser::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let out = check(src, &prog, EvalLimits::default());
        sweep(src, &prog, &out);
    }
}
