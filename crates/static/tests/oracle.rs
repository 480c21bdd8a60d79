//! Property tests: the dependence verdicts against a brute-force oracle.
//!
//! For randomly generated loop nests with known iteration spaces, the
//! carried-flow-dependence question has an exact answer: enumerate every
//! (write iteration, later read iteration) pair and test index collision.
//! The static verdict must agree whenever it is decisive:
//!
//! - `ProvenNone`  ⇒ the oracle finds **zero** colliding forward pairs;
//! - `ProvenSome`  ⇒ the oracle finds **at least one**;
//! - a reported constant dependence distance `k` ⇒ some colliding pair is
//!   exactly `k` iterations apart.
//!
//! `Unknown` asserts nothing — it is the verdict's licensed escape hatch.
//! The generated bodies execute unconditionally (no branches, no scalar
//! recurrences), matching the verdict convention that a proven dependence
//! holds whenever the involved statements execute.

#![allow(clippy::unwrap_used)]

use parpat_minilang::genprog::xorshift64;
use parpat_static::{analyze_ir, LoopReport, Verdict};

const SZ: i64 = 64;

/// Seeded PRNG stepping the workspace's xorshift64*.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    /// Uniform-ish draw from `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Render `c * i + o` as MiniLang subscript text (`i`, `2 * i - 3`, `5`).
fn affine_src(c: i64, var: &str, o: i64) -> String {
    let base = match c {
        0 => return o.to_string(),
        1 => var.to_string(),
        _ => format!("{c} * {var}"),
    };
    match o.cmp(&0) {
        std::cmp::Ordering::Equal => base,
        std::cmp::Ordering::Greater => format!("{base} + {o}"),
        std::cmp::Ordering::Less => format!("{base} - {}", -o),
    }
}

/// The brute-force oracle: all forward colliding (write iter, read iter)
/// pairs of one loop, given each iteration's touched elements.
fn forward_pairs(
    iters: &[i64],
    writes: impl Fn(i64) -> Vec<i64>,
    reads: impl Fn(i64) -> Vec<i64>,
) -> Vec<(i64, i64)> {
    let mut pairs = Vec::new();
    for (a, &t1) in iters.iter().enumerate() {
        let w: Vec<i64> = writes(t1);
        for &t2 in &iters[a + 1..] {
            if reads(t2).iter().any(|r| w.contains(r)) {
                pairs.push((t1, t2));
            }
        }
    }
    pairs
}

/// Check one loop's verdict (and any constant distances) against the
/// oracle's pair list.
fn check(l: &LoopReport, pairs: &[(i64, i64)], ctx: &str) {
    match l.verdict {
        Verdict::ProvenNone => {
            assert!(
                pairs.is_empty(),
                "{ctx}: loop at line {} proven independent, but the oracle \
                 found colliding pairs {pairs:?}",
                l.line
            );
        }
        Verdict::ProvenSome => {
            assert!(
                !pairs.is_empty(),
                "{ctx}: loop at line {} proven dependent ({:?}), but the \
                 oracle found no colliding pair",
                l.line,
                l.array_deps
            );
        }
        Verdict::Unknown => {}
    }
    for d in &l.array_deps {
        if let Some(k) = d.distance {
            assert!(
                pairs.iter().any(|(t1, t2)| t2 - t1 == k),
                "{ctx}: reported distance {k} for {:?}, oracle pairs {pairs:?}",
                d
            );
        }
    }
}

fn loop_at(report: &[LoopReport], line: u32) -> &LoopReport {
    report.iter().find(|l| l.line == line).expect("loop at the expected line")
}

/// Single counted loop, both subscripts affine in the induction variable —
/// exercises the ZIV / strong / weak-zero / weak-crossing / general SIV
/// solvers end to end.
#[test]
fn siv_verdicts_agree_with_brute_force() {
    let mut decisive = 0usize;
    for seed in 0..400u64 {
        let mut rng = Rng::new(0x5EED ^ seed);
        let lo = rng.range(0, 3);
        let hi = lo + rng.range(3, 13);
        let (cw, cr) = (rng.range(0, 3), rng.range(0, 3));
        let (ow, or) = (rng.range(-4, 5), rng.range(-4, 5));
        let in_bounds = |c: i64, o: i64| (lo..hi).all(|t| (0..SZ).contains(&(c * t + o)));
        if !in_bounds(cw, ow) || !in_bounds(cr, or) {
            continue;
        }
        let src = format!(
            "global a[{SZ}];\nglobal b[{SZ}];\nfn main() {{\n    for i in {lo}..{hi} {{\n        a[{}] = a[{}] + b[i];\n    }}\n}}",
            affine_src(cw, "i", ow),
            affine_src(cr, "i", or),
        );
        let ir = parpat_ir::compile(&src).unwrap();
        let report = analyze_ir(&ir);
        let l = loop_at(&report.loops, 4);
        if l.verdict != Verdict::Unknown {
            decisive += 1;
        }
        let iters: Vec<i64> = (lo..hi).collect();
        let pairs = forward_pairs(&iters, |t| vec![cw * t + ow], |t| vec![cr * t + or]);
        check(l, &pairs, &format!("seed {seed}:\n{src}"));
    }
    assert!(decisive >= 100, "only {decisive} decisive SIV cases — generator is broken");
}

/// Nested loop where both subscripts sweep the *inner* induction variable —
/// the symbolic same-window rule decides the outer loop, the affine path
/// the inner one.
#[test]
fn inner_sweep_verdicts_agree_with_brute_force() {
    let (mut outer_decisive, mut inner_decisive) = (0usize, 0usize);
    for seed in 0..300u64 {
        let mut rng = Rng::new(0xB0B ^ (seed << 1));
        let n = rng.range(2, 8);
        let j0 = rng.range(0, 3);
        let j1 = j0 + rng.range(1, 8);
        // Bias toward equal offsets: the symbolic rule only fires there.
        let ow = rng.range(0, 5);
        let or = if !rng.next().is_multiple_of(3) { ow } else { rng.range(0, 5) };
        let src = format!(
            "global a[{SZ}];\nfn main() {{\n    for i in 0..{n} {{\n        for j in {j0}..{j1} {{\n            a[{}] = a[{}] + i;\n        }}\n    }}\n}}",
            affine_src(1, "j", ow),
            affine_src(1, "j", or),
        );
        let ir = parpat_ir::compile(&src).unwrap();
        let report = analyze_ir(&ir);
        let ctx = format!("seed {seed}:\n{src}");

        // Outer loop: each iteration touches the whole inner window.
        let outer = loop_at(&report.loops, 3);
        if outer.verdict != Verdict::Unknown {
            outer_decisive += 1;
        }
        let iters: Vec<i64> = (0..n).collect();
        let window = |o: i64| (j0..j1).map(|j| j + o).collect::<Vec<i64>>();
        let pairs = forward_pairs(&iters, |_| window(ow), |_| window(or));
        check(outer, &pairs, &ctx);

        // Inner loop, per fixed outer iteration (the access sets do not
        // depend on `i`, so one representative instance suffices).
        let inner = loop_at(&report.loops, 4);
        if inner.verdict != Verdict::Unknown {
            inner_decisive += 1;
        }
        let jiters: Vec<i64> = (j0..j1).collect();
        let jpairs = forward_pairs(&jiters, |j| vec![j + ow], |j| vec![j + or]);
        check(inner, &jpairs, &ctx);
    }
    assert!(outer_decisive >= 50, "only {outer_decisive} decisive outer sweeps");
    assert!(inner_decisive >= 100, "only {inner_decisive} decisive inner sweeps");
}

/// Triangular nests (`for j in 0..i`) with one subscript on the outer and
/// one on the inner induction variable, in both orientations — exercises
/// the symbolic triangular forward/reverse rules.
#[test]
fn triangular_verdicts_agree_with_brute_force() {
    let mut decisive = 0usize;
    for seed in 0..300u64 {
        let mut rng = Rng::new(0x7A1A ^ (seed << 2));
        let n = rng.range(3, 10);
        let (co, ci) = (rng.range(0, 5), rng.range(0, 5));
        let write_outer = rng.next().is_multiple_of(2);
        let (wsub, rsub) = if write_outer {
            (affine_src(1, "i", co), affine_src(1, "j", ci))
        } else {
            (affine_src(1, "j", ci), affine_src(1, "i", co))
        };
        let src = format!(
            "global a[{SZ}];\nfn main() {{\n    for i in 1..{n} {{\n        for j in 0..i {{\n            a[{wsub}] = a[{rsub}] + 1;\n        }}\n    }}\n}}",
        );
        let ir = parpat_ir::compile(&src).unwrap();
        let report = analyze_ir(&ir);
        let ctx = format!("seed {seed}:\n{src}");

        let outer = loop_at(&report.loops, 3);
        if outer.verdict != Verdict::Unknown {
            decisive += 1;
        }
        let iters: Vec<i64> = (1..n).collect();
        let outer_set = |t: i64| vec![t + co];
        let inner_set = |t: i64| (0..t).map(|j| j + ci).collect::<Vec<i64>>();
        let pairs = if write_outer {
            forward_pairs(&iters, outer_set, inner_set)
        } else {
            forward_pairs(&iters, inner_set, outer_set)
        };
        check(outer, &pairs, &ctx);

        // Inner loop for each fixed `i`: the iteration space depends on
        // `i`, so every instance is its own oracle run.
        let inner = loop_at(&report.loops, 4);
        for t in 1..n {
            let jiters: Vec<i64> = (0..t).collect();
            let jpairs = if write_outer {
                forward_pairs(&jiters, |_| vec![t + co], |j| vec![j + ci])
            } else {
                forward_pairs(&jiters, |j| vec![j + ci], |_| vec![t + co])
            };
            check(inner, &jpairs, &format!("{ctx}\n(inner instance i = {t})"));
        }
    }
    assert!(decisive >= 50, "only {decisive} decisive triangular cases");
}
