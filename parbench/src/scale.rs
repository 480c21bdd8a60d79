//! Scaling the bundled suite models to a target dynamic instruction count.
//!
//! Each model fixes its problem size in integer literals (`global A[20][20]`,
//! `for i in 0..20`, `kernel_bicg(20)`). The scaler rewrites those literals
//! to a size `N` and picks the smallest `N` at or above the model's own
//! whose bare interpreted run executes at least the target number of IR
//! instructions. It never shrinks a model.

use parpat_ir::event::NullObserver;
use parpat_ir::interp::ExecLimits;

/// How one app's problem size maps onto its model's literals.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Each literal is replaced by `N * mul + add`; `N` starts at the
    /// first literal's value.
    pub lits: &'static [(&'static str, i64, i64)],
    /// Source fragments left as they are.
    pub keep: &'static [&'static str],
    /// Sizes are the model's own doubled `k` times.
    pub pow2: bool,
}

const fn linear(lits: &'static [(&'static str, i64, i64)]) -> Rule {
    Rule { lits, keep: &[], pow2: false }
}

/// The size rule of every suite app.
pub fn rule(app: &str) -> Option<Rule> {
    Some(match app {
        "bicg" | "gesummv" | "mvt" => linear(&[("20", 1, 0)]),
        "correlation" | "fdtd-2d" => linear(&[("24", 1, 0)]),
        "fib" => linear(&[("14", 1, 0)]),
        // Cells and particles (20 per cell) grow; the per-cell neighbour
        // loop keeps its width, so both loops of the pipeline keep their
        // share of the run.
        "fluidanimate" => {
            Rule { lits: &[("40", 1, 0), ("800", 20, 0)], keep: &["for k in 0..40"], pow2: false }
        }
        "kmeans" | "sort" | "streamcluster" => linear(&[("64", 1, 0)]),
        "ludcmp" => linear(&[("48", 1, 0)]),
        // The board must hold `n` queens; it starts two cells larger.
        "nqueens" => linear(&[("6", 1, 0), ("8", 1, 2)]),
        "reg_detect" => linear(&[("64", 1, 0), ("63", 1, -1)]),
        "rot-cc" => linear(&[("256", 1, 0), ("255", 1, -1)]),
        // Strassen recursion splits evenly only on powers of two.
        "strassen" => Rule { lits: &[("512", 1, 0)], keep: &[], pow2: true },
        "2mm" | "3mm" => linear(&[("10", 1, 0)]),
        _ => return None,
    })
}

/// Replace every standalone integer literal equal to one of `subs`' keys.
/// Digits that are part of an identifier (`x1`) or of a decimal fraction
/// are left alone.
pub fn replace_literals(src: &str, subs: &[(&str, String)]) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len() + 16);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let prev = |k: usize| (i >= k).then(|| bytes[i - k]);
        let in_word = prev(1).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
        let in_fraction = prev(1) == Some(b'.') && prev(2).is_some_and(|b| b.is_ascii_digit());
        let starts_token = !in_word && !in_fraction;
        if c.is_ascii_digit() && starts_token {
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let is_fraction =
                j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit();
            let lit = &src[i..j];
            match subs.iter().find(|(k, _)| *k == lit) {
                Some((_, v)) if !is_fraction => out.push_str(v),
                _ => out.push_str(lit),
            }
            i = j;
        } else {
            let ch = src[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// The model rewritten for size `n`.
pub fn at_size(model: &str, rule: &Rule, n: i64) -> String {
    let subs: Vec<(&str, String)> =
        rule.lits.iter().map(|&(lit, mul, add)| (lit, (n * mul + add).to_string())).collect();
    let mut out = String::with_capacity(model.len() + 16);
    let mut rest = model;
    while let Some((at, keep)) =
        rule.keep.iter().filter_map(|k| rest.find(k).map(|at| (at, *k))).min()
    {
        out.push_str(&replace_literals(&rest[..at], &subs));
        out.push_str(keep);
        rest = &rest[at + keep.len()..];
    }
    out.push_str(&replace_literals(rest, &subs));
    out
}

/// IR instructions a bare (unobserved) run of `src` executes.
pub fn bare_insts(src: &str) -> Result<u64, String> {
    let ir = parpat_ir::compile(src).map_err(|e| e.to_string())?;
    parpat_ir::interp::run_with_limits(&ir, &mut NullObserver, ExecLimits::default())
        .map(|o| o.insts)
        .map_err(|e| e.to_string())
}

/// One scaled model.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaled {
    /// App name.
    pub name: String,
    /// Scaled source.
    pub source: String,
    /// The problem size chosen.
    pub n: i64,
    /// IR instructions of a bare run at that size.
    pub insts: u64,
}

/// Scale `model` of `app` to the smallest size at or above its own whose
/// bare run executes at least `target` instructions.
pub fn scale(app: &str, model: &str, target: u64) -> Result<Scaled, String> {
    let rule = rule(app).ok_or_else(|| format!("no size rule for `{app}`"))?;
    let n0: i64 = rule.lits[0].0.parse().expect("size literal is an integer");
    let probe = |n: i64| bare_insts(&at_size(model, &rule, n));
    let done = |n: i64, insts: u64| Scaled {
        name: app.to_owned(),
        source: at_size(model, &rule, n),
        n,
        insts,
    };

    let base = probe(n0)?;
    if base >= target {
        return Ok(done(n0, base));
    }
    // Grow geometrically until the target is reached, then bisect for the
    // smallest size that reaches it (`hi` always reaches it).
    let (mut lo, mut hi) = (n0, n0);
    let mut hi_insts = base;
    while hi_insts < target {
        lo = hi;
        hi = if rule.pow2 { hi * 2 } else { hi + hi / 2 + 1 };
        if hi > 1 << 24 {
            return Err(format!("`{app}` does not reach {target} instructions"));
        }
        hi_insts = probe(hi)?;
    }
    while !rule.pow2 && hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let m = probe(mid)?;
        if m >= target {
            hi = mid;
            hi_insts = m;
        } else {
            lo = mid;
        }
    }
    Ok(done(hi, hi_insts))
}

/// Per-app instruction targets for a seed: `base` raised by a seeded
/// 0–5 % jitter, so every seed draws a slightly different suite.
pub fn targets(seed: u64, base: u64, apps: usize) -> Vec<u64> {
    let mut s = seed ^ 0x5ca1_ab1e_0000_0001;
    (0..apps)
        .map(|_| {
            let r = parpat_minilang::genprog::xorshift64(&mut s);
            base + base * (r % 5001) / 100_000
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_replace_whole_tokens_only() {
        let src = "global x1[20];\nfn f() { for i in 0..20 { x1[i] = 120 + 2.20; } }";
        let out = replace_literals(src, &[("20", "33".to_owned())]);
        assert_eq!(out, "global x1[33];\nfn f() { for i in 0..33 { x1[i] = 120 + 2.20; } }");
    }

    #[test]
    fn every_suite_app_has_a_rule_whose_literals_occur_in_its_model() {
        for app in parpat_suite::all_apps() {
            let rule = rule(app.name).unwrap_or_else(|| panic!("{}", app.name));
            let n0: i64 = rule.lits[0].0.parse().unwrap();
            assert_eq!(
                at_size(app.model, &rule, n0),
                app.model,
                "{}: identity at own size",
                app.name
            );
            assert_ne!(at_size(app.model, &rule, n0 + 1), app.model, "{}", app.name);
            for keep in rule.keep {
                assert!(at_size(app.model, &rule, 2 * n0).contains(keep), "{}", app.name);
            }
        }
    }

    #[test]
    fn scaler_reaches_its_target_with_the_smallest_size() {
        for name in ["bicg", "fib", "rot-cc", "nqueens", "fluidanimate", "strassen"] {
            let app = parpat_suite::app_named(name).unwrap();
            let target = 60_000;
            let s = scale(name, app.model, target).unwrap();
            assert!(s.insts >= target, "{name}: {} < {target}", s.insts);
            assert_eq!(bare_insts(&s.source).unwrap(), s.insts);
            let rule = rule(name).unwrap();
            let smaller = if rule.pow2 { s.n / 2 } else { s.n - 1 };
            let below = bare_insts(&at_size(app.model, &rule, smaller)).unwrap();
            assert!(below < target, "{name}: size {smaller} already reaches the target");
            // The scaled program still analyzes cleanly.
            parpat_core::analyze_source(&s.source, &Default::default()).unwrap();
        }
    }

    #[test]
    fn scaling_is_deterministic_per_seed() {
        assert_eq!(targets(7, 1_000_000, 17), targets(7, 1_000_000, 17));
        assert_ne!(targets(7, 1_000_000, 17), targets(8, 1_000_000, 17));
        assert!(targets(9, 1_000_000, 17).iter().all(|&t| (1_000_000..=1_050_000).contains(&t)));
        let app = parpat_suite::app_named("mvt").unwrap();
        let t = targets(7, 40_000, 1)[0];
        assert_eq!(scale("mvt", app.model, t).unwrap(), scale("mvt", app.model, t).unwrap());
    }

    #[test]
    fn never_shrinks_a_model() {
        let app = parpat_suite::app_named("ludcmp").unwrap();
        let s = scale("ludcmp", app.model, 1).unwrap();
        assert_eq!((s.n, s.source.as_str()), (48, app.model));
    }
}
