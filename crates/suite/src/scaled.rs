//! Suite models at larger problem sizes.
//!
//! Each model fixes its problem size in integer literals (`global
//! board[8]`, `nqueens(0, 6)`). [`profile_models`] rewrites those literals,
//! which turns millisecond-scale suite programs into runs long enough to
//! time and to stress the dynamic analyses with hundreds of thousands of
//! instructions.

use crate::app_named;

/// Size literals of a model as `(literal, offset)`.
type Literals = &'static [(&'static str, i64)];

/// The scaled apps: each app's size literals as `(literal, offset)`, and
/// the size `n` that replaces every literal by `n + offset`. Each run
/// executes at least 2×10⁵ IR instructions.
const MODELS: [(&str, Literals, i64); 3] = [
    // Recursion: the board holds `n` queens and starts two cells larger.
    ("nqueens", &[("6", 0), ("8", 2)], 7),
    // Pipeline: the grid and its last index.
    ("reg_detect", &[("64", 0), ("63", -1)], 12288),
    // Nested loops: the matrix dimension.
    ("2mm", &[("10", 0)], 24),
];

/// The scaled models the profiler tests and benchmark use, as
/// `(name, source)`: nqueens (recursion), reg_detect (a pipeline) and 2mm
/// (nested loops).
pub fn profile_models() -> Vec<(&'static str, String)> {
    MODELS
        .iter()
        .map(|&(name, lits, n)| {
            let model = app_named(name).expect("scaled apps are suite apps").model;
            let subs: Vec<(&str, String)> =
                lits.iter().map(|&(lit, offset)| (lit, (n + offset).to_string())).collect();
            (name, replace_literals(model, &subs))
        })
        .collect()
}

/// Replace every standalone integer literal of `src` that equals a key of
/// `subs`. Digits inside identifiers (`x1`) and decimal fractions are left
/// alone.
fn replace_literals(src: &str, subs: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(src.len() + 16);
    let mut rest = src;
    while let Some(c) = rest.chars().next() {
        let mut before = out.chars().rev();
        let (p1, p2) = (before.next(), before.next());
        let in_word = p1.is_some_and(|p| p.is_alphanumeric() || p == '_');
        let in_fraction = p1 == Some('.') && p2.is_some_and(|p| p.is_ascii_digit());
        if c.is_ascii_digit() && !in_word && !in_fraction {
            let end = rest.find(|ch: char| !ch.is_ascii_digit()).unwrap_or(rest.len());
            let (lit, tail) = rest.split_at(end);
            let fraction = tail.len() > 1
                && tail.starts_with('.')
                && tail[1..].starts_with(|ch: char| ch.is_ascii_digit());
            match subs.iter().find(|(k, _)| *k == lit) {
                Some((_, v)) if !fraction => out.push_str(v),
                _ => out.push_str(lit),
            }
            rest = tail;
        } else {
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn literals_are_replaced_as_whole_tokens() {
        let subs = [("10", "24".to_owned())];
        assert_eq!(
            replace_literals("a[10] x10 110 1.10 10.5 0..10 10", &subs),
            "a[24] x10 110 1.10 10.5 0..24 24"
        );
    }

    #[test]
    fn scaled_models_compile_and_grow() {
        for (name, src) in profile_models() {
            let ir = parpat_ir::compile(&src).unwrap();
            let insts = parpat_ir::run(&ir, &mut parpat_ir::event::NullObserver).unwrap().insts;
            assert!(insts >= 200_000, "{name} runs only {insts} instructions");
        }
    }
}
