//! Randomized test: the dependence profiler against a straight-line oracle.
//!
//! Random straight-line programs over one array are generated with a seeded
//! xorshift PRNG; a simple reference oracle computes the expected
//! RAW/WAR/WAW dependence pairs between statement indices by replaying the
//! accesses; the profiler's output (projected onto statement-level
//! store/load instructions) must match exactly.

use std::collections::HashSet;

use parpat_ir::{compile, InstKind};
use parpat_minilang::genprog::xorshift64;
use parpat_profile::{profile, DepKind};

/// Seeded PRNG stepping the workspace's xorshift64*.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One generated statement: either `a[dst] = a[src] + 1;` or `a[dst] = k;`.
#[derive(Debug, Clone, Copy)]
enum Stmt {
    Copy { dst: usize, src: usize },
    Set { dst: usize },
}

fn gen_stmts(rng: &mut Rng) -> Vec<Stmt> {
    let n = 1 + rng.below(13) as usize;
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                Stmt::Copy { dst: rng.below(6) as usize, src: rng.below(6) as usize }
            } else {
                Stmt::Set { dst: rng.below(6) as usize }
            }
        })
        .collect()
}

fn to_source(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    for s in stmts {
        match s {
            Stmt::Copy { dst, src } => {
                body.push_str(&format!("    a[{dst}] = a[{src}] + 1;\n"));
            }
            Stmt::Set { dst } => {
                body.push_str(&format!("    a[{dst}] = 5;\n"));
            }
        }
    }
    format!("global a[6];\nfn main() {{\n{body}}}\n")
}

/// Replay the statements and collect expected dependences as
/// (src statement index, sink statement index, kind).
fn oracle(stmts: &[Stmt]) -> HashSet<(usize, usize, DepKind)> {
    let mut last_write: [Option<usize>; 6] = [None; 6];
    let mut last_read: [Option<usize>; 6] = [None; 6];
    let mut deps = HashSet::new();
    for (i, s) in stmts.iter().enumerate() {
        // Reads happen before the write of the same statement.
        if let Stmt::Copy { src, .. } = s {
            if let Some(w) = last_write[*src] {
                deps.insert((w, i, DepKind::Raw));
            }
            last_read[*src] = Some(i);
        }
        let dst = match s {
            Stmt::Copy { dst, .. } | Stmt::Set { dst } => *dst,
        };
        if let Some(r) = last_read[dst].take() {
            deps.insert((r, i, DepKind::War));
        }
        if let Some(w) = last_write[dst] {
            deps.insert((w, i, DepKind::Waw));
        }
        last_write[dst] = Some(i);
    }
    deps
}

#[test]
fn profiler_matches_straight_line_oracle() {
    let mut rng = Rng::new(0x0FAC1E5);
    for _ in 0..64 {
        let stmts = gen_stmts(&mut rng);
        let src = to_source(&stmts);
        let ir = compile(&src).expect("generated program compiles");
        let data = profile(&ir).expect("profiles");

        // Map array access instructions to statement indices via source
        // lines: statement k sits on line k + 3 (global, fn, then body).
        let stmt_of = |inst: u32| -> Option<usize> {
            let meta = &ir.insts[inst as usize];
            match meta.kind {
                InstKind::LoadArray(_) | InstKind::StoreArray(_) => Some(meta.line as usize - 3),
                _ => None,
            }
        };

        let mut got: HashSet<(usize, usize, DepKind)> = HashSet::new();
        for d in &data.deps {
            if let (Some(s), Some(t)) = (stmt_of(d.src), stmt_of(d.sink)) {
                got.insert((s, t, d.kind));
            }
        }
        let expected = oracle(&stmts);
        assert_eq!(got, expected, "program:\n{src}");
    }
}

/// The WAR shadow is consumed by the next write, so a chain
/// write→read→write→read yields exactly one WAR per read-write pair — and
/// no dependence is ever reported twice with different endpoints for
/// straight-line code.
#[test]
fn straight_line_deps_are_intra() {
    let mut rng = Rng::new(0x0FAC1E6);
    for _ in 0..64 {
        let stmts = gen_stmts(&mut rng);
        let src = to_source(&stmts);
        let ir = compile(&src).expect("compiles");
        let data = profile(&ir).expect("profiles");
        for d in &data.deps {
            assert_eq!(
                d.site,
                parpat_profile::DepSite::Intra,
                "no loops: every dependence is intra"
            );
        }
    }
}
