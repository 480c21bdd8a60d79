//! Randomized property tests over the core data structures and invariants:
//! front-end round trips, profiler conservation laws, simulator bounds, and
//! runtime-executor equivalence with sequential execution.
//!
//! Cases are generated with a seeded xorshift PRNG (std-only, no external
//! dependencies) so every run exercises the same deterministic family.

use parpat::core::{analyze_source, AnalysisConfig};
use parpat::minilang::genprog::xorshift64;
use parpat::minilang::{parser::parse, pretty::print_program};
use parpat::runtime::{parallel_reduce, parallel_sum};
use parpat::sim::{simulate, TaskGraph};

/// Seeded PRNG stepping the workspace's xorshift64*.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

// ---------------------------------------------------------------------------
// MiniLang front end
// ---------------------------------------------------------------------------

/// Generate a small well-formed MiniLang program as source text: one global
/// array, one function with a loop whose body is drawn from a set of
/// statement shapes.
fn gen_program(rng: &mut Rng) -> String {
    const SHAPES: [&str; 5] = [
        "a[i] = i * 2;",
        "a[i] = a[i] + 1;",
        "s += a[i];",
        "if i > 4 { a[i] = 0; }",
        "let t = a[i] * 3; a[i] = t;",
    ];
    let n_stmts = rng.range(1, 5) as usize;
    let body: String = (0..n_stmts)
        .map(|_| format!("        {}\n", SHAPES[rng.below(SHAPES.len() as u64) as usize]))
        .collect();
    let n = rng.range(2, 40);
    format!(
        "global a[64];\nfn main() {{\n    let s = 0;\n    for i in 0..{n} {{\n{body}    }}\n    return s;\n}}\n"
    )
}

/// Pretty-printing a parsed program and re-parsing it is a fixpoint.
#[test]
fn pretty_print_roundtrip() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..48 {
        let src = gen_program(&mut rng);
        let p1 = parse(&src).expect("template parses");
        let printed = print_program(&p1);
        let p2 = parse(&printed).expect("printed source parses");
        assert_eq!(print_program(&p2), printed, "program:\n{src}");
    }
}

/// Analysis never panics on the template family, and its profile satisfies
/// the conservation law: per-instruction counts sum to the total.
#[test]
fn analysis_conservation() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..48 {
        let src = gen_program(&mut rng);
        let a = analyze_source(&src, &AnalysisConfig::default()).expect("analyzes");
        assert_eq!(a.profile.inst_counts.iter().sum::<u64>(), a.profile.total_insts);
        // PET root holds every executed instruction.
        assert_eq!(a.pet.nodes[a.pet.root].inclusive_insts, a.pet.total_insts);
        assert_eq!(a.pet.total_insts, a.profile.total_insts);
    }
}

/// Loop classification is sound on the template: a loop classified do-all
/// has no carried RAW; a reduction loop has candidates.
#[test]
fn loop_classes_are_consistent() {
    let mut rng = Rng::new(0xDEAD);
    for _ in 0..48 {
        let src = gen_program(&mut rng);
        let a = analyze_source(&src, &AnalysisConfig::default()).expect("analyzes");
        for (&l, &class) in &a.loop_classes {
            match class {
                parpat::core::LoopClass::DoAll => {
                    assert!(!a.profile.has_carried_raw(l), "program:\n{src}");
                }
                parpat::core::LoopClass::Reduction => {
                    assert!(a.reductions.iter().any(|r| r.l == l), "program:\n{src}");
                }
                parpat::core::LoopClass::Sequential => {
                    assert!(a.profile.has_carried_raw(l), "program:\n{src}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// Random layered DAG: task `i` may only depend on tasks `< i`.
fn gen_graph(rng: &mut Rng) -> TaskGraph {
    let n = rng.range(1, 40) as usize;
    let mut g = TaskGraph::new();
    for i in 0..n {
        let cost = rng.range(1, 100) as f64;
        let deps: Vec<usize> = if i == 0 {
            vec![]
        } else {
            let mut d: Vec<usize> =
                (0..rng.below(3)).map(|_| rng.below(i as u64) as usize).collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        g.add(cost, deps);
    }
    g
}

/// Makespan is bracketed by the critical path and the sequential cost, and
/// never increases with more workers.
#[test]
fn simulator_bounds() {
    let mut rng = Rng::new(0xFACE);
    for _ in 0..64 {
        let g = gen_graph(&mut rng);
        let workers = rng.range(1, 16) as usize;
        let r = simulate(&g, workers, 0.0);
        assert!(r.makespan + 1e-9 >= g.critical_path());
        assert!(r.makespan <= g.sequential_cost() + 1e-9);
        let r_more = simulate(&g, workers + 4, 0.0);
        assert!(r_more.makespan <= r.makespan + 1e-9);
        // Work conservation: busy time equals total cost.
        let busy: f64 = r.worker_busy.iter().sum();
        assert!((busy - g.sequential_cost()).abs() < 1e-6);
    }
}

/// One worker means the makespan is exactly the sequential cost (plus
/// overheads).
#[test]
fn single_worker_is_sequential() {
    let mut rng = Rng::new(0xF00D);
    for _ in 0..64 {
        let g = gen_graph(&mut rng);
        let ov = rng.below(500) as f64 / 100.0;
        let r = simulate(&g, 1, ov);
        let expect = g.sequential_cost() + ov * g.tasks.len() as f64;
        assert!((r.makespan - expect).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Runtime executors
// ---------------------------------------------------------------------------

/// Parallel sum equals sequential sum for exact-integer-valued floats at
/// any thread count.
#[test]
fn parallel_sum_matches_sequential() {
    let mut rng = Rng::new(0xABCD);
    for _ in 0..24 {
        let len = rng.below(500) as usize;
        let data: Vec<f64> = (0..len).map(|_| rng.below(1000) as f64).collect();
        let threads = rng.range(1, 6) as usize;
        let seq: f64 = data.iter().sum();
        let par = parallel_sum(threads, data.len(), |i| data[i]);
        assert_eq!(par, seq);
    }
}

/// Parallel max equals sequential max.
#[test]
fn parallel_max_matches_sequential() {
    let mut rng = Rng::new(0x1234);
    for _ in 0..24 {
        let len = rng.range(1, 300) as usize;
        let data: Vec<f64> = (0..len).map(|_| rng.next() as i32 as f64).collect();
        let threads = rng.range(1, 6) as usize;
        let seq = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let par = parallel_reduce(
            threads,
            data.len(),
            f64::NEG_INFINITY,
            |i| data[i],
            f64::max,
            f64::max,
        );
        assert_eq!(par, seq);
    }
}
