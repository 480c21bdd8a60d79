//! Profile-stage benchmark: the layers of `parpat_core::profile_ir` in
//! M IR-instructions per second, on the bundled suite and on the scaled
//! suite models of `parpat_suite::scaled`. Emits `BENCH_profile.json` at
//! the repo root.
//!
//! Rows, each one interpreter run of the program's `main`:
//!
//! - `interp`: the bare interpreter (`NullObserver`);
//! - `profiler`: interpreter + `DependenceProfiler` (+ `into_data`);
//! - `pet`: interpreter + `PetBuilder` (+ `into_pet`);
//! - `oracle`: the reference AST evaluator the engine's differential
//!   oracle runs (`evaluate_with_limits`), rated by the IR instructions of
//!   the same program;
//! - `profile_ir`: the engine's profile stage (profiler and PET builder
//!   teed onto one run);
//! - `reference`: interpreter + the reference profiler the optimized one
//!   is differentially tested against.
//!
//! Each row's output is dropped after its clock stops. Rows run in the
//! phases of [`PHASES`]; rates are medians, and ratios are medians of
//! per-repetition ratios. The bench asserts that the profiler's geomean
//! overhead over the bare interpreter on the scaled models stays within
//! [`OVERHEAD_BOUND`].

use std::any::Any;
use std::hint::black_box;
use std::time::Instant;

use parpat_core::AnalysisConfig;
use parpat_ir::event::NullObserver;
use parpat_ir::interp::{run_function, ExecLimits};
use parpat_ir::IrProgram;
use parpat_minilang::ast::Program;
use parpat_profile::reference::ReferenceProfiler;
use parpat_profile::{DependenceProfiler, ProfilerCounters};

/// Timed runs per row; each row reports its median.
const REPS: usize = 15;
/// Largest accepted geomean of `profiler` time over `interp` time on the
/// scaled models.
const OVERHEAD_BOUND: f64 = 4.0;

const ROWS: [&str; 6] = ["interp", "profiler", "pet", "oracle", "profile_ir", "reference"];

/// Rows timed together, interleaved within each repetition so that drift
/// in machine load spreads over all of them. The reference profiler gets a
/// phase of its own: it allocates an `Rc` slice per loop iteration and a
/// hash-map entry per address, and the allocator state it leaves behind
/// slows whichever row runs next. Its phase repeats `profile_ir`, so the
/// two are compared under the same conditions.
const PHASES: [&[&str]; 2] =
    [&["interp", "profiler", "pet", "oracle", "profile_ir"], &["profile_ir", "reference"]];

struct Prog {
    ast: Program,
    ir: IrProgram,
}

impl Prog {
    fn new(src: &str) -> Self {
        let ast = parpat_minilang::parse_checked(src).expect("model parses");
        let ir = parpat_ir::lower(&ast);
        Prog { ast, ir }
    }

    /// One run of `row`, returning its output so that the caller can
    /// drop it outside the timed region: in the engine a profile lives in
    /// the artifact cache, and its drop is not part of producing it.
    fn run(&self, row: &str, limits: ExecLimits) -> Box<dyn Any> {
        let ir = &self.ir;
        let entry = ir.entry.expect("model has main");
        match row {
            "interp" => {
                Box::new(run_function(ir, entry, &[], &mut NullObserver, limits).expect("runs"))
            }
            "profiler" => {
                let mut p = DependenceProfiler::new(ir);
                run_function(ir, entry, &[], &mut p, limits).expect("runs");
                Box::new(p.into_data())
            }
            "pet" => {
                let mut b = parpat_pet::PetBuilder::new();
                run_function(ir, entry, &[], &mut b, limits).expect("runs");
                Box::new(b.into_pet())
            }
            "oracle" => {
                let eval = parpat_minilang::EvalLimits {
                    max_steps: limits.max_insts.saturating_mul(4),
                    max_call_depth: limits.max_call_depth,
                };
                Box::new(parpat_minilang::evaluate_with_limits(&self.ast, eval).expect("runs"))
            }
            "profile_ir" => Box::new(parpat_core::profile_ir(ir, limits).expect("runs")),
            "reference" => {
                let mut p = ReferenceProfiler::new(ir);
                run_function(ir, entry, &[], &mut p, limits).expect("runs");
                Box::new(p.into_data())
            }
            other => unreachable!("unknown row {other}"),
        }
    }
}

/// One measured program (or program set): instructions per pass, seconds
/// per phase, row and repetition, and the profiler's counters.
struct Measured {
    name: String,
    insts: u64,
    samples: Vec<Vec<Vec<f64>>>,
    counters: ProfilerCounters,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

impl Measured {
    /// The times of `row` in `phase`.
    fn times(&self, phase: usize, row: &str) -> &[f64] {
        let i = PHASES[phase].iter().position(|r| *r == row).expect("row in phase");
        &self.samples[phase][i]
    }

    /// Median rate of `row`, timed in the first phase that has it.
    fn minsts_per_s(&self, row: &str) -> f64 {
        let phase = PHASES.iter().position(|p| p.contains(&row)).expect("known row");
        self.insts as f64 / median(self.times(phase, row).to_vec()) / 1e6
    }

    /// Median over repetitions of `slow`'s time over `fast`'s: the two
    /// rows of one repetition ran back to back under the same load.
    fn ratio(&self, phase: usize, slow: &str, fast: &str) -> f64 {
        let (s, f) = (self.times(phase, slow), self.times(phase, fast));
        median(s.iter().zip(f).map(|(s, f)| s / f).collect())
    }

    /// The profiler's time over the bare interpreter's.
    fn overhead(&self) -> f64 {
        self.ratio(0, "profiler", "interp")
    }

    /// The reference profiler's time over the profile stage's.
    fn vs_reference(&self) -> f64 {
        self.ratio(1, "reference", "profile_ir")
    }

    fn json(&self) -> String {
        let rates: Vec<String> =
            ROWS.iter().map(|r| format!("\"{r}\": {:.3}", self.minsts_per_s(r))).collect();
        let c = &self.counters;
        format!(
            "{{\"name\": \"{}\", \"insts\": {}, \"minsts_per_s\": {{{}}}, \
             \"overhead_x\": {:.3}, \"profile_ir_vs_reference_x\": {:.3}, \
             \"counters\": {{\"accesses\": {}, \"shadow_cells\": {}, \"context_nodes\": {}, \
             \"dep_inserts\": {}, \"distinct_deps\": {}}}}}",
            self.name,
            self.insts,
            rates.join(", "),
            self.overhead(),
            self.vs_reference(),
            c.accesses,
            c.shadow_cells,
            c.context_nodes,
            c.dep_inserts,
            c.distinct_deps,
        )
    }
}

/// Measure every row over `progs` (one pass = each program once).
fn measure(name: &str, progs: &[Prog], limits: ExecLimits) -> Measured {
    let mut insts = 0;
    let mut counters = ProfilerCounters::default();
    for p in progs {
        let entry = p.ir.entry.expect("model has main");
        let mut prof = DependenceProfiler::new(&p.ir);
        insts += run_function(&p.ir, entry, &[], &mut prof, limits).expect("runs").insts;
        let c = prof.counters();
        counters.accesses += c.accesses;
        counters.shadow_cells += c.shadow_cells;
        counters.context_nodes += c.context_nodes;
        counters.dep_inserts += c.dep_inserts;
        counters.distinct_deps += c.distinct_deps;
    }
    let samples = PHASES
        .iter()
        .map(|rows| {
            let mut samples = vec![Vec::with_capacity(REPS); rows.len()];
            for _ in 0..REPS {
                for (row, out) in rows.iter().zip(&mut samples) {
                    let t = Instant::now();
                    let outputs: Vec<Box<dyn Any>> =
                        progs.iter().map(|p| p.run(row, limits)).collect();
                    out.push(t.elapsed().as_secs_f64());
                    drop(black_box(outputs));
                }
            }
            samples
        })
        .collect();
    let m = Measured { name: name.to_owned(), insts, samples, counters };
    let rates: Vec<String> = ROWS.iter().map(|r| format!("{r} {:.2}", m.minsts_per_s(r))).collect();
    println!(
        "profile/{name:<18} {insts:>9} insts  M inst/s: {}  overhead {:.2}x  vs reference {:.2}x",
        rates.join("  "),
        m.overhead(),
        m.vs_reference(),
    );
    m
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

fn main() {
    let limits = AnalysisConfig::default().limits;
    let suite: Vec<Prog> = parpat_suite::all_apps().iter().map(|a| Prog::new(a.model)).collect();
    let mut measured = vec![measure("suite", &suite, limits)];
    for (name, src) in parpat_suite::scaled::profile_models() {
        measured.push(measure(&format!("{name}-scaled"), &[Prog::new(&src)], limits));
    }
    let scaled = &measured[1..];
    let overhead = geomean(scaled.iter().map(Measured::overhead));
    let vs_reference = geomean(scaled.iter().map(Measured::vs_reference));
    println!(
        "profile/scaled geomean: profiler overhead {overhead:.2}x over interp (bound \
         {OVERHEAD_BOUND}x), profile_ir {vs_reference:.2}x the reference profiler"
    );

    let rows: Vec<String> = measured.iter().map(Measured::json).collect();
    let json = format!(
        "{{\"reps\": {REPS}, \"overhead_bound_x\": {OVERHEAD_BOUND:.1}, \
         \"scaled_geomean\": {{\"overhead_x\": {overhead:.3}, \
         \"profile_ir_vs_reference_x\": {vs_reference:.3}}}, \"programs\": [{}]}}\n",
        rows.join(", ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_profile.json");
    std::fs::write(&out, json).expect("write BENCH_profile.json");
    println!("profile/report         {}", out.display());

    assert!(
        overhead <= OVERHEAD_BOUND,
        "profiler overhead over the bare interpreter is {overhead:.2}x on the scaled models \
         (geomean), above the {OVERHEAD_BOUND}x bound"
    );
}
