//! The two batch workloads.
//!
//! `scaled-suite-cold` runs the 17 suite models raised to about a million
//! IR instructions each, cold, with the in-memory cache only: the one
//! workload where the profile stage dominates. `genprog-disk` runs a
//! seeded corpus of small generated programs cold over a fresh run
//! directory (journal and cache disk tier on), then again from a fresh
//! engine over the same directory: front end, static analysis, journal
//! appends and cache disk-tier I/O dominate, and about a third of the programs
//! fault by construction and take the degraded path. The run directory
//! lives in [`MemFs`], so no filesystem's own costs enter the figures.

use std::sync::Arc;
use std::time::Instant;

use parpat_engine::{BatchInput, BatchReport, Vfs};
use parpat_suite::ExpectedPattern;

use crate::common::{self, Ctx, Metrics, Tally};
use crate::memfs::MemFs;
use crate::stats;

/// Instructions each scaled model is raised to (before the seeded jitter).
pub const SCALED_TARGET_INSTS: u64 = 1_000_000;
/// Programs in the generated corpus.
pub const GENPROG_PROGRAMS: u64 = 600;
/// The latency distribution holds the per-program latencies of the first
/// passes: enough to reach this many samples, but at most
/// [`LATENCY_PASSES_MAX`]. The sample count is thus fixed per workload, and
/// so is the tail percentile taken from it. A run makes at least that many
/// passes; the other figures are medians over all of them.
const LATENCY_SAMPLES: usize = 3000;
const LATENCY_PASSES_MAX: usize = 5;
/// Workloads with at least this many programs report each program's
/// median latency over the latency passes, so that one hiccup does not
/// make a program slow; smaller ones pool every latency of those passes,
/// as their tail needs ten samples beyond it.
const PER_PROGRAM_MEDIANS_FROM: usize = 100;
/// The in-memory workload's warm rerun takes about a tenth of a
/// millisecond: each sample is the mean of this many back-to-back reruns,
/// and each pass takes three samples.
const WARM_RERUNS: usize = 30;

/// What a program's outcome must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Ok`, and the detected patterns include the paper's Table III one.
    Pattern(ExpectedPattern),
    /// `Ok` (the reference evaluator finished).
    Ok,
    /// `Degraded` (the reference evaluator faulted).
    Degraded,
}

/// A batch workload: its inputs, their expected outcomes, and whether it
/// runs over a run directory on disk.
pub struct BatchWorkload {
    /// Inputs in batch order.
    pub inputs: Vec<BatchInput>,
    /// Expected outcome per input.
    pub expect: Vec<Expect>,
    /// Journal and cache disk tier on.
    pub disk: bool,
}

/// The suite scaled to [`SCALED_TARGET_INSTS`] (seeded jitter per app).
pub fn scaled_suite(seed: u64, jobs: usize) -> BatchWorkload {
    let apps = parpat_suite::all_apps();
    let targets = crate::scale::targets(seed, SCALED_TARGET_INSTS, apps.len());
    let scaled: Vec<crate::scale::Scaled> = std::thread::scope(|s| {
        let chunks: Vec<_> = (0..jobs.max(1))
            .map(|w| {
                let apps = &apps;
                let targets = &targets;
                s.spawn(move || {
                    (w..apps.len())
                        .step_by(jobs.max(1))
                        .map(|i| {
                            let a = &apps[i];
                            (i, crate::scale::scale(a.name, a.model, targets[i]).expect("scalable"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> = chunks.into_iter().flat_map(|h| h.join().expect("scaler")).collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| s).collect()
    });
    for s in &scaled {
        println!("# scaled {:<14} N={:<6} {:>9} bare insts", s.name, s.n, s.insts);
    }
    BatchWorkload {
        inputs: scaled
            .iter()
            .map(|s| BatchInput { name: s.name.clone(), source: s.source.clone() })
            .collect(),
        expect: apps.iter().map(|a| Expect::Pattern(a.expected)).collect(),
        disk: false,
    }
}

/// The generated corpus for `seed`, with each program's expected status
/// taken from the AST reference evaluator.
pub fn genprog_corpus(seed: u64) -> BatchWorkload {
    let base = seed.wrapping_mul(1_000_003);
    let limits = parpat_ir::interp::ExecLimits::default();
    let eval = parpat_minilang::EvalLimits {
        max_steps: limits.max_insts.saturating_mul(4),
        max_call_depth: limits.max_call_depth,
    };
    let mut inputs = Vec::new();
    let mut expect = Vec::new();
    for i in 0..GENPROG_PROGRAMS {
        let source = parpat_minilang::genprog::generate(base.wrapping_add(i));
        let ast = parpat_minilang::parse_checked(&source).expect("generated programs check");
        expect.push(match parpat_minilang::evaluate_with_limits(&ast, eval) {
            Ok(_) => Expect::Ok,
            Err(e) if !e.is_budget() => Expect::Degraded,
            Err(e) => panic!("generated program exhausts the evaluator budget: {e}"),
        });
        inputs.push(BatchInput { name: format!("gen{i:04}"), source });
    }
    let degraded = expect.iter().filter(|e| **e == Expect::Degraded).count();
    println!("# genprog: {} programs, {degraded} fault by construction", inputs.len());
    BatchWorkload { inputs, expect, disk: true }
}

/// Checks every pass as it is recorded: each program's status against
/// its expectation and its rendered outcome against the first pass's.
/// Only the first pass is kept (its report for the pattern check, its
/// renderings for comparison), so the checker's memory does not grow with
/// the number of passes.
pub struct Checker<'a> {
    wl: &'a BatchWorkload,
    /// The first report (kept for the pattern check).
    first: Option<BatchReport>,
    /// Each program's outcome rendering in the first pass.
    reference: Vec<String>,
    /// Checks made so far.
    tally: Tally,
}

impl<'a> Checker<'a> {
    /// A checker for `wl`.
    pub fn new(wl: &'a BatchWorkload) -> Self {
        Checker { wl, first: None, reference: Vec::new(), tally: Tally::default() }
    }

    /// Check a pass's outcomes; the first pass becomes the reference.
    pub fn record(&mut self, report: BatchReport, what: &'static str) {
        let wl = self.wl;
        let first = self.first.is_none();
        for (i, o) in report.outcomes.iter().enumerate() {
            let text = common::outcome_text(&o.outcome);
            let status_ok = match wl.expect[i] {
                Expect::Pattern(_) | Expect::Ok => text.starts_with("ok "),
                Expect::Degraded => text.starts_with("degraded "),
            };
            let same = first || text == self.reference[i];
            self.tally.check(status_ok && same, || {
                format!(
                    "{what}: {}: expected {:?}, got {}{}",
                    wl.inputs[i].name,
                    wl.expect[i],
                    text.chars().take(100).collect::<String>(),
                    if same { "" } else { " (differs from the first pass)" }
                )
            });
            if first {
                self.reference.push(text);
            }
        }
        if first {
            self.first = Some(report);
        }
    }

    /// Add the checks made so far to `tally`, then run the scaled suite's
    /// pattern and summary check, once per program, against analyses
    /// built outside the engine.
    pub fn finish(self, tally: &mut Tally, jobs: usize) {
        tally.attempted += self.tally.attempted;
        tally.failed += self.tally.failed;
        tally.reasons.extend(self.tally.reasons);
        let wl = self.wl;
        let Some(first) = &self.first else { return };
        if !wl.expect.iter().any(|e| matches!(e, Expect::Pattern(_))) {
            return;
        }
        let pattern: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs.max(1))
                .map(|w| {
                    s.spawn(move || {
                        (w..wl.inputs.len())
                            .step_by(jobs.max(1))
                            .map(|i| (i, pattern_check(&wl.inputs[i], wl.expect[i], first, i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<_> =
                handles.into_iter().flat_map(|h| h.join().expect("pattern check")).collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, r)| r).collect()
        });
        for (i, r) in pattern.iter().enumerate() {
            if let Err(why) = r {
                println!("# DEPARTS {}: {why}", wl.inputs[i].name);
            }
            tally.check(r.is_ok(), || format!("{}: pattern or summary check", wl.inputs[i].name));
        }
    }
}

/// `Ok` when the program's detected patterns include `expect` and the
/// engine's summary equals that of an analysis built outside the engine.
fn pattern_check(
    input: &BatchInput,
    expect: Expect,
    report: &BatchReport,
    i: usize,
) -> Result<(), String> {
    let Expect::Pattern(want) = expect else { return Ok(()) };
    let analysis = parpat_core::analyze_source(&input.source, &Default::default())
        .map_err(|e| format!("reference analysis failed: {e}"))?;
    let found = parpat_bench::tables::detected_patterns(&analysis);
    if !found.contains(&want) {
        return Err(format!("detected {found:?}, paper Table III says {want:?}"));
    }
    match report.outcomes[i].outcome.report() {
        Some(r) if r.summary == analysis.summary() => Ok(()),
        Some(_) => Err("engine summary differs from the reference analysis".into()),
        None => Err("engine did not report".into()),
    }
}

/// The timed run of a batch workload.
pub fn timed(ctx: &Ctx, wl: &BatchWorkload) -> (Tally, Metrics) {
    let n = wl.inputs.len() as f64;
    let mut checker = Checker::new(wl);
    let (mut setup, mut walls, mut reruns, mut rates, mut minsts, mut lat) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let latency_passes = LATENCY_SAMPLES.div_ceil(wl.inputs.len()).clamp(1, LATENCY_PASSES_MAX);
    let start = Instant::now();
    let mut last_pass = 0.0;
    while walls.len() < latency_passes || ctx.remaining(start) > last_pass {
        let pass_start = Instant::now();
        let dir = wl.disk.then(|| ctx.dir.join("run"));
        let vfs: Arc<dyn Vfs> = Arc::new(MemFs::new());
        let (engine, s) = common::setup_engine(dir.clone(), Arc::clone(&vfs), ctx.jobs);
        setup.push(s);
        let (wall, report) = common::timed_batch(&engine, &wl.inputs, ctx.jobs);
        walls.push(wall);
        rates.push(n / wall);
        minsts.push(common::report_insts(&report) as f64 / wall / 1e6);
        if walls.len() <= latency_passes {
            lat.push(common::program_latencies_ms(&report).collect::<Vec<f64>>());
        }
        let rerun = if wl.disk {
            // A fresh engine over the same run directory: the disk tier is
            // what survives between the two passes.
            drop(engine);
            let again = common::batch_engine(dir, vfs);
            let (w, r) = common::timed_batch(&again, &wl.inputs, ctx.jobs);
            checker.record(r, "rerun");
            w
        } else {
            // The same engine again: its memory cache is what survives.
            let mut ws = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let reports: Vec<BatchReport> =
                    (0..WARM_RERUNS).map(|_| engine.batch(wl.inputs.clone(), ctx.jobs)).collect();
                ws.push(t.elapsed().as_secs_f64() / WARM_RERUNS as f64);
                for r in reports {
                    checker.record(r, "rerun");
                }
            }
            stats::median(&ws)
        };
        reruns.push(rerun);
        println!("# pass {}: setup {s:.4} s, batch {wall:.4} s, rerun {rerun:.4} s", walls.len());
        checker.record(report, "cold pass");
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    let rss = stats::peak_rss_mb();
    let mut tally = Tally::default();
    checker.finish(&mut tally, ctx.jobs);
    let lat = latency_samples(&lat);
    let tail = stats::tail(&lat).expect("enough per-program samples");
    let m = common::end_to_end([
        stats::median(&setup),
        stats::median(&walls),
        stats::median(&rates),
        stats::median(&minsts),
        stats::median(&reruns),
        stats::median(&lat),
        tail.value,
        rss,
    ]);
    println!(
        "# {} passes of {} programs; req_tail_ms is p{} of {} latencies ({} beyond)",
        walls.len(),
        wl.inputs.len(),
        tail.pct,
        tail.n,
        tail.beyond
    );
    (tally, m)
}

/// The latency distribution from per-pass, per-program latencies.
fn latency_samples(per_pass: &[Vec<f64>]) -> Vec<f64> {
    let programs = per_pass.first().map_or(0, Vec::len);
    if programs < PER_PROGRAM_MEDIANS_FROM {
        return per_pass.concat();
    }
    (0..programs)
        .map(|i| stats::median(&per_pass.iter().map(|p| p[i]).collect::<Vec<f64>>()))
        .collect()
}

/// The engine passes of the batch workloads' traced run, checked like
/// the timed passes.
pub fn traced(ctx: &Ctx, wl: &BatchWorkload, out: &mut crate::report::Traced) -> Tally {
    let mut checker = Checker::new(wl);
    crate::report::trace_engine_passes(ctx, &wl.inputs, wl.disk, out, &mut |r, what| {
        checker.record(r, what)
    });
    let mut tally = Tally::default();
    checker.finish(&mut tally, ctx.jobs);
    tally
}
