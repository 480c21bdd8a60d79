//! What every workload shares: the run context, metric and failure
//! bookkeeping, the run directory, and one timed engine batch pass.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parpat_engine::{AnalysisOutcome, BatchInput, BatchReport, Engine, EngineConfig, Vfs};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
    /// Worker threads, connections and batch jobs: the host's parallelism.
    pub jobs: usize,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub dir: PathBuf,
}

impl Ctx {
    /// Time left for the timed phase, measured from `start`.
    pub fn remaining(&self, start: Instant) -> f64 {
        self.seconds - start.elapsed().as_secs_f64()
    }

    /// A fresh, empty directory `name` under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create a run directory inside the checkout");
        d
    }
}

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
/// Every workload reports each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("batch_wall_s", "s"),
    ("programs_per_s", "1/s"),
    ("minsts_per_s", "Minst/s"),
    ("rerun_wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 8]) -> Metrics {
    let mut m = Metrics::default();
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        m.put(name, v, unit);
    }
    m
}

/// Metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record `name` with `unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }
}

/// Checked operations: every attempted one, and the ones that were wrong,
/// failed unexpectedly, were shed or timed out, with the first reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it failed with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why());
            }
        }
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut body = String::new();
    let mut all_finite = true;
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let v = if value.is_finite() {
            *value
        } else {
            all_finite = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            .expect("write to String");
    }
    let correct = tally.failed == 0 && tally.attempted > 0 && all_finite;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed
    )
}

/// The bundled suite models as batch inputs.
pub fn bundled_suite() -> Vec<BatchInput> {
    parpat_suite::all_apps()
        .iter()
        .map(|a| BatchInput { name: a.name.to_owned(), source: a.model.to_owned() })
        .collect()
}

/// An engine configured like `parpat batch`: watchdog on, default cache
/// capacity, the disk tier in `cache_dir` when given.
pub fn batch_engine(cache_dir: Option<PathBuf>, vfs: Arc<dyn Vfs>) -> Arc<Engine> {
    Arc::new(
        Engine::new(EngineConfig {
            cache_dir,
            watchdog: Some(parpat_runtime::WatchdogConfig::default()),
            vfs,
            ..Default::default()
        })
        .expect("engine with a cache directory inside the checkout"),
    )
}

/// Set-up as a user pays it: construct an engine and warm it (thread
/// pool, code and allocator) with one batch of the bundled suite.
pub fn setup_engine(
    cache_dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    jobs: usize,
) -> (Arc<Engine>, f64) {
    let start = Instant::now();
    let engine = batch_engine(cache_dir, vfs);
    let warm = engine.batch(bundled_suite(), jobs);
    assert!(warm.outcomes.iter().all(|o| o.outcome.is_ok()), "bundled suite analyzes cleanly");
    (engine, start.elapsed().as_secs_f64())
}

/// One batch pass: wall time and the report.
pub fn timed_batch(engine: &Arc<Engine>, inputs: &[BatchInput], jobs: usize) -> (f64, BatchReport) {
    let start = Instant::now();
    let report = engine.batch(inputs.to_vec(), jobs);
    (start.elapsed().as_secs_f64(), report)
}

/// The outcome rendered the way `parpat batch --json` renders it.
pub fn outcome_text(o: &AnalysisOutcome) -> String {
    match o {
        AnalysisOutcome::Ok(r) => format!("ok {}", r.to_json()),
        AnalysisOutcome::Degraded(d) => format!("degraded {}", d.to_json()),
        AnalysisOutcome::Err(e) => format!("error {}", e.to_json()),
    }
}

/// Sum of profiled instructions over the successful programs.
pub fn report_insts(report: &BatchReport) -> u64 {
    report.outcomes.iter().filter_map(|o| o.outcome.report()).map(|r| r.insts).sum()
}

/// Per-program analysis latencies of a batch, in milliseconds.
pub fn program_latencies_ms(report: &BatchReport) -> impl Iterator<Item = f64> + '_ {
    report.outcomes.iter().map(|o| o.wall.as_secs_f64() * 1e3)
}

/// Write each input as `<name>.ml` into `dir` (the corpus for the CLI).
pub fn write_corpus(dir: &Path, inputs: &[BatchInput]) {
    for (i, p) in inputs.iter().enumerate() {
        std::fs::write(dir.join(format!("{i:04}-{}.ml", p.name)), &p.source)
            .expect("write the corpus inside the checkout");
    }
}

/// Wall time of the release CLI run as a child process: `parpat batch`
/// through this binary, which forwards any non-benchmark arguments to
/// the same `parpat::cli::run` the `parpat` binary calls.
pub fn time_cli(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let out = std::process::Command::new(exe)
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "`parpat {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(wall)
}

/// Seconds as a `Duration`.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}
