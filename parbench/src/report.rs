//! The traced run shared by every workload, and the per-layer metrics,
//! per-program rows and span file it produces.
//!
//! Phases, each with its own span recorder:
//! 1. an untraced engine pass at one job (the accounting reference, with
//!    the engine's own `EngineStats` stage counters as a cross-check),
//!    then, where the workload has a run directory, the same pass with
//!    its storage calls traced through [`TracingFs`];
//! 2. a disk probe: the inputs cold over a fresh run directory at full
//!    parallelism, then again from a fresh engine (journal and cache I/O);
//! 3. `parpat batch --workers 2` against `--jobs 2` on the same corpus;
//! 4. the layer sweep ([`crate::layers`]); the time its span recorder
//!    spends in its own bookkeeping is the tracing overhead;
//! 5. the serve probe ([`crate::serve::probe`]).

use std::fmt::Write as _;
use std::sync::Arc;

use std::time::Instant;

use parpat_engine::{BatchInput, BatchReport, EngineStats, Stage, Vfs};

use crate::common::{self, Ctx, Metrics};
use crate::layers::{self, ENGINE_LAYERS};
use crate::memfs::MemFs;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::tracefs::TracingFs;

/// What the serve probe measured.
#[derive(Debug, Default)]
pub struct ServeProbe {
    /// Per request: socket round trip minus in-process analysis, in ms.
    pub overhead_ms: Vec<f64>,
    /// Per request of the open-loop leg: how late it was sent, in ms.
    pub gen_lag_ms: Vec<f64>,
    /// Open-loop requests sent.
    pub sent: u64,
    /// Open-loop requests answered (neither shed nor timed out).
    pub answered: u64,
    /// Edits sent, closed-loop and open-loop.
    pub edits: u64,
    /// Functions re-analyzed over the probe's edits.
    pub funcs_reanalyzed: u64,
    /// Spans of the probe (`serve.request`, `serve.inprocess`).
    pub spans: Vec<Span>,
}

/// Everything the traced run records.
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall of the untraced one-job pass.
    pub untraced_wall_s: f64,
    /// Storage spans of the one-job pass (none without a run directory).
    pub pass_spans: Vec<Span>,
    /// The untraced pass's own engine counters.
    pub pass_stats: Option<EngineStats>,
    /// Spans of the disk probe.
    pub disk_spans: Vec<Span>,
    /// Disk probe: cache hits and misses over both passes.
    pub disk_hits: u64,
    /// Disk probe: cache misses over both passes.
    pub disk_misses: u64,
    /// Disk probe: memory-tier evictions of the cold pass.
    pub evictions: u64,
    /// Disk probe: memory-tier entries at the end of the cold pass.
    pub resident: u64,
    /// Disk probe: records read by the rerun.
    pub disk_reads: u64,
    /// Disk probe: records written by the cold pass.
    pub disk_writes: u64,
    /// Spans of the layer sweep.
    pub sweep_spans: Vec<Span>,
    /// Wall of the layer sweep.
    pub sweep_wall_s: f64,
    /// Time the sweep spent in the span recorder's own bookkeeping.
    pub sweep_recorder_s: f64,
    /// The serve probe.
    pub serve: ServeProbe,
    /// `parpat batch --workers 2` wall.
    pub workers2_wall_s: f64,
    /// `parpat batch --jobs 2` wall.
    pub jobs2_wall_s: f64,
}

/// Phases 1–3 over `inputs`; `record` receives every report for checking.
pub fn trace_engine_passes(
    ctx: &Ctx,
    inputs: &[BatchInput],
    disk: bool,
    out: &mut Traced,
    record: &mut dyn FnMut(BatchReport, &'static str),
) {
    // 1. An untraced pass at one job on a cold engine. Short passes are
    // repeated so the wall is a median.
    let mut untraced = Vec::new();
    while untraced.len() < if untraced.first().is_some_and(|&w| w > 3.0) { 1 } else { 3 } {
        let dir = disk.then(|| ctx.dir.join("untraced"));
        let engine = common::batch_engine(dir, Arc::new(MemFs::new()));
        let (wall, report) = common::timed_batch(&engine, inputs, 1);
        drop(engine);
        untraced.push(wall);
        out.pass_stats = Some(report.stats.clone());
        record(report, "untraced pass");
    }
    out.untraced_wall_s = stats::median(&untraced);
    // The same pass with its storage calls traced, for the accounting.
    if disk {
        let tracer = Arc::new(Tracer::new());
        let vfs: Arc<dyn Vfs> =
            Arc::new(TracingFs::new(Arc::clone(&tracer), Arc::new(MemFs::new())));
        let engine = common::batch_engine(Some(ctx.dir.join("traced")), vfs);
        let report = engine.batch(inputs.to_vec(), 1);
        drop(engine);
        out.pass_spans = tracer.spans();
        record(report, "storage-traced pass");
    }

    // 2. Disk probe.
    let tracer = Arc::new(Tracer::new());
    let dir = ctx.dir.join("probe");
    let vfs: Arc<dyn Vfs> = Arc::new(TracingFs::new(Arc::clone(&tracer), Arc::new(MemFs::new())));
    let cold = common::batch_engine(Some(dir.clone()), Arc::clone(&vfs));
    let a = cold.batch(inputs.to_vec(), ctx.jobs);
    out.evictions = cold.cache().evictions();
    out.resident = cold.cache().mem_entries() as u64;
    out.disk_writes = cold.cache().disk_writes();
    drop(cold);
    let warm = common::batch_engine(Some(dir), vfs);
    let b = warm.batch(inputs.to_vec(), ctx.jobs);
    out.disk_reads = warm.cache().disk_reads();
    drop(warm);
    out.disk_hits = a.stats.cache.hits + b.stats.cache.hits;
    out.disk_misses = a.stats.cache.misses + b.stats.cache.misses;
    out.disk_spans = tracer.spans();
    record(a, "disk probe");
    record(b, "disk probe rerun");

    // 3. Multi-process against multi-thread, from outside, on one corpus.
    let corpus = ctx.fresh_dir("corpus");
    common::write_corpus(&corpus, inputs);
    let corpus = corpus.display().to_string();
    let run = |flag: &str, cache: &str| -> f64 {
        let cache = ctx.fresh_dir(cache).display().to_string();
        let args: Vec<String> = ["batch", &corpus, flag, "2", "--cache-dir", &cache]
            .iter()
            .map(|s| s.to_string())
            .collect();
        common::time_cli(&args).unwrap_or_else(|e| panic!("{e}"))
    };
    out.jobs2_wall_s = run("--jobs", "cli-jobs");
    out.workers2_wall_s = run("--workers", "cli-workers");
}

/// The layer sweep (phase 4).
pub fn trace_sweep(inputs: &[BatchInput], out: &mut Traced) {
    let tracer = Tracer::new();
    let start = Instant::now();
    for (id, input) in inputs.iter().enumerate() {
        layers::sweep_program(&tracer, id as u64, input);
    }
    out.sweep_wall_s = start.elapsed().as_secs_f64();
    out.sweep_spans = tracer.spans();
    out.sweep_recorder_s = tracer.own_s();
}

/// Per-layer metrics, the per-program rows, and the span file.
pub fn finish(ctx: &Ctx, out: &Traced) -> Metrics {
    let rows = layers::program_rows(&out.sweep_spans);
    print_rows(ctx, &rows);
    let profile =
        trace::layer_totals(&out.sweep_spans).get("core.profile_ir").copied().unwrap_or_default();
    println!("# core.profile_ir: {} calls, {} failed", profile.calls, profile.failed);
    println!(
        "# layer sweep: {:.6} s wall, {:.6} s of it in the span recorder, {} spans",
        out.sweep_wall_s,
        out.sweep_recorder_s,
        out.sweep_spans.len()
    );
    println!(
        "# serve probe: {} of {} open-loop requests answered; {} edits re-analyzed {} functions",
        out.serve.answered, out.serve.sent, out.serve.edits, out.serve.funcs_reanalyzed
    );
    write_spans(ctx, out);
    per_layer(out)
}

/// Per-layer metrics of a traced run.
pub fn per_layer(out: &Traced) -> Metrics {
    let sweep = trace::layer_totals(&out.sweep_spans);
    let disk = trace::layer_totals(&out.disk_spans);
    let get = |t: &std::collections::BTreeMap<&'static str, trace::LayerTotals>, n: &str| {
        t.get(n).copied().unwrap_or_default()
    };
    let rate = |n: &str| {
        let t = get(&sweep, n);
        t.insts as f64 / t.insts_s / 1e6
    };
    let mut m = Metrics::default();
    m.put("minilang.parse.calls", get(&sweep, "minilang.parse").calls as f64, "count");
    for layer in ENGINE_LAYERS {
        m.put(&format!("{layer}.self_s"), get(&sweep, layer).self_s, "s");
    }
    m.put("core.profile_ir.calls", get(&sweep, "core.profile_ir").calls as f64, "count");
    for layer in ["ir.interp", "profile.profiler", "pet.builder"] {
        m.put(&format!("{layer}.self_s"), get(&sweep, layer).self_s, "s");
    }
    for layer in
        ["ir.interp", "profile.profiler", "pet.builder", "core.profile_ir", "minilang.eval"]
    {
        m.put(&format!("{layer}.minsts_per_s"), rate(layer), "Minst/s");
    }

    // Per-program rows; ratios across programs by geometric mean.
    let (overhead, per_prog_rate) = program_ratios(&layers::program_rows(&out.sweep_spans));
    m.put("profile.overhead_x", stats::geomean(&overhead), "x");
    m.put("programs.geomean_minsts_per_s", stats::geomean(&per_prog_rate), "Minst/s");

    let journal = get(&disk, "engine.journal.append");
    m.put("engine.journal.append.calls", journal.calls as f64, "count");
    m.put("engine.journal.append.self_s", journal.self_s, "s");
    m.put("engine.cache.disk_read.self_s", get(&disk, "engine.cache.disk_read").self_s, "s");
    m.put("engine.cache.disk_write.self_s", get(&disk, "engine.cache.disk_write").self_s, "s");
    m.put(
        "engine.cache.hit_ratio",
        out.disk_hits as f64 / (out.disk_hits + out.disk_misses).max(1) as f64,
        "ratio",
    );
    // Share of the artifacts the cold pass cached in memory that the
    // memory tier still holds at its end (1 when nothing was evicted).
    m.put(
        "engine.cache.resident_share",
        out.resident as f64 / (out.resident + out.evictions).max(1) as f64,
        "ratio",
    );
    m.put("engine.cache.disk_reads", out.disk_reads as f64, "count");
    m.put("engine.cache.disk_writes", out.disk_writes as f64, "count");

    m.put("serve.overhead_ms", stats::median(&out.serve.overhead_ms), "ms");
    m.put("serve.gen_lag_ms", stats::median(&out.serve.gen_lag_ms), "ms");
    m.put(
        "serve.answered_share",
        out.serve.answered as f64 / out.serve.sent.max(1) as f64,
        "ratio",
    );
    m.put(
        "serve.funcs_per_edit",
        out.serve.funcs_reanalyzed as f64 / out.serve.edits.max(1) as f64,
        "func/edit",
    );

    m.put("shard.workers2_wall_s", out.workers2_wall_s, "s");
    m.put("engine.jobs2_wall_s", out.jobs2_wall_s, "s");

    // Accounting against the untraced one-job pass: the engine layers'
    // self times from the sweep plus the one-job pass's storage spans.
    let storage_s: f64 = out.pass_spans.iter().map(|s| (s.end - s.start) as f64 * 1e-9).sum();
    let layers_s: f64 =
        ENGINE_LAYERS.iter().map(|l| get(&sweep, l).self_s).sum::<f64>() + storage_s;
    m.put("trace.untraced_wall_s", out.untraced_wall_s, "s");
    m.put("trace.overhead_s", out.sweep_recorder_s, "s");
    m.put("trace.unaccounted_share", 1.0 - layers_s / out.untraced_wall_s, "ratio");
    for s in Stage::ALL {
        let wall = out.pass_stats.as_ref().map_or(f64::NAN, |st| st.stage(s).wall.as_secs_f64());
        m.put(&format!("engine.stats.{}.wall_s", s.name()), wall, "s");
    }
    m
}

/// Per program: profile overhead over the bare interpreter, and M inst/s
/// through the engine layers (profiled programs only).
fn program_ratios(rows: &[layers::ProgramRow]) -> (Vec<f64>, Vec<f64>) {
    rows.iter()
        .filter(|r| r.insts > 0)
        .map(|r| {
            (r.layer("core.profile_ir") / r.layer("ir.interp"), r.insts as f64 / r.wall_s / 1e6)
        })
        .unzip()
}

fn print_rows(ctx: &Ctx, rows: &[layers::ProgramRow]) {
    let (overhead, rates) = program_ratios(rows);
    let shown = if rows.len() <= 32 { rows.len() } else { 0 };
    if shown > 0 {
        println!(
            "# {:>4} {:>10} {:>10} {:>8} {:>8}",
            "prog", "wall_ms", "insts", "Minst/s", "prof_x"
        );
    }
    for r in &rows[..shown] {
        println!(
            "# {:>4} {:>10.3} {:>10} {:>8.3} {:>8.2}",
            r.id,
            r.wall_s * 1e3,
            r.insts,
            r.insts as f64 / r.wall_s / 1e6,
            r.layer("core.profile_ir") / r.layer("ir.interp")
        );
    }
    println!(
        "# {} {} programs: geomean {:.3} Minst/s, geomean profile overhead {:.2}x over the bare interpreter",
        ctx.workload,
        rows.len(),
        stats::geomean(&rates),
        stats::geomean(&overhead)
    );
}

/// All spans as JSON lines under the run directory's parent, one file per
/// workload and seed.
fn write_spans(ctx: &Ctx, out: &Traced) {
    let mut text = String::new();
    for (phase, spans) in [
        ("pass", &out.pass_spans),
        ("disk", &out.disk_spans),
        ("sweep", &out.sweep_spans),
        ("serve", &out.serve.spans),
    ] {
        for line in trace::to_json_lines(spans).lines() {
            writeln!(text, "{{\"phase\": \"{phase}\", {}", &line[1..]).expect("write to String");
        }
    }
    let path = ctx.dir.with_file_name(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
    match std::fs::write(&path, text) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parpat_serve::{parse_json, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse_json(&text).expect("valid JSON");
        let Some(Json::Arr(items)) = json.get(section) else { panic!("no `{section}`") };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_reported() {
        let per_layer: Vec<(String, String)> = per_layer(&Traced::default())
            .0
            .into_iter()
            .map(|(n, _, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let e2e: Vec<(String, String)> =
            common::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
    }
}
