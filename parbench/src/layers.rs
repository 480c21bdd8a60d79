//! The traced layer sweep: every program of a workload pushed through
//! each layer's public entry function, in the engine's stage order, one
//! span per call.
//!
//! Spans named in [`ENGINE_LAYERS`] are the calls the engine itself makes
//! for a cold program; their self times are what the accounting sums.
//! `ir.interp`, `profile.profiler` and `pet.builder` decompose
//! `core.profile_ir` (a bare run, then each observer alone) and are left
//! out of the accounting.

use std::collections::BTreeMap;

use parpat_core::{AnalysisConfig, RankConfig};
use parpat_engine::BatchInput;
use parpat_ir::event::NullObserver;
use parpat_ir::interp::ExecLimits;

use crate::trace::{Span, Tracer};

/// Layers the engine runs for every cold program.
pub const ENGINE_LAYERS: [&str; 13] = [
    "minilang.parse",
    "ir.lower",
    "ir.verify",
    "engine.funcdigest",
    "static.analyze_ir",
    "cu.build_cus",
    "core.profile_ir",
    "minilang.eval",
    "core.detect_patterns",
    "core.assemble_analysis",
    "engine.xval",
    "core.rank_patterns",
    "core.summary",
];

/// Reference-evaluator limits the engine's differential oracle uses.
fn eval_limits(limits: ExecLimits) -> parpat_minilang::EvalLimits {
    parpat_minilang::EvalLimits {
        max_steps: limits.max_insts.saturating_mul(4),
        max_call_depth: limits.max_call_depth,
    }
}

/// Push one input, program `id`, through every layer, recording spans
/// into `t`.
pub fn sweep_program(t: &Tracer, id: u64, input: &BatchInput) {
    let cfg = AnalysisConfig::default();
    let limits = cfg.limits;
    t.span("program", None, id, |root| {
        let parsed = t.span("minilang.parse", root, id, |s| {
            let r = parpat_minilang::parse_checked(&input.source);
            t.mark(s, 0, r.is_err());
            r
        });
        let Ok(ast) = parsed else { return };
        let ir = t.span("ir.lower", root, id, |_| parpat_ir::lower(&ast));
        let violations = t.span("ir.verify", root, id, |s| {
            let v = parpat_ir::verify_against(&ir, &ast);
            t.mark(s, 0, !v.is_empty());
            v
        });
        if !violations.is_empty() {
            return;
        }
        std::hint::black_box(
            t.span("engine.funcdigest", root, id, |_| parpat_engine::function_digests(&ir)),
        );
        let statics = t.span("static.analyze_ir", root, id, |_| parpat_static::analyze_ir(&ir));
        let cus = t.span("cu.build_cus", root, id, |_| parpat_cu::build_cus(&ir));
        let Some(entry) = ir.entry else { return };

        t.span("ir.interp", root, id, |s| {
            let r =
                parpat_ir::run_function_captured(&ir, entry, &[], &mut NullObserver, limits, None);
            t.mark(s, r.as_ref().map_or(0, |c| c.outcome.insts), r.is_err());
        });
        t.span("profile.profiler", root, id, |s| {
            let mut p = parpat_profile::DependenceProfiler::new(&ir);
            let r = parpat_ir::run_function_captured(&ir, entry, &[], &mut p, limits, None);
            std::hint::black_box(p.into_data());
            t.mark(s, r.as_ref().map_or(0, |c| c.outcome.insts), r.is_err());
        });
        t.span("pet.builder", root, id, |s| {
            let mut b = parpat_pet::PetBuilder::new();
            let r = parpat_ir::run_function_captured(&ir, entry, &[], &mut b, limits, None);
            std::hint::black_box(b.into_pet());
            t.mark(s, r.as_ref().map_or(0, |c| c.outcome.insts), r.is_err());
        });
        let run = t.span("core.profile_ir", root, id, |s| {
            let r = parpat_core::profile_ir(&ir, limits);
            t.mark(s, r.as_ref().map_or(0, |p| p.insts), r.is_err());
            r
        });
        let insts = run.as_ref().map_or(0, |p| p.insts);
        t.span("minilang.eval", root, id, |s| {
            let r = parpat_minilang::evaluate_with_limits(&ast, eval_limits(limits));
            t.mark(s, insts, r.is_err());
        });
        let Ok(run) = run else { return };

        let detections = t.span("core.detect_patterns", root, id, |_| {
            parpat_core::detect_patterns(&ir, &run.profile, &run.pet, &cus, &cfg)
        });
        // The engine holds its artifacts shared and clones them to
        // hand them over by value; the span includes those clones.
        let analysis = t.span("core.assemble_analysis", root, id, |_| {
            parpat_core::assemble_analysis(
                ir.clone(),
                run.profile.clone(),
                run.pet.clone(),
                cus.clone(),
                detections,
            )
        });
        let ranked = t.span("core.rank_patterns", root, id, |_| {
            parpat_core::rank_patterns(&analysis, &RankConfig::default())
        });
        std::hint::black_box(t.span("engine.xval", root, id, |_| {
            parpat_engine::cross_validate(&statics, &analysis.loop_classes)
        }));
        std::hint::black_box(t.span("core.summary", root, id, |_| {
            (analysis.summary(), parpat_core::render_ranking(&ranked))
        }));
    });
}

/// One program's row: its engine-layer wall, instructions, and the times
/// of the profile decomposition.
#[derive(Debug, Clone, Default)]
pub struct ProgramRow {
    /// Input index.
    pub id: u64,
    /// Sum of the engine layers' durations.
    pub wall_s: f64,
    /// Profiled IR instructions (0 when the profile run failed).
    pub insts: u64,
    /// Duration per layer name.
    pub layer_s: BTreeMap<&'static str, f64>,
}

impl ProgramRow {
    /// Duration of `layer` for this program.
    pub fn layer(&self, layer: &str) -> f64 {
        self.layer_s.get(layer).copied().unwrap_or(0.0)
    }
}

/// Rows per program from the sweep's spans.
pub fn program_rows(spans: &[Span]) -> Vec<ProgramRow> {
    let mut rows: BTreeMap<u64, ProgramRow> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name != "program") {
        let row = rows.entry(s.id).or_insert_with(|| ProgramRow { id: s.id, ..Default::default() });
        let dur = (s.end - s.start) as f64 * 1e-9;
        *row.layer_s.entry(s.name).or_default() += dur;
        if ENGINE_LAYERS.contains(&s.name) {
            row.wall_s += dur;
        }
        if s.name == "core.profile_ir" && !s.failed {
            row.insts = s.insts;
        }
    }
    rows.into_values().collect()
}
