//! End-to-end engine tests: equivalence with the one-shot analysis over
//! the full 17-app suite, cache-invalidation behavior, and scheduling
//! determinism.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use parpat_core::{analyze_source, rank_patterns, render_ranking, AnalysisConfig, RankConfig};
use parpat_engine::{BatchInput, Engine, EngineConfig, Stage};

fn engine(cache_dir: Option<PathBuf>) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig { cache_dir, ..Default::default() }).expect("engine"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite_inputs() -> Vec<BatchInput> {
    parpat_suite::all_apps()
        .iter()
        .map(|a| BatchInput { name: a.name.to_owned(), source: a.model.to_owned() })
        .collect()
}

#[test]
fn batch_matches_one_shot_analysis_on_all_apps() {
    let inputs = suite_inputs();
    assert_eq!(inputs.len(), 17, "the paper's full evaluation suite");
    let batch = engine(None).batch(inputs.clone(), 4);
    assert_eq!(batch.outcomes.len(), 17);
    assert_eq!(batch.stats.errors, 0);

    for (input, outcome) in inputs.iter().zip(&batch.outcomes) {
        assert_eq!(input.name, outcome.name, "input order preserved");
        let report = outcome.outcome.report().expect("suite apps analyze cleanly");
        let expected = analyze_source(&input.source, &AnalysisConfig::default())
            .expect("one-shot analysis succeeds");
        assert_eq!(report.summary, expected.summary(), "summary for {}", input.name);
        let ranked = rank_patterns(&expected, &RankConfig::default());
        let expected_ranking =
            if ranked.is_empty() { String::new() } else { render_ranking(&ranked) };
        assert_eq!(report.ranking, expected_ranking, "ranking for {}", input.name);
        assert_eq!(report.insts, expected.profile.total_insts, "insts for {}", input.name);
        assert_eq!(report.pipelines, expected.pipelines.len());
        assert_eq!(report.fusions, expected.fusions.len());
        assert_eq!(report.reductions, expected.reductions.len());
        assert_eq!(report.geodecomp, expected.geodecomp.len());
        assert_eq!(report.task_regions, expected.graphs.len());
    }
}

#[test]
fn batch_accumulates_ssa_pass_timings() {
    let cold = engine(None).batch(suite_inputs(), 4);
    assert_eq!(cold.stats.ssa_passes.len(), parpat_static::PASS_NAMES.len());
    for (p, name) in cold.stats.ssa_passes.iter().zip(parpat_static::PASS_NAMES) {
        assert_eq!(p.name, name, "roster order is preserved");
        // Every suite app has at least `main`; each executed static
        // fragment runs the whole roster over its function.
        assert!(p.runs >= 17, "{name} ran {} time(s):\n{}", p.runs, cold.stats.render_text());
    }
    assert!(cold.stats.render_text().contains("ssa passes: cse"));

    // A warm run re-analyzes nothing, so no pass runs accumulate.
    let dir = temp_dir("ssa-pass");
    let inputs = suite_inputs();
    let _ = engine(Some(dir.clone())).batch(inputs.clone(), 4);
    let warm = engine(Some(dir.clone())).batch(inputs, 4);
    assert!(warm.stats.ssa_passes.iter().all(|p| p.runs == 0), "{}", warm.stats.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_count_does_not_change_results() {
    let inputs = suite_inputs();
    // Separate engines so the second run cannot lean on the first's cache.
    let serial = engine(None).batch(inputs.clone(), 1);
    let parallel = engine(None).batch(inputs, 8);
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.name, b.name);
        let (ra, rb) = (a.outcome.report().unwrap(), b.outcome.report().unwrap());
        assert_eq!(ra, rb, "report for {} differs across job counts", a.name);
    }
    assert_eq!(serial.stats.jobs, 1);
    assert_eq!(parallel.stats.jobs, 8);
}

#[test]
fn warm_disk_cache_skips_every_stage() {
    let dir = temp_dir("warm");
    let inputs = suite_inputs();

    let cold = engine(Some(dir.clone())).batch(inputs.clone(), 4);
    assert_eq!(cold.stats.cache.hits, 0, "cold run cannot hit");
    assert_eq!(cold.stats.cache.misses, 17 * 7);

    // A fresh engine (fresh process, in effect): only the disk tier answers.
    let warm = engine(Some(dir.clone())).batch(inputs, 4);
    assert!(warm.outcomes.iter().all(|o| o.fully_cached), "every program fully cached");
    assert_eq!(warm.stats.cache.hits, 17 * 7);
    assert_eq!(warm.stats.cache.misses, 0);
    assert!(warm.stats.hit_rate().unwrap() >= 0.9, "acceptance: >= 90% stage hits");
    for s in [Stage::Profile, Stage::Detect] {
        assert_eq!(warm.stats.stage(s).executed, 0, "{s} must not execute on a warm run");
    }
    // The batch persisted its stats for `parpat stats`.
    assert!(dir.join("stats.txt").exists());
    assert!(dir.join("stats.json").exists());

    let _ = std::fs::remove_dir_all(&dir);
}

const PIPELINE_SRC: &str = "global a[64];
global b[64];
fn main() {
    for i in 0..64 { a[i] = i * 2; }
    for j in 0..64 { b[j] = a[j] + 1; }
}";

#[test]
fn cosmetic_edit_reparses_but_downstream_stages_hit() {
    let dir = temp_dir("cosmetic");
    let input =
        |source: &str| vec![BatchInput { name: "pipe".to_owned(), source: source.to_owned() }];
    let cold = engine(Some(dir.clone())).batch(input(PIPELINE_SRC), 1);
    assert_eq!(cold.stats.cache.misses, 7);

    // Extra spaces + a trailing comment: different source bytes, identical
    // token stream — the parse key misses, the AST digest is unchanged, so
    // every downstream stage hits and the persisted report is reused.
    let cosmetic = PIPELINE_SRC.replace(
        "for i in 0..64 { a[i] = i * 2; }",
        "for i in 0..64 { a[i]  =  i * 2; } // doubles",
    );
    assert_ne!(cosmetic, PIPELINE_SRC);
    let warm = engine(Some(dir.clone())).batch(input(&cosmetic), 1);
    let stats = &warm.stats;
    assert_eq!(stats.stage(Stage::Parse).misses, 1, "parse re-runs:\n{}", stats.render_text());
    assert_eq!(stats.stage(Stage::Parse).hits, 0);
    for s in
        [Stage::Lower, Stage::Static, Stage::CuBuild, Stage::Profile, Stage::Detect, Stage::Rank]
    {
        assert_eq!(stats.stage(s).hits, 1, "{s} must hit:\n{}", stats.render_text());
        assert_eq!(stats.stage(s).executed, 0, "{s} must not execute");
    }
    assert_eq!(
        warm.outcomes[0].outcome.report().unwrap().summary,
        cold.outcomes[0].outcome.report().unwrap().summary,
    );
    assert!(!warm.outcomes[0].fully_cached, "parse did run");

    // A real edit (changed constant) invalidates the whole chain.
    let mutated = PIPELINE_SRC.replace("i * 2", "i * 3");
    let changed = engine(Some(dir.clone())).batch(input(&mutated), 1);
    assert_eq!(changed.stats.cache.misses, 7, "{}", changed.stats.render_text());
    assert_eq!(changed.stats.cache.hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_cache_hits_within_one_engine() {
    let eng = engine(None);
    let inputs = vec![BatchInput { name: "pipe".to_owned(), source: PIPELINE_SRC.to_owned() }];
    let first = eng.batch(inputs.clone(), 1);
    assert_eq!(first.stats.cache.misses, 7);
    let second = eng.batch(inputs, 1);
    assert_eq!(second.stats.cache.hits, 7, "{}", second.stats.render_text());
    assert!(second.outcomes[0].fully_cached);
}

/// The differential oracle runs after the profile stage's function, so it
/// has its own clock: a cold run of a program pays it once, and a rerun
/// answered entirely from the cache never replays the program.
#[test]
fn oracle_wall_is_timed_on_a_cold_run_and_zero_when_fully_cached() {
    let eng = engine(None);
    let inputs = vec![BatchInput { name: "pipe".to_owned(), source: PIPELINE_SRC.to_owned() }];
    let cold = eng.batch(inputs.clone(), 1);
    assert!(cold.outcomes[0].outcome.is_ok());
    assert!(cold.stats.oracle_wall > Duration::ZERO, "{}", cold.stats.render_text());

    let warm = eng.batch(inputs, 1);
    assert!(warm.outcomes[0].fully_cached);
    assert_eq!(warm.stats.oracle_wall, Duration::ZERO);
    assert!(warm.stats.render_json().contains("\"oracle_wall_ns\": 0,"));
}

#[test]
fn errors_are_reported_not_cached_as_results() {
    let eng = engine(None);
    let inputs = vec![
        BatchInput { name: "bad".to_owned(), source: "fn main() { oops".to_owned() },
        BatchInput { name: "good".to_owned(), source: PIPELINE_SRC.to_owned() },
    ];
    let batch = eng.batch(inputs, 2);
    assert_eq!(batch.stats.errors, 1);
    assert!(batch.outcomes[0].outcome.is_err());
    assert!(batch.outcomes[1].outcome.is_ok());
    assert_eq!(batch.outcomes[0].name, "bad", "order preserved despite error");
}

/// A disk record answers a stage's digest but not its artifact. When a
/// downstream miss needs the artifact after all, the stage re-executes and
/// its hit is demoted to a miss, so the counters report work actually done.
/// Changing only a detector knob misses detect and rank, and their inputs
/// must then materialize from a cold memory tier. A cosmetic edit of the
/// same program keeps its disk hit at parse: its downstream stages hit the
/// artifacts the first program left in memory, so its AST is never needed.
#[test]
fn disk_hits_are_demoted_when_their_artifact_is_needed() {
    let dir = temp_dir("demote");
    let input =
        |name: &str, source: &str| BatchInput { name: name.to_owned(), source: source.to_owned() };
    let inputs = vec![
        input("pipe", PIPELINE_SRC),
        input("oob", "global a[2]; fn main() { a[9] = 1; }"),
        input("pipe-cosmetic", &PIPELINE_SRC.replace("a[i] = i * 2;", "a[i]  =  i * 2;")),
    ];
    let warm = engine(Some(dir.clone())).batch(inputs.clone(), 1);
    assert!(warm.outcomes[0].outcome.is_ok() && warm.outcomes[1].outcome.is_degraded());

    let analysis = AnalysisConfig { hotspot_threshold: 0.05, ..Default::default() };
    let fresh = |cache_dir| {
        Arc::new(Engine::new(EngineConfig { analysis, cache_dir, ..Default::default() }).unwrap())
    };
    let demoted = fresh(Some(dir.clone())).batch(inputs.clone(), 1);
    let stats = &demoted.stats;
    for s in Stage::ALL {
        let st = stats.stage(s);
        // `oob` fails at profile, so it never resolves detect or rank.
        let expect = if matches!(s, Stage::Detect | Stage::Rank) { (1, 1, 1) } else { (1, 2, 2) };
        assert_eq!((st.hits, st.misses, st.executed), expect, "{s}:\n{}", stats.render_text());
    }
    assert!(demoted.outcomes[2].fully_cached);
    assert_eq!(demoted.outcomes[2].outcome.report(), demoted.outcomes[0].outcome.report());

    // The demoted run computes exactly what an uncached engine computes.
    let reference = fresh(None).batch(inputs, 1);
    assert_eq!(demoted.outcomes[0].outcome.report(), reference.outcomes[0].outcome.report());
    assert_eq!(demoted.outcomes[1].outcome.degraded(), reference.outcomes[1].outcome.degraded());
    let _ = std::fs::remove_dir_all(&dir);
}
