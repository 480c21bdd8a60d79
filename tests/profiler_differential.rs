//! Differential gate for the dependence profiler: the optimized
//! [`DependenceProfiler`] must produce exactly the [`ProfileData`] of the
//! straightforward [`ReferenceProfiler`] — on every suite model, on the
//! seeded generated corpus, and on suite models scaled to hundreds of
//! thousands of instructions (recursion, a pipeline, nested loops).

use parpat_ir::event::Tee;
use parpat_ir::interp::{run_function, ExecLimits};
use parpat_profile::reference::ReferenceProfiler;
use parpat_profile::{DependenceProfiler, ProfileData};

/// Both profilers' data for one run of `src`'s `main`. One interpreter run
/// feeds both, so they see the identical event stream. A runtime error
/// (the generated corpus faults by construction) ends the run early, and
/// both profile the same prefix.
fn both(name: &str, src: &str) -> (ProfileData, ProfileData) {
    let ir = parpat_ir::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let entry = ir.entry.expect("program has main");
    let mut new = DependenceProfiler::new(&ir);
    let mut old = ReferenceProfiler::new(&ir);
    let _ = run_function(&ir, entry, &[], &mut Tee::new(&mut new, &mut old), ExecLimits::default());
    (new.into_data(), old.into_data())
}

fn assert_same(name: &str, src: &str) {
    let (new, old) = both(name, src);
    assert!(new == old, "{name}: profiles differ\nnew: {new:?}\nreference: {old:?}");
}

#[test]
fn suite_profiles_match_the_reference() {
    for app in parpat_suite::all_apps().iter().chain(&parpat_suite::synthetic_apps()) {
        assert_same(app.name, app.model);
    }
}

#[test]
fn generated_corpus_profiles_match_the_reference() {
    for seed in 0..200 {
        assert_same(&format!("genprog seed {seed}"), &parpat_minilang::genprog::generate(seed));
    }
}

#[test]
fn scaled_profiles_match_the_reference() {
    for (name, src) in parpat_suite::scaled::profile_models() {
        let (new, old) = both(name, &src);
        assert!(new.total_insts >= 200_000, "{name} ran only {} instructions", new.total_insts);
        assert!(new == old, "scaled {name}: profiles differ");
    }
}
