//! Profile data produced by the dynamic dependence profiler.
//!
//! [`ProfileData`] is the interchange format between the profiler and every
//! pattern detector. It corresponds to the output files the paper's LLVM
//! instrumentation dumps after a profiled run: data dependences mapped onto
//! instruction pairs, loop-carried dependence classifications, cross-loop
//! iteration pairs for the multi-loop-pipeline analysis, per-loop per-address
//! read/write line sets for the reduction analysis, loop trip statistics,
//! and dynamic instruction counts.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use parpat_ir::{InstId, LoopId};

/// Kind of a data dependence between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write (true/flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

/// Where a dependence sits relative to the loop structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepSite {
    /// Source and sink execute in the same iteration of every common loop
    /// (or outside loops entirely) — an ordinary sequential dependence.
    Intra,
    /// The dependence crosses iterations of the given loop: the sink runs
    /// `distance` iterations after the source within one execution of it.
    Carried {
        /// The carrying loop.
        l: LoopId,
        /// Iteration distance (sink iter − source iter); at least 1.
        distance: u64,
    },
    /// The dependence connects two *different sibling loops*: the source ran
    /// in loop `x`, the sink runs in loop `y`. These feed the multi-loop
    /// pipeline analysis.
    CrossLoop {
        /// Loop the source executed in.
        x: LoopId,
        /// Loop the sink executed in.
        y: LoopId,
    },
    /// Source and sink ran in different dynamic instances of the same loop
    /// (e.g. an inner loop re-entered by an outer structure the stacks do
    /// not share) — not usable by any current detector but kept for
    /// completeness.
    CrossInstance {
        /// The loop whose instances differ.
        l: LoopId,
    },
    /// The source executed before the sink's innermost loop started (a
    /// loop-independent input to the loop), or the sink reads after the
    /// source's loop finished.
    OutsideLoop,
}

impl DepSite {
    /// True when the dependence is carried by the given loop.
    pub fn carried_by(&self, l: LoopId) -> bool {
        matches!(self, DepSite::Carried { l: cl, .. } if *cl == l)
    }
}

/// A dynamic data dependence between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// The earlier access (the dependence source).
    pub src: InstId,
    /// The later access (the dependence sink).
    pub sink: InstId,
    /// RAW / WAR / WAW.
    pub kind: DepKind,
    /// Loop-structural classification.
    pub site: DepSite,
}

/// Aggregated read/write line information for one address within one loop —
/// the input to the paper's Algorithm 3 (reduction detection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLines {
    /// Distinct source lines that wrote the address inside the loop.
    pub write_lines: BTreeSet<u32>,
    /// Distinct source lines that read the address inside the loop.
    pub read_lines: BTreeSet<u32>,
    /// Name of the variable/array the address belongs to (from the first
    /// write's instruction metadata; used for reporting).
    pub var_name: String,
    /// True when a read-after-write on this address crossed iterations of
    /// the loop (an inter-iteration dependence).
    pub inter_iteration: bool,
    /// True when the address is written in more than one iteration of the
    /// loop (a loop-carried WAW). Distinguishes accumulators (`sum` is
    /// rewritten every iteration) from single-assignment stencil cells
    /// (`a[i]` written once, read once by iteration `i+1`).
    pub rewritten: bool,
}

/// Trip statistics for one loop, accumulated over all dynamic instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Number of times the loop was entered.
    pub executions: u64,
    /// Total iterations across all executions.
    pub total_iterations: u64,
    /// Largest iteration count of any single execution.
    pub max_iterations: u64,
    /// Global sequence number of the loop's first entry (execution order of
    /// loops; `u64::MAX` when never entered). Used to order sibling loops
    /// in time, e.g. by the fusion validity check.
    pub first_entry: u64,
}

impl Default for LoopStats {
    fn default() -> Self {
        LoopStats { executions: 0, total_iterations: 0, max_iterations: 0, first_entry: u64::MAX }
    }
}

impl LoopStats {
    /// Average iterations per execution (0 when never executed).
    pub fn avg_iterations(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.executions as f64
        }
    }
}

/// Everything a profiled run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileData {
    /// The distinct dynamic dependences observed.
    pub deps: HashSet<Dep>,
    /// Per loop: addresses accessed within it and their line sets
    /// (Algorithm 3 input). Keyed by loop, then address.
    pub loop_access_lines: HashMap<LoopId, BTreeMap<u64, AccessLines>>,
    /// Per ordered sibling-loop pair `(x, y)`: for each address written in
    /// `x` and later read in `y`, the pair `(i_x, i_y)` of the *last* write
    /// iteration in `x` and the *first* read iteration in `y` (the paper's
    /// filtered iteration pairs feeding linear regression).
    pub cross_loop_pairs: HashMap<(LoopId, LoopId), HashMap<u64, (u64, u64)>>,
    /// Trip statistics per loop.
    pub loop_stats: HashMap<LoopId, LoopStats>,
    /// Dependences *lifted to statement level*: each endpoint of a dynamic
    /// dependence is replaced by the statement of the innermost region whose
    /// dynamic context the two endpoints stop sharing — a call instruction
    /// when the access happened inside a callee, a loop-header instruction
    /// when it happened inside a nested loop, or the access instruction
    /// itself. Both endpoints of every entry are therefore statements of the
    /// *same* region, which is exactly what the CU-graph builder needs
    /// (`(src, sink, kind)` tuples; self-edges are kept and denote
    /// dependences between dynamic instances of the same statement).
    pub region_deps: HashSet<(InstId, InstId, DepKind)>,
    /// Dynamic execution count per instruction (indexed by `InstId`).
    pub inst_counts: Vec<u64>,
    /// Total executed instructions.
    pub total_insts: u64,
    /// Number of profiled runs merged into this data (≥ 1 once populated).
    pub runs: u32,
}

impl ProfileData {
    /// Create empty profile data for a program with `n_insts` instructions.
    pub fn new(n_insts: usize) -> Self {
        ProfileData { inst_counts: vec![0; n_insts], ..Default::default() }
    }

    /// True when the given loop carries at least one RAW dependence — the
    /// negation of the do-all property used throughout the paper.
    pub fn has_carried_raw(&self, l: LoopId) -> bool {
        self.deps.iter().any(|d| d.kind == DepKind::Raw && d.site.carried_by(l))
    }

    /// All RAW dependences carried by the given loop.
    pub fn carried_raw(&self, l: LoopId) -> Vec<Dep> {
        let mut v: Vec<Dep> = self
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Raw && d.site.carried_by(l))
            .copied()
            .collect();
        v.sort_by_key(|d| (d.src, d.sink));
        v
    }

    /// The sibling loop pairs with at least one cross-loop RAW dependence,
    /// in deterministic order.
    pub fn dependent_loop_pairs(&self) -> Vec<(LoopId, LoopId)> {
        let mut pairs: Vec<(LoopId, LoopId)> = self.cross_loop_pairs.keys().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// The filtered iteration pairs for a sibling loop pair, sorted by `i_x`.
    pub fn iteration_pairs(&self, x: LoopId, y: LoopId) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .cross_loop_pairs
            .get(&(x, y))
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Merge another run's data into this one (the paper's multi-input
    /// profiling: run with several representative inputs, merge outputs).
    /// Dependences and line sets are unioned; counts are summed; trip
    /// maxima are maxed.
    pub fn merge(&mut self, other: &ProfileData) {
        self.deps.extend(other.deps.iter().copied());
        self.region_deps.extend(other.region_deps.iter().copied());
        for (l, by_addr) in &other.loop_access_lines {
            let dst = self.loop_access_lines.entry(*l).or_default();
            for (addr, lines) in by_addr {
                let e = dst.entry(*addr).or_default();
                e.write_lines.extend(&lines.write_lines);
                e.read_lines.extend(&lines.read_lines);
                if e.var_name.is_empty() {
                    e.var_name = lines.var_name.clone();
                }
                e.inter_iteration |= lines.inter_iteration;
                e.rewritten |= lines.rewritten;
            }
        }
        for (k, pairs) in &other.cross_loop_pairs {
            let dst = self.cross_loop_pairs.entry(*k).or_default();
            for (addr, p) in pairs {
                dst.entry(*addr).or_insert(*p);
            }
        }
        for (l, s) in &other.loop_stats {
            let dst = self.loop_stats.entry(*l).or_default();
            dst.executions += s.executions;
            dst.total_iterations += s.total_iterations;
            dst.max_iterations = dst.max_iterations.max(s.max_iterations);
            dst.first_entry = dst.first_entry.min(s.first_entry);
        }
        if self.inst_counts.len() < other.inst_counts.len() {
            self.inst_counts.resize(other.inst_counts.len(), 0);
        }
        for (i, c) in other.inst_counts.iter().enumerate() {
            self.inst_counts[i] += c;
        }
        self.total_insts += other.total_insts;
        self.runs += other.runs;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn dep(src: u32, sink: u32, kind: DepKind, site: DepSite) -> Dep {
        Dep { src, sink, kind, site }
    }

    #[test]
    fn carried_by_matches_only_that_loop() {
        let s = DepSite::Carried { l: 3, distance: 1 };
        assert!(s.carried_by(3));
        assert!(!s.carried_by(4));
        assert!(!DepSite::Intra.carried_by(3));
    }

    #[test]
    fn has_carried_raw_ignores_war() {
        let mut d = ProfileData::new(4);
        d.deps.insert(dep(0, 1, DepKind::War, DepSite::Carried { l: 0, distance: 1 }));
        assert!(!d.has_carried_raw(0));
        d.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Carried { l: 0, distance: 1 }));
        assert!(d.has_carried_raw(0));
    }

    #[test]
    fn merge_unions_deps_and_sums_counts() {
        let mut a = ProfileData::new(2);
        a.inst_counts = vec![1, 2];
        a.total_insts = 3;
        a.runs = 1;
        a.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Intra));

        let mut b = ProfileData::new(2);
        b.inst_counts = vec![10, 20];
        b.total_insts = 30;
        b.runs = 1;
        b.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Intra));
        b.deps.insert(dep(1, 0, DepKind::War, DepSite::OutsideLoop));

        a.merge(&b);
        assert_eq!(a.deps.len(), 2);
        assert_eq!(a.inst_counts, vec![11, 22]);
        assert_eq!(a.total_insts, 33);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn merge_keeps_first_iteration_pair_per_address() {
        let mut a = ProfileData::new(0);
        a.cross_loop_pairs.entry((0, 1)).or_default().insert(100, (5, 6));
        let mut b = ProfileData::new(0);
        b.cross_loop_pairs.entry((0, 1)).or_default().insert(100, (7, 8));
        b.cross_loop_pairs.entry((0, 1)).or_default().insert(101, (1, 2));
        a.merge(&b);
        let pairs = a.iteration_pairs(0, 1);
        assert_eq!(pairs, vec![(1, 2), (5, 6)]);
    }

    #[test]
    fn merge_maxes_trip_maxima() {
        let mut a = ProfileData::new(0);
        a.loop_stats.insert(
            0,
            LoopStats { executions: 1, total_iterations: 10, max_iterations: 10, first_entry: 5 },
        );
        let mut b = ProfileData::new(0);
        b.loop_stats.insert(
            0,
            LoopStats { executions: 2, total_iterations: 6, max_iterations: 4, first_entry: 2 },
        );
        a.merge(&b);
        let s = a.loop_stats[&0];
        assert_eq!(s.executions, 3);
        assert_eq!(s.total_iterations, 16);
        assert_eq!(s.max_iterations, 10);
        assert_eq!(s.first_entry, 2);
    }

    #[test]
    fn avg_iterations_handles_zero_executions() {
        assert_eq!(LoopStats::default().avg_iterations(), 0.0);
        let s =
            LoopStats { executions: 4, total_iterations: 10, max_iterations: 3, first_entry: 0 };
        assert_eq!(s.avg_iterations(), 2.5);
    }
}
