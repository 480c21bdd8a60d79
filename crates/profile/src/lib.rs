//! # parpat-profile
//!
//! Dynamic data-dependence and control-region profiler — the reproduction of
//! DiscoPoP's dependence profiler (Li et al., IPDPS'15 in the paper's
//! citations). Executes a lowered MiniLang program under the instrumenting
//! interpreter and distills the event stream into [`data::ProfileData`]:
//!
//! - RAW/WAR/WAW dependences on instruction pairs, classified as
//!   intra-iteration, loop-carried (with distance), cross-loop (between
//!   sibling loops) or cross-instance;
//! - the `(i_x, i_y)` iteration pairs per dependent sibling-loop pair that
//!   feed the multi-loop-pipeline regression;
//! - per-loop per-address read/write line sets for reduction detection;
//! - loop trip statistics and per-instruction execution counts.
//!
//! ```
//! use parpat_profile::profile;
//! let ir = parpat_ir::compile(
//!     "global a[8];
//!      fn main() { for i in 0..8 { a[i] = i; } }",
//! )
//! .unwrap();
//! let data = profile(&ir).unwrap();
//! assert!(!data.has_carried_raw(0)); // the loop is do-all
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod data;
pub mod profiler;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod sanitize;

pub use data::{AccessLines, Dep, DepKind, DepSite, LoopStats, ProfileData};
pub use profiler::{
    profile, profile_function, profile_merged, DependenceProfiler, ProfilerCounters,
};
pub use sanitize::sanitize_profile;
