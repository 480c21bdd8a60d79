//! # parpat-serve — the resident analysis service
//!
//! `parpat serve` keeps one [`parpat_engine::Engine`] — and therefore
//! one warm two-tier artifact cache — alive across many analysis
//! requests, turning the one-shot CLI into an editor-loop-friendly
//! daemon:
//!
//! - **listeners** — TCP and/or unix-domain socket, speaking
//!   line-delimited JSON ([`proto`]): `analyze`, `lint`, `verify`,
//!   `stats`, `apps`, `shutdown`;
//! - **scheduling** — connection threads do only I/O; program work runs
//!   on the repo's own work-stealing [`parpat_runtime::ThreadPool`]
//!   under the engine's watchdog and execution budgets;
//! - **incremental re-analysis** — the engine digests each lowered
//!   function separately, so re-submitting an edited file re-runs only
//!   the changed functions' static/CU fragments; responses report
//!   `cached` and `funcs_reanalyzed` so clients can see it;
//! - **hostility tolerance** — oversized frames, torn lines, invalid
//!   UTF-8, unknown verbs, and mid-request disconnects all yield
//!   structured errors (or a clean write failure), never a panic and
//!   never a poisoned cache;
//! - **admission control** — beyond `max_connections`, arrivals park in
//!   a bounded queue; past `queue_depth` they are shed with a structured
//!   `overloaded` error carrying the queue depth and a `retry_after_ms`
//!   hint, and the shed is counted in `stats`;
//! - **per-request deadlines** — a server-side `request_deadline_ms` cap
//!   and/or client-side `deadline_ms` member arm an absolute deadline
//!   that cancels stuck interpreter runs (structured `deadline` error,
//!   with the degraded static report when one is salvageable);
//! - **slow-loris defence** — connections that neither complete a frame
//!   nor go quiet are cut off after `idle_timeout_ms` with a structured
//!   `idle-timeout` error;
//! - **chaos harness** — an opt-in [`ChaosConfig`] injects deterministic
//!   per-request faults (failures, panics, stalls) so soak
//!   tests can prove the failure envelope stays structured;
//! - **client retries** — [`Client`] stamps request ids and, under a
//!   [`client::RetryPolicy`], retries `overloaded` answers and dropped
//!   connections with deterministic jittered exponential backoff;
//! - **validated configuration** — [`ServeConfig`] checks every field at
//!   startup and reports all violations at once ([`config`]).
//!
//! ```no_run
//! use parpat_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).expect("start");
//! let addr = server.tcp_addr().expect("tcp enabled").to_string();
//! let mut client = Client::connect_tcp(&addr).expect("connect");
//! let response = client.analyze("demo.ml", "fn main() { return 2; }").expect("analyze");
//! assert!(response.contains("\"status\": \"ok\""));
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod client;
pub mod config;
pub mod json;
pub mod proto;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use config::{
    ChaosConfig, ConfigIssue, ServeConfig, DEFAULT_IDLE_TIMEOUT_MS, DEFAULT_MAX_FRAME,
    DEFAULT_QUEUE_DEPTH, MAX_FRAME_CEILING, MIN_IDLE_TIMEOUT_MS, QUEUE_DEPTH_CEILING,
};
pub use json::{parse as parse_json, Json, JsonError};
pub use proto::{
    error_json, overloaded_json, parse_request, Command, Request, SourceSpec, WireError,
};
pub use server::Server;
