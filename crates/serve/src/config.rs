//! Declarative, validated service configuration.
//!
//! A [`ServeConfig`] is plain data: the CLI (or a test) fills in fields
//! and [`ServeConfig::validate`] checks the whole document at once,
//! reporting *every* violation — not just the first — with the offending
//! field named, so a misconfigured daemon fails fast with one complete
//! message instead of a restart-per-mistake loop.

use std::fmt;
use std::path::PathBuf;

use parpat_ir::ExecLimits;

/// Upper bound accepted for `max_frame` (matches the journal's record
/// guard: nothing legitimate is this large).
pub const MAX_FRAME_CEILING: usize = 64 << 20;

/// Default request frame cap: generous for real sources, far below
/// anything that could pressure memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Default bounded admission queue depth: connections past the
/// `max_connections` cap wait here before load shedding kicks in.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Upper bound accepted for `queue_depth`: a deeper queue only trades
/// memory for latency the client has already given up on.
pub const QUEUE_DEPTH_CEILING: usize = 4096;

/// Default total idle-connection timeout, in milliseconds. Distinct from
/// the read-poll interval: this clock runs from the last *completed*
/// request frame, so a slow-loris client dribbling bytes without ever
/// finishing a line is disconnected too.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 30_000;

/// Smallest accepted idle timeout: anything below the read-poll interval
/// would disconnect well-behaved clients between their own requests.
pub const MIN_IDLE_TIMEOUT_MS: u64 = 100;

/// Fault-injection plan for the serve-layer chaos harness.
///
/// When armed, every pool-bound request rolls a deterministic
/// xorshift-derived die: with probability `fault_permille`/1000 the
/// request is answered with an injected failure (structured error,
/// worker panic, or stall) instead of — or on the way to —
/// its real result. The sequence is a pure function of `seed` and the
/// request arrival order, so a soak run is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the per-request fault roll.
    pub seed: u64,
    /// Probability of injecting a fault, in permille (0..=1000).
    pub fault_permille: u16,
}

/// Construction parameters for [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `127.0.0.1:7117`); port `0` picks a free
    /// port. `None` disables the TCP listener.
    pub tcp: Option<String>,
    /// Unix-domain socket path. A stale file at this path is removed at
    /// bind time — the daemon owns the path. `None` disables the
    /// listener.
    pub unix: Option<PathBuf>,
    /// Analysis worker threads (the work-stealing pool size).
    pub workers: usize,
    /// Concurrent client connections served before new ones wait in the
    /// admission queue (and, past `queue_depth`, are shed with an
    /// `overloaded` error).
    pub max_connections: usize,
    /// Admission queue depth: connections past the `max_connections` cap
    /// wait here until a slot frees. `0` sheds immediately at the cap.
    pub queue_depth: usize,
    /// Default per-request deadline, in milliseconds, for pool-bound
    /// verbs. A request's own `deadline_ms` member is honored but clamped
    /// to this value when set; `None` means no service-imposed deadline.
    pub request_deadline_ms: Option<u64>,
    /// Total idle-connection timeout, in milliseconds, measured from the
    /// last completed request frame. A connection that holds its slot
    /// this long without completing a frame — idle *or* dribbling bytes —
    /// is answered with a structured `idle-timeout` error and closed.
    pub idle_timeout_ms: u64,
    /// Serve-layer fault injection for the chaos harness; `None` (the
    /// production value) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Longest accepted request line, in bytes; longer frames are
    /// answered with an `oversized-frame` error.
    pub max_frame: usize,
    /// Disk cache/stats directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Execution budgets applied to every profiled run.
    pub limits: ExecLimits,
    /// Supervise analysis jobs with the engine watchdog.
    pub watchdog: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tcp: Some("127.0.0.1:0".to_owned()),
            unix: None,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            max_connections: 64,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            request_deadline_ms: None,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            chaos: None,
            max_frame: DEFAULT_MAX_FRAME,
            cache_dir: None,
            limits: ExecLimits::default(),
            watchdog: true,
        }
    }
}

/// One rejected configuration field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigIssue {
    /// The field that failed validation.
    pub field: &'static str,
    /// Why it was rejected.
    pub message: String,
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl ServeConfig {
    /// Validate the whole configuration, returning every violation.
    pub fn validate(&self) -> Result<(), Vec<ConfigIssue>> {
        let mut issues = Vec::new();
        let mut reject = |field: &'static str, message: String| {
            issues.push(ConfigIssue { field, message });
        };

        if self.tcp.is_none() && self.unix.is_none() {
            reject("tcp/unix", "at least one listener must be configured".to_owned());
        }
        if let Some(addr) = &self.tcp {
            if addr.is_empty() {
                reject("tcp", "listen address must not be empty".to_owned());
            }
        }
        if let Some(path) = &self.unix {
            if path.as_os_str().is_empty() {
                reject("unix", "socket path must not be empty".to_owned());
            }
        }
        if self.workers == 0 {
            reject("workers", "need at least one analysis worker".to_owned());
        }
        if self.workers > 512 {
            reject("workers", format!("{} workers is unreasonable (max 512)", self.workers));
        }
        if self.max_connections == 0 {
            reject("max_connections", "need at least one connection slot".to_owned());
        }
        if self.queue_depth > QUEUE_DEPTH_CEILING {
            reject(
                "queue_depth",
                format!(
                    "{} queued connections exceeds the {QUEUE_DEPTH_CEILING} ceiling",
                    self.queue_depth
                ),
            );
        }
        if let Some(ms) = self.request_deadline_ms {
            if ms == 0 {
                reject(
                    "request_deadline_ms",
                    "a zero deadline rejects every request; use load shedding instead".to_owned(),
                );
            }
            if ms > 86_400_000 {
                reject("request_deadline_ms", format!("{ms} ms exceeds the 24-hour ceiling"));
            }
        }
        if self.idle_timeout_ms < MIN_IDLE_TIMEOUT_MS {
            reject(
                "idle_timeout_ms",
                format!(
                    "{} ms would disconnect clients between their own requests \
                     (min {MIN_IDLE_TIMEOUT_MS})",
                    self.idle_timeout_ms
                ),
            );
        }
        if self.idle_timeout_ms > 3_600_000 {
            reject(
                "idle_timeout_ms",
                format!("{} ms exceeds the one-hour ceiling", self.idle_timeout_ms),
            );
        }
        if let Some(chaos) = &self.chaos {
            if chaos.fault_permille > 1000 {
                reject(
                    "chaos.fault_permille",
                    format!("{} permille is more than always (max 1000)", chaos.fault_permille),
                );
            }
        }
        if self.max_frame < 1024 {
            reject(
                "max_frame",
                format!("{} bytes cannot hold a request (min 1024)", self.max_frame),
            );
        }
        if self.max_frame > MAX_FRAME_CEILING {
            reject(
                "max_frame",
                format!("{} bytes exceeds the {MAX_FRAME_CEILING}-byte ceiling", self.max_frame),
            );
        }
        if issues.is_empty() {
            Ok(())
        } else {
            Err(issues)
        }
    }

    /// Render validation failures as one multi-line message.
    pub fn explain(issues: &[ConfigIssue]) -> String {
        let lines: Vec<String> = issues.iter().map(|i| format!("  - {i}")).collect();
        format!("invalid serve configuration:\n{}", lines.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn all_violations_are_reported_at_once() {
        let cfg = ServeConfig {
            tcp: None,
            unix: None,
            workers: 0,
            max_connections: 0,
            queue_depth: QUEUE_DEPTH_CEILING + 1,
            request_deadline_ms: Some(0),
            idle_timeout_ms: 0,
            chaos: Some(ChaosConfig { seed: 1, fault_permille: 1001 }),
            max_frame: 10,
            ..ServeConfig::default()
        };
        let issues = cfg.validate().unwrap_err();
        let fields: Vec<&str> = issues.iter().map(|i| i.field).collect();
        for f in [
            "tcp/unix",
            "workers",
            "max_connections",
            "queue_depth",
            "request_deadline_ms",
            "idle_timeout_ms",
            "chaos.fault_permille",
            "max_frame",
        ] {
            assert!(fields.contains(&f), "missing {f} in {fields:?}");
        }
        let text = ServeConfig::explain(&issues);
        assert!(text.contains("invalid serve configuration"), "{text}");
        assert!(text.lines().count() >= 9, "{text}");
    }

    #[test]
    fn frame_ceiling_is_enforced() {
        let cfg = ServeConfig { max_frame: MAX_FRAME_CEILING + 1, ..ServeConfig::default() };
        assert_eq!(cfg.validate().unwrap_err()[0].field, "max_frame");
    }

    #[test]
    fn overload_knob_boundaries() {
        // queue_depth: zero (shed at the cap) and the ceiling are both in.
        assert!(ServeConfig { queue_depth: 0, ..Default::default() }.validate().is_ok());
        let at = ServeConfig { queue_depth: QUEUE_DEPTH_CEILING, ..Default::default() };
        assert!(at.validate().is_ok());
        let over = ServeConfig { queue_depth: QUEUE_DEPTH_CEILING + 1, ..Default::default() };
        assert_eq!(over.validate().unwrap_err()[0].field, "queue_depth");

        // request_deadline_ms: 1 ms and 24 h are in, 0 and beyond are out.
        for ok in [Some(1), Some(86_400_000), None] {
            let cfg = ServeConfig { request_deadline_ms: ok, ..Default::default() };
            assert!(cfg.validate().is_ok(), "{ok:?}");
        }
        for bad in [Some(0), Some(86_400_001)] {
            let cfg = ServeConfig { request_deadline_ms: bad, ..Default::default() };
            assert_eq!(cfg.validate().unwrap_err()[0].field, "request_deadline_ms", "{bad:?}");
        }

        // idle_timeout_ms: the documented minimum and one hour are in.
        for ok in [MIN_IDLE_TIMEOUT_MS, 3_600_000] {
            let cfg = ServeConfig { idle_timeout_ms: ok, ..Default::default() };
            assert!(cfg.validate().is_ok(), "{ok}");
        }
        for bad in [MIN_IDLE_TIMEOUT_MS - 1, 3_600_001] {
            let cfg = ServeConfig { idle_timeout_ms: bad, ..Default::default() };
            assert_eq!(cfg.validate().unwrap_err()[0].field, "idle_timeout_ms", "{bad}");
        }

        // chaos: certain injection (1000 permille) is a legal soak setup.
        let chaotic = ServeConfig {
            chaos: Some(ChaosConfig { seed: 42, fault_permille: 1000 }),
            ..Default::default()
        };
        assert!(chaotic.validate().is_ok());
    }
}
