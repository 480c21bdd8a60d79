//! The batch journal: a write-ahead log doubling as a work-distribution
//! ledger.
//!
//! A batch writes one fsynced record per *finished* program into
//! `journal.wal` under the cache directory, keyed by a run digest over the
//! batch inputs and configuration (the same FNV-1a chain the cache uses).
//! If the process is killed mid-batch, `--resume` replays the journal:
//! every program with a complete record is restored byte-identically from
//! its record and skipped; only the unfinished tail is re-analyzed.
//!
//! Since the sharded-batch work (`parpat batch --workers N`) the journal
//! carries four record kinds, not one:
//!
//! - `prog <idx> <worker> <fence> ...` — a finished program (the PR-4
//!   record, now stamped with the worker that produced it and the fencing
//!   token of its lease; single-process batches write `worker 0 fence 0`).
//! - `claim <idx> <worker> <fence> <lease_ms>` — worker `worker` took a
//!   lease on batch index `idx` under monotonically-increasing fencing
//!   token `fence`.
//! - `beat <idx> <worker> <fence>` — lease renewal heartbeat.
//! - `release <idx> <worker> <fence>` — the lease was given up (worker
//!   done-elsewhere, or the coordinator expired it); the index is
//!   claimable again.
//!
//! [`replay`] folds a record sequence into the set of completed programs
//! deterministically: a `prog` under a fencing token is accepted only if
//! that token still holds the index's active claim, so a zombie worker —
//! SIGKILLed, lease expired, index requeued, yet its stale record arrives
//! anyway — is detected (`fenced_stale`) and discarded rather than
//! clobbering the requeued result. When two `claim` records race for one
//! index (a broken append lock), the lowest `(fence, worker)` pair wins on
//! replay, so every process derives the same owner.
//!
//! The format is torn-write tolerant by construction: the file is a header
//! line followed by length-prefixed records, and [`scan`] stops at the
//! first incomplete or malformed record, so a crash mid-append costs at
//! most the record being written. Resuming truncates the torn tail before
//! appending. A journal whose run digest does not match the current batch
//! (different inputs or configuration) is discarded wholesale — resuming
//! never mixes results from two different runs.
//!
//! Every frame line carries a mandatory FNV-1a checksum of its payload
//! (`rec <len> <fnv:016x>\n`, format v3), so bit-rot *inside* a complete
//! record stops the scan at the damaged record instead of replaying
//! corrupted results. A frame without the checksum is malformed, and a
//! header of any other format version is unreadable: resume starts a
//! fresh journal and `parpat fsck` reports F001. [`ScanOut::tail`]
//! reports *why* a scan stopped ([`TailIssue`]), which `parpat fsck` maps
//! to stable diagnostic codes.
//!
//! All file I/O goes through a [`Vfs`] handle, so the crash-consistency
//! harness can run the same code against the simulated, fault-injecting
//! backend. A failed append **poisons** the journal handle: later appends
//! are refused instead of risking interleaved garbage after a partial
//! record, and the engine accounts each refusal.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use parpat_runtime::lock_recover;

use crate::digest::hash_bytes;
use crate::error::{EngineError, ErrorKind};
use crate::report::{DegradedReport, ProgramReport};
use crate::stage::Stage;
use crate::vfs::{RealFs, Vfs};

/// Journal file name under the cache directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Header magic: every record frame carries an FNV checksum.
const MAGIC: &str = "parpat-journal-v3";

/// Ceiling on a single record's payload; anything larger is treated as
/// corruption rather than allocated.
const MAX_RECORD: usize = 64 << 20;

/// Path of the journal inside cache directory `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// The persisted outcome of one completed program.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredOutcome {
    /// Full analysis succeeded.
    Ok {
        /// The complete report.
        report: ProgramReport,
        /// Whether every stage was answered by the cache.
        fully_cached: bool,
    },
    /// Dynamic stages failed; static results were kept.
    Degraded(DegradedReport),
    /// Hard failure.
    Err(EngineError),
}

/// One completed-program record: which batch index finished, how, and
/// under whose lease. Single-process batches write `worker 0, fence 0`
/// (the unfenced record is always accepted on replay).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Batch input index.
    pub index: usize,
    /// Worker id that produced the result (0 = in-process).
    pub worker: u64,
    /// Fencing token of the lease the result was produced under
    /// (0 = unfenced single-process append).
    pub fence: u64,
    /// The program's outcome.
    pub outcome: StoredOutcome,
}

/// One journal record of any kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A finished program.
    Prog(JournalEntry),
    /// Worker `worker` leased batch index `index` under fencing token
    /// `fence`, promising a heartbeat at least every `lease_ms`.
    Claim {
        /// Batch input index being leased.
        index: usize,
        /// Claiming worker id.
        worker: u64,
        /// Fencing token (monotonically increasing across the journal).
        fence: u64,
        /// Lease duration the worker promised to renew within.
        lease_ms: u64,
    },
    /// Lease renewal heartbeat for an active claim.
    Beat {
        /// Leased batch index.
        index: usize,
        /// Renewing worker id.
        worker: u64,
        /// Fencing token of the renewed lease.
        fence: u64,
    },
    /// The lease was given up (by the worker or by the coordinator after
    /// expiry); the index is claimable again under a higher fence.
    Release {
        /// Batch index whose lease ends.
        index: usize,
        /// Worker id whose lease ends.
        worker: u64,
        /// Fencing token of the ended lease.
        fence: u64,
    },
}

/// A lease that is still open after [`replay`]: its index has neither a
/// matching `release` nor an accepted `prog` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenClaim {
    /// Leased batch index.
    pub index: usize,
    /// Owning worker id.
    pub worker: u64,
    /// Fencing token of the lease.
    pub fence: u64,
}

/// Deterministic fold of a record sequence: completed programs, leases
/// still open, stale results discarded, and the high-water fencing token.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Accepted completed programs, ordered by batch index.
    pub entries: Vec<JournalEntry>,
    /// Leases with no matching release and no accepted result, ordered by
    /// index.
    pub open_claims: Vec<OpenClaim>,
    /// `prog` records discarded because their fencing token no longer held
    /// the index's claim (zombie workers) or the index already completed.
    pub fenced_stale: u64,
    /// Highest fencing token seen; the next claim must use a larger one.
    pub max_fence: u64,
}

/// Fold records into completion state. The rules, applied in record
/// order:
///
/// - `claim`: ignored if the index already completed. If the index is
///   already claimed, the *lowest* `(fence, worker)` pair keeps the lease
///   — duplicate claims only arise from a broken append lock, and every
///   replayer must pick the same winner.
/// - `release`: ends the claim only if `(fence, worker)` matches the
///   active one (a stale release cannot evict a newer lease).
/// - `prog` with `fence == 0`: unfenced single-process record, accepted
///   unless the index already completed.
/// - `prog` with `fence > 0`: accepted only while `(fence, worker)` holds
///   the index's active claim; otherwise counted in `fenced_stale` and
///   discarded — this is what makes a zombie worker's late result
///   harmless.
pub fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Replay {
    let mut completed: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    let mut claims: HashMap<usize, (u64, u64)> = HashMap::new();
    let mut fenced_stale = 0u64;
    let mut max_fence = 0u64;
    for rec in records {
        match rec {
            Record::Claim { index, worker, fence, .. } => {
                max_fence = max_fence.max(*fence);
                if completed.contains_key(index) {
                    continue;
                }
                let cand = (*fence, *worker);
                let cur = claims.entry(*index).or_insert(cand);
                if cand < *cur {
                    *cur = cand;
                }
            }
            Record::Beat { fence, .. } => {
                max_fence = max_fence.max(*fence);
            }
            Record::Release { index, worker, fence } => {
                if claims.get(index) == Some(&(*fence, *worker)) {
                    claims.remove(index);
                }
            }
            Record::Prog(e) => {
                max_fence = max_fence.max(e.fence);
                if completed.contains_key(&e.index) {
                    fenced_stale += 1;
                    continue;
                }
                if e.fence == 0 || claims.get(&e.index) == Some(&(e.fence, e.worker)) {
                    claims.remove(&e.index);
                    completed.insert(e.index, e.clone());
                } else {
                    fenced_stale += 1;
                }
            }
        }
    }
    let mut open_claims: Vec<OpenClaim> = claims
        .into_iter()
        .map(|(index, (fence, worker))| OpenClaim { index, worker, fence })
        .collect();
    open_claims.sort_by_key(|c| c.index);
    Replay { entries: completed.into_values().collect(), open_claims, fenced_stale, max_fence }
}

/// An open, append-only journal. Appends are serialized through a mutex
/// and fsynced (`sync_data`) one record at a time, so every record the
/// file contains describes a program whose results are durable. (Workers
/// in a sharded batch append through [`crate::shard`]'s lock-file ledger
/// instead — this handle covers the single-process path.)
///
/// The first append that fails **poisons** the handle: the file may hold
/// a partial record past the last valid boundary, and appending more
/// would interleave garbage that truncation-on-resume could not separate
/// from real data. Poisoned appends fail fast with a structured error;
/// the batch keeps running (results live in memory and the cache) and the
/// engine counts every refused append.
#[derive(Debug)]
pub struct Journal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Append serialization lock; `true` once an append has failed.
    poisoned: Mutex<bool>,
}

impl Journal {
    /// Start a fresh journal for run `run` in `dir`, discarding any
    /// previous journal.
    pub fn start(dir: &Path, run: u64) -> std::io::Result<Journal> {
        Journal::start_via(Arc::new(RealFs), dir, run)
    }

    /// [`Journal::start`] against an explicit storage backend.
    pub fn start_via(vfs: Arc<dyn Vfs>, dir: &Path, run: u64) -> std::io::Result<Journal> {
        let path = journal_path(dir);
        vfs.create_sync(&path, header_bytes(run).as_bytes())?;
        Ok(Journal { vfs, path, poisoned: Mutex::new(false) })
    }

    /// Resume the journal for run `run` in `dir`: returns the reopened
    /// journal plus the deterministic [`Replay`] of every complete record
    /// it already holds. A missing journal, a run-digest mismatch, or a
    /// garbage header all fall back to a fresh journal with no entries; a
    /// torn trailing record is truncated away before appending resumes.
    /// Any read error other than `NotFound` (EACCES, EIO, ...) propagates
    /// — a journal that exists but cannot be read must never be silently
    /// destroyed.
    pub fn resume(dir: &Path, run: u64) -> std::io::Result<(Journal, Replay)> {
        Journal::resume_via(Arc::new(RealFs), dir, run)
    }

    /// [`Journal::resume`] against an explicit storage backend.
    pub fn resume_via(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        run: u64,
    ) -> std::io::Result<(Journal, Replay)> {
        let path = journal_path(dir);
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
            }
            Err(e) => return Err(e),
        };
        let Some(parsed) = scan(&bytes) else {
            return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
        };
        if parsed.run != run {
            return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
        }
        // Truncate the torn tail to the end of the last complete record —
        // or, with no records at all, to the header end `scan` measured.
        let valid_end = parsed.records.last().map_or(parsed.header_end as u64, |(_, e)| *e as u64);
        vfs.truncate_sync(&path, valid_end)?;
        let records: Vec<Record> = parsed.records.into_iter().map(|(r, _)| r).collect();
        Ok((Journal { vfs, path, poisoned: Mutex::new(false) }, replay(&records)))
    }

    /// Append one completed-program record and fsync it. Returns only
    /// after the record is durable. After the first failure the handle is
    /// poisoned and every later append is refused (see [`Journal`]).
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let bytes = render_record(&Record::Prog(entry.clone()));
        let mut poisoned = lock_recover(&self.poisoned);
        if *poisoned {
            return Err(std::io::Error::other(
                "journal poisoned: an earlier append failed and may have left a partial record",
            ));
        }
        match self.vfs.append_sync(&self.path, &bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                *poisoned = true;
                Err(e)
            }
        }
    }

    /// Whether an append has failed and the handle refuses further writes.
    pub fn is_poisoned(&self) -> bool {
        *lock_recover(&self.poisoned)
    }
}

/// The journal header line for run `run` (shared with the shard ledger).
pub fn header_bytes(run: u64) -> String {
    format!("{MAGIC} {run:016x}\n")
}

/// Why a scan stopped before the end of the file. Resume treats all three
/// identically (truncate to the last good record); `parpat fsck` reports
/// them under distinct diagnostic codes because they mean different
/// things: a torn tail is the expected cost of a crash, a checksum or
/// malformed record is damage to data that was once durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailIssue {
    /// The file ends mid-record: an interrupted append.
    Torn,
    /// A complete record whose FNV checksum does not match its bytes:
    /// bit-rot or in-place tampering.
    Checksum,
    /// A complete frame whose head or payload does not parse.
    Malformed,
}

/// The parsed journal: run digest, byte offset just past the header line,
/// and every complete record with the offset just past it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOut {
    /// Run digest from the header.
    pub run: u64,
    /// Byte offset just past the header line — the truncation point for a
    /// journal with no complete records.
    pub header_end: usize,
    /// Complete records in file order, each with the offset where the next
    /// record starts.
    pub records: Vec<(Record, usize)>,
    /// Why the scan stopped, if it stopped before the end of the file.
    pub tail: Option<TailIssue>,
}

impl ScanOut {
    /// The records without their offsets.
    pub fn into_records(self) -> Vec<Record> {
        self.records.into_iter().map(|(r, _)| r).collect()
    }
}

/// Parse journal bytes. Returns `None` when the header itself is
/// unreadable. Scanning stops — without error — at the first torn,
/// checksum-failing, or malformed record, which is exactly the resume
/// semantics: everything before the damage is trusted, everything after
/// is re-analyzed.
pub fn scan(bytes: &[u8]) -> Option<ScanOut> {
    let header_nl = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_nl]).ok()?;
    let run_hex = header.strip_prefix(MAGIC)?.trim();
    let run = u64::from_str_radix(run_hex, 16).ok()?;
    let header_end = header_nl + 1;
    let mut pos = header_end;
    let mut records = Vec::new();
    let mut tail = None;
    while pos < bytes.len() {
        match next_record(bytes, pos) {
            Step::Rec(rec, end) => {
                records.push((rec, end));
                pos = end;
            }
            Step::Stop(issue) => {
                tail = Some(issue);
                break;
            }
        }
    }
    Some(ScanOut { run, header_end, records, tail })
}

/// Outcome of parsing one record position.
enum Step {
    /// A good record and the offset just past it.
    Rec(Record, usize),
    /// Scanning must stop here.
    Stop(TailIssue),
}

/// Parse the record starting at `pos`: a `rec <len> <fnv:016x>\n` frame
/// line, then a payload whose checksum must match.
fn next_record(bytes: &[u8], pos: usize) -> Step {
    let rest = &bytes[pos..];
    let Some(line_end) = rest.iter().position(|&b| b == b'\n') else {
        return Step::Stop(TailIssue::Torn);
    };
    let Some(frame) =
        std::str::from_utf8(&rest[..line_end]).ok().and_then(|l| l.strip_prefix("rec "))
    else {
        return Step::Stop(TailIssue::Malformed);
    };
    let mut fields = frame.split(' ');
    let Some(len) = fields.next().and_then(|f| f.parse::<usize>().ok()) else {
        return Step::Stop(TailIssue::Malformed);
    };
    let Some(sum) =
        fields.next().filter(|f| f.len() == 16).and_then(|f| u64::from_str_radix(f, 16).ok())
    else {
        return Step::Stop(TailIssue::Malformed);
    };
    if fields.next().is_some() || len > MAX_RECORD {
        return Step::Stop(TailIssue::Malformed);
    }
    let payload_start = line_end + 1;
    let Some(payload) = rest.get(payload_start..payload_start + len) else {
        return Step::Stop(TailIssue::Torn);
    };
    if hash_bytes(payload) != sum {
        return Step::Stop(TailIssue::Checksum);
    }
    let Some(rec) = parse_payload(payload) else {
        return Step::Stop(TailIssue::Malformed);
    };
    Step::Rec(rec, pos + payload_start + len)
}

fn csv(lines: &[u32]) -> String {
    if lines.is_empty() {
        "-".to_owned()
    } else {
        let strs: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        strs.join(",")
    }
}

fn parse_csv(field: &str) -> Option<Vec<u32>> {
    if field == "-" {
        return Some(Vec::new());
    }
    field.split(',').map(|t| t.parse().ok()).collect()
}

/// Serialize one record into its length-prefixed wire form (shared by the
/// in-process [`Journal`] and the multi-process shard ledger).
pub fn render_record(rec: &Record) -> Vec<u8> {
    let (head, body) = match rec {
        Record::Claim { index, worker, fence, lease_ms } => {
            (format!("claim {index} {worker} {fence} {lease_ms}"), Vec::new())
        }
        Record::Beat { index, worker, fence } => {
            (format!("beat {index} {worker} {fence}"), Vec::new())
        }
        Record::Release { index, worker, fence } => {
            (format!("release {index} {worker} {fence}"), Vec::new())
        }
        Record::Prog(entry) => match &entry.outcome {
            StoredOutcome::Ok { report: r, fully_cached } => {
                let head = format!(
                    "prog {} {} {} ok {} {} {} {} {} {} {} {} {} {} {} {}",
                    entry.index,
                    entry.worker,
                    entry.fence,
                    u8::from(*fully_cached),
                    r.insts,
                    r.pipelines,
                    r.fusions,
                    r.reductions,
                    r.geodecomp,
                    r.task_regions,
                    r.static_doall,
                    csv(&r.input_sensitive),
                    csv(&r.consistency_errors),
                    r.summary.len(),
                    r.ranking.len(),
                );
                let mut body = Vec::with_capacity(r.summary.len() + r.ranking.len());
                body.extend_from_slice(r.summary.as_bytes());
                body.extend_from_slice(r.ranking.as_bytes());
                (head, body)
            }
            StoredOutcome::Degraded(d) => {
                let head = format!(
                    "prog {} {} {} degraded {} {} {} {} {} {} {} {}",
                    entry.index,
                    entry.worker,
                    entry.fence,
                    d.reason.stage.name(),
                    d.reason.kind.name(),
                    d.loops,
                    d.cus,
                    d.regions,
                    csv(&d.doall_candidates),
                    d.reason.detail.len(),
                    d.summary.len(),
                );
                let mut body = Vec::with_capacity(d.reason.detail.len() + d.summary.len());
                body.extend_from_slice(d.reason.detail.as_bytes());
                body.extend_from_slice(d.summary.as_bytes());
                (head, body)
            }
            StoredOutcome::Err(e) => {
                let head = format!(
                    "prog {} {} {} err {} {} {}",
                    entry.index,
                    entry.worker,
                    entry.fence,
                    e.stage.name(),
                    e.kind.name(),
                    e.detail.len(),
                );
                (head, e.detail.as_bytes().to_vec())
            }
        },
    };
    let mut payload = Vec::with_capacity(head.len() + 1 + body.len());
    payload.extend_from_slice(head.as_bytes());
    payload.push(b'\n');
    payload.extend_from_slice(&body);
    let sum = hash_bytes(&payload);
    let mut out = format!("rec {} {sum:016x}\n", payload.len()).into_bytes();
    out.extend_from_slice(&payload);
    out
}

/// Split `body` at `at`, decoding both halves as UTF-8 strings.
fn split_strings(body: &[u8], at: usize) -> Option<(String, String)> {
    let first = String::from_utf8(body.get(..at)?.to_vec()).ok()?;
    let second = String::from_utf8(body.get(at..)?.to_vec()).ok()?;
    Some((first, second))
}

fn parse_payload(payload: &[u8]) -> Option<Record> {
    let line_end = payload.iter().position(|&b| b == b'\n')?;
    let head = std::str::from_utf8(&payload[..line_end]).ok()?;
    let body = &payload[line_end + 1..];
    let tok: Vec<&str> = head.split(' ').collect();
    match *tok.first()? {
        "claim" => {
            if tok.len() != 5 || !body.is_empty() {
                return None;
            }
            Some(Record::Claim {
                index: tok[1].parse().ok()?,
                worker: tok[2].parse().ok()?,
                fence: tok[3].parse().ok()?,
                lease_ms: tok[4].parse().ok()?,
            })
        }
        "beat" => {
            if tok.len() != 4 || !body.is_empty() {
                return None;
            }
            Some(Record::Beat {
                index: tok[1].parse().ok()?,
                worker: tok[2].parse().ok()?,
                fence: tok[3].parse().ok()?,
            })
        }
        "release" => {
            if tok.len() != 4 || !body.is_empty() {
                return None;
            }
            Some(Record::Release {
                index: tok[1].parse().ok()?,
                worker: tok[2].parse().ok()?,
                fence: tok[3].parse().ok()?,
            })
        }
        "prog" => parse_prog(&tok, body).map(Record::Prog),
        _ => None,
    }
}

fn parse_prog(tok: &[&str], body: &[u8]) -> Option<JournalEntry> {
    let index: usize = tok.get(1)?.parse().ok()?;
    let worker: u64 = tok.get(2)?.parse().ok()?;
    let fence: u64 = tok.get(3)?.parse().ok()?;
    let outcome = match *tok.get(4)? {
        "ok" => {
            if tok.len() != 17 {
                return None;
            }
            let fully_cached = match tok[5] {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let summary_len: usize = tok[15].parse().ok()?;
            let ranking_len: usize = tok[16].parse().ok()?;
            if summary_len + ranking_len != body.len() {
                return None;
            }
            let (summary, ranking) = split_strings(body, summary_len)?;
            StoredOutcome::Ok {
                report: ProgramReport {
                    summary,
                    ranking,
                    insts: tok[6].parse().ok()?,
                    pipelines: tok[7].parse().ok()?,
                    fusions: tok[8].parse().ok()?,
                    reductions: tok[9].parse().ok()?,
                    geodecomp: tok[10].parse().ok()?,
                    task_regions: tok[11].parse().ok()?,
                    static_doall: tok[12].parse().ok()?,
                    input_sensitive: parse_csv(tok[13])?,
                    consistency_errors: parse_csv(tok[14])?,
                },
                fully_cached,
            }
        }
        "degraded" => {
            if tok.len() != 13 {
                return None;
            }
            let stage = Stage::from_name(tok[5])?;
            let kind = ErrorKind::from_name(tok[6])?;
            let detail_len: usize = tok[11].parse().ok()?;
            let summary_len: usize = tok[12].parse().ok()?;
            if detail_len + summary_len != body.len() {
                return None;
            }
            let (detail, summary) = split_strings(body, detail_len)?;
            StoredOutcome::Degraded(DegradedReport {
                reason: EngineError::new(stage, kind, detail),
                summary,
                loops: tok[7].parse().ok()?,
                cus: tok[8].parse().ok()?,
                regions: tok[9].parse().ok()?,
                doall_candidates: parse_csv(tok[10])?,
            })
        }
        "err" => {
            if tok.len() != 8 {
                return None;
            }
            let stage = Stage::from_name(tok[5])?;
            let kind = ErrorKind::from_name(tok[6])?;
            let detail_len: usize = tok[7].parse().ok()?;
            if detail_len != body.len() {
                return None;
            }
            let detail = String::from_utf8(body.to_vec()).ok()?;
            StoredOutcome::Err(EngineError::new(stage, kind, detail))
        }
        _ => return None,
    };
    Some(JournalEntry { index, worker, fence, outcome })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample_report() -> ProgramReport {
        ProgramReport {
            summary: "line one\nline two\n".to_owned(),
            ranking: "1. pipeline\n".to_owned(),
            insts: 12345,
            pipelines: 1,
            fusions: 2,
            reductions: 3,
            geodecomp: 0,
            task_regions: 4,
            static_doall: 5,
            input_sensitive: vec![7, 11],
            consistency_errors: vec![],
        }
    }

    fn entry(index: usize, worker: u64, fence: u64) -> JournalEntry {
        JournalEntry {
            index,
            worker,
            fence,
            outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: false },
        }
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                index: 0,
                worker: 0,
                fence: 0,
                outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: true },
            },
            JournalEntry {
                index: 2,
                worker: 3,
                fence: 7,
                outcome: StoredOutcome::Degraded(DegradedReport {
                    reason: EngineError::new(Stage::Profile, ErrorKind::Panic, "boom \"x\""),
                    summary: "static only\n".to_owned(),
                    loops: 3,
                    cus: 4,
                    regions: 2,
                    doall_candidates: vec![9],
                }),
            },
            JournalEntry {
                index: 5,
                worker: 0,
                fence: 0,
                outcome: StoredOutcome::Err(EngineError::new(
                    Stage::Parse,
                    ErrorKind::Lang,
                    "syntax error\nat line 2",
                )),
            },
        ]
    }

    fn sample_records() -> Vec<Record> {
        let mut out = vec![
            Record::Claim { index: 2, worker: 3, fence: 7, lease_ms: 500 },
            Record::Beat { index: 2, worker: 3, fence: 7 },
        ];
        out.extend(sample_entries().into_iter().map(Record::Prog));
        out.push(Record::Release { index: 9, worker: 1, fence: 8 });
        out
    }

    #[test]
    fn records_round_trip_byte_identically() {
        for rec in sample_records() {
            let bytes = render_record(&rec);
            let Step::Rec(parsed, end) = next_record(&bytes, 0) else {
                panic!("rendered record must parse");
            };
            assert_eq!(parsed, rec);
            assert_eq!(end, bytes.len());
        }
    }

    #[test]
    fn bit_rot_inside_a_complete_record_stops_the_scan() {
        let mut bytes = header_bytes(5).into_bytes();
        bytes.extend_from_slice(&render_record(&Record::Prog(entry(0, 0, 0))));
        let rot_at = bytes.len() - 3; // deep inside the record body
        bytes[rot_at] ^= 0x40;
        bytes.extend_from_slice(&render_record(&Record::Prog(entry(1, 0, 0))));
        let parsed = scan(&bytes).unwrap();
        assert!(parsed.records.is_empty(), "a checksum-failing record must not replay");
        assert_eq!(parsed.tail, Some(TailIssue::Checksum));
    }

    #[test]
    fn a_failed_append_poisons_the_journal() {
        use crate::vfs::{DiskFault, SimFs};
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        let journal = Journal::start_via(vfs.clone(), &dir, 0xabc).unwrap();
        journal.append(&entry(0, 0, 0)).unwrap();
        vfs.set_fault(Some(DiskFault::Eio { at: vfs.ops() + 1 }));
        assert!(journal.append(&entry(1, 0, 0)).is_err());
        assert!(journal.is_poisoned());
        // The fault was transient, but the handle stays closed: the file
        // may hold a partial record past the last good boundary.
        let err = journal.append(&entry(2, 0, 0)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Resume still works and replays the durable prefix.
        let (_journal, replayed) = Journal::resume_via(vfs, &dir, 0xabc).unwrap();
        assert_eq!(replayed.entries, vec![entry(0, 0, 0)]);
    }

    #[test]
    fn start_append_resume_round_trips() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 0xfeed).unwrap();
        for e in sample_entries() {
            journal.append(&e).unwrap();
        }
        drop(journal);
        let (_journal, replayed) = Journal::resume(&dir, 0xfeed).unwrap();
        // Entry 2 carries fence 7 with no claim record: fenced replay must
        // discard it; the unfenced entries 0 and 5 survive.
        let keep: Vec<JournalEntry> =
            sample_entries().into_iter().filter(|e| e.fence == 0).collect();
        assert_eq!(replayed.entries, keep);
        assert_eq!(replayed.fenced_stale, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 7).unwrap();
        let entries: Vec<JournalEntry> = vec![entry(0, 0, 0), entry(1, 0, 0), entry(2, 0, 0)];
        for e in &entries {
            journal.append(e).unwrap();
        }
        drop(journal);
        // Tear the last record in half.
        let path = journal_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = scan(&bytes).unwrap();
        let keep = parsed.records[1].1 + 5; // mid-way into record 3
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let (journal, replayed) = Journal::resume(&dir, 7).unwrap();
        assert_eq!(replayed.entries, entries[..2].to_vec());
        // The torn tail is gone: a fresh append lands on a clean boundary.
        journal.append(&entries[2]).unwrap();
        drop(journal);
        let all = scan(&std::fs::read(&path).unwrap()).unwrap().into_records();
        let progs: Vec<JournalEntry> = replay(&all).entries;
        assert_eq!(progs, entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_truncation_point_is_the_header_end() {
        // A journal with a torn *first* record must truncate to exactly
        // the header scan measured, whatever the header happens to be.
        let dir = std::env::temp_dir().join(format!("parpat-journal-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        let mut bytes = header_bytes(0xabc).into_bytes();
        let header_len = bytes.len() as u64;
        bytes.extend_from_slice(b"rec 999\nprog 0");
        std::fs::write(&path, &bytes).unwrap();
        let (_journal, replayed) = Journal::resume(&dir, 0xabc).unwrap();
        assert!(replayed.entries.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_journal_propagates_the_error() {
        // `fs::read` on a directory fails with something other than
        // NotFound on every platform (and unlike EACCES, also fails for
        // root): resume must propagate, never destroy the path.
        let dir = std::env::temp_dir().join(format!("parpat-journal-eio-{}", std::process::id()));
        std::fs::create_dir_all(journal_path(&dir)).unwrap();
        let err = Journal::resume(&dir, 1).expect_err("an unreadable journal must propagate");
        assert_ne!(err.kind(), std::io::ErrorKind::NotFound);
        // The journal "file" (our directory) was not destroyed.
        assert!(journal_path(&dir).is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_digest_mismatch_discards_the_journal() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 1).unwrap();
        journal.append(&sample_entries()[0]).unwrap();
        drop(journal);
        let (_journal, replayed) = Journal::resume(&dir, 2).unwrap();
        assert!(replayed.entries.is_empty(), "a different run must not replay stale records");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_journal_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(journal_path(&dir), b"\x00\xff not a journal at all").unwrap();
        let (journal, replayed) = Journal::resume(&dir, 3).unwrap();
        assert!(replayed.entries.is_empty());
        journal.append(&sample_entries()[0]).unwrap();
        drop(journal);
        let parsed = scan(&std::fs::read(journal_path(&dir)).unwrap()).unwrap();
        assert_eq!(parsed.run, 3);
        assert_eq!(parsed.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_record_length_is_rejected() {
        let mut bytes = header_bytes(9).into_bytes();
        bytes.extend_from_slice(b"rec 99999999999999 0000000000000000\nprog");
        let parsed = scan(&bytes).unwrap();
        assert_eq!(parsed.run, 9);
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.tail, Some(TailIssue::Malformed));
    }

    #[test]
    fn checksums_are_mandatory_and_old_headers_unreadable() {
        let rec = render_record(&Record::Prog(entry(0, 0, 0)));
        let nl = rec.iter().position(|&b| b == b'\n').unwrap();
        // The frame line without its checksum field.
        let frame = std::str::from_utf8(&rec[..nl]).unwrap().rsplit_once(' ').unwrap().0;
        let mut bytes = header_bytes(4).into_bytes();
        bytes.extend_from_slice(format!("{frame}\n").as_bytes());
        bytes.extend_from_slice(&rec[nl + 1..]);
        assert_eq!(scan(&bytes).unwrap().tail, Some(TailIssue::Malformed));
        assert!(scan(format!("parpat-journal-v2 {:016x}\n", 4).as_bytes()).is_none());
    }

    #[test]
    fn fenced_prog_needs_its_active_claim() {
        // claim(f=1) -> release -> claim(f=2) -> zombie prog(f=1) is
        // stale; prog(f=2) is accepted.
        let records = vec![
            Record::Claim { index: 0, worker: 1, fence: 1, lease_ms: 100 },
            Record::Release { index: 0, worker: 1, fence: 1 },
            Record::Claim { index: 0, worker: 2, fence: 2, lease_ms: 100 },
            Record::Prog(entry(0, 1, 1)),
            Record::Prog(entry(0, 2, 2)),
        ];
        let r = replay(&records);
        assert_eq!(r.fenced_stale, 1);
        assert_eq!(r.entries, vec![entry(0, 2, 2)]);
        assert_eq!(r.max_fence, 2);
        assert!(r.open_claims.is_empty());
    }

    #[test]
    fn zombie_result_arriving_before_release_wins_and_later_result_is_stale() {
        // The worker wrote its prog just before the coordinator killed it:
        // the result is real work and is kept; the requeued worker's
        // duplicate is the stale one. Either order yields one accepted
        // entry per index.
        let records = vec![
            Record::Claim { index: 0, worker: 1, fence: 1, lease_ms: 100 },
            Record::Prog(entry(0, 1, 1)),
            Record::Release { index: 0, worker: 1, fence: 1 },
            Record::Claim { index: 0, worker: 2, fence: 2, lease_ms: 100 },
            Record::Prog(entry(0, 2, 2)),
        ];
        let r = replay(&records);
        assert_eq!(r.entries, vec![entry(0, 1, 1)]);
        assert_eq!(r.fenced_stale, 1);
    }

    #[test]
    fn duplicate_claims_resolve_to_the_lowest_fence() {
        // A broken append lock let two workers claim index 4; every
        // replayer must crown the same owner: lowest (fence, worker).
        let records = vec![
            Record::Claim { index: 4, worker: 9, fence: 3, lease_ms: 100 },
            Record::Claim { index: 4, worker: 2, fence: 5, lease_ms: 100 },
            Record::Prog(entry(4, 2, 5)),
        ];
        let r = replay(&records);
        assert_eq!(r.entries, Vec::<JournalEntry>::new());
        assert_eq!(r.fenced_stale, 1, "the higher-fence claimant's result is fenced out");
        assert_eq!(r.open_claims, vec![OpenClaim { index: 4, worker: 9, fence: 3 }]);
        let winner = replay(&[
            Record::Claim { index: 4, worker: 9, fence: 3, lease_ms: 100 },
            Record::Claim { index: 4, worker: 2, fence: 5, lease_ms: 100 },
            Record::Prog(entry(4, 9, 3)),
        ]);
        assert_eq!(winner.entries, vec![entry(4, 9, 3)]);
    }

    #[test]
    fn stale_release_cannot_evict_a_newer_lease() {
        let records = vec![
            Record::Claim { index: 1, worker: 1, fence: 1, lease_ms: 100 },
            Record::Release { index: 1, worker: 1, fence: 1 },
            Record::Claim { index: 1, worker: 2, fence: 2, lease_ms: 100 },
            Record::Release { index: 1, worker: 1, fence: 1 },
        ];
        let r = replay(&records);
        assert_eq!(r.open_claims, vec![OpenClaim { index: 1, worker: 2, fence: 2 }]);
    }

    #[test]
    fn claim_after_completion_is_ignored() {
        let records = vec![
            Record::Prog(entry(3, 0, 0)),
            Record::Claim { index: 3, worker: 5, fence: 9, lease_ms: 100 },
        ];
        let r = replay(&records);
        assert_eq!(r.entries, vec![entry(3, 0, 0)]);
        assert!(r.open_claims.is_empty(), "completed work cannot be re-leased");
        assert_eq!(r.max_fence, 9);
    }
}
