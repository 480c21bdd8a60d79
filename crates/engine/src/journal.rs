//! The batch journal: a write-ahead log of finished programs.
//!
//! A batch writes one fsynced record per *finished* program into
//! `journal.wal` under the cache directory, keyed by a run digest over the
//! batch inputs and configuration (the same FNV-1a chain the cache uses).
//! If the process is killed mid-batch, `--resume` replays the journal:
//! every program with a complete record is restored byte-identically from
//! its record and skipped; only the unfinished tail is re-analyzed.
//!
//! Every record is `prog <idx> ok|degraded|err ...`: the batch index and
//! the program's full outcome. [`replay`] keeps the first record of each
//! index.
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
//! (`rec <len> <fnv:016x>\n`, format v4), so bit-rot *inside* a complete
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

use std::collections::BTreeMap;
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

/// Header magic: every record frame carries an FNV checksum, and a `prog`
/// record holds only its index and outcome. Older versions are unreadable.
const MAGIC: &str = "parpat-journal-v4";

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

/// One completed-program record: which batch index finished, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Batch input index.
    pub index: usize,
    /// The program's outcome.
    pub outcome: StoredOutcome,
}

/// Fold records into the completed programs, ordered by batch index. The
/// first record of an index wins; a later one for the same index is
/// ignored.
pub fn replay<'a>(records: impl IntoIterator<Item = &'a JournalEntry>) -> Vec<JournalEntry> {
    let mut completed: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    for e in records {
        completed.entry(e.index).or_insert_with(|| e.clone());
    }
    completed.into_values().collect()
}

/// An open, append-only journal. Appends are serialized through a mutex
/// and fsynced (`sync_data`) one record at a time, so every record the
/// file contains describes a program whose results are durable.
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
    /// journal plus the [`replay`] of every complete record it already
    /// holds. A missing journal, a run-digest mismatch, or a
    /// garbage header all fall back to a fresh journal with no entries; a
    /// torn trailing record is truncated away before appending resumes.
    /// Any read error other than `NotFound` (EACCES, EIO, ...) propagates
    /// — a journal that exists but cannot be read must never be silently
    /// destroyed.
    pub fn resume(dir: &Path, run: u64) -> std::io::Result<(Journal, Vec<JournalEntry>)> {
        Journal::resume_via(Arc::new(RealFs), dir, run)
    }

    /// [`Journal::resume`] against an explicit storage backend.
    pub fn resume_via(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        run: u64,
    ) -> std::io::Result<(Journal, Vec<JournalEntry>)> {
        let path = journal_path(dir);
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::start_via(vfs, dir, run)?, Vec::new()));
            }
            Err(e) => return Err(e),
        };
        let Some(parsed) = scan(&bytes) else {
            return Ok((Journal::start_via(vfs, dir, run)?, Vec::new()));
        };
        if parsed.run != run {
            return Ok((Journal::start_via(vfs, dir, run)?, Vec::new()));
        }
        // Truncate the torn tail to the end of the last complete record —
        // or, with no records at all, to the header end `scan` measured.
        let valid_end = parsed.records.last().map_or(parsed.header_end as u64, |(_, e)| *e as u64);
        vfs.truncate_sync(&path, valid_end)?;
        let entries = replay(parsed.records.iter().map(|(e, _)| e));
        Ok((Journal { vfs, path, poisoned: Mutex::new(false) }, entries))
    }

    /// Append one completed-program record and fsync it. Returns only
    /// after the record is durable. After the first failure the handle is
    /// poisoned and every later append is refused (see [`Journal`]).
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let bytes = render_record(entry);
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

/// The journal header line for run `run`.
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
    pub records: Vec<(JournalEntry, usize)>,
    /// Why the scan stopped, if it stopped before the end of the file.
    pub tail: Option<TailIssue>,
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
    Rec(JournalEntry, usize),
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
    let Some(rec) = parse_prog(payload) else {
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

/// Serialize one record into its length-prefixed wire form.
pub fn render_record(entry: &JournalEntry) -> Vec<u8> {
    let (head, body) = match &entry.outcome {
        StoredOutcome::Ok { report: r, fully_cached } => {
            let head = format!(
                "prog {} ok {} {} {} {} {} {} {} {} {} {} {} {}",
                entry.index,
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
                "prog {} degraded {} {} {} {} {} {} {} {}",
                entry.index,
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
                "prog {} err {} {} {}",
                entry.index,
                e.stage.name(),
                e.kind.name(),
                e.detail.len(),
            );
            (head, e.detail.as_bytes().to_vec())
        }
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

fn parse_prog(payload: &[u8]) -> Option<JournalEntry> {
    let line_end = payload.iter().position(|&b| b == b'\n')?;
    let head = std::str::from_utf8(&payload[..line_end]).ok()?;
    let body = &payload[line_end + 1..];
    let tok: Vec<&str> = head.split(' ').collect();
    if *tok.first()? != "prog" {
        return None;
    }
    let index: usize = tok.get(1)?.parse().ok()?;
    let outcome = match *tok.get(2)? {
        "ok" => {
            if tok.len() != 15 {
                return None;
            }
            let fully_cached = match tok[3] {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let summary_len: usize = tok[13].parse().ok()?;
            let ranking_len: usize = tok[14].parse().ok()?;
            if summary_len + ranking_len != body.len() {
                return None;
            }
            let (summary, ranking) = split_strings(body, summary_len)?;
            StoredOutcome::Ok {
                report: ProgramReport {
                    summary,
                    ranking,
                    insts: tok[4].parse().ok()?,
                    pipelines: tok[5].parse().ok()?,
                    fusions: tok[6].parse().ok()?,
                    reductions: tok[7].parse().ok()?,
                    geodecomp: tok[8].parse().ok()?,
                    task_regions: tok[9].parse().ok()?,
                    static_doall: tok[10].parse().ok()?,
                    input_sensitive: parse_csv(tok[11])?,
                    consistency_errors: parse_csv(tok[12])?,
                },
                fully_cached,
            }
        }
        "degraded" => {
            if tok.len() != 11 {
                return None;
            }
            let stage = Stage::from_name(tok[3])?;
            let kind = ErrorKind::from_name(tok[4])?;
            let detail_len: usize = tok[9].parse().ok()?;
            let summary_len: usize = tok[10].parse().ok()?;
            if detail_len + summary_len != body.len() {
                return None;
            }
            let (detail, summary) = split_strings(body, detail_len)?;
            StoredOutcome::Degraded(DegradedReport {
                reason: EngineError::new(stage, kind, detail),
                summary,
                loops: tok[5].parse().ok()?,
                cus: tok[6].parse().ok()?,
                regions: tok[7].parse().ok()?,
                doall_candidates: parse_csv(tok[8])?,
            })
        }
        "err" => {
            if tok.len() != 6 {
                return None;
            }
            let stage = Stage::from_name(tok[3])?;
            let kind = ErrorKind::from_name(tok[4])?;
            let detail_len: usize = tok[5].parse().ok()?;
            if detail_len != body.len() {
                return None;
            }
            let detail = String::from_utf8(body.to_vec()).ok()?;
            StoredOutcome::Err(EngineError::new(stage, kind, detail))
        }
        _ => return None,
    };
    Some(JournalEntry { index, outcome })
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

    fn entry(index: usize) -> JournalEntry {
        JournalEntry {
            index,
            outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: false },
        }
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                index: 0,
                outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: true },
            },
            JournalEntry {
                index: 2,
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
                outcome: StoredOutcome::Err(EngineError::new(
                    Stage::Parse,
                    ErrorKind::Lang,
                    "syntax error\nat line 2",
                )),
            },
        ]
    }

    #[test]
    fn records_round_trip_byte_identically() {
        for rec in sample_entries() {
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
        bytes.extend_from_slice(&render_record(&entry(0)));
        let rot_at = bytes.len() - 3; // deep inside the record body
        bytes[rot_at] ^= 0x40;
        bytes.extend_from_slice(&render_record(&entry(1)));
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
        journal.append(&entry(0)).unwrap();
        vfs.set_fault(Some(DiskFault::Eio { at: vfs.ops() + 1 }));
        assert!(journal.append(&entry(1)).is_err());
        assert!(journal.is_poisoned());
        // The fault was transient, but the handle stays closed: the file
        // may hold a partial record past the last good boundary.
        let err = journal.append(&entry(2)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Resume still works and replays the durable prefix.
        let (_journal, replayed) = Journal::resume_via(vfs, &dir, 0xabc).unwrap();
        assert_eq!(replayed, vec![entry(0)]);
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
        assert_eq!(replayed, sample_entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 7).unwrap();
        let entries: Vec<JournalEntry> = vec![entry(0), entry(1), entry(2)];
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
        assert_eq!(replayed, entries[..2].to_vec());
        // The torn tail is gone: a fresh append lands on a clean boundary.
        journal.append(&entries[2]).unwrap();
        drop(journal);
        let all = scan(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(replay(all.records.iter().map(|(e, _)| e)), entries);
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
        assert!(replayed.is_empty());
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
        assert!(replayed.is_empty(), "a different run must not replay stale records");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_journal_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(journal_path(&dir), b"\x00\xff not a journal at all").unwrap();
        let (journal, replayed) = Journal::resume(&dir, 3).unwrap();
        assert!(replayed.is_empty());
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
        let rec = render_record(&entry(0));
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
    fn v3_headers_take_the_unreadable_header_path() {
        use crate::vfs::SimFs;
        // A v3 journal: the old header and a correctly framed `prog`
        // record in the v3 layout (two more fields after the index).
        let payload = b"prog 0 0 0 err parse lang 1\nx";
        let mut v3 = format!("parpat-journal-v3 {:016x}\n", 4).into_bytes();
        v3.extend_from_slice(
            format!("rec {} {:016x}\n", payload.len(), hash_bytes(payload)).as_bytes(),
        );
        v3.extend_from_slice(payload);
        assert!(scan(&v3).is_none(), "a v3 header is unreadable");

        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        vfs.create_sync(&journal_path(&dir), &v3).unwrap();
        let report = crate::fsck::fsck(vfs.as_ref(), &dir, false).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["F001"]);

        // Resume starts a fresh v4 journal with nothing replayed.
        let (journal, replayed) = Journal::resume_via(vfs.clone(), &dir, 4).unwrap();
        assert!(replayed.is_empty());
        journal.append(&entry(0)).unwrap();
        let parsed = scan(&vfs.durable(&journal_path(&dir)).unwrap()).unwrap();
        assert_eq!(parsed.run, 4);
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn replay_keeps_the_first_record_of_each_index() {
        let mut later = entry(1);
        later.outcome =
            StoredOutcome::Err(EngineError::new(Stage::Parse, ErrorKind::Lang, "later"));
        let replayed = replay(&[entry(3), entry(1), later]);
        assert_eq!(replayed, vec![entry(1), entry(3)], "first wins, ordered by index");
    }
}
