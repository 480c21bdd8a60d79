//! Sharded multi-process batches: the WAL as a work-distribution ledger.
//!
//! `parpat batch --workers N` runs a **coordinator** (this module's
//! [`run_sharded`]) that spawns `N` worker processes — re-executions of
//! the current binary with a hidden worker verb — which claim batch
//! indices through the shared `journal.wal`:
//!
//! - Appends from every process go through [`Ledger`]: an advisory lock
//!   file (`journal.lock`, created with `O_EXCL`) serializes writers, each
//!   record is written with a single `O_APPEND` write and fsynced before
//!   the lock drops. A lock left behind by a SIGKILLed holder is broken
//!   after [`STALE_LOCK`]; the fencing tokens below make the rare
//!   double-claim that could let through harmless.
//! - A worker claims the lowest unfinished, unclaimed index by appending
//!   `claim <idx> <worker> <fence> <lease_ms>` under a fencing token one
//!   above the journal's high-water mark, renews the lease with `beat`
//!   records from a heartbeat thread, and appends the fenced `prog`
//!   record when the program finishes.
//! - The coordinator tails the journal and mirrors every live lease into
//!   a [`parpat_runtime::Watchdog`] probe whose beat counter advances
//!   with the lease's observed `beat` records. When the watchdog declares
//!   a lease stale (~one lease of silence), the coordinator SIGKILLs the
//!   owner if it is still alive, appends `release`, and the index becomes
//!   claimable again — one expired lease per crash, never a lost run.
//! - Because a `prog` record is only accepted on replay while its fencing
//!   token still holds the index's claim, a **zombie** worker — killed,
//!   expired, requeued, yet flushing its result late — is detected and
//!   its record discarded (`fenced_stale_results`).
//!
//! After every index completes (or the safety timeout lapses), the
//! coordinator reaps its workers and assembles the batch in-process with
//! `EngineConfig::resume`: the journal replay restores every completed
//! program byte-identically — regardless of which process analyzed it —
//! and anything still unfinished is analyzed right there. Worker-spawn
//! failure therefore degrades gracefully: with zero live workers the same
//! assembly path simply runs the whole batch in-process, and the batch
//! succeeds with a note instead of failing.
//!
//! A deterministic chaos harness rides along for the crash-soak gate:
//! [`ShardChaos`] arms a seeded xorshift kill schedule (SIGKILL a random
//! worker per matching scan, `kills` times) plus an optional first worker
//! frozen mid-lease, proving kills and stalls cost leases, not results.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parpat_runtime::{Supervised, WatchGuard, Watchdog, WatchdogConfig};

use crate::engine::{store_outcome, BatchInput, BatchReport, Engine, EngineConfig};
use crate::journal::{journal_path, render_record, replay, scan, Journal, JournalEntry, Record};
use crate::vfs::{RealFs, Vfs};
use crate::xorshift64;

/// Age after which another process may break the append lock: holders
/// keep it only for one record append + fsync, so a lock this old belongs
/// to a process that died while holding it.
pub const STALE_LOCK: Duration = Duration::from_secs(2);

/// Environment variable overriding the worker binary the coordinator
/// re-executes (tests point it at a nonexistent path to exercise the
/// spawn-failure fallback).
pub const WORKER_BIN_ENV: &str = "PARPAT_SHARD_WORKER_BIN";

const LOCK_RETRY: Duration = Duration::from_millis(2);

/// Per-process sequence distinguishing lock tokens and break tombstones
/// from concurrent attempts in one process.
static LOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// Cross-process appender for the journal: every record is written under
/// the advisory lock file as one `O_APPEND` write and fsynced before the
/// lock is released, so concurrent workers never interleave bytes and a
/// record that any reader can see is durable.
pub struct Ledger {
    vfs: Arc<dyn Vfs>,
    wal: PathBuf,
    lock: PathBuf,
    run: u64,
}

/// What [`Ledger::claim_next`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// A lease was taken on `index` under fencing token `fence`.
    Claimed {
        /// The claimed batch index.
        index: usize,
        /// The fencing token stamped into the claim record.
        fence: u64,
    },
    /// Nothing claimable right now, but other leases are still open —
    /// poll again shortly.
    Busy,
    /// Every batch index has an accepted result; the worker is done.
    AllDone,
}

struct LockGuard {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    token: Vec<u8>,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        // Release only a lock we still own: if a mistimed breaker stole
        // it, the file now belongs to another holder and removing it
        // would re-open the very race the token exists to close.
        if self.vfs.read(&self.path).is_ok_and(|bytes| bytes == self.token) {
            let _ = self.vfs.remove_file(&self.path);
        }
    }
}

impl Ledger {
    /// The ledger for run `run`'s journal in cache directory `dir`.
    /// Every operation re-verifies the on-disk run digest, so an orphaned
    /// worker from a dead fleet can never append into a journal that was
    /// since restarted for a different batch.
    pub fn open(dir: &Path, run: u64) -> Ledger {
        Ledger::open_via(Arc::new(RealFs), dir, run)
    }

    /// [`Ledger::open`] against an explicit storage backend.
    pub fn open_via(vfs: Arc<dyn Vfs>, dir: &Path, run: u64) -> Ledger {
        Ledger { vfs, wal: journal_path(dir), lock: dir.join("journal.lock"), run }
    }

    /// Take the advisory append lock, breaking it when its holder has
    /// clearly died ([`STALE_LOCK`]).
    ///
    /// Two guards close the historical double-break race (two processes
    /// both observe the same stale lock, both remove it, both create and
    /// believe they hold it):
    ///
    /// - the break is a **rename to a unique tombstone**, not a remove:
    ///   rename is atomic, so of any number of simultaneous breakers
    ///   exactly one displaces the stale file and the rest fail and
    ///   retry — a breaker can never unlink a *fresh* lock another
    ///   process just created at the same path;
    /// - after `create_new` succeeds the holder **reads the lock back**
    ///   and verifies it still holds its own unique token, catching the
    ///   window where a breaker armed with a stale age observation
    ///   displaced the fresh lock anyway. Lost ownership means retry,
    ///   not proceed.
    ///
    /// The residual window — a breaker striking *after* the read-back —
    /// can still let two writers interleave appends; the fencing tokens
    /// in the journal make that harmless on replay.
    fn acquire(&self) -> std::io::Result<LockGuard> {
        let token = format!(
            "pid {} seq {:016x}\n",
            std::process::id(),
            LOCK_SEQ.fetch_add(1, Ordering::Relaxed)
        )
        .into_bytes();
        loop {
            match self.vfs.create_new(&self.lock, &token) {
                Ok(()) => {
                    if self.vfs.read(&self.lock).is_ok_and(|bytes| bytes == token) {
                        return Ok(LockGuard {
                            vfs: Arc::clone(&self.vfs),
                            path: self.lock.clone(),
                            token,
                        });
                    }
                    // A racing breaker displaced our fresh lock before the
                    // read-back: we do not own the path — go around.
                    std::thread::sleep(LOCK_RETRY);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = self.vfs.file_age(&self.lock).is_ok_and(|age| age > STALE_LOCK);
                    if stale {
                        let tomb = self.lock.with_extension(format!(
                            "broken.{:x}.{:x}",
                            std::process::id(),
                            LOCK_SEQ.fetch_add(1, Ordering::Relaxed)
                        ));
                        if self.vfs.rename(&self.lock, &tomb).is_ok() {
                            let _ = self.vfs.remove_file(&tomb);
                        }
                    } else {
                        std::thread::sleep(LOCK_RETRY);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn check_run(&self) -> std::io::Result<()> {
        let head = self.vfs.read_prefix(&self.wal, 64)?;
        let ok = scan(&head).is_some_and(|p| p.run == self.run);
        if ok {
            Ok(())
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "journal belongs to a different run",
            ))
        }
    }

    fn append_locked(&self, rec: &Record) -> std::io::Result<()> {
        self.check_run()?;
        self.vfs.append_sync(&self.wal, &render_record(rec))
    }

    /// Append one record under the lock and fsync it.
    pub fn append(&self, rec: &Record) -> std::io::Result<()> {
        let _lock = self.acquire()?;
        self.append_locked(rec)
    }

    /// Atomically pick and lease the lowest batch index (of `total`) that
    /// has neither an accepted result nor a live claim, under a fencing
    /// token one above the journal's high-water mark. The read, the
    /// decision, and the claim append all happen under the ledger lock.
    pub fn claim_next(
        &self,
        worker: u64,
        lease_ms: u64,
        total: usize,
    ) -> std::io::Result<ClaimOutcome> {
        let _lock = self.acquire()?;
        let bytes = self.vfs.read(&self.wal)?;
        let parsed = scan(&bytes).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "journal header unreadable")
        })?;
        if parsed.run != self.run {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "journal belongs to a different run",
            ));
        }
        let state = replay(parsed.records.iter().map(|(r, _)| r));
        let done: HashSet<usize> = state.entries.iter().map(|e| e.index).collect();
        if done.len() >= total {
            return Ok(ClaimOutcome::AllDone);
        }
        let leased: HashSet<usize> = state.open_claims.iter().map(|c| c.index).collect();
        let Some(index) = (0..total).find(|i| !done.contains(i) && !leased.contains(i)) else {
            return Ok(ClaimOutcome::Busy);
        };
        let fence = state.max_fence + 1;
        self.append_locked(&Record::Claim { index, worker, fence, lease_ms })?;
        Ok(ClaimOutcome::Claimed { index, fence })
    }
}

/// Worker-process parameters (parsed from the hidden CLI verb).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's id (stamped into claim/beat/prog records; > 0).
    pub worker: u64,
    /// Lease duration promised in claim records; beats renew at a quarter
    /// of it.
    pub lease_ms: u64,
    /// The coordinator's run digest — refuses to touch a journal built
    /// for different inputs or configuration.
    pub run: u64,
    /// Chaos hook: freeze (hold the lease, never beat, never finish) upon
    /// claiming the `freeze_at`-th index. The freeze is bounded so an
    /// orphaned frozen worker cannot outlive its test.
    pub freeze_at: Option<u64>,
}

/// Sleep `total` in small slices, returning early once `stop` is set.
fn sleep_unless(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The worker-process main loop: claim an index, heartbeat the lease,
/// analyze, append the fenced result; repeat until every index has an
/// accepted result. Exits cleanly when the batch completes elsewhere.
pub fn run_worker(
    cfg: EngineConfig,
    inputs: Vec<BatchInput>,
    opts: &WorkerOptions,
) -> Result<(), String> {
    let dir = cfg.cache_dir.clone().ok_or("shard worker needs a cache directory")?;
    let engine = Engine::new(cfg).map_err(|e| format!("engine: {e}"))?;
    if engine.run_digest(&inputs) != opts.run {
        return Err("run digest mismatch: worker launched against a different batch".to_owned());
    }
    let ledger = Arc::new(Ledger::open(&dir, opts.run));
    let mut claimed = 0u64;
    // If every remaining index stays leased by someone else for this
    // long, the lease owners are gone *and* no coordinator is left to
    // expire them — exit instead of spinning forever as an orphan.
    let busy_cap = Duration::from_secs(120);
    let mut busy_since: Option<Instant> = None;
    loop {
        let next = ledger
            .claim_next(opts.worker, opts.lease_ms, inputs.len())
            .map_err(|e| format!("ledger: {e}"))?;
        match next {
            ClaimOutcome::AllDone => return Ok(()),
            ClaimOutcome::Busy => {
                let since = *busy_since.get_or_insert_with(Instant::now);
                if since.elapsed() > busy_cap {
                    return Err("work remains but every index is leased elsewhere".to_owned());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            ClaimOutcome::Claimed { index, fence } => {
                busy_since = None;
                if opts.freeze_at == Some(claimed) {
                    // Simulated stall: hold the lease in silence until the
                    // coordinator's watchdog expires it and kills us.
                    std::thread::sleep(Duration::from_secs(60));
                    return Ok(());
                }
                claimed += 1;
                let stop = Arc::new(AtomicBool::new(false));
                let hb = {
                    let ledger = Arc::clone(&ledger);
                    let stop = Arc::clone(&stop);
                    let worker = opts.worker;
                    let tick = Duration::from_millis((opts.lease_ms / 4).max(5));
                    std::thread::spawn(move || loop {
                        sleep_unless(&stop, tick);
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let _ = ledger.append(&Record::Beat { index, worker, fence });
                    })
                };
                let po = engine.analyze_one(&inputs[index]);
                stop.store(true, Ordering::Relaxed);
                let _ = hb.join();
                let entry =
                    JournalEntry { index, worker: opts.worker, fence, outcome: store_outcome(&po) };
                ledger.append(&Record::Prog(entry)).map_err(|e| format!("ledger: {e}"))?;
            }
        }
    }
}

/// Deterministic chaos schedule for the crash-soak harness.
#[derive(Debug, Clone, Copy)]
pub struct ShardChaos {
    /// Xorshift seed driving the kill schedule.
    pub seed: u64,
    /// SIGKILLs to deal out to random live workers, at most one per
    /// monitor scan.
    pub kills: u32,
    /// Launch the first worker with `--freeze-at 0`: it claims an index
    /// and goes silent, exercising the lease-expiry path every run.
    pub freeze_first: bool,
}

/// Coordinator parameters for a sharded batch.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker processes to spawn (>= 1).
    pub workers: usize,
    /// Lease duration workers promise to renew within.
    pub lease_ms: u64,
    /// Resume a previous coordinator's journal instead of starting fresh
    /// (leases the dead coordinator left open are released up front).
    pub resume: bool,
    /// Worker binary override; defaults to [`WORKER_BIN_ENV`] then the
    /// current executable.
    pub worker_bin: Option<PathBuf>,
    /// Argument tail passed to every worker after the hidden verb (the
    /// CLI forwards the batch target, cache dir, and limit flags so the
    /// worker rebuilds the identical engine).
    pub worker_args: Vec<String>,
    /// Chaos schedule; `None` in production.
    pub chaos: Option<ShardChaos>,
    /// Safety net: stop supervising after this long and finish whatever
    /// remains in-process.
    pub timeout: Duration,
}

/// A sharded batch's result: the assembled report plus a degradation note
/// when worker processes could not be spawned.
pub struct ShardOutcome {
    /// The complete batch report (outcomes in input order, stats carrying
    /// the shard counters).
    pub report: BatchReport,
    /// Human-readable degradation note, e.g. when every worker spawn
    /// failed and the batch fell back to in-process execution.
    pub note: Option<String>,
}

/// One live lease as the coordinator tracks it: a watchdog probe whose
/// beat counter mirrors the lease's observed journal beats.
struct LeaseProbe {
    beats: AtomicU64,
    expired: AtomicBool,
}

impl Supervised for LeaseProbe {
    fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }
    fn cancel(&self) {
        self.expired.store(true, Ordering::Relaxed);
    }
}

struct Lease {
    worker: u64,
    fence: u64,
    probe: Arc<LeaseProbe>,
    _guard: WatchGuard,
}

fn spawn_worker(
    bin: &Path,
    shard: &ShardConfig,
    id: u64,
    run: u64,
    freeze: bool,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("__shard-worker")
        .arg("--run")
        .arg(format!("{run:016x}"))
        .arg("--worker")
        .arg(id.to_string())
        .arg("--lease-ms")
        .arg(shard.lease_ms.to_string())
        .args(&shard.worker_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if freeze {
        cmd.arg("--freeze-at").arg("0");
    }
    cmd.spawn()
}

/// Run a batch across worker processes. See the module docs for the
/// protocol; the returned report is byte-identical (program outcomes and
/// outcome counters) to `Engine::batch` over the same inputs.
pub fn run_sharded(
    cfg: EngineConfig,
    inputs: Vec<BatchInput>,
    jobs: usize,
    shard: &ShardConfig,
) -> Result<ShardOutcome, String> {
    let dir = cfg.cache_dir.clone().ok_or("--workers requires a cache directory")?;
    let mut cfg = cfg;
    cfg.resume = true; // final assembly restores whatever the workers finished
    let engine = Arc::new(Engine::new(cfg).map_err(|e| format!("engine: {e}"))?);
    let run = engine.run_digest(&inputs);
    let ledger = Ledger::open_via(engine.vfs().clone(), &dir, run);
    let n = inputs.len();

    let mut leases_expired = 0u64;
    let mut work_requeued = 0u64;

    // Prepare the journal: fresh header, or — when resuming after a dead
    // coordinator — truncate any torn tail and requeue every lease the
    // previous run left open.
    if shard.resume {
        let (journal, state) = Journal::resume_via(engine.vfs().clone(), &dir, run)
            .map_err(|e| format!("journal resume: {e}"))?;
        drop(journal);
        for c in state.open_claims {
            ledger
                .append(&Record::Release { index: c.index, worker: c.worker, fence: c.fence })
                .map_err(|e| format!("ledger: {e}"))?;
            work_requeued += 1;
        }
    } else {
        drop(
            Journal::start_via(engine.vfs().clone(), &dir, run)
                .map_err(|e| format!("journal start: {e}"))?,
        );
    }

    // Spawn the fleet. Zero live workers is not an error: the assembly
    // path below analyzes everything in-process, so spawn failure only
    // costs parallelism — the batch degrades, it does not fail.
    let bin = shard
        .worker_bin
        .clone()
        .or_else(|| std::env::var_os(WORKER_BIN_ENV).map(PathBuf::from))
        .or_else(|| std::env::current_exe().ok())
        .ok_or("cannot locate the worker binary")?;
    let mut children: Vec<(u64, Child)> = Vec::new();
    let mut next_worker = 1u64;
    let mut workers_spawned = 0u64;
    let mut spawn_error = None;
    for i in 0..shard.workers.max(1) {
        let freeze = shard.chaos.is_some_and(|c| c.freeze_first) && i == 0;
        match spawn_worker(&bin, shard, next_worker, run, freeze) {
            Ok(child) => {
                children.push((next_worker, child));
                workers_spawned += 1;
            }
            Err(e) => spawn_error = Some(format!("{}: {e}", bin.display())),
        }
        next_worker += 1;
    }
    let note = match (&spawn_error, children.is_empty()) {
        (Some(err), true) => {
            Some(format!("worker spawn failed ({err}); degraded to in-process execution"))
        }
        (Some(err), false) => {
            Some(format!("only {} of {} workers spawned ({err})", children.len(), shard.workers))
        }
        (None, _) => None,
    };

    // Supervise: tail the journal, mirror live leases into watchdog
    // probes, expire silent ones (SIGKILL + release + requeue), respawn
    // dead workers, and deal out chaos kills on schedule.
    let lease = Duration::from_millis(shard.lease_ms.max(1));
    let dog = Watchdog::spawn(WatchdogConfig::for_lease(lease));
    let mut leases: HashMap<usize, Lease> = HashMap::new();
    let scan_tick = (lease / 8).max(Duration::from_millis(5));
    let mut rng = shard.chaos.map_or(1, |c| c.seed | 1);
    let mut kills_left = shard.chaos.map_or(0, |c| c.kills);
    let mut respawn_budget = shard.workers as u32 * 2 + kills_left + 8;
    let deadline = Instant::now() + shard.timeout;

    loop {
        std::thread::sleep(scan_tick);

        // Authoritative state from a full replay of the journal.
        let state = match engine.vfs().read(&journal_path(&dir)).ok().and_then(|b| scan(&b)) {
            Some(parsed) if parsed.run == run => {
                let mut beat_counts: HashMap<(usize, u64, u64), u64> = HashMap::new();
                for (rec, _) in &parsed.records {
                    if let Record::Beat { index, worker, fence } = rec {
                        *beat_counts.entry((*index, *worker, *fence)).or_insert(0) += 1;
                    }
                }
                Some((replay(parsed.records.iter().map(|(r, _)| r)), beat_counts))
            }
            _ => None,
        };
        if let Some((state, beat_counts)) = state {
            let done: HashSet<usize> = state.entries.iter().map(|e| e.index).collect();
            // Sync the lease table to the open claims.
            let open: HashMap<usize, (u64, u64)> =
                state.open_claims.iter().map(|c| (c.index, (c.worker, c.fence))).collect();
            leases.retain(|idx, l| open.get(idx) == Some(&(l.worker, l.fence)));
            for c in &state.open_claims {
                let beats = beat_counts.get(&(c.index, c.worker, c.fence)).copied().unwrap_or(0);
                if let Some(l) = leases.get(&c.index) {
                    l.probe.beats.store(beats, Ordering::Relaxed);
                } else {
                    let probe = Arc::new(LeaseProbe {
                        beats: AtomicU64::new(beats),
                        expired: AtomicBool::new(false),
                    });
                    let guard = dog.register(Arc::clone(&probe) as Arc<dyn Supervised>);
                    leases.insert(
                        c.index,
                        Lease { worker: c.worker, fence: c.fence, probe, _guard: guard },
                    );
                }
            }
            // Expire leases the watchdog declared silent: kill the owner
            // if it is still alive, release, requeue.
            let expired: Vec<usize> = leases
                .iter()
                .filter(|(_, l)| l.probe.expired.load(Ordering::Relaxed))
                .map(|(idx, _)| *idx)
                .collect();
            for idx in expired {
                let Some(lease) = leases.remove(&idx) else { continue };
                if let Some((_, child)) = children.iter_mut().find(|(id, _)| *id == lease.worker) {
                    let _ = child.kill();
                }
                ledger
                    .append(&Record::Release {
                        index: idx,
                        worker: lease.worker,
                        fence: lease.fence,
                    })
                    .map_err(|e| format!("ledger: {e}"))?;
                leases_expired += 1;
                work_requeued += 1;
            }
            if done.len() >= n {
                break;
            }
        }

        // Chaos: on a matching roll, SIGKILL one random live worker.
        if kills_left > 0 && !children.is_empty() && xorshift64(&mut rng) % 10 < 3 {
            let victim = (xorshift64(&mut rng) % children.len() as u64) as usize;
            let _ = children[victim].1.kill();
            kills_left -= 1;
        }

        // Reap exited workers; replace abnormal deaths while work remains.
        let mut still: Vec<(u64, Child)> = Vec::new();
        for (id, mut child) in children.drain(..) {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() && respawn_budget > 0 {
                        respawn_budget -= 1;
                        if let Ok(fresh) = spawn_worker(&bin, shard, next_worker, run, false) {
                            still.push((next_worker, fresh));
                            workers_spawned += 1;
                        }
                        next_worker += 1;
                    }
                }
                Ok(None) => still.push((id, child)),
                Err(_) => {}
            }
        }
        children = still;

        if children.is_empty() || Instant::now() > deadline {
            break;
        }
    }
    drop(dog);
    leases.clear();

    // Reap the fleet: workers exit by themselves once every index has a
    // result; kill any that linger past a short grace.
    let grace = Instant::now() + Duration::from_secs(2);
    while Instant::now() < grace {
        children.retain_mut(|(_, c)| !matches!(c.try_wait(), Ok(Some(_))));
        if children.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (_, child) in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }

    // Assemble in-process: the resume replay restores every journaled
    // program byte-identically and analyzes whatever is left (all of it,
    // when no worker ever spawned).
    let mut report = engine.batch(inputs, jobs);
    report.stats.workers = workers_spawned;
    report.stats.leases_expired = leases_expired;
    report.stats.work_requeued = work_requeued;
    // Re-persist so `parpat stats` sees the shard counters too.
    let _ = report.stats.persist_via(engine.vfs().as_ref(), &dir);
    Ok(ShardOutcome { report, note })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::journal::Journal;
    use crate::vfs::SimFs;

    const RUN: u64 = 0xdead;

    fn sim_ledger() -> (Arc<SimFs>, Ledger, PathBuf) {
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        drop(Journal::start_via(vfs.clone(), &dir, RUN).unwrap());
        let ledger = Ledger::open_via(vfs.clone(), &dir, RUN);
        (vfs, ledger, dir)
    }

    #[test]
    fn a_backdated_stale_lock_is_broken_without_sleeping() {
        let (vfs, ledger, dir) = sim_ledger();
        let lock = dir.join("journal.lock");
        vfs.create_new(&lock, b"pid 999999 seq 0000000000000000\n").unwrap();
        vfs.backdate(&lock, STALE_LOCK + Duration::from_secs(1));
        ledger.append(&Record::Beat { index: 0, worker: 1, fence: 1 }).unwrap();
        assert!(vfs.read(&lock).is_err(), "the lock is released after the append");
    }

    #[test]
    fn a_guard_that_lost_ownership_does_not_remove_the_thiefs_lock() {
        let (vfs, ledger, dir) = sim_ledger();
        let lock = dir.join("journal.lock");
        let guard = ledger.acquire().unwrap();
        // Simulate the residual race: a breaker with a stale age reading
        // displaces our fresh lock and another process acquires.
        vfs.remove_file(&lock).unwrap();
        vfs.create_new(&lock, b"pid 424242 seq ffffffffffffffff\n").unwrap();
        drop(guard);
        assert_eq!(
            vfs.read(&lock).unwrap(),
            b"pid 424242 seq ffffffffffffffff\n",
            "the displaced guard must leave the new holder's lock alone"
        );
    }

    #[test]
    fn a_breaker_tombstones_the_stale_lock_rather_than_unlinking_in_place() {
        let (vfs, ledger, dir) = sim_ledger();
        let lock = dir.join("journal.lock");
        vfs.create_new(&lock, b"pid 999999 seq 0000000000000000\n").unwrap();
        vfs.backdate(&lock, STALE_LOCK + Duration::from_secs(1));
        let guard = ledger.acquire().unwrap();
        // The break renamed the stale file away and removed the tombstone;
        // nothing named *.broken.* lingers.
        let leftovers: Vec<PathBuf> = vfs
            .list_dir(&dir)
            .unwrap()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("broken"))
            .collect();
        assert!(leftovers.is_empty(), "tombstones are cleaned up: {leftovers:?}");
        drop(guard);
    }

    #[test]
    fn concurrent_appends_through_the_lock_never_interleave() {
        let (vfs, ledger, dir) = sim_ledger();
        let ledger = Arc::new(ledger);
        let threads: Vec<_> = (0..4u64)
            .map(|worker| {
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    for fence in 1..=8u64 {
                        ledger.append(&Record::Beat { index: 0, worker, fence }).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let bytes = vfs.read(&journal_path(&dir)).unwrap();
        let parsed = scan(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 32, "every record framed cleanly");
        assert_eq!(parsed.tail, None);
    }
}
