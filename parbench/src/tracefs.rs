//! A storage backend that records a span around every storage call the
//! engine makes, then forwards it to another backend.
//!
//! The engine writes its journal and its cache disk tier through the
//! public [`Vfs`] trait, so wrapping the backend lets the benchmark time
//! journal appends and cache record I/O from outside the engine.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parpat_engine::Vfs;

use crate::trace::Tracer;

/// `inner` with a span per call.
#[derive(Debug)]
pub struct TracingFs {
    tracer: Arc<Tracer>,
    inner: Arc<dyn Vfs>,
}

impl TracingFs {
    /// Forward to `inner`, recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>, inner: Arc<dyn Vfs>) -> TracingFs {
        TracingFs { tracer, inner }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.tracer.record(name, start, Instant::now());
        out
    }
}

fn is_journal(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("journal"))
}

impl Vfs for TracingFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let name = if is_journal(path) { "engine.journal.read" } else { "engine.cache.disk_read" };
        self.timed(name, || self.inner.read(path))
    }

    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        self.timed("engine.vfs.other", || self.inner.read_prefix(path, max))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        // The cache writes a record to a temp file and renames it in place;
        // stats snapshots are plain writes too.
        self.timed("engine.cache.disk_write", || self.inner.write(path, bytes))
    }

    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let name = if is_journal(path) { "engine.journal.start" } else { "engine.vfs.other" };
        self.timed(name, || self.inner.create_sync(path, bytes))
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let name = if is_journal(path) { "engine.journal.append" } else { "engine.vfs.other" };
        self.timed(name, || self.inner.append_sync(path, bytes))
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.timed("engine.vfs.other", || self.inner.truncate_sync(path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.timed("engine.cache.disk_write", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.timed("engine.vfs.other", || self.inner.remove_file(path))
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.timed("engine.vfs.other", || self.inner.create_new(path, bytes))
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.timed("engine.vfs.other", || self.inner.create_dir_all(path))
    }

    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        self.timed("engine.vfs.other", || self.inner.file_age(path))
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.timed("engine.vfs.other", || self.inner.list_dir(dir))
    }
}
