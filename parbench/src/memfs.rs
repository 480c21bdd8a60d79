//! An in-memory storage backend for the `genprog-disk` run directory.
//!
//! The engine writes its journal and its cache disk tier through the
//! public [`Vfs`] trait. This backend keeps each file as a growable
//! buffer behind its own lock: an append extends the buffer and nothing
//! else, and calls on different files do not wait for each other. There
//! are no faults, no durable-versus-live images and no kernel I/O, so
//! storage costs what the engine's own storage code costs and nothing
//! that a particular filesystem adds.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use parpat_engine::Vfs;

#[derive(Debug)]
struct MemFile {
    bytes: Vec<u8>,
    mtime: Instant,
}

impl MemFile {
    fn new(bytes: &[u8]) -> Arc<Mutex<MemFile>> {
        Arc::new(Mutex::new(MemFile { bytes: bytes.to_vec(), mtime: Instant::now() }))
    }
}

/// Files by path, each behind its own lock.
#[derive(Debug, Default)]
pub struct MemFs {
    files: RwLock<HashMap<PathBuf, Arc<Mutex<MemFile>>>>,
}

fn not_found() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotFound, "no such in-memory file")
}

impl MemFs {
    /// An empty file system.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// The file at `path`, locked only long enough to clone its handle.
    fn file(&self, path: &Path) -> std::io::Result<Arc<Mutex<MemFile>>> {
        self.files.read().expect("file table poisoned").get(path).cloned().ok_or_else(not_found)
    }

    fn with<T>(&self, path: &Path, f: impl FnOnce(&mut MemFile) -> T) -> std::io::Result<T> {
        let file = self.file(path)?;
        let mut file = file.lock().expect("file poisoned");
        Ok(f(&mut file))
    }

    fn replace(&self, path: &Path, bytes: &[u8]) {
        self.files
            .write()
            .expect("file table poisoned")
            .insert(path.to_owned(), MemFile::new(bytes));
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.with(path, |f| f.bytes.clone())
    }

    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        self.with(path, |f| f.bytes[..max.min(f.bytes.len())].to_vec())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.replace(path, bytes);
        Ok(())
    }

    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.replace(path, bytes);
        Ok(())
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.with(path, |f| {
            f.bytes.extend_from_slice(bytes);
            f.mtime = Instant::now();
        })
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.with(path, |f| {
            f.bytes.resize(len as usize, 0);
            f.mtime = Instant::now();
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut files = self.files.write().expect("file table poisoned");
        let file = files.remove(from).ok_or_else(not_found)?;
        file.lock().expect("file poisoned").mtime = Instant::now();
        files.insert(to.to_owned(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.files
            .write()
            .expect("file table poisoned")
            .remove(path)
            .map(|_| ())
            .ok_or_else(not_found)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut files = self.files.write().expect("file table poisoned");
        if files.contains_key(path) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "in-memory file exists",
            ));
        }
        files.insert(path.to_owned(), MemFile::new(bytes));
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }

    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        self.with(path, |f| f.mtime.elapsed())
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let files = self.files.read().expect("file table poisoned");
        let mut out: Vec<PathBuf> =
            files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_file_system() {
        let fs = MemFs::new();
        let dir = Path::new("/run");
        let a = dir.join("a");
        assert_eq!(fs.read(&a).unwrap_err().kind(), std::io::ErrorKind::NotFound);
        assert!(fs.append_sync(&a, b"x").is_err(), "append needs an existing file");
        fs.create_sync(&a, b"head").unwrap();
        fs.append_sync(&a, b"+1").unwrap();
        fs.append_sync(&a, b"+2").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"head+1+2");
        assert_eq!(fs.read_prefix(&a, 4).unwrap(), b"head");
        assert_eq!(fs.read_prefix(&a, 99).unwrap(), b"head+1+2");
        fs.truncate_sync(&a, 6).unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"head+1");

        let lock = dir.join("lock");
        fs.create_new(&lock, b"me").unwrap();
        assert_eq!(
            fs.create_new(&lock, b"you").unwrap_err().kind(),
            std::io::ErrorKind::AlreadyExists
        );
        let tmp = dir.join("rec.tmp");
        fs.write(&tmp, b"record").unwrap();
        fs.rename(&tmp, &dir.join("rec")).unwrap();
        assert!(fs.read(&tmp).is_err());
        assert_eq!(fs.read(&dir.join("rec")).unwrap(), b"record");
        fs.write(&dir.join("sub").join("deeper"), b"").unwrap();
        assert_eq!(fs.list_dir(dir).unwrap(), vec![a, lock.clone(), dir.join("rec")]);
        fs.remove_file(&lock).unwrap();
        assert!(fs.remove_file(&lock).is_err());
        assert!(fs.file_age(&dir.join("rec")).unwrap() < Duration::from_secs(60));
    }
}
