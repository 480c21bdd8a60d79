//! Kill-and-resume against a real process: `parpat batch --jobs 2` is
//! SIGKILLed while it runs, once its journal holds at least one record.
//! `--resume` must then finish the batch with `programs` byte-identical to
//! an uninterrupted run, restoring the journaled prefix instead of
//! re-analyzing it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use parpat::engine::journal;

/// Runs for seconds under the profiler, so the batch is still busy with
/// it after the other programs have been journaled. Its name sorts first,
/// so one of the two jobs takes it at once.
const LONG_PROGRAM: &str = "global a[64];
fn main() {
    for r in 0..20000 {
        for i in 0..64 {
            a[i] = a[i] + r;
        }
    }
    return a[3];
}
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A corpus of four suite apps plus the long program.
fn write_corpus(dir: &Path) -> usize {
    std::fs::create_dir_all(dir).expect("corpus dir");
    std::fs::write(dir.join("00_long.ml"), LONG_PROGRAM).expect("long program");
    let apps = parpat::suite::all_apps();
    for app in apps.iter().take(4) {
        std::fs::write(dir.join(format!("{}.ml", app.name)), app.model).expect("app");
    }
    5
}

fn batch(corpus: &str, cache: &str, resume: bool) -> String {
    let mut args = vec!["batch", corpus, "--jobs", "2", "--cache-dir", cache, "--json"];
    if resume {
        args.push("--resume");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_parpat")).args(&args).output().expect("run parpat");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "parpat {args:?} failed:\n{stdout}{stderr}");
    assert!(!stderr.contains("panicked at"), "panic in stderr:\n{stderr}");
    stdout
}

/// The `"programs"` section of the batch JSON.
fn programs(json: &str) -> &str {
    let start = json.find("\"programs\"").expect("programs key");
    let end = json.find("\"stats\"").expect("stats key");
    &json[start..end]
}

fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("stat {key} missing"));
    let digits: String = json[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("stat value")
}

/// Complete records in the journal.
fn journaled(cache: &Path) -> usize {
    std::fs::read(journal::journal_path(cache))
        .ok()
        .and_then(|b| journal::scan(&b))
        .map_or(0, |s| s.records.len())
}

#[test]
fn a_sigkilled_batch_resumes_byte_identically() {
    let corpus = temp_dir("corpus");
    let total = write_corpus(&corpus) as u64;
    let corpus_s = corpus.to_str().expect("path");
    let base = temp_dir("base");
    let want = batch(corpus_s, base.to_str().expect("path"), false);

    let dir = temp_dir("run");
    let dir_s = dir.to_str().expect("path");
    let mut child = Command::new(env!("CARGO_BIN_EXE_parpat"))
        .args(["batch", corpus_s, "--jobs", "2", "--cache-dir", dir_s, "--json"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn batch");
    let start = Instant::now();
    while journaled(&dir) == 0 {
        if let Some(status) = child.try_wait().expect("poll batch") {
            panic!("the batch exited ({status}) before its journal held a record");
        }
        assert!(start.elapsed() < Duration::from_secs(120), "no journal record after 120 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(child.try_wait().expect("poll batch").is_none(), "the batch must still be running");
    child.kill().expect("SIGKILL batch");
    let _ = child.wait();

    let resumed = batch(corpus_s, dir_s, true);
    assert_eq!(programs(&resumed), programs(&want), "resume after SIGKILL diverged");
    let restored = stat(&resumed, "resumed");
    assert!(
        (1..total).contains(&restored),
        "the journaled prefix is restored and the rest re-run: resumed {restored} of {total}"
    );
    // A second resume restores every program from the journal.
    let again = batch(corpus_s, dir_s, true);
    assert_eq!(programs(&again), programs(&want));
    assert_eq!(stat(&again, "resumed"), total, "the journal holds the whole batch");

    for d in [&corpus, &base, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
