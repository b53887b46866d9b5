//! Structured JSONL event log for sweep runs.
//!
//! A [`RunLog`] appends one JSON object per line to
//! `<root>/events/<run>.jsonl` as a sweep executes: run start/finish, per
//! job start / finish / cached / failed, and store incidents (retried
//! writes, degradation to store-less execution, mismatched entries). Long
//! sweeps become observable while they run (`tail -f`), and post-mortems
//! of a partial outcome read the event log instead of scraping stdout.
//!
//! Every event carries `ts_ms` (milliseconds since the Unix epoch) and
//! the run id; job events add the job's expansion `index`, strategy,
//! cache size, and the worker that executed it. Example:
//!
//! ```text
//! {"event":"run_start","ts_ms":...,"run":"fig5b","jobs":28,"workers":4,"strict":false}
//! {"event":"job_start","ts_ms":...,"run":"fig5b","index":3,"strategy":"conventional","cache_bytes":128,"worker":1}
//! {"event":"job_finish","ts_ms":...,"run":"fig5b","index":3,"strategy":"conventional","cache_bytes":128,"worker":1,"cycles":302905,"wall_ms":512}
//! {"event":"job_failed","ts_ms":...,"run":"fig5b","index":4,"strategy":"conventional","cache_bytes":256,"worker":2,"error":"..."}
//! {"event":"run_finish","ts_ms":...,"run":"fig5b","computed":27,"cached":0,"failed":1,"wall_ms":9182}
//! ```
//!
//! Logging is best-effort by design: an unwritable event never fails a
//! sweep (the write error is swallowed), and the shared file handle is
//! poison-proof — a worker that panics mid-log cannot wedge the others.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::escape as json_escape;

/// Milliseconds since the Unix epoch (0 if the clock is unavailable).
fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// An append-only JSONL event log for one sweep run. Cloneable handles
/// are not needed: the log is shared by reference across worker threads
/// and serialises line writes internally.
#[derive(Debug)]
pub struct RunLog {
    path: PathBuf,
    run: String,
    file: Mutex<File>,
}

impl RunLog {
    /// Creates (truncating) `<root>/events/<run>.jsonl`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or file cannot
    /// be created.
    pub fn create(root: &Path, run: &str) -> std::io::Result<RunLog> {
        let dir = root.join("events");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{run}.jsonl"));
        let file = File::create(&path)?;
        Ok(RunLog {
            path,
            run: run.to_string(),
            file: Mutex::new(file),
        })
    }

    /// Where this log is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event line. `fields` is pre-rendered JSON (without the
    /// shared `event`/`ts_ms`/`run` envelope). Best-effort: errors are
    /// swallowed and a poisoned lock is recovered, so observability never
    /// takes a sweep down.
    fn emit(&self, event: &str, fields: &str) {
        let line = format!(
            "{{\"event\":\"{event}\",\"ts_ms\":{},\"run\":\"{}\"{}{fields}}}\n",
            now_ms(),
            json_escape(&self.run),
            if fields.is_empty() { "" } else { "," },
        );
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = file.write_all(line.as_bytes());
    }

    /// The sweep is starting: total job count, worker threads, strictness.
    pub fn run_start(&self, jobs: usize, workers: usize, strict: bool) {
        self.emit(
            "run_start",
            &format!("\"jobs\":{jobs},\"workers\":{workers},\"strict\":{strict}"),
        );
    }

    /// A worker picked up a job.
    pub fn job_start(&self, index: usize, strategy: &str, cache_bytes: u32, worker: usize) {
        self.emit(
            "job_start",
            &format!(
                "\"index\":{index},\"strategy\":\"{}\",\"cache_bytes\":{cache_bytes},\"worker\":{worker}",
                json_escape(strategy)
            ),
        );
    }

    /// A job was satisfied from the result store.
    pub fn job_cached(&self, index: usize, strategy: &str, cache_bytes: u32, cycles: u64) {
        self.emit(
            "job_cached",
            &format!(
                "\"index\":{index},\"strategy\":\"{}\",\"cache_bytes\":{cache_bytes},\"cycles\":{cycles}",
                json_escape(strategy)
            ),
        );
    }

    /// A job simulated successfully.
    pub fn job_finish(
        &self,
        index: usize,
        strategy: &str,
        cache_bytes: u32,
        worker: usize,
        cycles: u64,
        wall_ms: u128,
    ) {
        self.emit(
            "job_finish",
            &format!(
                "\"index\":{index},\"strategy\":\"{}\",\"cache_bytes\":{cache_bytes},\
                 \"worker\":{worker},\"cycles\":{cycles},\"wall_ms\":{wall_ms}",
                json_escape(strategy)
            ),
        );
    }

    /// A job failed (panic or simulation error); the sweep continues.
    pub fn job_failed(
        &self,
        index: usize,
        strategy: &str,
        cache_bytes: u32,
        worker: usize,
        error: &str,
    ) {
        self.emit(
            "job_failed",
            &format!(
                "\"index\":{index},\"strategy\":\"{}\",\"cache_bytes\":{cache_bytes},\
                 \"worker\":{worker},\"error\":\"{}\"",
                json_escape(strategy),
                json_escape(error)
            ),
        );
    }

    /// A store write failed and will be retried.
    pub fn store_retry(&self, index: usize, attempt: u32, error: &str) {
        self.emit(
            "store_retry",
            &format!(
                "\"index\":{index},\"attempt\":{attempt},\"error\":\"{}\"",
                json_escape(error)
            ),
        );
    }

    /// Store writes kept failing; the sweep degrades to store-less
    /// execution for its remainder.
    pub fn store_degraded(&self, index: usize, error: &str) {
        self.emit(
            "store_degraded",
            &format!("\"index\":{index},\"error\":\"{}\"", json_escape(error)),
        );
    }

    /// A stored entry could not be trusted (key mismatch); the point is
    /// recomputed.
    pub fn store_mismatch(&self, index: usize, error: &str) {
        self.emit(
            "store_mismatch",
            &format!("\"index\":{index},\"error\":\"{}\"", json_escape(error)),
        );
    }

    /// The sweep finished (possibly partially).
    pub fn run_finish(&self, computed: usize, cached: usize, failed: usize, wall_ms: u128) {
        self.emit(
            "run_finish",
            &format!(
                "\"computed\":{computed},\"cached\":{cached},\"failed\":{failed},\"wall_ms\":{wall_ms}"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_writes_one_json_object_per_line() {
        let dir = std::env::temp_dir().join(format!("pipe-events-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = RunLog::create(&dir, "t1").unwrap();
        log.run_start(4, 2, false);
        log.job_start(0, "16-16", 64, 1);
        log.job_finish(0, "16-16", 64, 1, 12345, 7);
        log.job_failed(1, "conv \"q\"", 32, 0, "panicked: \\ boom");
        log.run_finish(1, 0, 1, 99);

        let text = std::fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"run\":\"t1\""));
        }
        assert!(lines[0].contains("\"event\":\"run_start\""));
        assert!(lines[3].contains("\"error\":\"panicked: \\\\ boom\""));
        assert!(lines[4].contains("\"failed\":1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_emits_do_not_interleave() {
        let dir = std::env::temp_dir().join(format!("pipe-events-mt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = RunLog::create(&dir, "mt").unwrap();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..50 {
                        log.job_start(i, "s", 64, w);
                    }
                });
            }
        });
        let text = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(text.lines().count(), 200);
        for line in text.lines() {
            assert!(line.starts_with("{\"event\":\"job_start\"") && line.ends_with('}'));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
