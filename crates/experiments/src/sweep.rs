//! The parallel sweep engine.
//!
//! A [`SweepSpec`] declares an experiment sweep — which strategies, which
//! cache sizes, which memory timing and workload. [`SweepSpec::expand`]
//! turns it into a flat, index-ordered list of [`SweepJob`]s, and a
//! [`SweepRunner`] executes those jobs across scoped worker threads
//! (`--jobs N`), writing each result into its expansion-index slot so the
//! collected series are **bit-identical to a serial run** regardless of
//! thread count or scheduling: each simulation is independent and
//! deterministic, and only the collection order could differ — which the
//! index-addressed slots pin down.
//!
//! Because a spec has exactly one workload, every job shares the same
//! predecoded program; the runner therefore groups pending jobs into
//! same-workload batches (up to [`SweepRunner::batch`] lanes, capped so
//! every worker thread still gets work) and dispatches each batch through
//! the batched kernel ([`pipe_core::run_batch`]), which drives all lanes
//! over the shared program in one pass with stall fast-forwarding.
//! Singleton groups — and trace workloads, which replay through a
//! different engine — fall back to the scalar path. Both paths produce
//! bit-identical statistics, so batching is purely a throughput choice.
//!
//! With a [`ResultStore`] attached and resume enabled, each job's
//! canonical configuration key (see [`SweepJob::key`]) is checked against
//! the store first; previously computed points are loaded instead of
//! re-simulated, so a re-run after an interrupted or completed sweep only
//! pays for the missing points.
//!
//! Execution is **fault-tolerant**: each job runs under `catch_unwind`,
//! so a panicking or erroring point becomes a [`FailedJob`] recorded in
//! the [`SweepOutcome`] while every other job completes; store-write
//! failures are retried with backoff and then degrade the run to
//! store-less execution instead of aborting it. [`SweepRunner::strict`]
//! restores fail-fast semantics ([`SweepRunner::try_run`] returns
//! [`SweepError`] carrying the partial outcome). With an events root
//! attached ([`SweepRunner::events`]), the run appends a structured JSONL
//! event log (see [`crate::events`]).
//!
//! ```no_run
//! use pipe_experiments::sweep::{SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::figure("5b");
//! let outcome = SweepRunner::new().jobs(4).run(&spec);
//! assert_eq!(outcome.series.len(), 5);
//! ```

use std::error::Error;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipe_core::FetchStrategy;
use pipe_icache::PrefetchPolicy;
use pipe_isa::{DecodedProgram, InstrFormat, Program};
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::backoff::BackoffPolicy;
use crate::events::RunLog;
use crate::figures::{figure_mem, Series};
use crate::matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
use crate::runner::{try_run_point_decoded, try_run_points_batched, ExperimentPoint};
use crate::store::{ResultStore, StoredPoint};

/// The benchmark a sweep runs. Declarative (rather than a prebuilt
/// [`Program`]) so the workload participates in the configuration key
/// that content-addresses stored results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The paper's 14-kernel Livermore benchmark. `scale` divides each
    /// kernel's iteration count (1 = the paper's full 150,575-instruction
    /// run; larger values give proportionally faster sweeps for smoke
    /// tests).
    Livermore {
        /// Instruction format to assemble under.
        format: InstrFormat,
        /// Iteration-count divisor (≥ 1).
        scale: u32,
    },
    /// A synthetic straight-line loop (`pipe_workloads::synthetic`).
    TightLoop {
        /// ALU instructions in the loop body.
        body: u32,
        /// Loop trips.
        trips: u16,
        /// Instruction format to assemble under.
        format: InstrFormat,
    },
    /// A pre-recorded instruction trace (binary `.ptr` or plain-text
    /// addresses), replayed through each job's fetch engine instead of
    /// running the functional core (see [`crate::tracerun`]). The key
    /// fragment is the FNV-1a 64 digest of the file's bytes, so stored
    /// results are invalidated whenever the trace content changes.
    Trace {
        /// Path to the trace file.
        path: String,
        /// Content hash of the trace file's bytes.
        fnv: u64,
    },
}

impl WorkloadSpec {
    /// The paper's benchmark at full scale.
    pub fn livermore() -> WorkloadSpec {
        WorkloadSpec::Livermore {
            format: InstrFormat::Fixed32,
            scale: 1,
        }
    }

    /// A trace-driven workload: content-hashes the trace file at `path`
    /// and validates that it can be loaded and its backing program
    /// rebuilt (see [`crate::tracerun::trace_program`]).
    ///
    /// # Errors
    ///
    /// A user-facing message when the file cannot be read, decoded, or
    /// its backing program reconstructed.
    pub fn trace(path: &Path) -> Result<WorkloadSpec, String> {
        crate::tracerun::trace_program(path)?;
        let fnv = pipe_trace::file_fnv(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(WorkloadSpec::Trace {
            path: path.to_string_lossy().into_owned(),
            fnv,
        })
    }

    /// Assembles the workload (for a trace, the program backing the
    /// trace).
    ///
    /// # Panics
    ///
    /// Panics if the built-in benchmark fails to assemble (a bug, not a
    /// configuration error), or if a trace file validated by
    /// [`WorkloadSpec::trace`] has since become unloadable.
    pub fn build(&self) -> Program {
        match self {
            WorkloadSpec::Livermore { format, scale } => {
                let suite = if *scale <= 1 {
                    LivermoreSuite::build(*format)
                } else {
                    LivermoreSuite::build_scaled(*format, *scale)
                };
                suite
                    .expect("livermore benchmark assembles")
                    .program()
                    .clone()
            }
            WorkloadSpec::TightLoop {
                body,
                trips,
                format,
            } => pipe_workloads::synthetic::tight_loop(*body, *trips, *format),
            WorkloadSpec::Trace { path, .. } => crate::tracerun::trace_program(Path::new(path))
                .expect("trace workload validated at construction"),
        }
    }

    /// Canonical key fragment naming this workload.
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Livermore { format, scale } => {
                format!("livermore:format={format},scale={scale}")
            }
            WorkloadSpec::TightLoop {
                body,
                trips,
                format,
            } => format!("tight-loop:body={body},trips={trips},format={format}"),
            WorkloadSpec::Trace { fnv, .. } => format!("trace:fnv={fnv:016x}"),
        }
    }
}

/// Canonical key fragment for a memory configuration: every field, in a
/// fixed order. Also used as the `mem_key` of recorded trace headers.
pub fn mem_key(mem: &MemConfig) -> String {
    let ext = match &mem.external_cache {
        Some(e) => format!(
            "size={},line={},penalty={}",
            e.size_bytes, e.line_bytes, e.miss_penalty
        ),
        None => "none".to_string(),
    };
    format!(
        "access={},pipelined={},bus_in={},bus_out={},priority={},fpu={},ext={}",
        mem.access_cycles,
        mem.pipelined,
        mem.in_bus_bytes,
        mem.out_bus_bytes,
        mem.priority,
        mem.fpu_latency,
        ext
    )
}

/// A declarative sweep: the cross product of strategies × cache sizes
/// under one memory configuration and workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Identifier shown in progress output and reports ("fig5b", ...).
    pub id: String,
    /// Strategies, in presentation order.
    pub strategies: Vec<StrategyKind>,
    /// Cache sizes in bytes, ascending.
    pub cache_sizes: Vec<u32>,
    /// External memory parameters.
    pub mem: MemConfig,
    /// Off-chip prefetch gating for the PIPE strategies.
    pub policy: PrefetchPolicy,
    /// The benchmark to run.
    pub workload: WorkloadSpec,
}

impl SweepSpec {
    /// The sweep behind one of the paper's figure panels (`"4a"`–`"6b"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown figure id.
    pub fn figure(id: &str) -> SweepSpec {
        let (mem, _) = figure_mem(id);
        SweepSpec {
            id: format!("fig{id}"),
            strategies: ALL_STRATEGIES.to_vec(),
            cache_sizes: sweep_sizes().to_vec(),
            mem,
            policy: PrefetchPolicy::TruePrefetch,
            workload: WorkloadSpec::livermore(),
        }
    }

    /// Expands the spec into index-ordered jobs (strategy-major, cache
    /// size ascending). Points whose geometry is invalid for a strategy
    /// (cache smaller than the line) are skipped, matching the figures.
    pub fn expand(&self) -> Vec<SweepJob> {
        let wl = self.workload.key();
        let mem = mem_key(&self.mem);
        let mut jobs = Vec::new();
        for &kind in &self.strategies {
            for &size in &self.cache_sizes {
                if let Some(fetch) = kind.fetch_for(size, self.policy) {
                    jobs.push(SweepJob {
                        index: jobs.len(),
                        kind,
                        cache_bytes: size,
                        key: format!("v1|wl={wl}|mem={mem}|fetch={}", fetch.cache_key()),
                        fetch,
                    });
                }
            }
        }
        jobs
    }
}

/// One executable point of an expanded sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Position in the expansion (and in the result slots).
    pub index: usize,
    /// The strategy this point belongs to.
    pub kind: StrategyKind,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// The fully resolved fetch configuration.
    pub fetch: FetchStrategy,
    key: String,
}

impl SweepJob {
    /// The canonical configuration key this point is stored under: it
    /// covers workload, memory timing, and the complete fetch geometry,
    /// so equal keys simulate identically.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// One completed point with its provenance.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The measured (or store-loaded) point.
    pub point: ExperimentPoint,
    /// Wall-clock time the simulation took (zero when loaded from the
    /// store).
    pub wall: Duration,
    /// Whether the point was loaded from the result store.
    pub cached: bool,
}

/// Why one job of a sweep failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The worker panicked while simulating this point (message is the
    /// panic payload).
    Panic(String),
    /// The simulator reported a typed error (decode, timeout, ...).
    Sim(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panic(m) => write!(f, "worker panicked: {m}"),
            JobError::Sim(m) => write!(f, "simulation error: {m}"),
        }
    }
}

impl Error for JobError {}

/// One job that did not produce a point, with enough identity to re-run
/// or report it.
#[derive(Debug, Clone)]
pub struct FailedJob {
    /// Position in the expansion.
    pub index: usize,
    /// The strategy the point belonged to.
    pub kind: StrategyKind,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// The canonical configuration key of the point.
    pub key: String,
    /// What went wrong.
    pub error: JobError,
}

impl fmt::Display for FailedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}B (job {}): {}",
            self.kind.label(),
            self.cache_bytes,
            self.index,
            self.error
        )
    }
}

/// A sweep-level failure. Only strict (fail-fast) execution surfaces one;
/// the default mode records failures in the outcome instead.
#[derive(Debug)]
pub enum SweepError {
    /// Strict mode: at least one job failed. The boxed partial outcome
    /// preserves every completed series point plus the failed-job list.
    Strict(Box<SweepOutcome>),
}

impl SweepError {
    /// The partial outcome of the aborted sweep.
    pub fn partial(&self) -> &SweepOutcome {
        match self {
            SweepError::Strict(outcome) => outcome,
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Strict(outcome) => {
                write!(
                    f,
                    "strict sweep aborted: {} job(s) failed",
                    outcome.failed.len()
                )?;
                if let Some(first) = outcome.failed.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SweepError {}

/// The result of running a sweep — possibly partial: jobs listed in
/// `failed` have no point in `series` (renderers mark them as missing
/// rather than zero).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One series per strategy, in spec order — the same shape the serial
    /// figure path produces, minus any failed points.
    pub series: Vec<Series>,
    /// Points actually simulated (successfully) this run.
    pub computed: usize,
    /// Points satisfied from the result store.
    pub cached: usize,
    /// Jobs that failed, in expansion order.
    pub failed: Vec<FailedJob>,
    /// Lane widths of the same-workload batches the pending (not
    /// store-satisfied) jobs were grouped into, in dispatch order.
    /// Width-1 groups ran on the scalar path.
    pub batches: Vec<usize>,
    /// Whether store writes failed persistently and the run degraded to
    /// store-less execution.
    pub store_degraded: bool,
    /// Where the JSONL event log was written, when events were enabled.
    pub events_path: Option<PathBuf>,
    /// Total wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Whether every expanded job produced a point.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Test/diagnostic fault injection: make specific jobs panic or their
/// store writes fail, to exercise the fault-tolerant paths end to end
/// (unit tests, the CI smoke test, and manual `--inject-*` runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Expansion indices whose execution panics.
    pub panic_jobs: Vec<usize>,
    /// Expansion indices whose store writes fail (every attempt).
    pub store_fail_jobs: Vec<usize>,
}

impl FaultInjection {
    /// Whether no fault is injected (the default).
    pub fn is_empty(&self) -> bool {
        self.panic_jobs.is_empty() && self.store_fail_jobs.is_empty()
    }
}

/// Shared per-run state handed to every worker: the (optional) event
/// log, the store-health flag that flips when writes are exhausted, and
/// the strict-mode cancellation flag.
struct RunState<'a> {
    log: Option<&'a RunLog>,
    store_ok: &'a AtomicBool,
    cancel: &'a AtomicBool,
}

/// Default maximum lanes per batched simulation call.
const DEFAULT_BATCH: usize = 8;

/// Executes [`SweepSpec`]s across worker threads with optional
/// store-backed resume, structured event logging, and progress
/// reporting. Fault-tolerant by default; see [`SweepRunner::strict`].
#[derive(Debug)]
pub struct SweepRunner {
    jobs: usize,
    batch: usize,
    store: Option<ResultStore>,
    resume: bool,
    progress: bool,
    strict: bool,
    events_root: Option<PathBuf>,
    inject: FaultInjection,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A serial runner with no store and no progress output.
    pub fn new() -> SweepRunner {
        SweepRunner {
            jobs: 1,
            batch: DEFAULT_BATCH,
            store: None,
            resume: false,
            progress: false,
            strict: false,
            events_root: None,
            inject: FaultInjection::default(),
        }
    }

    /// Sets the worker-thread count (0 is treated as 1).
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the maximum lanes per batched simulation call (default 8).
    /// `1` disables batching: every point runs on the scalar path. The
    /// effective width is further capped so every worker thread still
    /// gets at least one batch.
    pub fn batch(mut self, width: usize) -> SweepRunner {
        self.batch = width.max(1);
        self
    }

    /// Attaches a result store; every computed point is persisted to it.
    pub fn store(mut self, store: ResultStore) -> SweepRunner {
        self.store = Some(store);
        self
    }

    /// When a store is attached, load previously computed points instead
    /// of re-simulating them.
    pub fn resume(mut self, resume: bool) -> SweepRunner {
        self.resume = resume;
        self
    }

    /// Emit per-point progress lines (with wall time) to stderr.
    pub fn progress(mut self, progress: bool) -> SweepRunner {
        self.progress = progress;
        self
    }

    /// Restores fail-fast semantics: the first failed job cancels the
    /// remaining work and [`try_run`](SweepRunner::try_run) returns
    /// [`SweepError::Strict`] with the partial outcome. In-flight jobs
    /// still finish (and persist to the store), so a strict abort loses
    /// no completed work.
    pub fn strict(mut self, strict: bool) -> SweepRunner {
        self.strict = strict;
        self
    }

    /// Writes a structured JSONL event log to
    /// `<root>/events/<spec id>.jsonl` for each run (see
    /// [`crate::events`]).
    pub fn events(mut self, root: impl Into<PathBuf>) -> SweepRunner {
        self.events_root = Some(root.into());
        self
    }

    /// Installs fault injection (test/diagnostic hook; see
    /// [`FaultInjection`]).
    pub fn inject(mut self, inject: FaultInjection) -> SweepRunner {
        self.inject = inject;
        self
    }

    /// Runs the sweep fault-tolerantly: failed jobs are recorded in the
    /// outcome's `failed` list and every other job completes.
    ///
    /// # Panics
    ///
    /// Panics only when the runner is [`strict`](SweepRunner::strict) and
    /// a job failed — strict callers should use
    /// [`try_run`](SweepRunner::try_run) instead.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        match self.try_run(spec) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e} (use try_run to handle strict sweep failures)"),
        }
    }

    /// Runs the sweep.
    ///
    /// In the default fault-tolerant mode this always returns `Ok`: a
    /// panicking or erroring job becomes a [`FailedJob`] in the outcome,
    /// a persistently failing store write degrades the run to store-less
    /// execution (after bounded retry with backoff), and an untrusted
    /// store entry (key mismatch) is recomputed with a warning. Under
    /// [`strict`](SweepRunner::strict), the first failure cancels the
    /// remaining jobs and surfaces as [`SweepError::Strict`] carrying the
    /// partial outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Strict`] as described above.
    pub fn try_run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        let started = Instant::now();
        let jobs = spec.expand();
        let total = jobs.len();
        // Decode the workload once; every job (serial or threaded) shares
        // the same predecoded image instead of re-decoding per point.
        let program = Arc::new(DecodedProgram::new(spec.workload.build()));

        let log = self.open_log(spec);
        if let Some(log) = &log {
            log.run_start(total, self.jobs, self.strict);
        }

        // Index-addressed result slots: the write order never affects the
        // collected series.
        let mut slots: Vec<Option<PointOutcome>> = (0..total).map(|_| None).collect();
        let mut failed: Vec<FailedJob> = Vec::new();

        // Satisfy what we can from the store first (cheap file reads).
        let mut pending: Vec<&SweepJob> = Vec::new();
        for job in &jobs {
            match self.load_cached(spec, job, log.as_ref()) {
                Some(entry) => {
                    let cycles = entry.stats.cycles;
                    self.report(spec, job, cycles, Duration::ZERO, true, total);
                    if let Some(log) = &log {
                        log.job_cached(job.index, job.kind.label(), job.cache_bytes, cycles);
                    }
                    slots[job.index] = Some(PointOutcome {
                        point: entry.to_point(),
                        wall: Duration::ZERO,
                        cached: true,
                    });
                }
                None => pending.push(job),
            }
        }
        let cached = total - pending.len();

        // Set once store writes are exhausted; the rest of the run is
        // store-less.
        let store_ok = AtomicBool::new(true);
        // Set on the first failure under strict: workers stop picking up
        // new jobs but finish (and persist) the ones in flight.
        let cancel = AtomicBool::new(false);
        let run = RunState {
            log: log.as_ref(),
            store_ok: &store_ok,
            cancel: &cancel,
        };

        // Group the pending (same-workload) jobs into lockstep batches
        // for the batched kernel. The width is capped so every worker
        // thread still gets a batch: lanes amortize the shared program,
        // threads amortize cores. Trace workloads replay through a
        // different engine and always run scalar.
        let width = match spec.workload {
            WorkloadSpec::Trace { .. } => 1,
            _ => {
                let fair = pending.len().div_ceil(self.jobs.max(1)).max(1);
                self.batch.clamp(1, fair)
            }
        };
        let batches: Vec<&[&SweepJob]> = pending.chunks(width).collect();
        let batch_widths: Vec<usize> = batches.iter().map(|b| b.len()).collect();

        let workers = self.jobs.min(batches.len().max(1));
        if workers <= 1 {
            for batch in &batches {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                for (index, result) in self.execute_batch(spec, batch, &program, total, 0, &run) {
                    match result {
                        Ok(outcome) => slots[index] = Some(outcome),
                        Err(error) => {
                            failed.push(failed_job(&jobs[index], error));
                            if self.strict {
                                cancel.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
        } else {
            // Per-job results flow back over an mpsc channel, so a worker
            // that dies mid-job can never poison shared state: its result
            // is simply the error it sent (or nothing, which leaves the
            // slot empty).
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Result<PointOutcome, JobError>)>();
            let batches = &batches;
            let program = &program;
            let (cancel_ref, run_ref) = (&cancel, &run);
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        if cancel_ref.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(i) else { break };
                        let results =
                            self.execute_batch(spec, batch, program, total, worker, run_ref);
                        for pair in results {
                            if tx.send(pair).is_err() {
                                return;
                            }
                        }
                    });
                }
                drop(tx);
                for (index, result) in rx {
                    match result {
                        Ok(outcome) => slots[index] = Some(outcome),
                        Err(error) => {
                            failed.push(failed_job(&jobs[index], error));
                            if self.strict {
                                cancel.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        failed.sort_by_key(|f| f.index);

        // Collect into series in expansion order: strategy-major, size
        // ascending — identical to the serial path. Failed (or, under a
        // strict abort, never-started) jobs simply have no point;
        // renderers mark them as missing.
        let series = spec
            .strategies
            .iter()
            .map(|&kind| Series {
                label: kind.label().to_string(),
                kind,
                points: jobs
                    .iter()
                    .filter(|j| j.kind == kind)
                    .filter_map(|j| slots[j.index].as_ref().map(|o| o.point.clone()))
                    .collect(),
            })
            .collect();

        let computed = slots.iter().flatten().filter(|o| !o.cached).count();
        let wall = started.elapsed();
        if self.progress {
            let widths: Vec<String> = batch_widths.iter().map(|w| w.to_string()).collect();
            eprintln!(
                "[{}] sweep done: {} computed, {} cached, {} failed in {:.2}s; \
                 batch widths [{}]",
                spec.id,
                computed,
                cached,
                failed.len(),
                wall.as_secs_f64(),
                widths.join(", "),
            );
        }
        let outcome = SweepOutcome {
            series,
            computed,
            cached,
            store_degraded: !store_ok.load(Ordering::Relaxed),
            events_path: log.as_ref().map(|l| l.path().to_path_buf()),
            failed,
            batches: batch_widths,
            wall,
        };
        if let Some(log) = &log {
            log.run_finish(
                outcome.computed,
                outcome.cached,
                outcome.failed.len(),
                outcome.wall.as_millis(),
            );
        }
        if self.strict && !outcome.is_complete() {
            return Err(SweepError::Strict(Box::new(outcome)));
        }
        Ok(outcome)
    }

    /// Opens the per-run event log, if an events root is configured.
    /// Best-effort: a failure to open warns and disables logging.
    fn open_log(&self, spec: &SweepSpec) -> Option<RunLog> {
        let root = self.events_root.as_ref()?;
        match RunLog::create(root, &spec.id) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!(
                    "[{}] warning: cannot create event log under {}: {e}; \
                     continuing without events",
                    spec.id,
                    root.display()
                );
                None
            }
        }
    }

    /// Resume lookup for one job. An untrusted entry (key mismatch) warns
    /// and reads as absent so the point is recomputed.
    fn load_cached(
        &self,
        spec: &SweepSpec,
        job: &SweepJob,
        log: Option<&RunLog>,
    ) -> Option<StoredPoint> {
        if !self.resume {
            return None;
        }
        match self.store.as_ref()?.load(job.key()) {
            Ok(entry) => entry,
            Err(e) => {
                eprintln!(
                    "[{}] warning: {e}; recomputing {} @ {}B",
                    spec.id,
                    job.kind.label(),
                    job.cache_bytes
                );
                if let Some(log) = log {
                    log.store_mismatch(job.index, &e.to_string());
                }
                None
            }
        }
    }

    /// Runs one same-workload batch through the batched kernel,
    /// returning `(job index, result)` pairs. Singleton batches use the
    /// scalar path directly. Each lane is charged an equal share of the
    /// batch's wall time — the cost the point actually added to the
    /// sweep — in progress output and the result store. A panic inside
    /// the batched call poisons all of its lanes, so the fallback
    /// retries each point alone under the scalar [`execute`]
    /// (SweepRunner::execute), where only the offending job fails.
    fn execute_batch(
        &self,
        spec: &SweepSpec,
        batch: &[&SweepJob],
        program: &Arc<DecodedProgram>,
        total: usize,
        worker: usize,
        run: &RunState<'_>,
    ) -> Vec<(usize, Result<PointOutcome, JobError>)> {
        if batch.len() == 1 {
            let job = batch[0];
            return vec![(
                job.index,
                self.execute(spec, job, program, total, worker, run),
            )];
        }
        if let Some(log) = run.log {
            for job in batch {
                log.job_start(job.index, job.kind.label(), job.cache_bytes, worker);
            }
        }
        let inject_panic = batch
            .iter()
            .any(|j| self.inject.panic_jobs.contains(&j.index));
        let lanes: Vec<(FetchStrategy, u32)> =
            batch.iter().map(|j| (j.fetch, j.cache_bytes)).collect();
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected panic (batched lanes)");
            }
            try_run_points_batched(program, &lanes, &spec.mem)
        }));
        let wall = t0.elapsed() / batch.len() as u32;
        let Ok(points) = outcome else {
            // Retry each point alone so only the offending job fails.
            // Under strict, the first failed retry cancels the rest of
            // the batch (they count as never started).
            let mut out = Vec::with_capacity(batch.len());
            for job in batch {
                if run.cancel.load(Ordering::Relaxed) {
                    break;
                }
                let result = self.execute(spec, job, program, total, worker, run);
                if result.is_err() && self.strict {
                    run.cancel.store(true, Ordering::Relaxed);
                }
                out.push((job.index, result));
            }
            return out;
        };
        batch
            .iter()
            .zip(points)
            .map(|(job, point)| {
                let result = match point {
                    Ok(point) => {
                        self.persist(spec, job, &point, wall, run);
                        self.report(spec, job, point.cycles, wall, false, total);
                        if let Some(log) = run.log {
                            log.job_finish(
                                job.index,
                                job.kind.label(),
                                job.cache_bytes,
                                worker,
                                point.cycles,
                                wall.as_millis(),
                            );
                        }
                        Ok(PointOutcome {
                            point,
                            wall,
                            cached: false,
                        })
                    }
                    Err(sim) => {
                        let error = JobError::Sim(sim.to_string());
                        eprintln!(
                            "[{} {}/{}] FAILED {} @ {}B: {error}",
                            spec.id,
                            job.index + 1,
                            total,
                            job.kind.label(),
                            job.cache_bytes,
                        );
                        if let Some(log) = run.log {
                            log.job_failed(
                                job.index,
                                job.kind.label(),
                                job.cache_bytes,
                                worker,
                                &error.to_string(),
                            );
                        }
                        Err(error)
                    }
                };
                (job.index, result)
            })
            .collect()
    }

    /// Simulates one point under `catch_unwind`, persists it (with retry
    /// and degradation on store failure), and reports progress. A panic
    /// or simulation error becomes `Err(JobError)` — the job fails alone.
    fn execute(
        &self,
        spec: &SweepSpec,
        job: &SweepJob,
        program: &Arc<DecodedProgram>,
        total: usize,
        worker: usize,
        run: &RunState<'_>,
    ) -> Result<PointOutcome, JobError> {
        let log = run.log;
        if let Some(log) = log {
            log.job_start(job.index, job.kind.label(), job.cache_bytes, worker);
        }
        let inject_panic = self.inject.panic_jobs.contains(&job.index);
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected panic (job {})", job.index);
            }
            match &spec.workload {
                WorkloadSpec::Trace { path, .. } => crate::tracerun::replay_point(
                    Path::new(path),
                    program.program(),
                    job.fetch,
                    &spec.mem,
                    job.cache_bytes,
                ),
                _ => try_run_point_decoded(program, job.fetch, &spec.mem, job.cache_bytes)
                    .map_err(|e| e.to_string()),
            }
        }));
        let wall = t0.elapsed();
        let error = match result {
            Ok(Ok(point)) => {
                self.persist(spec, job, &point, wall, run);
                self.report(spec, job, point.cycles, wall, false, total);
                if let Some(log) = log {
                    log.job_finish(
                        job.index,
                        job.kind.label(),
                        job.cache_bytes,
                        worker,
                        point.cycles,
                        wall.as_millis(),
                    );
                }
                return Ok(PointOutcome {
                    point,
                    wall,
                    cached: false,
                });
            }
            Ok(Err(sim)) => JobError::Sim(sim),
            Err(payload) => JobError::Panic(panic_message(payload.as_ref())),
        };
        eprintln!(
            "[{} {}/{}] FAILED {} @ {}B: {error}",
            spec.id,
            job.index + 1,
            total,
            job.kind.label(),
            job.cache_bytes,
        );
        if let Some(log) = log {
            log.job_failed(
                job.index,
                job.kind.label(),
                job.cache_bytes,
                worker,
                &error.to_string(),
            );
        }
        Err(error)
    }

    /// Persists one measured point with bounded retry. Transient
    /// `io::Error`s back off and retry; after the attempts are exhausted
    /// the run degrades to store-less execution (a warning, never an
    /// abort).
    fn persist(
        &self,
        spec: &SweepSpec,
        job: &SweepJob,
        point: &ExperimentPoint,
        wall: Duration,
        run: &RunState<'_>,
    ) {
        let (log, store_ok) = (run.log, run.store_ok);
        let Some(store) = &self.store else { return };
        if !store_ok.load(Ordering::Relaxed) {
            return;
        }
        let entry =
            StoredPoint::from_point(job.key(), job.kind.label(), point, wall.as_millis() as u64);
        let inject_fail = self.inject.store_fail_jobs.contains(&job.index);
        let policy = BackoffPolicy::store_default();
        let result = policy.run(
            |_attempt| {
                if inject_fail {
                    Err(std::io::Error::other("injected store-write failure"))
                } else {
                    store.save(&entry)
                }
            },
            |attempt, e| {
                if let Some(log) = log {
                    log.store_retry(job.index, attempt, &e.to_string());
                }
            },
        );
        if let Err(e) = result {
            eprintln!(
                "[{}] warning: store write failed {} times ({e}); \
                 continuing without the result store",
                spec.id,
                policy.attempts()
            );
            if let Some(log) = log {
                log.store_degraded(job.index, &e.to_string());
            }
            store_ok.store(false, Ordering::Relaxed);
        }
    }

    fn report(
        &self,
        spec: &SweepSpec,
        job: &SweepJob,
        cycles: u64,
        wall: Duration,
        cached: bool,
        total: usize,
    ) {
        if !self.progress {
            return;
        }
        let source = if cached {
            " [cached]".to_string()
        } else {
            format!(" ({:.2}s)", wall.as_secs_f64())
        };
        eprintln!(
            "[{} {}/{}] {} @ {}B: {} cycles{}",
            spec.id,
            job.index + 1,
            total,
            job.kind.label(),
            job.cache_bytes,
            cycles,
            source,
        );
    }
}

fn failed_job(job: &SweepJob, error: JobError) -> FailedJob {
    FailedJob {
        index: job.index,
        kind: job.kind,
        cache_bytes: job.cache_bytes,
        key: job.key().to_string(),
        error,
    }
}

/// Renders a `catch_unwind` payload as text (panic payloads are almost
/// always `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(id: &str) -> SweepSpec {
        SweepSpec {
            id: id.to_string(),
            strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x16],
            cache_sizes: vec![32, 64],
            mem: MemConfig {
                access_cycles: 3,
                ..MemConfig::default()
            },
            policy: PrefetchPolicy::TruePrefetch,
            workload: WorkloadSpec::TightLoop {
                body: 6,
                trips: 30,
                format: InstrFormat::Fixed32,
            },
        }
    }

    #[test]
    fn expansion_is_strategy_major_and_skips_invalid() {
        let mut spec = small_spec("t");
        spec.strategies = vec![StrategyKind::Pipe32x32, StrategyKind::Conventional];
        spec.cache_sizes = vec![16, 32, 64];
        let jobs = spec.expand();
        // Pipe32x32 skips the 16B point (32-byte lines).
        assert_eq!(jobs.len(), 2 + 3);
        assert_eq!(jobs[0].cache_bytes, 32);
        assert_eq!(jobs[0].kind, StrategyKind::Pipe32x32);
        assert_eq!(jobs[2].kind, StrategyKind::Conventional);
        assert!(jobs.iter().enumerate().all(|(i, j)| i == j.index));
    }

    #[test]
    fn keys_are_unique_and_cover_mem_config() {
        let spec = small_spec("t");
        let jobs = spec.expand();
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "every job key distinct");

        let mut other = small_spec("t");
        other.mem.in_bus_bytes = 8;
        assert_ne!(spec.expand()[0].key(), other.expand()[0].key());

        // Stored points stay loadable only while this fragment is stable.
        assert_eq!(
            mem_key(&figure_mem("4a").0),
            "access=1,pipelined=false,bus_in=4,bus_out=4,priority=instruction-first,fpu=4,ext=none"
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let spec = small_spec("det");
        let serial = SweepRunner::new().run(&spec);
        let parallel = SweepRunner::new().jobs(4).run(&spec);
        assert_eq!(serial.series.len(), parallel.series.len());
        for (s, p) in serial.series.iter().zip(&parallel.series) {
            assert_eq!(s.label, p.label);
            let sc: Vec<(u32, u64)> = s.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            let pc: Vec<(u32, u64)> = p.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            assert_eq!(sc, pc, "cycle counts identical under {}", s.label);
        }
    }

    #[test]
    fn batched_sweep_matches_scalar_bit_for_bit() {
        let spec = small_spec("batchdet");
        let scalar = SweepRunner::new().batch(1).run(&spec);
        let batched = SweepRunner::new().run(&spec);
        // A serial runner batches all four pending jobs into one call;
        // batch(1) forces four scalar singletons.
        assert_eq!(scalar.batches, vec![1, 1, 1, 1]);
        assert_eq!(batched.batches, vec![4]);
        for (s, b) in scalar.series.iter().zip(&batched.series) {
            assert_eq!(s.label, b.label);
            let sc: Vec<_> = s
                .points
                .iter()
                .map(|p| (p.cache_bytes, p.stats.clone()))
                .collect();
            let bc: Vec<_> = b
                .points
                .iter()
                .map(|p| (p.cache_bytes, p.stats.clone()))
                .collect();
            assert_eq!(sc, bc, "batched lanes diverged under {}", s.label);
        }
    }

    #[test]
    fn batch_width_caps_to_keep_workers_busy() {
        // Four pending jobs across two workers: an 8-wide batch request
        // still splits into two batches so both threads get work.
        let spec = small_spec("batchfair");
        let outcome = SweepRunner::new().jobs(2).run(&spec);
        assert_eq!(outcome.batches, vec![2, 2]);
        assert!(outcome.is_complete());
    }

    #[test]
    fn resume_skips_stored_points() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("resume");

        let first = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(first.cached, 0);
        assert_eq!(first.computed, 4);

        let second = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(second.computed, 0);
        assert_eq!(second.cached, 4);
        for (a, b) in first.series.iter().zip(&second.series) {
            let ac: Vec<u64> = a.points.iter().map(|p| p.cycles).collect();
            let bc: Vec<u64> = b.points.iter().map(|p| p.cycles).collect();
            assert_eq!(ac, bc, "store round-trips cycles");
        }

        // Without resume, the store is write-only: everything recomputes.
        let third = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .run(&spec);
        assert_eq!(third.cached, 0);
        assert_eq!(third.computed, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_panic_fails_alone_others_complete() {
        let spec = small_spec("faulty");
        let serial = SweepRunner::new().run(&spec);

        let outcome = SweepRunner::new()
            .jobs(4)
            .inject(FaultInjection {
                panic_jobs: vec![1],
                ..FaultInjection::default()
            })
            .run(&spec);
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].index, 1);
        assert!(matches!(outcome.failed[0].error, JobError::Panic(_)));
        assert_eq!(outcome.computed, 3);
        assert!(!outcome.is_complete());

        // Every successful point is bit-identical to the serial run; the
        // failed point is missing, not zeroed.
        let surviving: Vec<(u32, u64)> = outcome
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.cache_bytes, p.cycles)))
            .collect();
        let all: Vec<(u32, u64)> = serial
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.cache_bytes, p.cycles)))
            .collect();
        assert_eq!(surviving.len(), 3);
        assert!(surviving.iter().all(|p| all.contains(p)));
    }

    #[test]
    fn strict_mode_surfaces_typed_error_with_partial_outcome() {
        let spec = small_spec("strict");
        let err = SweepRunner::new()
            .strict(true)
            .inject(FaultInjection {
                panic_jobs: vec![0],
                ..FaultInjection::default()
            })
            .try_run(&spec)
            .unwrap_err();
        let SweepError::Strict(partial) = &err;
        assert_eq!(partial.failed.len(), 1);
        assert!(err.to_string().contains("strict sweep aborted"));
        // Fail-fast: job 0 failed first, so nothing later was started.
        assert_eq!(partial.computed, 0);

        // Non-strict try_run never errors.
        assert!(SweepRunner::new()
            .inject(FaultInjection {
                panic_jobs: vec![0],
                ..FaultInjection::default()
            })
            .try_run(&spec)
            .is_ok());
    }

    #[test]
    fn store_write_failure_degrades_but_completes() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("degrade");
        let outcome = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .inject(FaultInjection {
                store_fail_jobs: vec![0],
                ..FaultInjection::default()
            })
            .run(&spec);
        // The store failure never fails the job: all four points exist.
        assert!(outcome.is_complete());
        assert_eq!(outcome.computed, 4);
        assert!(outcome.store_degraded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_entry_recomputes_mid_sweep() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-badstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("badstore");
        let first = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        // Corrupt one entry and rewrite another under a mismatched key:
        // both must read as absent (recompute), not panic.
        let store = ResultStore::open(&dir).unwrap();
        let jobs = spec.expand();
        let paths: Vec<_> = jobs
            .iter()
            .map(|j| {
                store
                    .dir()
                    .join(format!("{:016x}.json", crate::store::fnv1a64(j.key())))
            })
            .collect();
        std::fs::write(&paths[0], "{truncated garbage").unwrap();
        std::fs::copy(&paths[1], &paths[2]).unwrap();

        let second = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(second.cached, 2, "only the intact entries load");
        assert_eq!(second.computed, 2, "corrupt + mismatched entries recompute");
        for (a, b) in first.series.iter().zip(&second.series) {
            let ac: Vec<u64> = a.points.iter().map(|p| p.cycles).collect();
            let bc: Vec<u64> = b.points.iter().map(|p| p.cycles).collect();
            assert_eq!(ac, bc, "recomputed points identical");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_log_records_failures_and_summary() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("logged");
        let outcome = SweepRunner::new()
            .jobs(2)
            .events(&dir)
            .inject(FaultInjection {
                panic_jobs: vec![2],
                ..FaultInjection::default()
            })
            .run(&spec);
        let path = outcome.events_path.clone().unwrap();
        assert_eq!(path, dir.join("events").join("logged.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"event\":\"run_start\""));
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"job_failed\""))
                .count(),
            1
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"job_finish\""))
                .count(),
            3
        );
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"event\":\"run_finish\"") && last.contains("\"failed\":1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figure_spec_matches_figure_shape() {
        let spec = SweepSpec::figure("4a");
        assert_eq!(spec.id, "fig4a");
        assert_eq!(spec.strategies.len(), 5);
        assert_eq!(spec.mem.access_cycles, 1);
        // 5 strategies × 6 sizes minus the sub-line points.
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 28);
    }
}
