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
//! Every point runs alone through the one cycle loop
//! ([`pipe_core::Processor::run`], which applies repeating loop
//! iterations in one step) over the spec's shared [`Course`]: the
//! program is predecoded and interpreted once for all of its points. A
//! trace workload replays through its fetch engine instead (see
//! [`crate::tracerun`]).
//! Parallelism is threads over points.
//!
//! A runner simulates each distinct point **once**: it keeps every
//! successful point in an in-memory memo keyed by [`SweepJob::key`], and a
//! later sweep on the same runner takes a job with a known key from the
//! memo instead of simulating it again. Figure 6a, which re-plots 5b's
//! configuration, and the ablations that contain 5b's configuration cost
//! nothing after 5b. The key covers the workload, the memory timing and
//! the complete fetch geometry, and every job runs under the same fixed
//! [`point_config`](crate::runner::point_config), so a reused point is the
//! point a fresh simulation would produce. Failed jobs are never memoised,
//! and the memo lives only as long as the runner.
//!
//! Execution is **fault-tolerant**: each job runs under `catch_unwind`,
//! so a panicking or erroring point becomes a [`FailedJob`] recorded in
//! the [`SweepOutcome`] while every other job completes.
//! [`SweepRunner::strict`] restores fail-fast semantics
//! ([`SweepRunner::try_run`] returns [`SweepError`] carrying the partial
//! outcome).
//!
//! ```no_run
//! use pipe_experiments::sweep::{SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::figure("5b");
//! let outcome = SweepRunner::new().jobs(4).try_run(&spec).unwrap();
//! assert_eq!(outcome.series.len(), 5);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pipe_core::{Course, FetchStrategy};
use pipe_icache::PrefetchPolicy;
use pipe_isa::{DecodedProgram, InstrFormat, Program};
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::figures::{figure_mem, Series};
use crate::matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
use crate::runner::{try_run_point_course, ExperimentPoint};

/// The benchmark a sweep runs. Declarative (rather than a prebuilt
/// [`Program`]) so the workload participates in each point's
/// configuration key.
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
    /// A pre-recorded binary `.ptr` instruction trace, replayed through
    /// each job's fetch engine instead of running the functional core
    /// (see [`crate::tracerun`]). The key
    /// fragment is the FNV-1a 64 digest of the file's bytes, so it names
    /// the trace content rather than its path.
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
            WorkloadSpec::Trace { fnv, .. } => format!("trace:fnv={fnv:016x}"),
        }
    }
}

/// Canonical key fragment for a memory configuration: every field, in a
/// fixed order, and the fixed output bus width and FPU latency. Also used
/// as the `mem_key` of recorded trace headers, which is why the two
/// constants are in the text.
pub fn mem_key(mem: &MemConfig) -> String {
    let ext = match &mem.external_cache {
        Some(e) => format!(
            "size={},line={},penalty={}",
            e.size_bytes, e.line_bytes, e.miss_penalty
        ),
        None => "none".to_string(),
    };
    format!(
        "access={},pipelined={},bus_in={},bus_out=4,priority={},fpu={},ext={}",
        mem.access_cycles,
        mem.pipelined,
        mem.in_bus_bytes,
        mem.priority,
        pipe_mem::FPU_LATENCY,
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
    /// The canonical configuration key naming this point: it covers
    /// workload, memory timing, and the complete fetch geometry, so equal
    /// keys simulate identically.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// One completed point with the time it took.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The measured point.
    pub point: ExperimentPoint,
    /// Wall-clock time the simulation took (zero for a point taken from
    /// the runner's memo).
    pub wall: Duration,
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
    /// Points in `series`: simulated by this sweep or reused from the
    /// runner's memo.
    pub computed: usize,
    /// How many of the `computed` points came from the runner's memo
    /// rather than a simulation.
    pub reused: usize,
    /// Jobs that failed, in expansion order.
    pub failed: Vec<FailedJob>,
    /// Points per simulation call, one entry per job run: always 1, since
    /// every point runs alone through the one cycle loop.
    pub batches: Vec<usize>,
    /// Total wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Whether every expanded job produced a point.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Test hook: make specific jobs panic, so tests can drive the
/// fault-tolerant and strict paths of a real sweep (see
/// `tests/fault_tolerance.rs`). An injected job is always executed, never
/// taken from the memo.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Expansion indices whose execution panics.
    pub panic_jobs: Vec<usize>,
}

/// Executes [`SweepSpec`]s across worker threads with optional progress
/// reporting. Fault-tolerant by default; see [`SweepRunner::strict`].
///
/// The runner memoises every successful point by its job key, so running
/// one runner over several specs simulates each distinct point once (see
/// the [module docs](self)).
#[derive(Debug)]
pub struct SweepRunner {
    jobs: usize,
    progress: bool,
    strict: bool,
    inject: FaultInjection,
    memo: Mutex<HashMap<String, ExperimentPoint>>,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A serial runner with no progress output.
    pub fn new() -> SweepRunner {
        SweepRunner {
            jobs: 1,
            progress: false,
            strict: false,
            inject: FaultInjection::default(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the worker-thread count (0 is treated as 1).
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs.max(1);
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
    /// still finish, so a strict abort loses no completed point.
    pub fn strict(mut self, strict: bool) -> SweepRunner {
        self.strict = strict;
        self
    }

    /// Installs fault injection (test/diagnostic hook; see
    /// [`FaultInjection`]).
    pub fn inject(mut self, inject: FaultInjection) -> SweepRunner {
        self.inject = inject;
        self
    }

    /// Runs the sweep.
    ///
    /// Jobs whose key is already in the runner's memo are filled in
    /// without simulating; only the rest run, serially or on the worker
    /// threads, and each one that succeeds joins the memo.
    ///
    /// In the default fault-tolerant mode this always returns `Ok`: a
    /// panicking or erroring job becomes a [`FailedJob`] in the outcome.
    /// Under [`strict`](SweepRunner::strict), the first failure cancels
    /// the remaining jobs and surfaces as [`SweepError::Strict`] carrying
    /// the partial outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Strict`] as described above.
    pub fn try_run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        let started = Instant::now();
        let jobs = spec.expand();
        let total = jobs.len();

        // Index-addressed result slots: the write order never affects the
        // collected series.
        let mut slots: Vec<Option<PointOutcome>> = (0..total).map(|_| None).collect();
        let reused = self.fill_from_memo(spec, &jobs, &mut slots);
        let misses: Vec<&SweepJob> = jobs.iter().filter(|j| slots[j.index].is_none()).collect();

        let mut failed: Vec<FailedJob> = Vec::new();
        // Set on the first failure under strict: workers stop picking up
        // new jobs but finish the ones in flight.
        let cancel = AtomicBool::new(false);
        let mut record = |index: usize, result: Result<PointOutcome, JobError>| match result {
            Ok(outcome) => slots[index] = Some(outcome),
            Err(error) => {
                failed.push(failed_job(&jobs[index], error));
                if self.strict {
                    cancel.store(true, Ordering::Relaxed);
                }
            }
        };

        self.execute_all(spec, &misses, total, &cancel, &mut record);
        failed.sort_by_key(|f| f.index);

        self.memo().extend(misses.iter().filter_map(|job| {
            let outcome = slots[job.index].as_ref()?;
            Some((job.key().to_string(), outcome.point.clone()))
        }));

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

        let computed = slots.iter().flatten().count();
        let wall = started.elapsed();
        if self.progress {
            eprintln!(
                "[{}] sweep done: {} computed ({} simulated, {} reused), {} failed in {:.1} ms",
                spec.id,
                computed,
                computed - reused,
                reused,
                failed.len(),
                wall.as_secs_f64() * 1e3,
            );
        }
        let outcome = SweepOutcome {
            series,
            computed,
            reused,
            batches: vec![1; computed + failed.len()],
            failed,
            wall,
        };
        if self.strict && !outcome.is_complete() {
            return Err(SweepError::Strict(Box::new(outcome)));
        }
        Ok(outcome)
    }

    /// The memo of successful points by job key. Each entry is inserted
    /// whole, so the map is valid even if a holder of the lock panicked.
    fn memo(&self) -> MutexGuard<'_, HashMap<String, ExperimentPoint>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills the slots of jobs whose key is in the memo and returns how
    /// many it filled. Jobs named by fault injection always execute.
    fn fill_from_memo(
        &self,
        spec: &SweepSpec,
        jobs: &[SweepJob],
        slots: &mut [Option<PointOutcome>],
    ) -> usize {
        let memo = self.memo();
        let mut reused = 0;
        for job in jobs {
            if self.inject.panic_jobs.contains(&job.index) {
                continue;
            }
            let Some(point) = memo.get(job.key()) else {
                continue;
            };
            if self.progress {
                eprintln!(
                    "[{} {}/{}] {} @ {}B: {} cycles (reused)",
                    spec.id,
                    job.index + 1,
                    jobs.len(),
                    job.kind.label(),
                    job.cache_bytes,
                    point.cycles,
                );
            }
            slots[job.index] = Some(PointOutcome {
                point: point.clone(),
                wall: Duration::ZERO,
            });
            reused += 1;
        }
        reused
    }

    /// Executes `misses` serially or across the worker threads, handing
    /// each result to `record`. Stops picking up new jobs once `cancel`
    /// is set.
    fn execute_all(
        &self,
        spec: &SweepSpec,
        misses: &[&SweepJob],
        total: usize,
        cancel: &AtomicBool,
        record: &mut impl FnMut(usize, Result<PointOutcome, JobError>),
    ) {
        if misses.is_empty() {
            return;
        }
        // Decode and interpret the workload once; every job (serial or
        // threaded) reads the same course instead of interpreting the
        // program again. Trace replay reads only the program.
        let program = Arc::new(DecodedProgram::new(spec.workload.build()));
        let course = match spec.workload {
            WorkloadSpec::Trace { .. } => None,
            _ => Some(Course::record(&program)),
        };
        let workers = self.jobs.min(misses.len());
        if workers == 1 {
            for job in misses {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                record(
                    job.index,
                    self.execute(spec, job, &program, course.as_ref(), total),
                );
            }
            return;
        }
        // Per-job results flow back over an mpsc channel, so a worker that
        // dies mid-job can never poison shared state: its result is simply
        // the error it sent (or nothing, which leaves the slot empty).
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<PointOutcome, JobError>)>();
        let (program, course) = (&program, course.as_ref());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = misses.get(i) else { break };
                    let result = self.execute(spec, job, program, course, total);
                    if tx.send((job.index, result)).is_err() {
                        return;
                    }
                });
            }
            drop(tx);
            for (index, result) in rx {
                record(index, result);
            }
        });
    }

    /// Simulates one point under `catch_unwind` and reports progress. A
    /// panic or simulation error becomes `Err(JobError)` — the job fails
    /// alone.
    fn execute(
        &self,
        spec: &SweepSpec,
        job: &SweepJob,
        program: &Arc<DecodedProgram>,
        course: Option<&Arc<Course>>,
        total: usize,
    ) -> Result<PointOutcome, JobError> {
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
                _ => {
                    let course = course.expect("a program workload's course is recorded");
                    try_run_point_course(course, job.fetch, &spec.mem, job.cache_bytes)
                        .map_err(|e| e.to_string())
                }
            }
        }));
        let wall = t0.elapsed();
        let error = match result {
            Ok(Ok(point)) => {
                if self.progress {
                    eprintln!(
                        "[{} {}/{}] {} @ {}B: {} cycles ({:.1} ms)",
                        spec.id,
                        job.index + 1,
                        total,
                        job.kind.label(),
                        job.cache_bytes,
                        point.cycles,
                        wall.as_secs_f64() * 1e3,
                    );
                }
                return Ok(PointOutcome { point, wall });
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
        Err(error)
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
            workload: WorkloadSpec::Livermore {
                format: InstrFormat::Fixed32,
                scale: 50,
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

        // Recorded trace headers carry this fragment, and perfbench's
        // `scalar` workload adds the trace's `trace.bytes` into its
        // exact-output gate, so it must stay as it is.
        assert_eq!(
            mem_key(&figure_mem("4a").0),
            "access=1,pipelined=false,bus_in=4,bus_out=4,priority=instruction-first,fpu=4,ext=none"
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let spec = small_spec("det");
        let serial = SweepRunner::new().try_run(&spec).unwrap();
        let parallel = SweepRunner::new().jobs(4).try_run(&spec).unwrap();
        assert_eq!(serial.series.len(), parallel.series.len());
        for (s, p) in serial.series.iter().zip(&parallel.series) {
            assert_eq!(s.label, p.label);
            let sc: Vec<(u32, u64)> = s.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            let pc: Vec<(u32, u64)> = p.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            assert_eq!(sc, pc, "cycle counts identical under {}", s.label);
        }
    }

    #[test]
    fn injected_panic_fails_alone_others_complete() {
        let spec = small_spec("faulty");
        let serial = SweepRunner::new().try_run(&spec).unwrap();

        let outcome = SweepRunner::new()
            .jobs(4)
            .inject(FaultInjection {
                panic_jobs: vec![1],
            })
            .try_run(&spec)
            .unwrap();
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
            })
            .try_run(&spec)
            .is_ok());
    }

    #[test]
    fn injected_panic_fails_on_every_rerun_on_the_same_runner() {
        let spec = small_spec("rerun");
        for jobs in [1, 4] {
            let runner = SweepRunner::new().jobs(jobs).inject(FaultInjection {
                panic_jobs: vec![1],
            });
            for round in 0..3 {
                let outcome = runner.try_run(&spec).unwrap();
                assert_eq!(outcome.failed.len(), 1, "jobs {jobs} round {round}");
                assert_eq!(outcome.failed[0].index, 1);
                assert!(matches!(outcome.failed[0].error, JobError::Panic(_)));
                assert_eq!(outcome.computed, 3);
                // The first round simulates the three good points; later
                // rounds reuse them and execute only the injected job.
                let reused = if round == 0 { 0 } else { 3 };
                assert_eq!(outcome.reused, reused, "jobs {jobs} round {round}");
            }
        }
    }

    #[test]
    fn injected_job_is_executed_even_when_its_key_is_memoised() {
        let spec = small_spec("inject-after-memo");
        let runner = SweepRunner::new();
        assert!(runner.try_run(&spec).unwrap().is_complete());
        let runner = runner.inject(FaultInjection {
            panic_jobs: vec![2],
        });
        let outcome = runner.try_run(&spec).unwrap();
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].index, 2);
        assert_eq!((outcome.computed, outcome.reused), (3, 3));
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
