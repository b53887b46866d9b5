//! High-level replay entry points: feed a binary trace through any
//! fetch-engine configuration.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use pipe_icache::repeat::RepeatCounts;
use pipe_icache::{ConfigError, FetchConfig, ReplayHarness, ReplayStats};
use pipe_isa::Program;
use pipe_mem::{MemConfig, MemorySystem};

use crate::format::{program_fnv, Fnv64, TraceError, TraceMeta, TraceSummary};
use crate::reader::TraceReader;

/// An error while replaying a trace.
#[derive(Debug)]
pub enum ReplayTraceError {
    /// The trace file could not be read or decoded.
    Trace(TraceError),
    /// The replay itself stopped making progress.
    Replay(pipe_icache::ReplayError),
    /// The fetch-engine configuration failed validation.
    Config(ConfigError),
    /// The supplied program does not match the trace header's program
    /// fingerprint — the trace was recorded from a different binary.
    ProgramMismatch {
        /// Fingerprint in the trace header.
        expected: u64,
        /// Fingerprint of the supplied program.
        got: u64,
    },
}

impl fmt::Display for ReplayTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayTraceError::Trace(e) => write!(f, "{e}"),
            ReplayTraceError::Replay(e) => write!(f, "{e}"),
            ReplayTraceError::Config(e) => write!(f, "invalid replay configuration: {e}"),
            ReplayTraceError::ProgramMismatch { expected, got } => write!(
                f,
                "program does not match trace (trace was recorded from program \
                 {expected:#018x}, supplied program is {got:#018x})"
            ),
        }
    }
}

impl Error for ReplayTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReplayTraceError::Trace(e) => Some(e),
            ReplayTraceError::Replay(e) => Some(e),
            ReplayTraceError::Config(e) => Some(e),
            ReplayTraceError::ProgramMismatch { .. } => None,
        }
    }
}

impl From<TraceError> for ReplayTraceError {
    fn from(e: TraceError) -> ReplayTraceError {
        ReplayTraceError::Trace(e)
    }
}

impl From<pipe_icache::ReplayError> for ReplayTraceError {
    fn from(e: pipe_icache::ReplayError) -> ReplayTraceError {
        ReplayTraceError::Replay(e)
    }
}

impl From<ConfigError> for ReplayTraceError {
    fn from(e: ConfigError) -> ReplayTraceError {
        ReplayTraceError::Config(e)
    }
}

/// The result of replaying a trace.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Fetch-side statistics of the replay.
    pub stats: ReplayStats,
    /// What the loop-iteration skip did.
    pub repeats: RepeatCounts,
    /// The totals recorded at capture time, for determinism checks.
    pub recorded: Option<TraceSummary>,
    /// The trace's metadata.
    pub meta: TraceMeta,
}

impl ReplayOutcome {
    /// `true` when the replay reproduced the recorded run exactly:
    /// same instruction count, total cycles, and fetch-stall cycles.
    /// Only meaningful when the replay used the recorded configuration.
    pub fn matches_recording(&self) -> bool {
        match &self.recorded {
            Some(r) => {
                r.instructions == self.stats.instructions
                    && r.cycles == self.stats.cycles
                    && r.ifetch_stalls == self.stats.ifetch_stalls
            }
            None => false,
        }
    }
}

/// Replays every step of `reader` through a fetch engine built from
/// `fetch` over `program`, against a fresh memory system from `mem`,
/// applying repeating loop iterations in one step
/// ([`ReplayHarness::replay`]); the statistics equal those of a
/// step-by-step replay.
///
/// Streams: only one trace block and one loop iteration's steps are in
/// memory at a time.
///
/// # Errors
///
/// Trace decoding errors (including CRC failures), configuration errors,
/// a program/trace fingerprint mismatch, and stuck replays.
pub fn replay_trace<R: Read>(
    mut reader: TraceReader<R>,
    program: &Program,
    fetch: &FetchConfig,
    mem: &MemConfig,
) -> Result<ReplayOutcome, ReplayTraceError> {
    let got = program_fnv(program);
    if reader.meta().program_fnv != got {
        return Err(ReplayTraceError::ProgramMismatch {
            expected: reader.meta().program_fnv,
            got,
        });
    }
    let engine = fetch.build(program)?;
    let mut harness = ReplayHarness::new(engine, MemorySystem::new(*mem));
    harness.replay(|step| reader.read_step(step).map_err(ReplayTraceError::Trace))?;
    harness.drain()?;
    Ok(ReplayOutcome {
        stats: harness.stats(),
        repeats: harness.repeats(),
        recorded: reader.summary().copied(),
        meta: reader.meta().clone(),
    })
}

/// FNV-1a 64 hash of a file's raw bytes, streamed in 64 KiB chunks.
/// Used to content-address trace-driven sweep results.
///
/// # Errors
///
/// Any read failure.
pub fn file_fnv(path: &Path) -> io::Result<u64> {
    let mut f = File::open(path)?;
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(h.finish());
        }
        h.update(&buf[..n]);
    }
}
