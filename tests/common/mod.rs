//! Trace helpers shared by the root integration tests: recording a run,
//! and the step-by-step replay that the loop-iteration skip must equal.

use std::cell::RefCell;
use std::rc::Rc;

use pipe_core::{Processor, SimConfig, SimStats};
use pipe_icache::{FetchConfig, ReplayError, ReplayHarness, ReplayStats, ReplayStep};
use pipe_isa::Program;
use pipe_mem::{MemConfig, MemorySystem};
use pipe_trace::{program_fnv, TraceMeta, TraceReader, TraceRecorder, TraceSummary};

/// Records `program` running under `config` into an in-memory trace.
pub fn record(program: &Program, config: &SimConfig) -> (Vec<u8>, SimStats, TraceSummary) {
    let meta = TraceMeta {
        workload: "test:acceptance".into(),
        program_fnv: program_fnv(program),
        entry_pc: program.entry(),
        fetch_key: config.fetch.cache_key(),
        mem_key: pipe_experiments::mem_key(&config.mem),
    };
    let recorder = Rc::new(RefCell::new(
        TraceRecorder::new(Vec::new(), &meta).expect("trace header writes"),
    ));
    let proc = Processor::new(program, config).expect("processor builds");
    let mut proc = proc.with_trace(Rc::clone(&recorder));
    proc.run().expect("program runs to halt");
    let stats = proc.stats().clone();
    let (bytes, summary) = recorder
        .borrow_mut()
        .finish(stats.cycles)
        .expect("trace finishes");
    (bytes, stats, summary)
}

/// The reference replay: `step_instruction` on every step of `schedule`,
/// then `drain`, with no skipping of any kind.
pub fn replay_ticked(
    schedule: impl IntoIterator<Item = ReplayStep>,
    program: &Program,
    fetch: &FetchConfig,
    mem: &MemConfig,
) -> Result<ReplayStats, ReplayError> {
    let engine = fetch.build(program).expect("engine builds");
    let mut harness = ReplayHarness::new(engine, MemorySystem::new(*mem));
    for step in schedule {
        harness.step_instruction(&step)?;
    }
    harness.drain()?;
    Ok(harness.stats())
}

/// The steps of the trace `bytes`.
pub fn steps(bytes: &[u8]) -> Vec<ReplayStep> {
    TraceReader::new(bytes)
        .expect("trace decodes")
        .collect::<Result<_, _>>()
        .expect("steps decode")
}
