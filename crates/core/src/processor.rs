//! The PIPE processor: issue logic, architectural queues, and the
//! cycle loop connecting the fetch engine and the memory system.
//!
//! ## Cycle structure
//!
//! Each call to [`Processor::step`] simulates one clock:
//!
//! 1. **Offer** — the fetch engine and the load/store queues offer memory
//!    requests for this cycle's arbitration.
//! 2. **Memory tick** — the memory system arbitrates, advances in-flight
//!    accesses, and streams response beats.
//! 3. **Routing** — an accepted load leaves the LAQ to wait for its beat;
//!    an accepted store leaves the SAQ and SDQ; other acceptances inform
//!    the fetch engine. Memory answers in acceptance order, so a data beat
//!    fills the oldest LDQ slot waiting on a load, an FPU result the
//!    oldest waiting on the FPU, and an instruction beat goes to the fetch
//!    engine.
//! 4. **Fetch advance** — queue transfers and cache fills inside the
//!    engine.
//! 5. **Issue** — at most one instruction decodes and issues. Reads of
//!    `r7` pop the LDQ head (stalling until filled); writes of `r7` push
//!    the SDQ. A prepare-to-branch records its outcome at issue and
//!    resolves at the start of the next cycle, when the engine is told the
//!    outcome so it can begin target preparation while delay slots drain.
//!
//! ## Timing only
//!
//! The processor holds no data value: its queues hold addresses in
//! program order and which LDQ slots have arrived. The values live in the
//! [`Interpreter`](crate::Interpreter), the one functional model, which
//! the processor reads through a [`Cursor`]: each issue takes the next
//! [`Step`], checks that its address is the fetched instruction's, and
//! reads from it the only values timing depends on — a
//! prepare-to-branch's outcome and target, and a store address's FPU
//! role. The memory system models timing only too.
//!
//! The program's course does not depend on timing, so a sweep records it
//! once into a [`Course`] that all its runs read
//! ([`from_course`](Processor::from_course)). A course keeps no data
//! address outside the FPU window and no store value ([`Step::timed`]).
//! A run built without one ([`from_decoded`](Processor::from_decoded)),
//! and a run that observes those values — one with an enabled trace
//! sink, which reports them, or with an external cache, whose timing
//! depends on addresses — reads a cursor over an interpreter of its own,
//! stepped a few instructions ahead of issue, and queues the true
//! addresses and values.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pipe_icache::FetchEngine;
use pipe_isa::decode::DecodeError;
use pipe_isa::{DecodedProgram, Instruction, Program, Reg, PARCEL_BYTES};
use pipe_mem::{BeatSource, ConfigError, MemRequest, MemorySystem, ReqClass};

use crate::config::{SimConfig, QUEUE_ENTRIES};
use crate::course::{Course, Cursor};
use crate::interp::Step;
use crate::queues::{Access, AddressQueue, LoadQueue, SlotSource, StoreRole};
use crate::stats::SimStats;
use crate::trace::{DataOp, NoTrace, StallReason, TraceEvent, TraceSink};

mod repeat;

use pipe_icache::repeat::RepeatCounts;
use repeat::{FrozenStop, LoopSkip};

/// An error terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The fetch stream produced an undecodable instruction.
    Decode(DecodeError),
    /// `max_cycles` elapsed before the program halted and drained — almost
    /// always a deadlocked program (e.g. reading `r7` with no load in
    /// flight) or mismatched SAQ/SDQ pushes.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Decode(e) => write!(f, "instruction decode failed: {e}"),
            SimError::Timeout { cycles } => {
                write!(f, "simulation did not complete within {cycles} cycles")
            }
        }
    }
}

impl Error for SimError {}

impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> SimError {
        SimError::Decode(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// A prepare-to-branch issued this cycle, resolving at the start of the
/// next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pbr {
    taken: bool,
    target: u32,
    delay: u8,
}

/// The value-dependent choice an issuing instruction makes that timing
/// depends on: a prepare-to-branch's outcome, or a store address's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    None,
    Branch { taken: bool, target: u32 },
    Store(StoreRole),
}

impl Decision {
    /// The choice a course's `step` made.
    fn of(step: &Step) -> Decision {
        match (step.branch, step.data) {
            (Some((taken, target)), _) => Decision::Branch { taken, target },
            (_, Some(DataOp::StoreAddr { addr })) => Decision::Store(StoreRole::of(addr)),
            _ => Decision::None,
        }
    }
}

/// The core's timing state: the architectural queues, the branch in
/// flight and whether `halt` issued. Never a data value or a sequence
/// number; the key of the loop-iteration skip is this state as it stands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Core {
    /// The LAQ and SAQ: loads and store addresses not yet accepted by
    /// memory, in program order.
    accesses: AddressQueue,
    /// Words in the SDQ.
    sdq: usize,
    /// Which LDQ slots have been filled.
    ldq: LoadQueue<()>,
    pbr: Option<Pbr>,
    /// Delay slots left before a taken branch's redirect, after resolution.
    redirect_remaining: Option<u32>,
    halted: bool,
}

/// The simulated PIPE processor.
///
/// Generic over its trace sink: the default [`NoTrace`] monomorphizes the
/// trace path to dead code, so untraced runs (the common case for
/// sweeps) pay nothing for the plumbing. Attach a real sink with
/// [`with_trace`](Processor::with_trace).
pub struct Processor<S: TraceSink = NoTrace> {
    mem: MemorySystem,
    fetch: Box<dyn FetchEngine>,
    /// Predecoded program image: the hot loop looks instructions up by
    /// parcel index instead of calling `decode` every issue attempt.
    decoded: Arc<DecodedProgram>,
    /// One step per issue (see the [module docs](self)).
    steps: Cursor,
    max_cycles: u64,
    core: Core,
    cycle: u64,
    stats: SimStats,
    trace: S,
    /// Loop-iteration skipping, present while [`run`](Self::run) may
    /// apply repeating iterations in one step.
    loops: Option<Box<LoopSkip>>,
    /// The frozen stop, present while [`run`](Self::run) may end a
    /// machine that can never change again at the cycle budget.
    frozen: Option<Box<FrozenStop>>,
}

impl<S: TraceSink> fmt::Debug for Processor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Processor")
            .field("cycle", &self.cycle)
            .field("halted", &self.core.halted)
            .field("fetch", &self.fetch.name())
            .field("instructions", &self.stats.instructions_issued)
            .finish()
    }
}

impl Processor {
    /// Builds a processor for `program` under `config`. Predecodes the
    /// program; to share one predecode across many runs, use
    /// [`from_decoded`](Processor::from_decoded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails validation.
    pub fn new(program: &Program, config: &SimConfig) -> Result<Processor, SimError> {
        Processor::from_decoded(&Arc::new(DecodedProgram::new(program.clone())), config)
    }

    /// Builds a processor over an already-predecoded program, sharing the
    /// decode table instead of recomputing it. It interprets the program
    /// as it issues; to share one recorded course across many runs, use
    /// [`from_course`](Processor::from_course).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails validation.
    pub fn from_decoded(
        decoded: &Arc<DecodedProgram>,
        config: &SimConfig,
    ) -> Result<Processor, SimError> {
        Processor::build(decoded, Cursor::interpreting(decoded), config)
    }

    /// Builds a processor that reads a shared course (sweeps record one
    /// per program for hundreds of points) and its predecoded program.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails validation.
    pub fn from_course(course: &Arc<Course>, config: &SimConfig) -> Result<Processor, SimError> {
        let decoded = course.decoded();
        // An external cache times a run by its data addresses.
        let steps = match config.mem.external_cache {
            Some(_) => Cursor::interpreting(decoded),
            None => Cursor::new(Arc::clone(course)),
        };
        Processor::build(decoded, steps, config)
    }

    fn build(
        decoded: &Arc<DecodedProgram>,
        steps: Cursor,
        config: &SimConfig,
    ) -> Result<Processor, SimError> {
        config.validate()?;
        let fetch = config.fetch.build(decoded.program())?;
        Ok(Processor {
            mem: MemorySystem::new(config.mem),
            fetch,
            decoded: Arc::clone(decoded),
            steps,
            max_cycles: config.max_cycles,
            core: Core {
                accesses: AddressQueue::new(QUEUE_ENTRIES),
                sdq: 0,
                ldq: LoadQueue::new(QUEUE_ENTRIES),
                pbr: None,
                redirect_remaining: None,
                halted: false,
            },
            cycle: 0,
            stats: SimStats::default(),
            trace: NoTrace,
            loops: None,
            frozen: None,
        })
    }
}

impl<S: TraceSink> Processor<S> {
    /// Attaches a trace sink receiving every issue/stall/branch event,
    /// consuming the processor (the sink type becomes part of the
    /// processor type, so traced and untraced runs monomorphize
    /// separately). To inspect the sink after the run, hand the processor
    /// an `Rc<RefCell<...>>` clone (see [`crate::trace`]).
    pub fn with_trace<T: TraceSink>(self, sink: T) -> Processor<T> {
        // A sink that reports events sees true addresses and values.
        let steps = match sink.enabled() {
            true => self.steps.observing_values(self.stats.instructions_issued),
            false => self.steps,
        };
        Processor {
            mem: self.mem,
            fetch: self.fetch,
            decoded: self.decoded,
            steps,
            max_cycles: self.max_cycles,
            core: self.core,
            cycle: self.cycle,
            stats: self.stats,
            trace: sink,
            loops: self.loops,
            frozen: self.frozen,
        }
    }

    fn emit(&mut self, event: TraceEvent) {
        if self.trace.enabled() {
            self.trace.event(&event);
        }
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns `true` once `halt` has issued and all queues and memory
    /// activity have drained.
    pub fn is_done(&self) -> bool {
        // Idle memory has no load or FPU result in flight, so with the
        // address queue empty no LDQ slot is left waiting.
        self.core.halted
            && self.core.accesses.is_empty()
            && self.core.sdq == 0
            && self.fetch.outstanding() == 0
            && self.mem.is_idle()
    }

    /// Statistics accumulated so far (finalized copies are returned by
    /// [`run`](Self::run)).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current `(LAQ, LDQ, SAQ, SDQ)` occupancies plus in-flight loads and
    /// pending FPU results — a snapshot for diagnosing stuck simulations.
    pub fn queue_snapshot(&self) -> [usize; 6] {
        let core = &self.core;
        let loads = core.accesses.loads();
        [
            loads,
            core.ldq.len(),
            core.accesses.stores(),
            core.sdq,
            core.ldq.waiting(SlotSource::Load) - loads,
            core.ldq.waiting(SlotSource::Fpu),
        ]
    }

    /// Runs to completion, finalizing the statistics in place — read them
    /// with [`stats`](Self::stats) or take them with
    /// [`into_stats`](Self::into_stats) (no clone either way). They are
    /// finalized on an error too, so a timeout reports the cycles it ran.
    ///
    /// After each cycle that issues a prepare-to-branch, the loop applies
    /// any further repeats of a loop iteration whose timing state came
    /// back unchanged (`repeat_iterations`). After two cycles in a row
    /// that change nothing, it runs a machine that can never change again
    /// to the cycle budget in one step (`stop_if_frozen`). The statistics
    /// and any timeout cycle are bit-identical to ticking
    /// [`step`](Self::step) until [`is_done`](Self::is_done) or the cycle
    /// budget runs out.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] on an undecodable instruction and
    /// [`SimError::Timeout`] if the program does not halt and drain within
    /// `config.max_cycles`.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.run_counting_repeats().map(drop)
    }

    /// [`run`](Self::run), also returning what the loop-iteration skip
    /// did.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_counting_repeats(&mut self) -> Result<RepeatCounts, SimError> {
        // The loop skip is off when a trace sink observes every cycle, and
        // the frozen stop whenever one is attached.
        let untraced = !self.trace.enabled();
        self.loops = (untraced || self.trace.takes_iterations()).then(Box::default);
        self.frozen = untraced.then(Box::default);
        let result = self.run_cycles();
        self.frozen = None;
        let counts = self
            .loops
            .take()
            .map(|l| l.marks.counts())
            .unwrap_or_default();
        self.finalize_stats();
        result.map(|()| counts)
    }

    /// The body of [`run`](Self::run): the cycle loop with its skips.
    fn run_cycles(&mut self) -> Result<(), SimError> {
        while !self.is_done() {
            if self.cycle >= self.max_cycles {
                return Err(SimError::Timeout { cycles: self.cycle });
            }
            let issued_before = self.stats.instructions_issued;
            self.step()?;
            if let Some(at) = self.loops.as_mut().and_then(|l| l.issued_pbr.take()) {
                self.repeat_iterations(at);
            } else if self.stats.instructions_issued == issued_before
                && self.mem.is_idle()
                && self.fetch.outstanding() == 0
                && !self.is_done()
            {
                self.stop_if_frozen();
            }
        }
        Ok(())
    }

    /// Copies the final cycle count and the fetch/memory snapshots into
    /// the statistics — the epilogue of [`run`](Self::run).
    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.fetch = self.fetch.stats().clone();
        self.stats.mem = self.mem.stats().clone();
    }

    /// Consumes the processor, returning the accumulated statistics by
    /// move (finalized by [`run`](Self::run)).
    pub fn into_stats(self) -> SimStats {
        self.stats
    }

    /// Simulates one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the fetch stream yields an invalid
    /// encoding.
    pub fn step(&mut self) -> Result<(), SimError> {
        // 1. Offer. Data requests drain in program order, and a store
        // whose data has not reached the SDQ blocks younger loads rather
        // than letting them bypass it.
        self.fetch.offer_requests(&mut self.mem);
        match self.core.accesses.front() {
            Some(Access::Load { addr }) => {
                self.mem
                    .offer(MemRequest::load(ReqClass::DataLoad, addr.0, 4));
            }
            Some(Access::Store { addr, .. }) if self.core.sdq > 0 => {
                self.mem.offer(MemRequest::store(addr.0));
            }
            _ => {}
        }

        // 2. Memory tick.
        let out = self.mem.tick();

        // 3. Routing: an accepted load waits for its beat; an accepted
        // store leaves its address and data queues.
        let core = &mut self.core;
        match out.accepted {
            Some(ReqClass::DataLoad) => {
                core.accesses.pop();
            }
            Some(ReqClass::DataStore) => {
                core.accesses.pop();
                core.sdq -= 1;
            }
            Some(class) => self.fetch.on_accepted(class),
            None => {}
        }
        if let Some(beat) = &out.beats {
            match beat.source {
                BeatSource::DataLoad => core.ldq.fill(SlotSource::Load, ()),
                BeatSource::FpuResult => core.ldq.fill(SlotSource::Fpu, ()),
                BeatSource::IFetch | BeatSource::IPrefetch => self.fetch.on_beat(beat),
            }
        }

        // 4. Fetch-internal advance.
        self.fetch.advance();

        // 5. Issue.
        self.resolve_pbr();
        if !self.core.halted {
            self.try_issue()?;
        }

        // Sample queue occupancies.
        let core = &self.core;
        self.stats.queues.laq.sample(core.accesses.loads());
        self.stats.queues.ldq.sample(core.ldq.len());
        self.stats.queues.saq.sample(core.accesses.stores());
        self.stats.queues.sdq.sample(core.sdq);

        self.cycle += 1;
        Ok(())
    }

    /// Resolves the prepare-to-branch issued last cycle: all its delay
    /// slots are still to come.
    fn resolve_pbr(&mut self) {
        let Some(p) = self.core.pbr.take() else {
            return;
        };
        let remaining = u32::from(p.delay);
        self.fetch.resolve_branch(p.taken, remaining, p.target);
        self.emit(TraceEvent::BranchResolved {
            cycle: self.cycle,
            taken: p.taken,
            target: p.target,
            remaining,
        });
        if p.taken {
            self.stats.branches_taken += 1;
            self.core.redirect_remaining = (remaining > 0).then_some(remaining);
        } else {
            self.stats.branches_not_taken += 1;
        }
    }

    /// The byte address of the instruction at the fetch head and its
    /// decode result, looked up in the predecoded table at the image
    /// parcel index the engine is serving. `None` means no complete
    /// instruction is available this cycle.
    fn peek_decoded(&self) -> Option<(u32, Result<Instruction, DecodeError>)> {
        let index = self.fetch.peek_index()?;
        let addr = self.decoded.program().base() + index as u32 * PARCEL_BYTES;
        Some((addr, self.decoded.get(index)?))
    }

    /// The step for the instruction at `addr`, about to issue. It stays
    /// next until the instruction issues.
    ///
    /// # Panics
    ///
    /// Panics if the interpreter executed another instruction than the
    /// one fetched, or none: the interpreter and the processor disagree on
    /// the program's course.
    fn next_step(&mut self, addr: u32) -> Step {
        let Some(step) = self.steps.peek() else {
            let end = self.steps.end();
            panic!("issue at {addr:#x}, but the course ended: {end:?}")
        };
        assert_eq!(
            step.addr, addr,
            "issue at {addr:#x}, but the interpreter executed {:#x}",
            step.addr
        );
        step
    }

    /// Whether `instr` must wait for room in a queue. A same-instruction
    /// `r7` pop frees one LDQ slot.
    fn queue_full(&self, instr: &Instruction, reads_q: bool, decision: Decision) -> bool {
        let core = &self.core;
        let needs_ldq_slot = matches!(instr, Instruction::Load { .. })
            || decision == Decision::Store(StoreRole::Operation);
        (needs_ldq_slot && core.ldq.is_full() && !reads_q)
            || (matches!(instr, Instruction::Load { .. }) && core.accesses.laq_full())
            || (matches!(instr, Instruction::StoreAddr { .. }) && core.accesses.saq_full())
            || (instr.destination() == Some(Reg::QUEUE) && core.sdq >= QUEUE_ENTRIES)
    }

    fn try_issue(&mut self) -> Result<(), SimError> {
        let (addr, instr) = match self.peek_decoded() {
            Some((addr, Ok(instr))) => (addr, instr),
            Some((_, Err(e))) => return Err(e.into()),
            None => {
                self.stats.stalls.ifetch += 1;
                self.emit(TraceEvent::Stall {
                    cycle: self.cycle,
                    reason: StallReason::IFetch,
                });
                return Ok(());
            }
        };

        // Branch gating: no PBR issues while an earlier taken one still
        // has delay slots to come. (A PBR resolves the cycle after it
        // issues, before the next issue, so none is unresolved here.)
        let branch_gated = instr.is_branch() && self.core.redirect_remaining.is_some();
        if branch_gated {
            self.stats.stalls.branch += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::Branch,
            });
            return Ok(());
        }

        // Operand readiness: an `r7` read needs the LDQ head filled.
        let reads_q = instr.sources().contains(&Reg::QUEUE);
        if reads_q && self.core.ldq.front_ready().is_none() {
            self.stats.stalls.data_wait += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::DataWait,
            });
            return Ok(());
        }

        // Resource checks (computed before any state mutation).
        let step = self.next_step(addr);
        let decision = Decision::of(&step);
        if self.queue_full(&instr, reads_q, decision) {
            self.stats.stalls.queue_full += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::QueueFull,
            });
            return Ok(());
        }

        // Commit: pop the LDQ head once, queue the data-side operation,
        // consume from fetch.
        self.steps.advance();
        if self.trace.enabled() {
            self.emit(TraceEvent::Issue {
                cycle: self.cycle,
                addr,
                instr,
            });
        }
        self.execute(&instr, reads_q, step.data);
        if let Some(loops) = &mut self.loops {
            loops.marks.log(decision);
        }
        if let (Instruction::Pbr { delay, .. }, Decision::Branch { taken, target }) =
            (instr, decision)
        {
            self.core.pbr = Some(Pbr {
                taken,
                target,
                delay,
            });
            if let Some(loops) = &mut self.loops {
                loops.issued_pbr = Some(addr);
            }
        }
        self.fetch.consume();
        self.stats.instructions_issued += 1;
        let redirect = &mut self.core.redirect_remaining;
        if let Some(r) = redirect {
            *r -= 1;
            if *r == 0 {
                *redirect = None;
            }
        }
        Ok(())
    }

    /// Applies an issuing instruction's effects on the queues: pops the
    /// LDQ head when it `reads_q`, then queues its data-side operation
    /// `op`, or stops issue after a `halt`.
    fn execute(&mut self, instr: &Instruction, reads_q: bool, op: Option<DataOp>) {
        if reads_q {
            self.core.ldq.pop();
        }
        let op = match op {
            Some(op) => op,
            _ if *instr == Instruction::Halt => {
                self.core.halted = true;
                self.emit(TraceEvent::Halted { cycle: self.cycle });
                return;
            }
            _ => return,
        };
        self.emit(TraceEvent::DataIssue {
            cycle: self.cycle,
            op,
        });
        let core = &mut self.core;
        match op {
            DataOp::Load { addr } => {
                core.ldq.alloc(SlotSource::Load);
                core.accesses.push(Access::load(addr));
                self.stats.loads += 1;
            }
            DataOp::StoreAddr { addr } => {
                if StoreRole::of(addr) == StoreRole::Operation {
                    core.ldq.alloc(SlotSource::Fpu);
                    self.stats.fpu_ops += 1;
                }
                core.accesses.push(Access::store(addr));
                self.stats.stores += 1;
            }
            DataOp::StoreData { .. } => core.sdq += 1,
        }
    }
}

/// Builds a processor and runs `program` to completion under `config`.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or execution.
pub fn run_program(program: &Program, config: &SimConfig) -> Result<SimStats, SimError> {
    let mut proc = Processor::new(program, config)?;
    proc.run()?;
    Ok(proc.into_stats())
}

/// Builds a processor over a shared predecoded program and runs it to
/// completion under `config`. The predecode is reused, not recomputed;
/// the run records the program's course for itself.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or execution.
pub fn run_decoded(
    decoded: &Arc<DecodedProgram>,
    config: &SimConfig,
) -> Result<SimStats, SimError> {
    let mut proc = Processor::from_decoded(decoded, config)?;
    proc.run()?;
    Ok(proc.into_stats())
}

/// Builds a processor over a shared course and runs it to completion
/// under `config` — the fast path for sweeps running one workload at many
/// configurations: the program is interpreted once, not once per run.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or execution.
pub fn run_course(course: &Arc<Course>, config: &SimConfig) -> Result<SimStats, SimError> {
    let mut proc = Processor::from_course(course, config)?;
    proc.run()?;
    Ok(proc.into_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchStrategy;
    use crate::interp::{interpret, InterpResult};
    use crate::trace::IssueTrace;
    use pipe_icache::{BufferConfig, CacheConfig, PipeFetchConfig, TibConfig};
    use pipe_isa::{Assembler, InstrFormat};
    use pipe_mem::MemConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .unwrap_or_else(|e| panic!("assembly failed: {e}"))
    }

    fn perfect_config() -> SimConfig {
        SimConfig {
            fetch: FetchStrategy::Perfect,
            ..SimConfig::default()
        }
    }

    fn run(src: &str, config: &SimConfig) -> SimStats {
        run_program(&asm(src), config).expect("run succeeds")
    }

    /// Runs `src` under `config` through the processor, which checks each
    /// issue against its interpreter, and returns the statistics with the
    /// final architectural state of the interpreter run on its own.
    fn run_values(src: &str, config: &SimConfig) -> (SimStats, InterpResult) {
        let program = asm(src);
        let stats = run_program(&program, config).expect("run succeeds");
        let values = interpret(&program, 100_000).expect("interprets");
        assert_eq!(stats.instructions_issued, values.instructions);
        (stats, values)
    }

    #[test]
    fn straight_line_alu() {
        let stats = run(
            "lim r1, 6\nlim r2, 7\nadd r3, r1, r2\nhalt\n",
            &perfect_config(),
        );
        assert_eq!(stats.instructions_issued, 4);
    }

    #[test]
    fn register_results_visible() {
        let (_, v) = run_values(
            "lim r1, 6\nlim r2, 7\nadd r3, r1, r2\nsub r4, r1, r2\nhalt\n",
            &perfect_config(),
        );
        assert_eq!(v.regs[3], 13);
        assert_eq!(v.regs[4], (-1i32) as u32);
    }

    #[test]
    fn loop_iteration_count() {
        // 10 iterations of a 2-instruction loop + 2 prologue + halt.
        let stats = run(
            "lim r1, 10\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n",
            &perfect_config(),
        );
        assert_eq!(stats.instructions_issued, 2 + 10 * 2 + 1);
        assert_eq!(stats.branches_taken, 9);
        assert_eq!(stats.branches_not_taken, 1);
    }

    #[test]
    fn delay_slots_execute() {
        // Delay slot increments r2 even though the branch is taken.
        let (_, v) = run_values(
            "lim r1, 2\nlim r2, 0\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 1\naddi r2, r2, 1\nhalt\n",
            &perfect_config(),
        );
        // Loop runs twice; delay slot runs on both iterations.
        assert_eq!(v.regs[2], 2);
    }

    #[test]
    fn store_and_load_roundtrip() {
        let src = r#"
            lim  r1, 0x100
            lim  r2, 42
            sta  r1, 0
            or   r7, r2, r2   ; push 42 onto SDQ
            ldw  r1, 0
            or   r3, r7, r7   ; read it back
            halt
        "#;
        let (_, v) = run_values(src, &perfect_config());
        assert_eq!(v.memory.read(0x100), 42);
        assert_eq!(v.regs[3], 42);
    }

    #[test]
    fn fpu_multiply_via_stores() {
        // 2.0 * 3.0 via the memory-mapped FPU; result read from r7.
        let src = r#"
            lui  r1, 0xFFFF
            ori  r1, r1, 0xF000   ; r1 = FPU_BASE
            lui  r2, 0x4000       ; 2.0f32
            lui  r3, 0x4040       ; 3.0f32
            sta  r1, 0
            or   r7, r2, r2
            sta  r1, 4            ; multiply
            or   r7, r3, r3
            or   r4, r7, r7       ; wait for and read result
            halt
        "#;
        let (stats, v) = run_values(src, &perfect_config());
        assert_eq!(v.regs[4], 6.0f32.to_bits());
        assert_eq!(stats.fpu_ops, 1);
        assert_eq!(stats.stores, 2);
    }

    #[test]
    fn data_wait_stall_counted() {
        // Slow memory: the r7 read must stall for the load.
        let src = "lim r1, 0x100\nldw r1, 0\nor r2, r7, r7\nhalt\n";
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 6,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let stats = run(src, &cfg);
        assert!(stats.stalls.data_wait > 0, "{stats:?}");
    }

    #[test]
    fn queue_full_stall_counted() {
        // Sixteen stores back to back outrun a 6-cycle memory, so issue
        // waits for room in the SAQ and SDQ. Livermore never fills a
        // queue (docs/MODEL.md, *Stall classes*).
        let mut src = String::from("lim r1, 0x100\nlim r2, 7\n");
        for k in 0..16 {
            src += &format!("sta r1, {}\nor r7, r2, r2\n", 4 * k);
        }
        src += "halt\n";
        let program = asm(&src);
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 6,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        run_matches_ticking(&program, &cfg).expect("runs to halt");
        let stats = run_program(&program, &cfg).expect("runs to halt");
        assert!(stats.stalls.queue_full > 0, "{stats:?}");
        assert_eq!(stats.queues.saq.max, QUEUE_ENTRIES);
        assert_eq!(stats.queues.sdq.max, QUEUE_ENTRIES);
    }

    #[test]
    fn branch_stall_counts_only_a_deadlock() {
        // A PBR in a taken PBR's delay slot waits for the redirect, which
        // waits for that slot to issue: every cycle after the third
        // instruction is a branch stall until the budget runs out.
        let program = asm("lbr b0, top\nlbr b1, top\ntop: pbr b0, r0, 1\npbr b1, r0, 0\nhalt\n");
        let cfg = SimConfig {
            max_cycles: 1_000,
            ..perfect_config()
        };
        let result = run_matches_ticking(&program, &cfg);
        assert_eq!(result.err(), Some(SimError::Timeout { cycles: 1_000 }));
        let mut proc = Processor::new(&program, &cfg).expect("config valid");
        assert!(proc.run().is_err());
        assert_eq!(proc.stats().instructions_issued, 3);
        assert_eq!(proc.stats().stalls.branch, 1_000 - 3);
    }

    #[test]
    fn queue_register_pops_once_per_instruction() {
        // `add r3, r7, r7` must consume ONE LDQ entry and see the same
        // value on both operands.
        let src = r#"
            lim  r1, 0x100
            lim  r2, 21
            sta  r1, 0
            or   r7, r2, r2
            ldw  r1, 0
            add  r3, r7, r7    ; 21 + 21
            halt
        "#;
        let (_, v) = run_values(src, &perfect_config());
        assert_eq!(v.regs[3], 42);
    }

    #[test]
    fn xchg_banks() {
        let src = "lim r1, 5\nxchg\nlim r1, 9\nxchg\naddi r2, r1, 0\nhalt\n";
        let (_, v) = run_values(src, &perfect_config());
        assert_eq!(v.regs[2], 5);
    }

    #[test]
    fn timeout_on_deadlock() {
        // Reading r7 with no load in flight can never complete. The frozen
        // stop must end the run exactly where ticking does, with the
        // statistics ticking gives.
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let result = run_matches_ticking(&asm("or r1, r7, r7\nhalt\n"), &cfg);
        assert_eq!(result, Err(SimError::Timeout { cycles: 1000 }));
    }

    /// The reference cycle loop: [`Processor::step`] until done or out of
    /// budget, with no skipping. `run` then issues no cycle: it finalizes
    /// the statistics, and times out at once at the budget.
    fn ticked(
        program: &Arc<DecodedProgram>,
        config: &SimConfig,
    ) -> (Processor, Result<(), SimError>) {
        let mut proc = Processor::from_decoded(program, config).expect("config valid");
        while !proc.is_done() && proc.cycle() < config.max_cycles {
            proc.step().expect("step");
        }
        let result = proc.run();
        (proc, result)
    }

    /// A loop with loads, stores, an FPU multiply, and taken branches —
    /// exercises every stall class.
    const STALL_LOOP: &str = r#"
        lim  r1, 0x200
        lim  r2, 0
        lim  r3, 6
        lbr  b0, loop
        loop: sta r1, 0
        or   r7, r2, r2
        ldw  r1, 0
        add  r2, r7, r7
        addi r1, r1, 4
        subi r3, r3, 1
        pbr.nez b0, r3, 1
        nop
        halt
    "#;

    #[test]
    fn invalid_config_is_rejected() {
        let program = Arc::new(DecodedProgram::new(asm(STALL_LOOP)));
        let bad = SimConfig {
            max_cycles: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            run_decoded(&program, &bad),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn runs_on_all_fetch_strategies() {
        let src = "lim r1, 20\nlbr b0, top\ntop: subi r1, r1, 1\nnop\nnop\npbr.nez b0, r1, 2\nnop\nnop\nhalt\n";
        let expected_instrs = 2 + 20 * 6 + 1;
        for fetch in [
            FetchStrategy::Perfect,
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(32, 32, 16, 32)),
        ] {
            let cfg = SimConfig {
                fetch,
                ..SimConfig::default()
            };
            let stats = run(src, &cfg);
            assert_eq!(
                stats.instructions_issued, expected_instrs,
                "under {fetch}: {stats:?}"
            );
        }
    }

    #[test]
    fn fetch_strategies_agree_on_architectural_state() {
        // The same program must issue the same instructions in the same
        // order regardless of fetch timing, so its values are the
        // interpreter's.
        let src = r#"
            lim  r1, 0x200
            lim  r2, 0
            lim  r3, 8
            lbr  b0, loop
            loop: sta r1, 0
            or   r7, r2, r2
            addi r2, r2, 3
            addi r1, r1, 4
            subi r3, r3, 1
            pbr.nez b0, r3, 1
            nop
            halt
        "#;
        let p = asm(src);
        let mut issued = Vec::new();
        for fetch in [
            FetchStrategy::Perfect,
            FetchStrategy::conventional(CacheConfig::new(32, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        ] {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: 3,
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let sink = Rc::new(RefCell::new(IssueTrace::default()));
            let mut proc = Processor::new(&p, &cfg)
                .unwrap()
                .with_trace(Rc::clone(&sink));
            proc.run().unwrap();
            issued.push(std::mem::take(&mut sink.borrow_mut().0));
        }
        assert!(issued.windows(2).all(|w| w[0] == w[1]));
        let v = interpret(&p, 1000).unwrap();
        assert_eq!(issued[0].len() as u64, v.instructions);
        let words: Vec<u32> = (0..8).map(|i| v.memory.read(0x200 + i * 4)).collect();
        assert_eq!(words, vec![0, 3, 6, 9, 12, 15, 18, 21]);
    }

    #[test]
    fn pipe_beats_conventional_on_slow_memory() {
        // A loop body larger than the cache with 6-cycle memory: the PIPE
        // strategy's line fetches and lookahead must win (the paper's
        // headline claim).
        let mut body = String::from("lim r1, 50\nlbr b0, top\ntop: subi r1, r1, 1\n");
        for _ in 0..20 {
            body.push_str("addi r2, r2, 1\n");
        }
        body.push_str("pbr.nez b0, r1, 2\nnop\nnop\nhalt\n");
        let p = asm(&body);
        let slow = MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..MemConfig::default()
        };
        let conv = run_program(
            &p,
            &SimConfig {
                fetch: FetchStrategy::conventional(CacheConfig::new(32, 16)),
                mem: slow,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let pipe = run_program(
            &p,
            &SimConfig {
                fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
                mem: slow,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(
            pipe.cycles < conv.cycles,
            "pipe {} !< conventional {}",
            pipe.cycles,
            conv.cycles
        );
    }

    #[test]
    fn lui_on_queue_register_pops_and_pushes() {
        // `lui r7, imm` reads r7 (pops the LDQ) to preserve the low half,
        // then writes r7 (pushes the SDQ) — both queue effects in one
        // instruction.
        let src = r#"
            lim  r1, 0x200
            lim  r2, 0x1234
            sta  r1, 0
            or   r7, r2, r2      ; mem[0x200] = 0x1234
            ldw  r1, 0
            sta  r1, 4
            lui  r7, 0xBEEF      ; pops 0x1234, pushes 0xBEEF1234
            halt
        "#;
        let (_, v) = run_values(src, &perfect_config());
        assert_eq!(v.memory.read(0x204), 0xBEEF_1234);
    }

    #[test]
    fn all_branch_conditions() {
        // One loop per condition, arranged so each takes exactly once.
        for (cond, init, expect_taken) in [
            ("pbr.eqz", 0i16, 1u64),
            ("pbr.nez", 1, 1),
            ("pbr.gtz", 1, 1),
            ("pbr.ltz", -1, 1),
            ("pbr.never", 0, 0),
        ] {
            let src = format!("lim r1, {init}\nlbr b0, out\n{cond} b0, r1, 0\nnop\nout: halt\n");
            let stats = run(&src, &perfect_config());
            assert_eq!(stats.branches_taken, expect_taken, "{cond}");
            // Taken skips the nop; not-taken executes it.
            let expected_instrs = 3 + u64::from(expect_taken == 0) + 1;
            assert_eq!(stats.instructions_issued, expected_instrs, "{cond}");
        }
    }

    #[test]
    fn computed_branch_via_lbrr() {
        // Jump through a register-loaded target (byte address).
        let src = r#"
            lim  r1, 16          ; byte address of `there` (4 instrs * 4)
            lbrr b1, r1
            pbr  b1, r0, 0
            addi r2, r2, 1       ; skipped
            there: halt
        "#;
        let (stats, v) = run_values(src, &perfect_config());
        assert_eq!(v.regs[2], 0, "wrong-path skipped");
        assert_eq!(stats.branches_taken, 1);
    }

    #[test]
    fn queue_occupancy_sampled() {
        let src = "lim r1, 0x100\nldw r1, 0\nldw r1, 4\nor r2, r7, r7\nor r3, r7, r7\nhalt\n";
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 6,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let stats = run(src, &cfg);
        assert!(stats.queues.ldq.max >= 2, "{:?}", stats.queues);
        assert!(stats.queues.laq.max >= 1);
        assert!(stats.queues.ldq.average(stats.cycles) > 0.0);
    }

    #[test]
    fn perfect_fetch_is_lower_bound() {
        let src = "lim r1, 30\nlbr b0, top\ntop: subi r1, r1, 1\nnop\nnop\npbr.nez b0, r1, 2\nnop\nnop\nhalt\n";
        let p = asm(src);
        let perfect = run_program(&p, &perfect_config()).unwrap();
        for fetch in [
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
        ] {
            let stats = run_program(
                &p,
                &SimConfig {
                    fetch,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            assert!(stats.cycles >= perfect.cycles, "{fetch}");
        }
    }

    #[test]
    fn pipelined_memory_gives_a_load_the_word_at_acceptance() {
        // The load of 0x100 is accepted before the younger store to 0x100,
        // but a pipelined memory accepts that store before the load's
        // response returns. The load must still see 5: values follow
        // program order, whatever the memory timing.
        let src = r#"
            lim  r1, 0x100
            lim  r2, 5
            sta  r1, 0
            or   r7, r2, r2
            lim  r3, 9
            ldw  r1, 0
            sta  r1, 0
            or   r7, r3, r3
            or   r4, r7, r7
            halt
        "#;
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 6,
                pipelined: true,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let (_, v) = run_values(src, &cfg);
        assert_eq!(v.regs[4], 5);
        assert_eq!(v.memory.read(0x100), 9);
    }

    #[test]
    fn fpu_operand_latch_persists_across_ops() {
        // The operand latch holds across operations: one A, two products.
        let src = r#"
            lim  r5, -4096        ; FPU_BASE
            lui  r1, 0x40A0       ; 5.0
            lui  r2, 0x4000       ; 2.0
            lui  r3, 0x4040       ; 3.0
            sta  r5, 0
            or   r7, r1, r1
            sta  r5, 4
            or   r7, r2, r2
            sta  r5, 4
            or   r7, r3, r3
            or   r4, r7, r7
            or   r6, r7, r7
            halt
        "#;
        let (_, v) = run_values(src, &perfect_config());
        assert_eq!(v.regs[4], 10.0f32.to_bits());
        assert_eq!(v.regs[6], 15.0f32.to_bits());
    }

    /// Runs `config` on `program` through `run` and through the ticked
    /// reference; asserts they agree on the outcome and the statistics,
    /// and returns the outcome with what the loop-iteration skip did.
    fn run_matches_ticking(
        program: &Program,
        config: &SimConfig,
    ) -> Result<RepeatCounts, SimError> {
        let decoded = Arc::new(DecodedProgram::new(program.clone()));
        let (reference, ticked) = ticked(&decoded, config);
        let mut proc = Processor::from_decoded(&decoded, config).expect("config valid");
        let result = proc.run_counting_repeats();
        assert_eq!(result.as_ref().err(), ticked.err().as_ref());
        assert_eq!(proc.stats(), reference.stats());
        result
    }

    fn repeats_match_ticking(program: &Program, config: &SimConfig) -> RepeatCounts {
        run_matches_ticking(program, config).expect("run")
    }

    #[test]
    fn loop_skip_fires_on_livermore_kernels_and_matches_ticking() {
        // Three Livermore kernels at both figure memory timings, with
        // caches that hold the loop and caches it thrashes or conflicts
        // in (iterations then end with fetches in flight).
        let fetches = [
            FetchStrategy::Perfect,
            FetchStrategy::conventional(CacheConfig::new(16, 4)),
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            FetchStrategy::conventional(CacheConfig::new(256, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(16, 8, 8, 8)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(128, 16, 16, 16)),
            FetchStrategy::Tib(TibConfig::with_budget(32, 16)),
            FetchStrategy::Tib(TibConfig::with_budget(128, 16)),
            FetchStrategy::Buffers(BufferConfig {
                buffers: 4,
                cache: None,
            }),
            FetchStrategy::Buffers(BufferConfig {
                buffers: 2,
                cache: Some(CacheConfig::new(64, 16)),
            }),
        ];
        // Applied and total cycles per engine.
        let mut shares: Vec<(&str, u64, u64)> = Vec::new();
        for kernel in [1, 4, 9] {
            let program =
                pipe_workloads::livermore::single_kernel_program(kernel, 60, InstrFormat::Fixed32)
                    .unwrap();
            for (fetch, access_cycles) in fetches.into_iter().flat_map(|f| [(f, 1), (f, 6)]) {
                let config = SimConfig {
                    fetch,
                    mem: MemConfig {
                        access_cycles,
                        in_bus_bytes: 8,
                        ..MemConfig::default()
                    },
                    ..SimConfig::default()
                };
                let applied = repeats_match_ticking(&program, &config).cycles;
                let total = run_program(&program, &config).unwrap().cycles;
                let engine = fetch.build(&program).unwrap().name();
                match shares.iter_mut().find(|s| s.0 == engine) {
                    Some(s) => (s.1, s.2) = (s.1 + applied, s.2 + total),
                    None => shares.push((engine, applied, total)),
                }
            }
        }
        // The share each engine must keep applying, in tenths of a
        // percent, rounded down. At 6-cycle memory, the TIB's fetch queue
        // alternates between two alignments on kernels 4 and 9: the
        // timing state repeats every second iteration, which the marks do
        // not catch.
        let floors = [
            ("perfect", 948),
            ("conventional", 937),
            ("pipe", 911),
            ("tib", 354),
            ("prefetch-buffers", 946),
        ];
        for &(engine, applied, total) in &shares {
            println!(
                "{engine}: {applied} of {total} cycles applied ({:.1} %)",
                100.0 * applied as f64 / total as f64
            );
            let (_, floor) = floors.iter().find(|f| f.0 == engine).expect("a floor");
            assert!(
                applied * 1000 >= total * floor,
                "{engine}: {applied} of {total} cycles applied"
            );
        }
    }

    #[test]
    fn piled_up_stale_fills_leave_run_equal_to_ticking() {
        // PIPE 32-32 at 128–512 B under Figure 5b timing: a redirect
        // leaves the IQB prefetch it strands waiting as a cache-only
        // fill, offered at the lowest priority, so hundreds of them pile
        // up. The engine keeps them in a queue of their own and looks
        // only at the newest; the loop skip over a shared course, as a
        // figure point runs, must still equal ticking.
        let suite = pipe_workloads::livermore::livermore_benchmark();
        let decoded = Arc::new(DecodedProgram::new(suite.program().clone()));
        let course = Course::record(&decoded);
        for cache in [128, 256, 512] {
            let config = SimConfig {
                fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(cache, 32, 32, 32)),
                mem: MemConfig {
                    access_cycles: 6,
                    in_bus_bytes: 8,
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let mut ticked = Processor::from_decoded(&decoded, &config).unwrap();
            let mut most = 0;
            while !ticked.is_done() {
                ticked.step().unwrap();
                most = most.max(ticked.fetch.outstanding());
            }
            ticked.run().unwrap();
            let mut shared = Processor::from_course(&course, &config).unwrap();
            let counts = shared.run_counting_repeats().unwrap();
            assert_eq!(shared.stats(), ticked.stats(), "{cache} B");
            assert!(counts.iterations > 0, "{cache} B: {counts:?}");
            // 499 at each size: if the pile stops forming, the prefetch
            // queue above is no longer exercised.
            assert!(most >= 400, "{cache} B: at most {most} fills pending");
        }
    }

    #[test]
    fn diverging_loop_exit_is_ticked() {
        // The last iteration's PBR falls through, so the look-ahead at the
        // loop exit chooses differently from the logged iteration: its
        // steps stay queued and ticking issues them, matching a run that
        // never skipped.
        let config = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 3,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let counts = repeats_match_ticking(
            &asm(STALL_LOOP.replace("r3, 6", "r3, 40").as_str()),
            &config,
        );
        assert!(counts.iterations > 0, "{counts:?}");
        assert!(counts.diverged > 0, "{counts:?}");
    }

    #[test]
    fn loop_skip_never_passes_the_cycle_budget() {
        // A budget that ends mid-loop: the timeout must name the same
        // cycle as ticking, with repeats applied up to it.
        let program = asm(&STALL_LOOP.replace("r3, 6", "r3, 500"));
        for max_cycles in [400, 401, 457, 1000] {
            let config = SimConfig {
                fetch: FetchStrategy::Perfect,
                max_cycles,
                ..SimConfig::default()
            };
            let result = run_matches_ticking(&program, &config);
            assert_eq!(result, Err(SimError::Timeout { cycles: max_cycles }));
        }
    }
}
