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
//! 3. **Routing** — an accepted load takes its word from data memory and
//!    leaves the LAQ; an accepted store leaves the SAQ and SDQ and writes
//!    data memory or the FPU; other acceptances inform the fetch engine.
//!    Beats fill the LDQ (data loads, FPU results) or the fetch engine
//!    (instruction fetches).
//! 4. **Fetch advance** — queue transfers and cache fills inside the
//!    engine.
//! 5. **Issue** — at most one instruction decodes and issues. Reads of
//!    `r7` pop the LDQ head (stalling until filled); writes of `r7` push
//!    the SDQ. A prepare-to-branch records its condition at issue and
//!    resolves at the start of the next cycle, when the engine is told the
//!    outcome so it can begin target preparation while delay slots drain.
//!
//! The memory system models timing only: every data value — registers,
//! queue contents, data memory, the FPU's operand latch and results —
//! lives in the processor.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pipe_icache::FetchEngine;
use pipe_isa::decode::DecodeError;
use pipe_isa::{DecodedProgram, Instruction, Program, Reg, PARCEL_BYTES};
use pipe_mem::{BeatSource, ConfigError, DataMemory, FpOp, MemRequest, MemorySystem, ReqClass};

use crate::config::SimConfig;
use crate::queues::{AddressQueue, LoadQueue};
use crate::regfile::{BranchRegFile, RegFile};
use crate::stats::SimStats;
use crate::trace::{DataOp, NoTrace, StallReason, TraceEvent, TraceSink};

mod repeat;

use pipe_icache::repeat::RepeatCounts;
use repeat::{FrozenStop, LoopSkip, ValueEvent};

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

#[derive(Debug, Clone, Copy)]
struct PbrState {
    resolve_at: u64,
    taken: bool,
    target: u32,
    delay: u8,
    issued_after: u8,
}

/// What a store address does at the memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreRole {
    /// Writes data memory.
    Data,
    /// Latches the FPU's operand A.
    OperandLatch,
    /// Starts an FPU operation, whose result returns to the LDQ.
    Operation,
    /// An unmapped offset inside the FPU window: ignored.
    Unmapped,
}

impl StoreRole {
    fn of(addr: u32) -> StoreRole {
        if !pipe_isa::is_fpu_address(addr) {
            return StoreRole::Data;
        }
        match addr - pipe_isa::FPU_BASE {
            0 => StoreRole::OperandLatch,
            off if FpOp::from_offset(off).is_some() => StoreRole::Operation,
            _ => StoreRole::Unmapped,
        }
    }
}

/// The value-dependent choice an issuing instruction makes that timing
/// depends on: a prepare-to-branch's outcome, or a store address's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    None,
    Branch { taken: bool, target: u32 },
    Store(StoreRole),
}

/// The processor state that value events change: registers, the
/// architectural queues and their contents, the words of accepted loads,
/// and the FPU's operand latch and results. A loop-iteration skip copies
/// it to roll back a replayed iteration that diverges.
#[derive(Debug, Clone)]
struct Core {
    regs: RegFile,
    bregs: BranchRegFile,
    laq: AddressQueue,
    saq: AddressQueue,
    sdq: VecDeque<u32>,
    ldq: LoadQueue,
    /// Accepted data loads awaiting their response beat, as
    /// `(memory tag, LDQ sequence, word)`: a load takes its word when
    /// memory accepts it. Completion order is tag-matched, so a plain
    /// vector with `swap_remove` beats a FIFO here.
    inflight_loads: Vec<(u64, u64, u32)>,
    /// LDQ slots awaiting FPU results, in operation order.
    fpu_result_slots: VecDeque<u64>,
    /// The FPU's operand-A latch.
    fpu_operand: u32,
    /// FPU results not yet delivered, in operation order; each is computed
    /// when the store that starts its operation is accepted.
    fpu_results: VecDeque<u32>,
    /// Program-order sequence for data-side operations: the LAQ and SAQ
    /// drain to memory strictly in this order, so a load can never bypass
    /// an older store (the memory-consistency rule of the decoupled
    /// interface).
    data_seq: u64,
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
    max_cycles: u64,
    ldq_entries: usize,
    sdq_entries: usize,
    core: Core,
    data: DataMemory,
    laq_front_tag: Option<u64>,
    store_front_tag: Option<u64>,
    pbr: Option<PbrState>,
    /// Delay slots left before a taken branch's redirect, after resolution.
    redirect_remaining: Option<u32>,
    halted: bool,
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
            .field("halted", &self.halted)
            .field("fetch", &self.fetch.name())
            .field("instructions", &self.stats.instructions_issued)
            .finish()
    }
}

impl Processor {
    /// Builds a processor for `program` under `config`, loading the
    /// program's initial data image into memory. Predecodes the program;
    /// to share one predecode across many runs, use
    /// [`from_decoded`](Processor::from_decoded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails validation.
    pub fn new(program: &Program, config: &SimConfig) -> Result<Processor, SimError> {
        Processor::from_decoded(&Arc::new(DecodedProgram::new(program.clone())), config)
    }

    /// Builds a processor over an already-predecoded program, sharing the
    /// decode table instead of recomputing it (sweeps run one predecode
    /// for hundreds of points).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails validation.
    pub fn from_decoded(
        decoded: &Arc<DecodedProgram>,
        config: &SimConfig,
    ) -> Result<Processor, SimError> {
        config.validate()?;
        let program = decoded.program();
        let fetch = config.fetch.build(program)?;
        Ok(Processor {
            mem: MemorySystem::new(config.mem),
            fetch,
            decoded: Arc::clone(decoded),
            max_cycles: config.max_cycles,
            ldq_entries: config.ldq_entries,
            sdq_entries: config.sdq_entries,
            core: Core {
                regs: RegFile::new(),
                bregs: BranchRegFile::new(),
                laq: AddressQueue::new(config.laq_entries),
                saq: AddressQueue::new(config.saq_entries),
                sdq: VecDeque::with_capacity(config.sdq_entries),
                ldq: LoadQueue::new(config.ldq_entries),
                inflight_loads: Vec::with_capacity(config.ldq_entries),
                fpu_result_slots: VecDeque::new(),
                fpu_operand: 0,
                fpu_results: VecDeque::new(),
                data_seq: 0,
            },
            data: DataMemory::from_image(program.data().iter().copied()),
            laq_front_tag: None,
            store_front_tag: None,
            pbr: None,
            redirect_remaining: None,
            halted: false,
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
        Processor {
            mem: self.mem,
            fetch: self.fetch,
            decoded: self.decoded,
            max_cycles: self.max_cycles,
            ldq_entries: self.ldq_entries,
            sdq_entries: self.sdq_entries,
            core: self.core,
            data: self.data,
            laq_front_tag: self.laq_front_tag,
            store_front_tag: self.store_front_tag,
            pbr: self.pbr,
            redirect_remaining: self.redirect_remaining,
            halted: self.halted,
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
        self.halted
            && self.core.laq.is_empty()
            && self.core.saq.is_empty()
            && self.core.sdq.is_empty()
            && self.core.inflight_loads.is_empty()
            && self.core.fpu_result_slots.is_empty()
            && !self.fetch.has_outstanding()
            && self.mem.is_idle()
    }

    /// Read access to the register file (for tests and examples).
    pub fn regs(&self) -> &RegFile {
        &self.core.regs
    }

    /// Read access to the data memory image (for inspecting data results).
    pub fn data(&self) -> &DataMemory {
        &self.data
    }

    /// Read access to the memory system's timing state.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Statistics accumulated so far (finalized copies are returned by
    /// [`run`](Self::run)).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current `(LAQ, LDQ, SAQ, SDQ)` occupancies plus in-flight loads and
    /// pending FPU results — a snapshot for diagnosing stuck simulations.
    pub fn queue_snapshot(&self) -> [usize; 6] {
        [
            self.core.laq.len(),
            self.core.ldq.len(),
            self.core.saq.len(),
            self.core.sdq.len(),
            self.core.inflight_loads.len(),
            self.core.fpu_result_slots.len(),
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
    /// to the cycle budget in one step (`stop_if_frozen`). The statistics,
    /// registers, data memory and any timeout cycle are bit-identical to
    /// ticking [`step`](Self::step) until [`is_done`](Self::is_done) or
    /// the cycle budget runs out.
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
    pub(crate) fn run_counting_repeats(&mut self) -> Result<RepeatCounts, SimError> {
        // Both skips are off when a trace sink observes every cycle.
        let untraced = !self.trace.enabled();
        self.loops = untraced.then(Box::default);
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
                && !self.fetch.has_outstanding()
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

    /// Records a value event for the loop-iteration skip, when active.
    fn record(&mut self, event: ValueEvent) {
        if let Some(loops) = &mut self.loops {
            loops.marks.log(event);
        }
    }

    /// Simulates one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the fetch stream yields an invalid
    /// encoding.
    pub fn step(&mut self) -> Result<(), SimError> {
        // 1. Offer. Data requests drain in program order: the younger of
        // the LAQ/SAQ heads waits, and a store whose data has not reached
        // the SDQ blocks younger loads rather than letting them bypass it.
        self.fetch.offer_requests(&mut self.mem);
        let laq_head = self.core.laq.front();
        let saq_head = self.core.saq.front();
        let load_is_older = match (laq_head, saq_head) {
            (Some(l), Some(s)) => l.seq < s.seq,
            (Some(_), None) => true,
            _ => false,
        };
        if load_is_older {
            let l = laq_head.expect("load head exists");
            let tag = *self.laq_front_tag.get_or_insert_with(|| self.mem.new_tag());
            self.mem
                .offer(MemRequest::load(ReqClass::DataLoad, l.value, 4, tag));
        } else if let (Some(s), false) = (saq_head, self.core.sdq.is_empty()) {
            let tag = *self
                .store_front_tag
                .get_or_insert_with(|| self.mem.new_tag());
            self.mem.offer(MemRequest::store(s.value, tag));
        }

        // 2. Memory tick.
        let out = self.mem.tick();

        // 3. Routing.
        if let Some(tag) = out.accepted {
            if self.laq_front_tag == Some(tag) {
                self.laq_front_tag = None;
                self.accept_load(tag);
                self.record(ValueEvent::LoadAccepted(tag));
            } else if self.store_front_tag == Some(tag) {
                self.store_front_tag = None;
                self.accept_store(None);
                self.record(ValueEvent::StoreAccepted);
            } else {
                self.fetch.on_accepted(tag);
            }
        }
        if let Some(beat) = &out.beats {
            match beat.source {
                BeatSource::DataLoad => {
                    self.deliver_load(beat.tag);
                    self.record(ValueEvent::LoadDelivered(beat.tag));
                }
                BeatSource::FpuResult => {
                    self.deliver_fpu_result();
                    self.record(ValueEvent::FpuDelivered);
                }
                BeatSource::IFetch | BeatSource::IPrefetch => self.fetch.on_beat(beat),
            }
        }

        // 4. Fetch-internal advance.
        self.fetch.advance();

        // 5. Issue.
        self.resolve_pbr_if_due();
        if !self.halted {
            self.try_issue()?;
        }

        // Sample queue occupancies.
        self.stats.queues.laq.sample(self.core.laq.len());
        self.stats.queues.ldq.sample(self.core.ldq.len());
        self.stats.queues.saq.sample(self.core.saq.len());
        self.stats.queues.sdq.sample(self.core.sdq.len());

        self.cycle += 1;
        Ok(())
    }

    /// Memory accepted the LAQ head as request `tag`: the load takes its
    /// word now and waits for its response beat.
    fn accept_load(&mut self, tag: u64) {
        let entry = self.core.laq.pop().expect("laq front accepted");
        let word = self.data.read(entry.value);
        self.core.inflight_loads.push((tag, entry.tag, word));
    }

    /// Memory accepted the SAQ/SDQ heads: write data memory or the FPU.
    /// Data-memory writes are appended to `journal` when given, so a
    /// loop-iteration replay can undo them.
    fn accept_store(&mut self, journal: Option<&mut Vec<(u32, Option<u32>)>>) {
        let addr = self.core.saq.pop().expect("saq front accepted").value;
        let value = self.core.sdq.pop_front().expect("sdq front accepted");
        match StoreRole::of(addr) {
            StoreRole::Data => {
                let previous = self.data.write(addr, value);
                if let Some(journal) = journal {
                    journal.push((addr, previous));
                }
            }
            StoreRole::OperandLatch => self.core.fpu_operand = value,
            StoreRole::Operation => {
                let op = FpOp::from_offset(addr - pipe_isa::FPU_BASE).expect("operation offset");
                let result = op.eval_bits(self.core.fpu_operand, value);
                self.core.fpu_results.push_back(result);
            }
            StoreRole::Unmapped => {}
        }
    }

    /// The response beat of load `tag` arrived: its LDQ slot fills.
    fn deliver_load(&mut self, tag: u64) {
        let pos = self
            .core
            .inflight_loads
            .iter()
            .position(|&(t, _, _)| t == tag)
            .expect("data beat for unknown load");
        let (_, seq, word) = self.core.inflight_loads.swap_remove(pos);
        self.core.ldq.fill(seq, word);
    }

    /// The oldest FPU result arrived: its LDQ slot fills.
    fn deliver_fpu_result(&mut self) {
        let seq = self
            .core
            .fpu_result_slots
            .pop_front()
            .expect("fpu result without a waiting slot");
        let value = self
            .core
            .fpu_results
            .pop_front()
            .expect("fpu result without a value");
        self.core.ldq.fill(seq, value);
    }

    fn resolve_pbr_if_due(&mut self) {
        let Some(p) = self.pbr else { return };
        if self.cycle < p.resolve_at {
            return;
        }
        let remaining = u32::from(p.delay - p.issued_after);
        self.fetch.resolve_branch(p.taken, remaining, p.target);
        self.emit(TraceEvent::BranchResolved {
            cycle: self.cycle,
            taken: p.taken,
            target: p.target,
            remaining,
        });
        if p.taken {
            self.stats.branches_taken += 1;
            self.redirect_remaining = (remaining > 0).then_some(remaining);
        } else {
            self.stats.branches_not_taken += 1;
        }
        self.pbr = None;
    }

    /// Counts how many source-operand slots of `instr` read `r7`. All reads
    /// within one instruction see the same LDQ head value, popped once.
    fn reads_queue_reg(instr: &Instruction) -> bool {
        instr.sources().contains(&Reg::QUEUE)
    }

    fn writes_queue_reg(instr: &Instruction) -> bool {
        instr.destination() == Some(Reg::QUEUE)
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

    /// The value-dependent choice `instr` makes if it issues now, with
    /// `queue_value` the LDQ head it would pop.
    fn decide(&self, instr: &Instruction, queue_value: Option<u32>) -> Decision {
        match *instr {
            Instruction::Pbr { cond, br, rs, .. } => Decision::Branch {
                taken: cond.eval(self.read(rs, queue_value)),
                target: self.core.bregs.read(br),
            },
            Instruction::StoreAddr { base, disp } => Decision::Store(StoreRole::of(
                self.read(base, queue_value)
                    .wrapping_add(disp as i32 as u32),
            )),
            _ => Decision::None,
        }
    }

    /// Whether `instr` must wait for room in a queue. A same-instruction
    /// `r7` pop frees one LDQ slot.
    fn queue_full(&self, instr: &Instruction, reads_q: bool, decision: Decision) -> bool {
        let ldq_after_pop = self.core.ldq.len() - usize::from(reads_q);
        let needs_ldq_slot = matches!(instr, Instruction::Load { .. })
            || decision == Decision::Store(StoreRole::Operation);
        (needs_ldq_slot && ldq_after_pop >= self.ldq_entries)
            || (matches!(instr, Instruction::Load { .. }) && self.core.laq.is_full())
            || (matches!(instr, Instruction::StoreAddr { .. }) && self.core.saq.is_full())
            || (Self::writes_queue_reg(instr) && self.core.sdq.len() >= self.sdq_entries)
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

        // Branch gating: at most one PBR in flight, and no issue past the
        // delay slots of an unresolved PBR (wrong-path guard).
        let branch_gated = match &self.pbr {
            Some(p) => p.issued_after >= p.delay || instr.is_branch(),
            None => instr.is_branch() && self.redirect_remaining.is_some(),
        };
        if branch_gated {
            self.stats.stalls.branch += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::Branch,
            });
            return Ok(());
        }

        // Operand readiness: an `r7` read needs the LDQ head filled.
        let reads_q = Self::reads_queue_reg(&instr);
        let queue_value = if reads_q {
            match self.core.ldq.front_ready() {
                Some(v) => Some(v),
                None => {
                    self.stats.stalls.data_wait += 1;
                    self.emit(TraceEvent::Stall {
                        cycle: self.cycle,
                        reason: StallReason::DataWait,
                    });
                    return Ok(());
                }
            }
        } else {
            None
        };

        // Resource checks (computed before any state mutation).
        let decision = self.decide(&instr, queue_value);
        if self.queue_full(&instr, reads_q, decision) {
            self.stats.stalls.queue_full += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::QueueFull,
            });
            return Ok(());
        }

        // Commit: execute (popping the LDQ head once), consume from fetch.
        if self.trace.enabled() {
            self.emit(TraceEvent::Issue {
                cycle: self.cycle,
                addr,
                instr,
            });
        }
        self.execute(&instr, queue_value);
        self.record(ValueEvent::Issue(instr, decision));
        if let (Instruction::Pbr { delay, .. }, Decision::Branch { taken, target }) =
            (instr, decision)
        {
            self.pbr = Some(PbrState {
                resolve_at: self.cycle + 1,
                taken,
                target,
                delay,
                issued_after: 0,
            });
            if let Some(loops) = &mut self.loops {
                loops.issued_pbr = Some(addr);
            }
        } else if let Some(p) = &mut self.pbr {
            p.issued_after += 1;
        }
        self.fetch.consume();
        self.stats.instructions_issued += 1;
        if let Some(r) = &mut self.redirect_remaining {
            *r -= 1;
            if *r == 0 {
                self.redirect_remaining = None;
            }
        }
        Ok(())
    }

    fn read(&self, r: Reg, queue_value: Option<u32>) -> u32 {
        if r.is_queue() {
            queue_value.expect("r7 read without LDQ pop")
        } else {
            self.core.regs.read(r)
        }
    }

    fn write_dest(&mut self, r: Reg, value: u32) {
        if r.is_queue() {
            self.core.sdq.push_back(value);
            self.emit(TraceEvent::DataIssue {
                cycle: self.cycle,
                op: DataOp::StoreData { value },
            });
        } else {
            self.core.regs.write(r, value);
        }
    }

    /// Applies an issuing instruction's effects on the core: pops the LDQ
    /// head when `queue_value` is `Some`, then writes registers and pushes
    /// the queues. A prepare-to-branch's outcome is the caller's (see
    /// [`decide`](Self::decide)).
    fn execute(&mut self, instr: &Instruction, queue_value: Option<u32>) {
        if queue_value.is_some() {
            self.core.ldq.pop();
        }
        match *instr {
            Instruction::Nop | Instruction::Pbr { .. } => {}
            Instruction::Halt => {
                self.halted = true;
                self.emit(TraceEvent::Halted { cycle: self.cycle });
            }
            Instruction::Xchg => self.core.regs.exchange(),
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.read(rs1, queue_value);
                let b = self.read(rs2, queue_value);
                self.write_dest(rd, op.eval(a, b));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.read(rs1, queue_value);
                self.write_dest(rd, op.eval(a, imm as i32 as u32));
            }
            Instruction::Lim { rd, imm } => self.write_dest(rd, imm as i32 as u32),
            Instruction::Lui { rd, imm } => {
                let old = self.read(rd, queue_value);
                self.write_dest(rd, (u32::from(imm) << 16) | (old & 0xFFFF));
            }
            Instruction::Load { base, disp } => {
                let addr = self
                    .read(base, queue_value)
                    .wrapping_add(disp as i32 as u32);
                let seq = self.core.ldq.alloc().expect("resource-checked");
                self.core.laq.push(addr, seq, self.core.data_seq);
                self.core.data_seq += 1;
                self.stats.loads += 1;
                self.emit(TraceEvent::DataIssue {
                    cycle: self.cycle,
                    op: DataOp::Load { addr },
                });
            }
            Instruction::StoreAddr { base, disp } => {
                let addr = self
                    .read(base, queue_value)
                    .wrapping_add(disp as i32 as u32);
                self.core.saq.push(addr, 0, self.core.data_seq);
                self.core.data_seq += 1;
                self.stats.stores += 1;
                self.emit(TraceEvent::DataIssue {
                    cycle: self.cycle,
                    op: DataOp::StoreAddr { addr },
                });
                if StoreRole::of(addr) == StoreRole::Operation {
                    let seq = self.core.ldq.alloc().expect("resource-checked");
                    self.core.fpu_result_slots.push_back(seq);
                    self.stats.fpu_ops += 1;
                }
            }
            Instruction::Lbr { br, target_parcel } => {
                self.core.bregs.write(br, u32::from(target_parcel) * 2);
            }
            Instruction::LbrReg { br, rs1 } => {
                let v = self.read(rs1, queue_value);
                self.core.bregs.write(br, v);
            }
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
/// completion under `config`. The predecode is reused, not recomputed —
/// the fast path for sweeps running one workload at many configurations.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchStrategy;
    use pipe_icache::{BufferConfig, CacheConfig, PipeFetchConfig, TibConfig};
    use pipe_isa::{Assembler, InstrFormat};
    use pipe_mem::MemConfig;

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
        let p = asm("lim r1, 6\nlim r2, 7\nadd r3, r1, r2\nsub r4, r1, r2\nhalt\n");
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(3)), 13);
        assert_eq!(proc.regs().read(Reg::new(4)), (-1i32) as u32);
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
        let p = asm(
            "lim r1, 2\nlim r2, 0\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 1\naddi r2, r2, 1\nhalt\n",
        );
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        // Loop runs twice; delay slot runs on both iterations.
        assert_eq!(proc.regs().read(Reg::new(2)), 2);
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
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.data().read(0x100), 42);
        assert_eq!(proc.regs().read(Reg::new(3)), 42);
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
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(4)), 6.0f32.to_bits());
        assert_eq!(proc.stats().fpu_ops, 1);
        assert_eq!(proc.stats().stores, 2);
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
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(3)), 42);
    }

    #[test]
    fn xchg_banks() {
        let src = "lim r1, 5\nxchg\nlim r1, 9\nxchg\naddi r2, r1, 0\nhalt\n";
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(2)), 5);
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
            ldq_entries: 0,
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
        // The same program must produce identical register/memory results
        // regardless of fetch timing.
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
        let mut results = Vec::new();
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
            let mut proc = Processor::new(&p, &cfg).unwrap();
            proc.run().unwrap();
            let mem_words: Vec<u32> = (0..8).map(|i| proc.data().read(0x200 + i * 4)).collect();
            results.push(mem_words);
        }
        assert_eq!(results[0], vec![0, 3, 6, 9, 12, 15, 18, 21]);
        assert!(results.windows(2).all(|w| w[0] == w[1]));
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
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.data().read(0x204), 0xBEEF_1234);
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
        let p = asm(src);
        let mut proc = Processor::new(&p, &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(2)), 0, "wrong-path skipped");
        assert_eq!(proc.stats().branches_taken, 1);
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
        // response returns. The load must still see 5, the word when it
        // was accepted, as the interpreter does.
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
        let mut proc = Processor::new(&asm(src), &cfg).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(4)), 5);
        assert_eq!(proc.data().read(0x100), 9);
    }

    #[test]
    fn fpu_operand_latch_persists_across_ops() {
        // The operand latch lives in the processor: one A, two products.
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
        let mut proc = Processor::new(&asm(src), &perfect_config()).unwrap();
        proc.run().unwrap();
        assert_eq!(proc.regs().read(Reg::new(4)), 10.0f32.to_bits());
        assert_eq!(proc.regs().read(Reg::new(6)), 15.0f32.to_bits());
    }

    /// Runs `config` on `program` through `run` and through the ticked
    /// reference; asserts they agree on the outcome, statistics, registers
    /// and data memory, and returns the outcome with what the
    /// loop-iteration skip did.
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
        assert_eq!(proc.regs(), reference.regs());
        assert_eq!(proc.data(), reference.data());
        result
    }

    fn repeats_match_ticking(program: &Program, config: &SimConfig) -> RepeatCounts {
        run_matches_ticking(program, config).expect("run")
    }

    #[test]
    fn loop_skip_fires_on_livermore_kernels_and_matches_ticking() {
        // Three Livermore kernels at both figure memory timings, with
        // caches that hold the loop and caches it thrashes or conflicts
        // in (iterations then end with fetches in flight, whose tags must
        // shift).
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
        // At 6-cycle memory, the TIB's fetch queue alternates between two
        // alignments on kernels 4 and 9: the timing state repeats every
        // second iteration, which the marks do not catch.
        for &(engine, applied, total) in &shares {
            println!(
                "{engine}: {applied} of {total} cycles applied ({:.1} %)",
                100.0 * applied as f64 / total as f64
            );
            let tenths = if engine == "tib" { 3 } else { 9 };
            assert!(
                applied * 10 > total * tenths,
                "{engine}: {applied} of {total} cycles applied"
            );
        }
    }

    #[test]
    fn diverging_loop_exit_is_rolled_back() {
        // Each iteration stores and reloads, so the replay journals data
        // writes; the last iteration's PBR falls through, so its replay
        // diverges and must be undone before ticking resumes.
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
        assert!(counts.rollbacks > 0, "{counts:?}");
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
