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
//! 3. **Routing** — acceptances pop the LAQ / SAQ+SDQ heads or inform the
//!    fetch engine; beats fill the LDQ (data loads, FPU results) or the
//!    fetch engine (instruction fetches).
//! 4. **Fetch advance** — queue transfers and cache fills inside the
//!    engine.
//! 5. **Issue** — at most one instruction decodes and issues. Reads of
//!    `r7` pop the LDQ head (stalling until filled); writes of `r7` push
//!    the SDQ. A prepare-to-branch records its condition at issue and
//!    resolves at the start of the next cycle, when the engine is told the
//!    outcome so it can begin target preparation while delay slots drain.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pipe_icache::FetchEngine;
use pipe_isa::decode::DecodeError;
use pipe_isa::{decode, DecodedProgram, Instruction, Program, Reg};
use pipe_mem::{BeatSource, ConfigError, FpOp, MemRequest, MemorySystem, ReqClass};

use crate::config::SimConfig;
use crate::queues::{AddressQueue, LoadQueue};
use crate::regfile::{BranchRegFile, RegFile};
use crate::stats::SimStats;
use crate::trace::{DataOp, NoTrace, StallReason, TraceEvent, TraceSink};

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

/// The issue-stage outcome that will repeat every cycle of a quiet
/// fast-forward window (see [`Processor::fast_forward_stall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuietStall {
    /// Halted and draining: issue is skipped entirely.
    Halted,
    Ifetch,
    DataWait,
    QueueFull,
    Branch,
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
    /// Disables the predecoded fast path (parity testing; also set for
    /// fetch engines not backed by the program image).
    force_raw_decode: bool,
    max_cycles: u64,
    ldq_entries: usize,
    sdq_entries: usize,
    regs: RegFile,
    bregs: BranchRegFile,
    laq: AddressQueue,
    saq: AddressQueue,
    sdq: VecDeque<u32>,
    ldq: LoadQueue,
    /// Accepted data loads awaiting their response beat, as
    /// `(memory tag, LDQ sequence)`. Completion order is tag-matched, so
    /// a plain vector with `swap_remove` beats a FIFO here.
    inflight_loads: Vec<(u64, u64)>,
    /// LDQ slots awaiting FPU results, in operation order.
    fpu_result_slots: VecDeque<u64>,
    laq_front_tag: Option<u64>,
    store_front_tag: Option<u64>,
    /// Program-order sequence for data-side operations: the LAQ and SAQ
    /// drain to memory strictly in this order, so a load can never bypass
    /// an older store (the memory-consistency rule of the decoupled
    /// interface).
    data_seq: u64,
    pbr: Option<PbrState>,
    /// Delay slots left before a taken branch's redirect, after resolution.
    redirect_remaining: Option<u32>,
    halted: bool,
    cycle: u64,
    stats: SimStats,
    trace: S,
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
        let mut mem = MemorySystem::new(config.mem);
        mem.data_mut().extend(program.data().iter().copied());
        let fetch = config.fetch.build(program)?;
        Ok(Processor {
            mem,
            fetch,
            decoded: Arc::clone(decoded),
            force_raw_decode: false,
            max_cycles: config.max_cycles,
            ldq_entries: config.ldq_entries,
            sdq_entries: config.sdq_entries,
            regs: RegFile::new(),
            bregs: BranchRegFile::new(),
            laq: AddressQueue::new(config.laq_entries),
            saq: AddressQueue::new(config.saq_entries),
            sdq: VecDeque::with_capacity(config.sdq_entries),
            ldq: LoadQueue::new(config.ldq_entries),
            inflight_loads: Vec::with_capacity(config.ldq_entries),
            fpu_result_slots: VecDeque::new(),
            laq_front_tag: None,
            store_front_tag: None,
            data_seq: 0,
            pbr: None,
            redirect_remaining: None,
            halted: false,
            cycle: 0,
            stats: SimStats::default(),
            trace: NoTrace,
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
            force_raw_decode: self.force_raw_decode,
            max_cycles: self.max_cycles,
            ldq_entries: self.ldq_entries,
            sdq_entries: self.sdq_entries,
            regs: self.regs,
            bregs: self.bregs,
            laq: self.laq,
            saq: self.saq,
            sdq: self.sdq,
            ldq: self.ldq,
            inflight_loads: self.inflight_loads,
            fpu_result_slots: self.fpu_result_slots,
            laq_front_tag: self.laq_front_tag,
            store_front_tag: self.store_front_tag,
            data_seq: self.data_seq,
            pbr: self.pbr,
            redirect_remaining: self.redirect_remaining,
            halted: self.halted,
            cycle: self.cycle,
            stats: self.stats,
            trace: sink,
        }
    }

    /// Disables (or re-enables) the predecoded fast path, forcing every
    /// issue attempt to decode raw parcels like the seed simulator.
    /// Exists so parity tests and the benchmark harness can prove the two
    /// paths produce bit-identical statistics.
    pub fn set_force_raw_decode(&mut self, force: bool) {
        self.force_raw_decode = force;
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
            && self.laq.is_empty()
            && self.saq.is_empty()
            && self.sdq.is_empty()
            && self.inflight_loads.is_empty()
            && self.fpu_result_slots.is_empty()
            && !self.fetch.has_outstanding()
            && self.mem.is_idle()
    }

    /// Read access to the register file (for tests and examples).
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Read access to the memory system (for inspecting data results).
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
            self.laq.len(),
            self.ldq.len(),
            self.saq.len(),
            self.sdq.len(),
            self.inflight_loads.len(),
            self.fpu_result_slots.len(),
        ]
    }

    /// Runs to completion, finalizing the statistics in place — read them
    /// with [`stats`](Self::stats) or take them with
    /// [`into_stats`](Self::into_stats) (no clone either way).
    ///
    /// After each cycle that issues nothing, the loop skips any provably
    /// idle stall window (`fast_forward_stall`).
    /// The statistics and any timeout cycle are bit-identical to ticking
    /// [`step`](Self::step) until [`is_done`](Self::is_done) or the cycle
    /// budget runs out.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] on an undecodable instruction and
    /// [`SimError::Timeout`] if the program does not halt and drain within
    /// `config.max_cycles`.
    pub fn run(&mut self) -> Result<(), SimError> {
        while !self.is_done() {
            if self.cycle >= self.max_cycles {
                return Err(SimError::Timeout { cycles: self.cycle });
            }
            let issued_before = self.stats.instructions_issued;
            self.step()?;
            // Only probe for a quiet window after a cycle that failed to
            // issue: a window opening right after an issue is caught one
            // (cheap) step later, and skipping the probe on issuing cycles
            // keeps it off the throughput path. Statistics are unaffected
            // either way — the fast-forward is exact whenever it fires.
            if self.stats.instructions_issued == issued_before {
                self.fast_forward_stall();
            }
        }
        self.finalize_stats();
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
        // 1. Offer. Data requests drain in program order: the younger of
        // the LAQ/SAQ heads waits, and a store whose data has not reached
        // the SDQ blocks younger loads rather than letting them bypass it.
        self.fetch.offer_requests(&mut self.mem);
        let laq_head = self.laq.front();
        let saq_head = self.saq.front();
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
        } else if let (Some(s), Some(&value)) = (saq_head, self.sdq.front()) {
            let tag = *self
                .store_front_tag
                .get_or_insert_with(|| self.mem.new_tag());
            self.mem.offer(MemRequest::store(s.value, value, tag));
        }

        // 2. Memory tick.
        let out = self.mem.tick();

        // 3. Routing.
        if let Some(tag) = out.accepted {
            if self.laq_front_tag == Some(tag) {
                let entry = self.laq.pop().expect("laq front accepted");
                self.inflight_loads.push((tag, entry.tag));
                self.laq_front_tag = None;
            } else if self.store_front_tag == Some(tag) {
                self.saq.pop();
                self.sdq.pop_front();
                self.store_front_tag = None;
            } else {
                self.fetch.on_accepted(tag);
            }
        }
        if let Some(beat) = &out.beats {
            match beat.source {
                BeatSource::DataLoad => {
                    let pos = self
                        .inflight_loads
                        .iter()
                        .position(|&(t, _)| t == beat.tag)
                        .expect("data beat for unknown load");
                    let (_, seq) = self.inflight_loads.swap_remove(pos);
                    self.ldq
                        .fill(seq, beat.value.expect("data beats carry values"));
                }
                BeatSource::FpuResult => {
                    let seq = self
                        .fpu_result_slots
                        .pop_front()
                        .expect("fpu result without a waiting slot");
                    self.ldq
                        .fill(seq, beat.value.expect("fpu beats carry values"));
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
        self.stats.queues.laq.sample(self.laq.len());
        self.stats.queues.ldq.sample(self.ldq.len());
        self.stats.queues.saq.sample(self.saq.len());
        self.stats.queues.sdq.sample(self.sdq.len());

        self.cycle += 1;
        Ok(())
    }

    /// Classifies the issue-stage outcome the next [`step`](Self::step)
    /// would produce, *assuming no memory event intervenes*: a pure replay
    /// of [`try_issue`](Self::try_issue)'s decision chain with no state
    /// mutation. `None` means the next cycle makes progress (an issue or a
    /// decode error) and must be ticked for real.
    fn quiet_stall_reason(&self) -> Option<QuietStall> {
        if self.halted {
            return Some(QuietStall::Halted);
        }
        let instr = match self.peek_decoded() {
            Some(Ok(instr)) => instr,
            Some(Err(_)) => return None, // surfaces as SimError::Decode
            None => return Some(QuietStall::Ifetch),
        };
        // Callers guarantee `pbr` is `None`, so branch gating reduces to
        // the redirect guard.
        if instr.is_branch() && self.redirect_remaining.is_some() {
            return Some(QuietStall::Branch);
        }
        let reads_q = Self::reads_queue_reg(&instr);
        let queue_value = if reads_q {
            match self.ldq.front_ready() {
                Some(v) => Some(v),
                None => return Some(QuietStall::DataWait),
            }
        } else {
            None
        };
        let ldq_after_pop = self.ldq.len() - usize::from(reads_q);
        let needs_ldq_slot = match &instr {
            Instruction::Load { .. } => true,
            Instruction::StoreAddr { base, disp } => {
                let base_v = if base.is_queue() {
                    queue_value.expect("checked above")
                } else {
                    self.regs.read(*base)
                };
                let addr = base_v.wrapping_add(*disp as i32 as u32);
                Self::fpu_op(addr).is_some()
            }
            _ => false,
        };
        let queue_full = (needs_ldq_slot && ldq_after_pop >= self.ldq_entries)
            || (matches!(instr, Instruction::Load { .. }) && self.laq.is_full())
            || (matches!(instr, Instruction::StoreAddr { .. }) && self.saq.is_full())
            || (Self::writes_queue_reg(&instr) && self.sdq.len() >= self.sdq_entries);
        if queue_full {
            return Some(QuietStall::QueueFull);
        }
        None // would issue: real work next cycle
    }

    /// Fast-forwards over a provably-idle stall window, accumulating the
    /// exact statistics that ticking those cycles one by one would have
    /// produced. Returns the number of cycles skipped (0 when the next
    /// cycle may do real work).
    ///
    /// Must be called between [`step`](Self::step)s. A window exists only
    /// when every per-cycle activity is a provable no-op:
    ///
    /// * tracing is off (a sink observes per-cycle stall events);
    /// * no PBR is awaiting resolution (it resolves on a fixed cycle);
    /// * the fetch engine is [quiescent](FetchEngine::quiescence) — each
    ///   coming cycle is a pure re-offer of `n` requests;
    /// * the issue stage repeats the same stall (nothing it reads can
    ///   change without a memory event); and
    /// * the memory system reports a quiet window: no beat, no
    ///   acceptance, no state transition before the wakeup cycle.
    ///
    /// The window is clamped to `max_cycles` so a deadlocked program times
    /// out on exactly the same cycle as one ticked through `step`.
    pub(crate) fn fast_forward_stall(&mut self) -> u64 {
        if self.trace.enabled() || self.pbr.is_some() {
            return 0;
        }
        // Cheap bound before the engine queries: standing offers only
        // shrink the quiet window, so a small bound with no offers caps the
        // window at any offer count. This rejects every cycle of an active
        // stream (each delivers a beat) without touching the fetch engine,
        // and windows too short to repay the probe itself — skipping or
        // stepping them produces identical statistics either way.
        if self.mem.quiet_cycles(false) < 4 {
            return 0;
        }
        if self.is_done() {
            return 0;
        }
        let Some(engine_offers) = self.fetch.quiescence() else {
            return 0;
        };
        let Some(reason) = self.quiet_stall_reason() else {
            return 0;
        };
        // The data-side offer the next cycles would repeat (the tag is
        // lazily assigned on the first real offer; its value is unaffected
        // by the skip because no other tag is handed out in the window).
        let laq_head = self.laq.front();
        let saq_head = self.saq.front();
        let load_is_older = match (laq_head, saq_head) {
            (Some(l), Some(s)) => l.seq < s.seq,
            (Some(_), None) => true,
            _ => false,
        };
        let data_offers = u32::from(load_is_older || (saq_head.is_some() && !self.sdq.is_empty()));
        let offered = (engine_offers + data_offers) as usize;
        let n = self
            .mem
            .quiet_cycles(offered > 0)
            .min(self.max_cycles.saturating_sub(self.cycle));
        if n == 0 {
            return 0;
        }
        match reason {
            QuietStall::Halted => {} // issue skipped: no stall counted
            QuietStall::Ifetch => self.stats.stalls.ifetch += n,
            QuietStall::DataWait => self.stats.stalls.data_wait += n,
            QuietStall::QueueFull => self.stats.stalls.queue_full += n,
            QuietStall::Branch => self.stats.stalls.branch += n,
        }
        self.stats.queues.laq.sample_n(self.laq.len(), n);
        self.stats.queues.ldq.sample_n(self.ldq.len(), n);
        self.stats.queues.saq.sample_n(self.saq.len(), n);
        self.stats.queues.sdq.sample_n(self.sdq.len(), n);
        self.mem.skip_quiet(n, offered);
        self.cycle += n;
        n
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

    /// The decode result at the fetch head: a predecoded-table lookup
    /// when the engine can name the image parcel index it is serving
    /// (the hot path), otherwise a raw decode of the peeked parcels
    /// (trace replay, or `force_raw_decode` parity runs). `None` means no
    /// complete instruction is available this cycle.
    fn peek_decoded(&self) -> Option<Result<Instruction, DecodeError>> {
        if !self.force_raw_decode {
            if let Some(idx) = self.fetch.peek_index() {
                if let Some(slot) = self.decoded.get(idx) {
                    return Some(slot);
                }
            }
        }
        let (first, second) = self.fetch.peek()?;
        Some(decode(first, second))
    }

    fn try_issue(&mut self) -> Result<(), SimError> {
        let instr = match self.peek_decoded() {
            Some(Ok(instr)) => instr,
            Some(Err(e)) => return Err(e.into()),
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
            match self.ldq.front_ready() {
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

        // Resource checks (computed before any state mutation). A
        // same-instruction `r7` pop frees one LDQ slot.
        let ldq_after_pop = self.ldq.len() - usize::from(reads_q);
        let needs_ldq_slot = match &instr {
            Instruction::Load { .. } => true,
            Instruction::StoreAddr { base, disp } => {
                let base_v = if base.is_queue() {
                    queue_value.expect("checked above")
                } else {
                    self.regs.read(*base)
                };
                let addr = base_v.wrapping_add(*disp as i32 as u32);
                Self::fpu_op(addr).is_some()
            }
            _ => false,
        };
        let queue_full = (needs_ldq_slot && ldq_after_pop >= self.ldq_entries)
            || (matches!(instr, Instruction::Load { .. }) && self.laq.is_full())
            || (matches!(instr, Instruction::StoreAddr { .. }) && self.saq.is_full())
            || (Self::writes_queue_reg(&instr) && self.sdq.len() >= self.sdq_entries);
        if queue_full {
            self.stats.stalls.queue_full += 1;
            self.emit(TraceEvent::Stall {
                cycle: self.cycle,
                reason: StallReason::QueueFull,
            });
            return Ok(());
        }

        // Commit: pop the LDQ head (once), execute, consume from fetch.
        if reads_q {
            self.ldq.pop();
        }
        if self.trace.enabled() {
            self.emit(TraceEvent::Issue {
                cycle: self.cycle,
                addr: self.fetch.head_addr(),
                instr,
            });
        }
        let was_pbr = instr.is_branch();
        self.execute(&instr, queue_value);
        self.fetch.consume();
        self.stats.instructions_issued += 1;
        if !was_pbr {
            if let Some(p) = &mut self.pbr {
                p.issued_after += 1;
            }
        }
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
            self.regs.read(r)
        }
    }

    fn write_dest(&mut self, r: Reg, value: u32) {
        if r.is_queue() {
            self.sdq.push_back(value);
            self.emit(TraceEvent::DataIssue {
                cycle: self.cycle,
                op: DataOp::StoreData { value },
            });
        } else {
            self.regs.write(r, value);
        }
    }

    /// Maps a store address onto an FPU operation trigger, if any.
    fn fpu_op(addr: u32) -> Option<FpOp> {
        if pipe_isa::is_fpu_address(addr) {
            FpOp::from_offset(addr - pipe_isa::FPU_BASE)
        } else {
            None
        }
    }

    fn execute(&mut self, instr: &Instruction, queue_value: Option<u32>) {
        match *instr {
            Instruction::Nop => {}
            Instruction::Halt => {
                self.halted = true;
                self.emit(TraceEvent::Halted { cycle: self.cycle });
            }
            Instruction::Xchg => self.regs.exchange(),
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
                let seq = self.ldq.alloc().expect("resource-checked");
                self.laq.push(addr, seq, self.data_seq);
                self.data_seq += 1;
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
                self.saq.push(addr, 0, self.data_seq);
                self.data_seq += 1;
                self.stats.stores += 1;
                self.emit(TraceEvent::DataIssue {
                    cycle: self.cycle,
                    op: DataOp::StoreAddr { addr },
                });
                if Self::fpu_op(addr).is_some() {
                    let seq = self.ldq.alloc().expect("resource-checked");
                    self.fpu_result_slots.push_back(seq);
                    self.stats.fpu_ops += 1;
                }
            }
            Instruction::Lbr { br, target_parcel } => {
                self.bregs.write(br, u32::from(target_parcel) * 2);
            }
            Instruction::LbrReg { br, rs1 } => {
                let v = self.read(rs1, queue_value);
                self.bregs.write(br, v);
            }
            Instruction::Pbr {
                cond,
                br,
                rs,
                delay,
            } => {
                let v = self.read(rs, queue_value);
                self.pbr = Some(PbrState {
                    resolve_at: self.cycle + 1,
                    taken: cond.eval(v),
                    target: self.bregs.read(br),
                    delay,
                    issued_after: 0,
                });
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
    use pipe_icache::{CacheConfig, PipeFetchConfig};
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
        assert_eq!(proc.mem().data().read(0x100), 42);
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
        // Reading r7 with no load in flight can never complete.
        let src = "or r1, r7, r7\nhalt\n";
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let err = run_program(&asm(src), &cfg).unwrap_err();
        assert!(matches!(err, SimError::Timeout { cycles: 1000 }), "{err:?}");
        // The idle memory leaves an unbounded quiet window; fast-forward
        // must clamp it to the budget, exactly where ticking stops.
        let ticked = run_ticked(&Arc::new(DecodedProgram::new(asm(src))), &cfg).unwrap_err();
        assert_eq!(err, ticked);
    }

    /// The reference cycle loop: [`Processor::step`] until done or out of
    /// budget, with the same timeout rule as `run` and no fast-forwarding.
    fn run_ticked(program: &Arc<DecodedProgram>, config: &SimConfig) -> Result<SimStats, SimError> {
        let mut proc = Processor::from_decoded(program, config)?;
        while !proc.is_done() {
            if proc.cycle() >= config.max_cycles {
                return Err(SimError::Timeout {
                    cycles: proc.cycle(),
                });
            }
            proc.step()?;
        }
        proc.run()?; // already done: only finalizes the statistics
        Ok(proc.into_stats())
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
    fn fast_forward_fires_on_slow_memory_and_matches_ticking() {
        // Slow memory under perfect fetch: long data-wait windows that
        // fast-forward provably skips.
        let program = Arc::new(DecodedProgram::new(asm(STALL_LOOP)));
        let config = SimConfig {
            fetch: FetchStrategy::Perfect,
            mem: MemConfig {
                access_cycles: 9,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let ticked = run_ticked(&program, &config).expect("ticked run");

        let mut proc = Processor::from_decoded(&program, &config).expect("config valid");
        let mut skipped = 0;
        while !proc.is_done() {
            proc.step().expect("step");
            skipped += proc.fast_forward_stall();
        }
        proc.finalize_stats();
        assert!(skipped > 0, "slow loads must open fast-forward windows");
        assert_eq!(ticked, proc.into_stats());
        assert_eq!(Ok(ticked), run_decoded(&program, &config));
    }

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
            let mem_words: Vec<u32> = (0..8)
                .map(|i| proc.mem().data().read(0x200 + i * 4))
                .collect();
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
        assert_eq!(proc.mem().data().read(0x204), 0xBEEF_1234);
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
}
