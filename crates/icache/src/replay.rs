//! Trace-driven replay: drive any [`FetchEngine`] from a recorded
//! instruction schedule, without the functional core.
//!
//! A [`ReplayStep`] captures everything the fetch side of the processor
//! observed about one issued instruction: how many *non-fetch* stall
//! cycles preceded it (branch gating, `r7` data waits, full queues), which
//! data-side memory operations it queued, and — for a prepare-to-branch —
//! how it resolved. Feeding a sequence of steps through a
//! [`ReplayHarness`] re-creates the exact cycle-by-cycle memory-system
//! load of the original run:
//!
//! * instruction-fetch stalls are **emergent**: the harness waits for the
//!   engine to deliver, so a different engine (or cache size, or memory
//!   timing) produces different fetch behaviour — that is the point of
//!   trace-driven evaluation;
//! * data-side traffic is **replayed**: loads and stores drain through a
//!   program-order queue under the same rules as the processor's LAQ /
//!   SAQ / SDQ heads, so instruction fetches compete for the memory array
//!   and input bus exactly as they did originally.
//!
//! When the engine configuration and memory parameters match the
//! recording, the replay is cycle-exact: total cycles, instruction-fetch
//! stalls, and the engine's [`FetchStats`] reproduce the original run
//! bit-identically (see the `trace_replay` integration tests).

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use pipe_mem::{BeatSource, MemRequest, MemorySystem, ReqClass};

use crate::engine::FetchEngine;
use crate::stats::FetchStats;

/// A data-side memory operation replayed alongside the instruction
/// stream. Mirrors the processor's three queue-push events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// Push a load of `addr` onto the (replayed) load address queue.
    Load {
        /// Effective byte address.
        addr: u32,
    },
    /// Push a store to `addr` onto the (replayed) store address queue.
    StoreAddr {
        /// Effective byte address.
        addr: u32,
    },
    /// Push `value` onto the (replayed) store data queue.
    StoreData {
        /// The 32-bit value stored.
        value: u32,
    },
}

/// How a prepare-to-branch resolved, replayed one cycle after its step
/// issues — the same timing as the processor's execute stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayBranch {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Delay-slot instructions still to issue at resolution time.
    pub remaining: u32,
    /// Target byte address.
    pub target: u32,
}

/// One instruction of a replay schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStep {
    /// Fetch byte address, when known. Used for diagnostics and region
    /// profiling; the engine itself follows the program image.
    pub addr: Option<u32>,
    /// Non-fetch stall cycles (branch gating, data waits, full queues)
    /// the issue stage spent on this instruction *after* the engine had
    /// it ready. Burned verbatim during replay.
    pub waits: u32,
    /// Data-side operations queued when this instruction issued.
    pub ops: Vec<ReplayOp>,
    /// For a prepare-to-branch: its resolution, applied one cycle after
    /// the step issues, before that cycle's issue attempt.
    pub resolve: Option<ReplayBranch>,
}

impl ReplayStep {
    /// A plain sequential step at `addr` with no waits or data ops.
    pub fn at(addr: u32) -> ReplayStep {
        ReplayStep {
            addr: Some(addr),
            ..ReplayStep::default()
        }
    }
}

/// A replay that stopped making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The engine failed to deliver an instruction (or the drain failed
    /// to complete) within the progress limit — a configuration that can
    /// never satisfy the schedule, e.g. a branch target outside the
    /// program image.
    Stuck {
        /// Cycle count when the replay gave up.
        cycle: u64,
        /// Instructions replayed before giving up.
        instructions: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Stuck {
                cycle,
                instructions,
            } => write!(
                f,
                "replay stuck at cycle {cycle} after {instructions} instructions \
                 (engine stopped delivering)"
            ),
        }
    }
}

impl Error for ReplayError {}

/// Fetch-side results of a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayStats {
    /// Total cycles, including the post-halt drain.
    pub cycles: u64,
    /// Instructions replayed (equals the schedule length on success).
    pub instructions: u64,
    /// Cycles the issue stage waited on the fetch engine — the
    /// fetch-stall count this subsystem exists to measure.
    pub ifetch_stalls: u64,
    /// Recorded non-fetch stall cycles burned (branch/data/queue).
    pub wait_cycles: u64,
    /// The engine's own counters.
    pub fetch: FetchStats,
}

impl ReplayStats {
    /// Cycles per instruction over the whole replay.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PendingOp {
    Load { addr: u32 },
    Store { addr: u32 },
}

/// Drives a [`FetchEngine`] and [`MemorySystem`] through a replay
/// schedule, one [`ReplayStep`] at a time.
///
/// The engine must be freshly built over the traced program (engines
/// initialise at the program entry point, exactly as under the
/// processor).
pub struct ReplayHarness {
    engine: Box<dyn FetchEngine>,
    mem: MemorySystem,
    /// Program-order data operations awaiting memory, like LAQ/SAQ heads.
    data_q: VecDeque<PendingOp>,
    /// Store data values, paired FIFO with `Store` entries of `data_q`.
    sdq: VecDeque<u32>,
    data_front_tag: Option<u64>,
    pending_resolve: Option<(u64, ReplayBranch)>,
    cycle: u64,
    instructions: u64,
    ifetch_stalls: u64,
    wait_cycles: u64,
    /// Cycles to wait for one instruction before declaring the replay
    /// stuck.
    progress_limit: u64,
}

impl ReplayHarness {
    /// Creates a harness over a freshly built engine and memory system.
    pub fn new(engine: Box<dyn FetchEngine>, mem: MemorySystem) -> ReplayHarness {
        ReplayHarness {
            engine,
            mem,
            data_q: VecDeque::new(),
            sdq: VecDeque::new(),
            data_front_tag: None,
            pending_resolve: None,
            cycle: 0,
            instructions: 0,
            ifetch_stalls: 0,
            wait_cycles: 0,
            progress_limit: 1_000_000,
        }
    }

    /// Offer + tick + route + advance: phases 1–4 of the processor cycle.
    fn begin_cycle(&mut self) {
        self.engine.offer_requests(&mut self.mem);
        match self.data_q.front().copied() {
            Some(PendingOp::Load { addr }) => {
                let tag = *self
                    .data_front_tag
                    .get_or_insert_with(|| self.mem.new_tag());
                self.mem
                    .offer(MemRequest::load(ReqClass::DataLoad, addr, 4, tag));
            }
            Some(PendingOp::Store { addr }) => {
                // A store whose data has not been produced yet blocks
                // younger loads rather than letting them bypass it —
                // the processor's memory-consistency rule.
                if let Some(&value) = self.sdq.front() {
                    let tag = *self
                        .data_front_tag
                        .get_or_insert_with(|| self.mem.new_tag());
                    self.mem.offer(MemRequest::store(addr, value, tag));
                }
            }
            None => {}
        }

        let out = self.mem.tick();
        if let Some(tag) = out.accepted {
            if self.data_front_tag == Some(tag) {
                if let Some(PendingOp::Store { .. }) = self.data_q.pop_front() {
                    self.sdq.pop_front();
                }
                self.data_front_tag = None;
            } else {
                self.engine.on_accepted(tag);
            }
        }
        if let Some(beat) = &out.beats {
            match beat.source {
                BeatSource::IFetch | BeatSource::IPrefetch => self.engine.on_beat(beat),
                // Data responses went to the LDQ originally; replay has
                // no consumers, the timing is what matters.
                BeatSource::DataLoad | BeatSource::FpuResult => {}
            }
        }
        self.engine.advance();
    }

    fn apply_resolve_if_due(&mut self) {
        if let Some((due, r)) = self.pending_resolve {
            if self.cycle >= due {
                self.engine.resolve_branch(r.taken, r.remaining, r.target);
                self.pending_resolve = None;
            }
        }
    }

    /// Replays one instruction: waits for the engine to deliver (counting
    /// fetch stalls), burns the recorded non-fetch waits, then consumes
    /// and queues the step's data operations.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Stuck`] if the engine does not deliver within the
    /// progress limit.
    pub fn step_instruction(&mut self, step: &ReplayStep) -> Result<(), ReplayError> {
        let mut waits_left = step.waits;
        let deadline = self.cycle + self.progress_limit;
        loop {
            if self.cycle >= deadline {
                return Err(ReplayError::Stuck {
                    cycle: self.cycle,
                    instructions: self.instructions,
                });
            }
            self.begin_cycle();
            self.apply_resolve_if_due();
            if self.engine.peek().is_none() {
                self.ifetch_stalls += 1;
                self.cycle += 1;
                continue;
            }
            if waits_left > 0 {
                waits_left -= 1;
                self.wait_cycles += 1;
                self.cycle += 1;
                continue;
            }
            self.engine.consume();
            self.instructions += 1;
            for op in &step.ops {
                match *op {
                    ReplayOp::Load { addr } => self.data_q.push_back(PendingOp::Load { addr }),
                    ReplayOp::StoreAddr { addr } => {
                        self.data_q.push_back(PendingOp::Store { addr })
                    }
                    ReplayOp::StoreData { value } => self.sdq.push_back(value),
                }
            }
            if let Some(r) = step.resolve {
                self.pending_resolve = Some((self.cycle + 1, r));
            }
            self.cycle += 1;
            return Ok(());
        }
    }

    /// Runs out the clock after the last step until all replayed data
    /// operations and the engine's outstanding requests have drained —
    /// the same termination condition as the processor.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Stuck`] if the drain does not complete within the
    /// progress limit.
    pub fn drain(&mut self) -> Result<(), ReplayError> {
        let deadline = self.cycle + self.progress_limit;
        while !(self.data_q.is_empty() && !self.engine.has_outstanding() && self.mem.is_idle()) {
            if self.cycle >= deadline {
                return Err(ReplayError::Stuck {
                    cycle: self.cycle,
                    instructions: self.instructions,
                });
            }
            self.begin_cycle();
            self.apply_resolve_if_due();
            self.cycle += 1;
        }
        Ok(())
    }

    /// Replays a whole schedule and drains.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplayError::Stuck`] from any step or the drain.
    pub fn run<I>(&mut self, schedule: I) -> Result<ReplayStats, ReplayError>
    where
        I: IntoIterator<Item = ReplayStep>,
    {
        for step in schedule {
            self.step_instruction(&step)?;
        }
        self.drain()?;
        Ok(self.stats())
    }

    /// The results accumulated so far.
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            cycles: self.cycle,
            instructions: self.instructions,
            ifetch_stalls: self.ifetch_stalls,
            wait_cycles: self.wait_cycles,
            fetch: self.engine.stats().clone(),
        }
    }
}

impl fmt::Debug for ReplayHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayHarness")
            .field("engine", &self.engine.name())
            .field("cycle", &self.cycle)
            .field("instructions", &self.instructions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EngineBuilder, FetchKind};
    use pipe_isa::{Assembler, InstrFormat, Program};
    use pipe_mem::MemConfig;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .expect("assembles")
    }

    fn harness(program: &Program) -> ReplayHarness {
        let engine = EngineBuilder::new(FetchKind::Perfect)
            .build(program)
            .expect("builds");
        ReplayHarness::new(engine, MemorySystem::new(MemConfig::default()))
    }

    #[test]
    fn sequential_replay_counts_instructions() {
        let p = asm("nop\nnop\nnop\nhalt\n");
        let schedule = (0..4).map(|i| ReplayStep::at(i * 4));
        let stats = harness(&p).run(schedule).expect("replays");
        assert_eq!(stats.instructions, 4);
        assert_eq!(stats.fetch.instructions_delivered, 4);
        assert_eq!(stats.ifetch_stalls, 0); // perfect fetch never stalls
    }

    #[test]
    fn waits_are_burned() {
        let p = asm("nop\nnop\nhalt\n");
        let schedule = vec![
            ReplayStep::at(0),
            ReplayStep {
                waits: 3,
                ..ReplayStep::at(4)
            },
            ReplayStep::at(8),
        ];
        let stats = harness(&p).run(schedule).expect("replays");
        assert_eq!(stats.wait_cycles, 3);
        assert_eq!(stats.cycles, 6); // 3 issues + 3 waits
    }

    #[test]
    fn stuck_replay_is_a_typed_error() {
        // An engine redirected past the program image can never deliver
        // the out-of-range address.
        let p = asm("nop\nhalt\n");
        let mut h = harness(&p);
        h.progress_limit = 200;
        let schedule = vec![
            ReplayStep {
                resolve: Some(ReplayBranch {
                    taken: true,
                    remaining: 0,
                    target: 0x8000,
                }),
                ..ReplayStep::at(0)
            },
            ReplayStep::at(0x8000),
        ];
        match h.run(schedule) {
            Err(ReplayError::Stuck { instructions, .. }) => assert_eq!(instructions, 1),
            other => panic!("expected Stuck, got {other:?}"),
        }
    }
}
