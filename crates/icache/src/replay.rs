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
//!
//! [`ReplayHarness::replay`] (and [`ReplayHarness::run`]) apply repeating
//! loop iterations in one step, through the marks of [`crate::repeat`]
//! that the processor's cycle loop uses too. After each prepare-to-branch
//! step the harness writes its timing state into the key: memory system
//! and engine, the queued data operations with what timing reads of
//! them, the count of unsent store data, and the resolution due next
//! cycle. When that key equals the one from the same branch one iteration
//! earlier, the harness reads the next iteration's steps ahead; while
//! they match the recorded iteration in every field timing reads — fetch
//! address, waits, resolution and op kinds, where a store's kind includes
//! its FPU-window offset — it adds the iteration's cycles and statistics
//! deltas in one step. Other steps go through
//! [`step_instruction`](ReplayHarness::step_instruction), the ticked
//! primitive. Data addresses and store values are not compared: without
//! an external cache they do not affect timing, and with one the memory
//! system cannot describe its state, so the skip is off.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use pipe_mem::{
    is_fpu_address, BeatSource, MemRequest, MemorySystem, ReqClass, TimingKey, Untimed, FPU_BASE,
};

use crate::engine::FetchEngine;
use crate::repeat::{Counters, Iteration, LoopMarks, Machine, RepeatCounts, State, Timing};
use crate::stats::FetchStats;

/// A data queue deeper than this is not compared for repeats. Replay is
/// open loop, so with a small cache the queue can grow for the whole run
/// (to about 18k entries at 512 bytes and Figure 5b timing); a key that
/// long would cost more to build than ticking saves.
const MAX_REPEAT_QUEUE: usize = 64;

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
    /// Push `value` onto the (replayed) store data queue. Memory models
    /// timing only, so the replay counts these rather than keeping them.
    StoreData {
        /// The 32-bit value stored.
        value: u32,
    },
}

/// How a prepare-to-branch resolved, replayed one cycle after its step
/// issues — the same timing as the processor's execute stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A load or store waiting for memory. Only a store's kind times the
/// replay (see [`Untimed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PendingOp {
    Load {
        addr: Untimed<u32>,
    },
    Store {
        addr: Untimed<u32>,
        /// [`store_kind`] of the address.
        kind: u8,
    },
}

/// What timing reads of a data operation: its kind and, for a store, the
/// [`store_kind`]. A nonzero number below 64.
fn op_kind(op: &ReplayOp) -> u64 {
    match *op {
        ReplayOp::Load { .. } => 1,
        ReplayOp::StoreData { .. } => 2,
        ReplayOp::StoreAddr { addr } => u64::from(store_kind(addr)),
    }
}

/// What timing reads of a store address: whether it falls in the FPU
/// window and, if so, the offset that selects the FPU's action.
fn store_kind(addr: u32) -> u8 {
    if is_fpu_address(addr) {
        4 + (addr - FPU_BASE) as u8
    } else {
        3
    }
}

/// The fields of a step that timing reads, as the loop marks log them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepTiming {
    addr: Option<u32>,
    waits: u32,
    resolve: Option<ReplayBranch>,
    /// The op kinds, six bits each, or [`StepTiming::WIDE`].
    ops: u64,
}

impl StepTiming {
    /// `ops` of a step with more ops than fit: it never matches.
    const WIDE: u64 = u64::MAX;

    fn of(step: &ReplayStep) -> StepTiming {
        let ops = if step.ops.len() > 10 {
            StepTiming::WIDE
        } else {
            step.ops.iter().fold(0, |acc, op| acc << 6 | op_kind(op))
        };
        StepTiming {
            addr: step.addr,
            waits: step.waits,
            resolve: step.resolve,
            ops,
        }
    }

    /// Whether `step` would take the course this logged step took.
    fn matches(&self, step: &ReplayStep) -> bool {
        self.ops != StepTiming::WIDE && *self == StepTiming::of(step)
    }
}

/// The harness's own statistics.
#[derive(Debug, Clone, Default)]
struct Counts {
    instructions: u64,
    ifetch_stalls: u64,
    wait_cycles: u64,
}

impl Counters for Counts {
    fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            instructions: self.instructions - earlier.instructions,
            ifetch_stalls: self.ifetch_stalls - earlier.ifetch_stalls,
            wait_cycles: self.wait_cycles - earlier.wait_cycles,
        }
    }

    fn add(&mut self, delta: &Counts) {
        self.instructions += delta.instructions;
        self.ifetch_stalls += delta.ifetch_stalls;
        self.wait_cycles += delta.wait_cycles;
    }
}

/// Steps read from the schedule but not yet replayed, in reused slots.
#[derive(Debug)]
struct Lookahead<E> {
    /// `steps[start..end]` are the steps read ahead.
    steps: Vec<ReplayStep>,
    start: usize,
    end: usize,
    /// The schedule ended after `steps[..end]`.
    ended: bool,
    /// Reading the step after `steps[..end]` failed.
    error: Option<E>,
}

impl<E> Lookahead<E> {
    fn new() -> Lookahead<E> {
        Lookahead {
            steps: Vec::new(),
            start: 0,
            end: 0,
            ended: false,
            error: None,
        }
    }

    /// Reads until `n` steps are ahead, or the schedule ends or fails
    /// first, and returns the first `n` steps ahead (fewer if it did).
    fn fill<F>(&mut self, n: usize, next: &mut F) -> &[ReplayStep]
    where
        F: FnMut(&mut ReplayStep) -> Result<bool, E>,
    {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        while self.end - self.start < n && !self.ended && self.error.is_none() {
            if self.end == self.steps.len() {
                if self.start > 0 {
                    // Move the steps ahead to the front, and the replayed
                    // slots behind them for reuse.
                    self.steps.rotate_left(self.start);
                    self.end -= self.start;
                    self.start = 0;
                    continue;
                }
                self.steps.push(ReplayStep::default());
            }
            match next(&mut self.steps[self.end]) {
                Ok(true) => self.end += 1,
                Ok(false) => self.ended = true,
                Err(e) => self.error = Some(e),
            }
        }
        &self.steps[self.start..self.end.min(self.start + n)]
    }
}

/// The harness, its look-ahead and its schedule, as the loop marks drive
/// them.
struct Repeating<'a, E, F> {
    harness: &'a mut ReplayHarness,
    ahead: &'a mut Lookahead<E>,
    next: &'a mut F,
}

impl<E, F> Machine for Repeating<'_, E, F>
where
    F: FnMut(&mut ReplayStep) -> Result<bool, E>,
{
    type Event = StepTiming;
    type Counters = Counts;

    fn describe_timing(&self, key: &mut TimingKey) -> Timing {
        self.harness.describe_timing(key)
    }

    fn state(&self) -> State<'_, Counts> {
        let h = &*self.harness;
        State {
            cycle: h.cycle,
            counters: &h.counts,
            fetch: h.engine.stats(),
            mem: h.mem.stats(),
        }
    }

    fn apply_repeats(
        &mut self,
        iteration: &Iteration<Counts>,
        events: &[StepTiming],
        _: &mut RepeatCounts,
    ) -> u64 {
        let n = events.len();
        let mut applied = 0;
        // An iteration holds at least the branch step that closes it.
        if n == 0 {
            return 0;
        }
        loop {
            let ahead = self.ahead.fill(n, self.next);
            if ahead.len() < n || !events.iter().zip(ahead).all(|(e, s)| e.matches(s)) {
                return applied;
            }
            let h = &mut *self.harness;
            iteration.apply(&mut h.cycle, &mut h.counts, &mut h.mem, &mut *h.engine);
            self.ahead.start += n;
            applied += 1;
        }
    }
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
    state: ReplayState,
    cycle: u64,
    counts: Counts,
    /// Cycles to wait for one instruction before declaring the replay
    /// stuck.
    progress_limit: u64,
    /// What the loop-iteration skip did in [`replay`](Self::replay).
    repeats: RepeatCounts,
}

/// The harness's own timing state.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
struct ReplayState {
    /// Program-order data operations awaiting memory, like LAQ/SAQ heads.
    data_q: VecDeque<PendingOp>,
    /// Store data produced but not yet sent, paired in order with the
    /// `Store` entries of `data_q`. Memory models timing only, so a count
    /// stands in for the values.
    sdq: usize,
    /// The resolution of the branch replayed last cycle, due this cycle.
    resolve: Option<ReplayBranch>,
}

impl ReplayHarness {
    /// Creates a harness over a freshly built engine and memory system.
    pub fn new(engine: Box<dyn FetchEngine>, mem: MemorySystem) -> ReplayHarness {
        ReplayHarness {
            engine,
            mem,
            state: ReplayState::default(),
            cycle: 0,
            counts: Counts::default(),
            progress_limit: 1_000_000,
            repeats: RepeatCounts::default(),
        }
    }

    /// Offer + tick + route + advance + resolve: phases 1–4 of the
    /// processor cycle, and the resolution of a branch replayed last
    /// cycle.
    fn begin_cycle(&mut self) {
        self.engine.offer_requests(&mut self.mem);
        let state = &mut self.state;
        match state.data_q.front() {
            Some(PendingOp::Load { addr }) => {
                self.mem
                    .offer(MemRequest::load(ReqClass::DataLoad, addr.0, 4));
            }
            // A store whose data has not been produced yet blocks younger
            // loads rather than letting them bypass it — the processor's
            // memory-consistency rule.
            Some(PendingOp::Store { addr, .. }) if state.sdq > 0 => {
                self.mem.offer(MemRequest::store(addr.0));
            }
            Some(PendingOp::Store { .. }) | None => {}
        }

        let out = self.mem.tick();
        match out.accepted {
            Some(ReqClass::DataLoad | ReqClass::DataStore) => {
                if let Some(PendingOp::Store { .. }) = state.data_q.pop_front() {
                    state.sdq -= 1;
                }
            }
            Some(class) => self.engine.on_accepted(class),
            None => {}
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
        if let Some(r) = state.resolve.take() {
            self.engine.resolve_branch(r.taken, r.remaining, r.target);
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
                    instructions: self.counts.instructions,
                });
            }
            self.begin_cycle();
            if self.engine.peek_index().is_none() {
                self.counts.ifetch_stalls += 1;
                self.cycle += 1;
                continue;
            }
            if waits_left > 0 {
                waits_left -= 1;
                self.counts.wait_cycles += 1;
                self.cycle += 1;
                continue;
            }
            self.engine.consume();
            self.counts.instructions += 1;
            let state = &mut self.state;
            for op in &step.ops {
                let pending = match *op {
                    ReplayOp::Load { addr } => PendingOp::Load {
                        addr: Untimed(addr),
                    },
                    ReplayOp::StoreAddr { addr } => PendingOp::Store {
                        addr: Untimed(addr),
                        kind: store_kind(addr),
                    },
                    ReplayOp::StoreData { .. } => {
                        state.sdq += 1;
                        continue;
                    }
                };
                state.data_q.push_back(pending);
            }
            state.resolve = step.resolve;
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
        while !(self.state.data_q.is_empty()
            && !self.engine.has_outstanding()
            && self.mem.is_idle())
        {
            if self.cycle >= deadline {
                return Err(ReplayError::Stuck {
                    cycle: self.cycle,
                    instructions: self.counts.instructions,
                });
            }
            self.begin_cycle();
            self.cycle += 1;
        }
        Ok(())
    }

    /// Replays a schedule read one step at a time by `next`, which fills
    /// in the step it is given and returns `Ok(false)` at the end,
    /// applying repeating loop iterations in one step (see the
    /// [module docs](self)). The statistics equal those of calling
    /// [`step_instruction`](Self::step_instruction) on every step. Call
    /// [`drain`](Self::drain) afterwards.
    ///
    /// # Errors
    ///
    /// The first error of `next`, or [`ReplayError::Stuck`] from a step,
    /// whichever a step-by-step replay would meet first.
    pub fn replay<E, F>(&mut self, mut next: F) -> Result<(), E>
    where
        E: From<ReplayError>,
        F: FnMut(&mut ReplayStep) -> Result<bool, E>,
    {
        let mut ahead = Lookahead::new();
        let mut marks = LoopMarks::default();
        let mut skip = true;
        loop {
            if ahead.fill(1, &mut next).is_empty() {
                self.repeats = marks.counts();
                return ahead.error.map_or(Ok(()), Err);
            }
            let step = &ahead.steps[ahead.start];
            ahead.start += 1;
            self.step_instruction(step)?;
            if !skip {
                continue;
            }
            marks.log(StepTiming::of(step));
            if let (Some(_), Some(at)) = (step.resolve, step.addr) {
                let mut machine = Repeating {
                    harness: self,
                    ahead: &mut ahead,
                    next: &mut next,
                };
                skip = marks.after_pbr(at, &mut machine);
            }
        }
    }

    /// Replays a whole schedule through [`replay`](Self::replay) and
    /// drains.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplayError::Stuck`] from any step or the drain.
    pub fn run<I>(&mut self, schedule: I) -> Result<ReplayStats, ReplayError>
    where
        I: IntoIterator<Item = ReplayStep>,
    {
        let mut schedule = schedule.into_iter();
        self.replay(|step| {
            Ok::<_, ReplayError>(match schedule.next() {
                Some(next) => {
                    *step = next;
                    true
                }
                None => false,
            })
        })?;
        self.drain()?;
        Ok(self.stats())
    }

    /// What the loop-iteration skip did in [`replay`](Self::replay).
    pub fn repeats(&self) -> RepeatCounts {
        self.repeats
    }

    /// Writes the timing state into `key` (see the [module docs](self)).
    fn describe_timing(&self, key: &mut TimingKey) -> Timing {
        if self.state.data_q.len() > MAX_REPEAT_QUEUE {
            return Timing::Unsettled;
        }
        key.add(&self.state);
        self.engine.describe_timing(key);
        if self.mem.describe_timing(key) {
            Timing::Described
        } else {
            Timing::Opaque
        }
    }

    /// The results accumulated so far.
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            cycles: self.cycle,
            instructions: self.counts.instructions,
            ifetch_stalls: self.counts.ifetch_stalls,
            wait_cycles: self.counts.wait_cycles,
            fetch: self.engine.stats().clone(),
        }
    }
}

impl fmt::Debug for ReplayHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayHarness")
            .field("engine", &self.engine.name())
            .field("cycle", &self.cycle)
            .field("instructions", &self.counts.instructions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FetchConfig;
    use pipe_isa::{Assembler, InstrFormat, Program};
    use pipe_mem::MemConfig;

    fn asm(src: &str) -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .expect("assembles")
    }

    fn harness(program: &Program) -> ReplayHarness {
        let engine = FetchConfig::Perfect.build(program).expect("builds");
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
