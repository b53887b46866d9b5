//! Applying repeating loop iterations in one step.
//!
//! After each cycle that issues a prepare-to-branch (PBR), the cycle loop
//! describes the timing state of the whole machine — core, memory system
//! and fetch engine — as a key: cycles relative to the current cycle,
//! tags and sequence numbers relative to their counters, and no data
//! values or statistics. If the key equals the one recorded when the same
//! PBR last issued, the iteration in between left the timing state
//! unchanged, so its next repeat will take exactly as many cycles and add
//! exactly the same statistics, unless a value makes a different choice:
//! a PBR resolving another way or to another target, or a store address
//! playing another FPU role.
//!
//! Each further repeat is then applied in one step. The iteration's
//! recorded *value events* — issues, load and store acceptances, load and
//! FPU deliveries — are replayed through the same helpers
//! [`Processor::step`] uses, which moves registers, queues, data memory
//! and the FPU values on exactly as ticking would. The statistics deltas
//! are added, and every cycle, tag and sequence field of the memory
//! system, the fetch engine and the core shifts forward. Replay checks
//! each issue's choice against the recording; an iteration that diverges
//! (typically the loop exit) is rolled back from a copy of the core state
//! and a journal of data-memory writes, and ticking resumes at its start.
//! No repeat is applied that would end past `max_cycles`.
//!
//! The marks, the bounded event log and the shift of memory system and
//! fetch engine are [`pipe_icache::repeat`], which trace replay uses too;
//! this module adds the core's part of the key and the value-event replay.
//!
//! The skip is off when a trace sink is attached (it observes every
//! cycle) and when an external cache is modelled (addresses then affect
//! timing).
//!
//! ## The frozen stop
//!
//! The same key, without the memory system's part, ends a machine that
//! can never change again: a deadlocked program, which would otherwise
//! tick to the cycle budget. After a cycle that issued nothing, while
//! memory is idle, the engine has nothing outstanding and the program
//! is not done, the cycle loop describes the core and the engine. If the
//! previous cycle met the same conditions and left the same key, the
//! cycle in between issued nothing, accepted and delivered nothing
//! (either would have changed a queue length in the key) and changed no
//! timing state (idle memory has none), so every later cycle repeats it
//! exactly. The rest of the budget is then charged at that cycle's
//! statistics delta, stalls, queue samples, fetch and memory counts, and
//! the run times out on exactly the cycle, and with exactly the
//! statistics, that ticking gives. Livermore runs meet the conditions on
//! at most 775 cycles of up to 1.24 M, so the check costs nothing
//! measurable. It is off with a trace sink attached.

use pipe_icache::repeat::{Counters, Iteration, LoopMarks, Machine, RepeatCounts, State, Timing};
use pipe_icache::FetchStats;
use pipe_isa::Instruction;
use pipe_mem::MemStats;

use super::{Decision, Processor, StoreRole};
use crate::stats::SimStats;
use crate::trace::TraceSink;

/// A value-carrying event of one cycle, in the order `step` handles it.
#[derive(Debug, Clone, Copy)]
pub(super) enum ValueEvent {
    /// An instruction issued, making `Decision`.
    Issue(Instruction, Decision),
    /// Memory accepted the LAQ head under this tag.
    LoadAccepted(u64),
    /// Memory accepted the SAQ/SDQ heads.
    StoreAccepted,
    /// The response beat of the load with this tag arrived.
    LoadDelivered(u64),
    /// The oldest FPU result arrived.
    FpuDelivered,
}

/// The loop-iteration skip's state during one [`Processor::run`].
#[derive(Debug, Default)]
pub(super) struct LoopSkip {
    /// The marks and the log of value events.
    pub(super) marks: LoopMarks<ValueEvent, SimStats>,
    /// The fetch address of a PBR issued this cycle, set by `try_issue`.
    pub(super) issued_pbr: Option<u32>,
    /// Data-memory writes of the iteration being replayed.
    journal: Vec<(u32, Option<u32>)>,
}

/// The frozen stop's record of the last cycle it checked (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub(super) struct FrozenStop {
    /// The cycle count after that cycle; 0 before the first.
    cycle: u64,
    key: Vec<u64>,
    /// Scratch key, swapped with `key`.
    next_key: Vec<u64>,
    stats: SimStats,
    fetch: FetchStats,
    mem: MemStats,
}

/// `delta` added `n` times, by doubling.
fn times<T: Clone + Default>(delta: &T, n: u64, add: fn(&mut T, &T)) -> T {
    let (mut sum, mut power, mut n) = (T::default(), delta.clone(), n);
    while n > 0 {
        if n & 1 == 1 {
            add(&mut sum, &power);
        }
        let doubled = power.clone();
        add(&mut power, &doubled);
        n >>= 1;
    }
    sum
}

/// The processor as the loop marks drive it, with the replay's
/// data-memory journal.
struct Repeating<'a, S: TraceSink> {
    proc: &'a mut Processor<S>,
    journal: &'a mut Vec<(u32, Option<u32>)>,
}

impl<S: TraceSink> Machine for Repeating<'_, S> {
    type Event = ValueEvent;
    type Counters = SimStats;

    fn describe_timing(&self, key: &mut Vec<u64>) -> Timing {
        self.proc.describe_timing(key);
        if self.proc.mem.describe_timing(key) {
            Timing::Described
        } else {
            Timing::Opaque
        }
    }

    fn state(&self) -> State<'_, SimStats> {
        State {
            cycle: self.proc.cycle,
            counters: &self.proc.stats,
            fetch: self.proc.fetch.stats(),
            mem: &self.proc.mem,
        }
    }

    fn apply_repeats(
        &mut self,
        iteration: &Iteration<SimStats>,
        events: &[ValueEvent],
        counts: &mut RepeatCounts,
    ) -> u64 {
        self.proc
            .apply_repeats(iteration, events, self.journal, counts)
    }
}

impl<S: TraceSink> Processor<S> {
    /// Called after a cycle that issued the PBR at fetch address `at`:
    /// applies as many repeats of the iteration since that PBR last issued
    /// as exactly match ticking, then marks the current state.
    pub(super) fn repeat_iterations(&mut self, at: u32) {
        let Some(mut loops) = self.loops.take() else {
            return;
        };
        let LoopSkip { marks, journal, .. } = &mut *loops;
        if marks.after_pbr(
            at,
            &mut Repeating {
                proc: self,
                journal,
            },
        ) {
            self.loops = Some(loops);
        }
        // Otherwise the skip stays off for the rest of the run.
    }

    /// Called after a cycle that issued nothing, with memory idle, the
    /// engine holding nothing outstanding and the program not done: if the
    /// cycle before met the same conditions and left the same key, runs
    /// the machine to the cycle budget in one step (see the
    /// [module docs](self)).
    pub(super) fn stop_if_frozen(&mut self) {
        let Some(mut frozen) = self.frozen.take() else {
            return;
        };
        frozen.next_key.clear();
        self.describe_timing(&mut frozen.next_key);
        if frozen.cycle + 1 == self.cycle && frozen.next_key == frozen.key {
            let n = self.max_cycles.saturating_sub(self.cycle);
            let stats = times(&self.stats.since(&frozen.stats), n, SimStats::add);
            let fetch = times(&self.fetch.stats().since(&frozen.fetch), n, FetchStats::add);
            let mem = times(&self.mem.stats().since(&frozen.mem), n, MemStats::add);
            self.stats.add(&stats);
            self.fetch.shift_timing(0, &fetch);
            self.mem.shift_timing(n, 0, &mem);
            self.cycle += n;
        } else {
            std::mem::swap(&mut frozen.key, &mut frozen.next_key);
            frozen.cycle = self.cycle;
            frozen.stats.clone_from(&self.stats);
            frozen.fetch.clone_from(self.fetch.stats());
            frozen.mem.clone_from(self.mem.stats());
        }
        self.frozen = Some(frozen);
    }

    /// Appends the timing state of the core and the fetch engine to `key`
    /// (see the module docs); the memory system describes its own.
    fn describe_timing(&self, key: &mut Vec<u64>) {
        let now = self.cycle;
        let next_tag = self.mem.next_tag();
        let tag = |t: Option<u64>| t.map_or(0, |t| next_tag - t);
        let core = &self.core;
        let ldq_base = core.ldq.base_seq();
        match self.pbr {
            Some(p) => key.extend([
                1,
                p.resolve_at.wrapping_sub(now),
                u64::from(p.taken),
                u64::from(p.target),
                u64::from(p.delay),
                u64::from(p.issued_after),
            ]),
            None => key.push(0),
        }
        key.extend([
            self.redirect_remaining.map_or(0, |r| 1 + u64::from(r)),
            u64::from(self.halted),
            tag(self.laq_front_tag),
            tag(self.store_front_tag),
            core.laq.len() as u64,
            core.saq.len() as u64,
            core.sdq.len() as u64,
            core.ldq.len() as u64,
            core.inflight_loads.len() as u64,
            core.fpu_result_slots.len() as u64,
        ]);
        for e in core.laq.iter() {
            key.extend([e.tag - ldq_base, core.data_seq - e.seq]);
        }
        for e in core.saq.iter() {
            key.extend([core.data_seq - e.seq, StoreRole::of(e.value) as u64]);
        }
        key.extend(core.ldq.filled().map(u64::from));
        for &(t, seq, _) in &core.inflight_loads {
            key.extend([next_tag - t, seq - ldq_base]);
        }
        key.extend(core.fpu_result_slots.iter().map(|&seq| seq - ldq_base));
        self.fetch.describe_timing(key, next_tag);
    }

    /// Applies repeats of `iteration`, whose value events are `events`,
    /// until one diverges or would end past `max_cycles`. Returns how many
    /// it applied. A method of the processor, not of `Repeating`: as the
    /// latter, measured over Figures 4a–6b, it made `run` about 5 % slower.
    fn apply_repeats(
        &mut self,
        iteration: &Iteration<SimStats>,
        events: &[ValueEvent],
        journal: &mut Vec<(u32, Option<u32>)>,
        counts: &mut RepeatCounts,
    ) -> u64 {
        let (cycles, tags) = (iteration.cycles, iteration.tags);
        // Tags recorded in the iteration move on by `tags` per repeat.
        let mut tag_shift = tags;
        let mut applied = 0;
        while self.cycle + cycles <= self.max_cycles {
            // Replay counts loads and stores again; the deltas replace that.
            let (core, before) = (self.core.clone(), self.stats.clone());
            journal.clear();
            if !events.iter().all(|&e| self.replay(e, tag_shift, journal)) {
                self.core = core;
                self.stats = before;
                for &(addr, previous) in journal.iter().rev() {
                    self.data.restore(addr, previous);
                }
                counts.rollbacks += 1;
                break;
            }
            self.stats = before;
            iteration.shift(
                &mut self.cycle,
                &mut self.stats,
                &mut self.mem,
                &mut *self.fetch,
            );
            if let Some(p) = &mut self.pbr {
                p.resolve_at += cycles;
            }
            for t in [&mut self.laq_front_tag, &mut self.store_front_tag]
                .into_iter()
                .flatten()
            {
                *t += tags;
            }
            tag_shift += tags;
            applied += 1;
        }
        applied
    }

    /// Replays one recorded value event, with recorded tags moved
    /// `tag_shift` on. Returns `false` if an issue would decide
    /// differently from the recording, before changing anything.
    fn replay(
        &mut self,
        event: ValueEvent,
        tag_shift: u64,
        journal: &mut Vec<(u32, Option<u32>)>,
    ) -> bool {
        match event {
            ValueEvent::Issue(instr, decision) => {
                let queue_value = if Self::reads_queue_reg(&instr) {
                    match self.core.ldq.front_ready() {
                        Some(v) => Some(v),
                        None => return false,
                    }
                } else {
                    None
                };
                if self.decide(&instr, queue_value) != decision {
                    return false;
                }
                self.execute(&instr, queue_value);
            }
            ValueEvent::LoadAccepted(tag) => self.accept_load(tag + tag_shift),
            ValueEvent::StoreAccepted => self.accept_store(Some(journal)),
            ValueEvent::LoadDelivered(tag) => self.deliver_load(tag + tag_shift),
            ValueEvent::FpuDelivered => self.deliver_fpu_result(),
        }
        true
    }
}
