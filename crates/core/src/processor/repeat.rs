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
//! The skip is off when a trace sink is attached (it observes every
//! cycle), when an external cache is modelled (addresses then affect
//! timing), and for fetch engines that cannot describe their state.

use std::collections::HashMap;

use pipe_icache::FetchStats;
use pipe_isa::Instruction;
use pipe_mem::MemStats;

use super::{Decision, Processor, StoreRole};
use crate::stats::SimStats;
use crate::trace::TraceSink;

/// Once the event log holds twice this many events, marks older than
/// this many are dropped and the log is trimmed to the oldest mark left.
/// That bounds the log; Livermore loop iterations hold far fewer events.
const MAX_ITERATION_EVENTS: usize = 256;

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

/// What the skip did over a run (for tests and measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RepeatCounts {
    /// Iterations applied in one step.
    pub(crate) iterations: u64,
    /// Cycles those iterations covered.
    pub(crate) cycles: u64,
    /// Replayed iterations that diverged and were rolled back.
    pub(crate) rollbacks: u64,
}

/// The machine state recorded right after a PBR issued.
#[derive(Debug, Default)]
struct Mark {
    key: Vec<u64>,
    /// Where the following iteration's events begin in the log.
    pos: usize,
    cycle: u64,
    next_tag: u64,
    stats: SimStats,
    fetch: FetchStats,
    mem: MemStats,
}

/// The loop-iteration skip's state during one [`Processor::run`].
#[derive(Debug, Default)]
pub(super) struct LoopSkip {
    /// Value events since the oldest live mark.
    pub(super) log: Vec<ValueEvent>,
    /// The fetch address of a PBR issued this cycle, set by `try_issue`.
    pub(super) issued_pbr: Option<u32>,
    /// The latest mark per PBR address.
    marks: HashMap<u32, Mark>,
    /// Scratch key, reused between PBRs.
    key: Vec<u64>,
    /// Data-memory writes of the iteration being replayed.
    journal: Vec<(u32, Option<u32>)>,
    pub(super) counts: RepeatCounts,
}

impl LoopSkip {
    /// The skip for a run traced by `trace`: none when a sink observes
    /// every cycle.
    pub(super) fn new_if_eligible(trace: &impl TraceSink) -> Option<Box<LoopSkip>> {
        (!trace.enabled()).then(Box::default)
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
        let mut key = std::mem::take(&mut loops.key);
        key.clear();
        if !self.describe_timing(&mut key) {
            return; // the skip stays off for the rest of the run
        }
        let LoopSkip {
            log,
            marks,
            journal,
            counts,
            ..
        } = &mut *loops;
        let repeated = match marks.get(&at) {
            Some(mark) if mark.key == key => {
                self.apply_repeats(mark, &log[mark.pos..], journal, counts)
            }
            _ => false,
        };
        if repeated {
            // The other marks' iterations now lack the repeats applied here.
            marks.retain(|&a, _| a == at);
            log.clear();
        } else if log.len() > 2 * MAX_ITERATION_EVENTS {
            let keep_from = log.len() - MAX_ITERATION_EVENTS;
            marks.retain(|_, m| m.pos >= keep_from);
            let start = marks.values().map(|m| m.pos).min().unwrap_or(log.len());
            log.drain(..start);
            for m in marks.values_mut() {
                m.pos -= start;
            }
        }
        let mark = marks.entry(at).or_default();
        mark.key.clone_from(&key);
        mark.pos = log.len();
        mark.cycle = self.cycle;
        mark.next_tag = self.mem.next_tag();
        mark.stats.clone_from(&self.stats);
        mark.fetch.clone_from(self.fetch.stats());
        mark.mem.clone_from(self.mem.stats());
        loops.key = key;
        self.loops = Some(loops);
    }

    /// Appends the machine's timing state to `key` (see the module docs).
    /// Returns `false` when the memory system or the fetch engine cannot
    /// describe theirs.
    fn describe_timing(&self, key: &mut Vec<u64>) -> bool {
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
        self.mem.describe_timing(key) && self.fetch.describe_timing(key, next_tag)
    }

    /// Applies repeats of the iteration recorded from `mark` to now, whose
    /// value events are `events`, until one diverges or would end past
    /// `max_cycles`. Returns whether any repeat was applied.
    fn apply_repeats(
        &mut self,
        mark: &Mark,
        events: &[ValueEvent],
        journal: &mut Vec<(u32, Option<u32>)>,
        counts: &mut RepeatCounts,
    ) -> bool {
        let cycles = self.cycle - mark.cycle;
        let tags = self.mem.next_tag() - mark.next_tag;
        let stats = self.stats.since(&mark.stats);
        let fetch = self.fetch.stats().since(&mark.fetch);
        let mem = self.mem.stats().since(&mark.mem);
        let mut applied = 0;
        while self.cycle + cycles <= self.max_cycles {
            // Replay counts loads and stores again; the deltas replace that.
            let (core, before) = (self.core.clone(), self.stats.clone());
            journal.clear();
            let tag_shift = self.mem.next_tag() - mark.next_tag;
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
            self.stats.add(&stats);
            self.mem.shift_timing(cycles, tags, &mem);
            self.fetch.shift_timing(tags, &fetch);
            if let Some(p) = &mut self.pbr {
                p.resolve_at += cycles;
            }
            for t in [&mut self.laq_front_tag, &mut self.store_front_tag]
                .into_iter()
                .flatten()
            {
                *t += tags;
            }
            self.cycle += cycles;
            applied += 1;
        }
        counts.iterations += applied;
        counts.cycles += applied * cycles;
        applied > 0
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
