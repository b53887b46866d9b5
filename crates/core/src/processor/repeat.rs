//! Applying repeating loop iterations in one step.
//!
//! After each cycle that issues a prepare-to-branch (PBR), the cycle loop
//! describes the timing state of the whole machine — core, memory system
//! and fetch engine — as a key: cycles relative to the current cycle,
//! tags and sequence numbers relative to their counters, and no data
//! values or statistics (the processor holds none). If the key equals the
//! one recorded when the same PBR last issued, the iteration in between
//! left the timing state unchanged, so its next repeat will take exactly
//! as many cycles and add exactly the same statistics, unless a value
//! makes a different choice: a PBR resolving another way or to another
//! target, or a store address playing another FPU role.
//!
//! The log holds that choice for every issue. Before each further repeat,
//! the skip steps the interpreter one iteration ahead into the processor's
//! look-ahead queue and compares each step's choice with the log. On a
//! match, it drops those steps as issued: the statistics deltas are added,
//! and every cycle, tag and sequence field of the memory system, the fetch
//! engine and the core shifts forward. On a mismatch (typically the loop
//! exit), the steps stay queued and ticking issues them one by one, so
//! nothing is ever rolled back. No repeat is applied that would end past
//! `max_cycles`.
//!
//! The LAQ and SAQ entries keep the addresses they held at the mark, not
//! the ones the dropped steps carried. Like the key, nothing that times a
//! run reads them while the skip is on: the memory system ignores data
//! addresses unless it models an external cache, which turns the skip
//! off, and the FPU roles the addresses imply are the ones the key and
//! the choices just compared.
//!
//! The marks, the bounded log and the shift of memory system and fetch
//! engine are [`pipe_icache::repeat`], which trace replay uses too; this
//! module adds the core's part of the key, the look-ahead and the core's
//! shift.
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
//!
//! ## The redirect countdown in the key
//!
//! No mark ever sees a pending redirect. A PBR cannot issue while one is
//! pending (the branch gating in `try_issue`), every engine fires the
//! redirect inside `consume` or `resolve_branch` once its count reaches
//! zero, and the PBR's own resolution comes a cycle after the mark. The
//! frozen stop compares two consecutive cycles that issue nothing: the
//! countdown moves only on a consume, and a resolution in between changes
//! the core's part of the key anyway. So the engines' keys include the
//! countdown (`Redirect::describe` in [`pipe_icache::engine`]) only to be
//! conservative; it costs nothing. `tests/failure_modes.rs` deadlocks a
//! program in the first delay slot of a taken PBR to check the frozen
//! stop against ticking with a redirect pending.

use pipe_icache::repeat::{Counters, Iteration, LoopMarks, Machine, RepeatCounts, State, Timing};
use pipe_icache::FetchStats;
use pipe_mem::MemStats;

use super::{Decision, Processor, StoreRole};
use crate::stats::SimStats;
use crate::trace::TraceSink;

/// The loop-iteration skip's state during one [`Processor::run`].
#[derive(Debug, Default)]
pub(super) struct LoopSkip {
    /// The marks and the log of choices, one per issue.
    pub(super) marks: LoopMarks<Decision, SimStats>,
    /// The fetch address of a PBR issued this cycle, set by `try_issue`.
    pub(super) issued_pbr: Option<u32>,
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

/// The processor as the loop marks drive it.
struct Repeating<'a, S: TraceSink>(&'a mut Processor<S>);

impl<S: TraceSink> Machine for Repeating<'_, S> {
    type Event = Decision;
    type Counters = SimStats;

    fn describe_timing(&self, key: &mut Vec<u64>) -> Timing {
        self.0.describe_timing(key);
        if self.0.mem.describe_timing(key) {
            Timing::Described
        } else {
            Timing::Opaque
        }
    }

    fn state(&self) -> State<'_, SimStats> {
        State {
            cycle: self.0.cycle,
            counters: &self.0.stats,
            fetch: self.0.fetch.stats(),
            mem: &self.0.mem,
        }
    }

    fn apply_repeats(
        &mut self,
        iteration: &Iteration<SimStats>,
        choices: &[Decision],
        counts: &mut RepeatCounts,
    ) -> u64 {
        self.0.apply_repeats(iteration, choices, counts)
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
        if loops.marks.after_pbr(at, &mut Repeating(self)) {
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
            core.sdq as u64,
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
        for &(t, seq) in &core.inflight_loads {
            key.extend([next_tag - t, seq - ldq_base]);
        }
        key.extend(core.fpu_result_slots.iter().map(|&seq| seq - ldq_base));
        self.fetch.describe_timing(key, next_tag);
    }

    /// Applies repeats of `iteration`, whose issues made `choices`, until
    /// the interpreter's next iteration chooses differently or a repeat
    /// would end past `max_cycles`. Returns how many it applied. A method
    /// of the processor, not of `Repeating`: as the latter, measured over
    /// Figures 4a–6b, it made `run` about 5 % slower.
    fn apply_repeats(
        &mut self,
        iteration: &Iteration<SimStats>,
        choices: &[Decision],
        counts: &mut RepeatCounts,
    ) -> u64 {
        let (cycles, tags) = (iteration.cycles, iteration.tags);
        // LDQ slots and data-side operations each repeat hands out.
        let d = &iteration.counters;
        let (slots, data_ops) = (d.loads + d.fpu_ops, d.loads + d.stores);
        let mut applied = 0;
        while self.cycle + cycles <= self.max_cycles {
            if !self.looks_ahead_to(choices) {
                counts.diverged += 1;
                break;
            }
            self.ahead.drain(..choices.len());
            let core = &mut self.core;
            core.laq.shift(slots, data_ops);
            core.saq.shift(0, data_ops);
            core.ldq.shift_seq(slots);
            core.data_seq += data_ops;
            for (t, seq) in &mut core.inflight_loads {
                *t += tags;
                *seq += slots;
            }
            for seq in &mut core.fpu_result_slots {
                *seq += slots;
            }
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
            applied += 1;
        }
        applied
    }

    /// Whether the interpreter's next `choices.len()` steps make
    /// `choices`, stepping it into the look-ahead queue as far as needed.
    /// An error stops the stepping short, which is a mismatch; ticking
    /// never reaches the failing instruction.
    fn looks_ahead_to(&mut self, choices: &[Decision]) -> bool {
        if let Some(missing) = choices.len().checked_sub(self.ahead.len()) {
            let _ = self.interp.step_into(&mut self.ahead, missing);
        }
        self.ahead.len() >= choices.len()
            && self
                .ahead
                .iter()
                .zip(choices)
                .all(|(step, &choice)| Decision::of(step) == choice)
    }
}
