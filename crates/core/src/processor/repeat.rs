//! Applying repeating loop iterations in one step.
//!
//! After each cycle that issues a prepare-to-branch (PBR), the cycle loop
//! writes the timing state of the whole machine — core, fetch engine and
//! memory system — into a key. Each keeps that state in one struct with
//! derived `Hash`, relative by construction: queues in program or
//! acceptance order, counts and countdowns, no tag, sequence number or
//! absolute cycle, no data value and no statistic (the processor holds
//! none). If the key equals the one recorded when the same PBR last
//! issued, the iteration in between left the timing state unchanged, so
//! its next repeat will take exactly as many cycles and add exactly the
//! same statistics, unless a value makes a different choice: a PBR
//! resolving another way or to another target, or a store address playing
//! another FPU role. Failing that, the key is compared with the one
//! recorded the time before: a state that alternates between two values
//! every iteration repeats every second one, and the two iterations since
//! then repeat as one unit, a pair (see
//! [`pipe_icache::repeat`]). Everything below holds for a pair as for a
//! single iteration.
//!
//! The log holds that choice for every issue. Before each further repeat,
//! the skip compares the choices of the course's next iteration, read
//! ahead of the processor's cursor, with the log. On a match, it moves
//! the cursor past those steps as issued and adds the cycles and the
//! statistics deltas; no state moves. On a mismatch (typically the loop
//! exit), the cursor stays and ticking issues the steps one by one, so
//! nothing is ever rolled back. No repeat is applied that would end past
//! `max_cycles`. The queued addresses the skipped steps carried are not
//! applied: see [`Untimed`](pipe_mem::Untimed).
//!
//! ## Whole runs in one step
//!
//! A shared [`Course`](crate::Course) keeps consecutive repeats of a
//! block as one run. When the repeat just applied was exactly one block
//! of a run (the cursor stands at the start of a later repeat of the
//! run, and the run's block is as long as the iteration), every remaining
//! repeat of the run is that same block: it makes the same choices, so
//! it would match and be applied exactly as the one before. The cursor
//! then moves past them in one step, at most as many as end by
//! `max_cycles`, and the skip adds them at once ([`Iteration::times`]),
//! so they count as applied iterations. The cursor checks all of this
//! itself, from the steps it moved past, and needs nothing from the
//! marks. A loop with a second PBR in its body is two blocks per trip,
//! stored as runs of one repeat, so its repeats are checked one by one;
//! so are the pairs of a loop whose state repeats every second
//! iteration, two blocks each.
//! A cursor that interprets never jumps: a single run, and every run
//! with a trace sink (which always observes true values) or an external
//! cache, check each repeat as above.
//!
//! The marks and the bounded log are [`pipe_icache::repeat`], which trace
//! replay uses too; this module adds the core's part of the key and the
//! check against the course.
//!
//! The skip is off when a trace sink that does not take iterations is
//! attached (it observes every cycle) and when an external cache is
//! modelled (addresses then affect timing). A sink that takes iterations
//! ([`TraceSink::takes_iterations`]) is offered each repeat, with the
//! lowest and highest address it issues, before it is applied; a repeat
//! the sink declines is not applied, and ticking issues its steps.
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
//! (either would have changed a queue in the key) and changed no timing
//! state (idle memory has none), so every later cycle repeats it
//! exactly. The rest of the budget is then charged at that cycle's
//! statistics delta, stalls, queue samples, fetch and memory counts, and
//! the run times out on exactly the cycle, and with exactly the
//! statistics, that ticking gives. Livermore runs meet the conditions on
//! at most 775 cycles of up to 1.24 M, so the check costs nothing
//! measurable. It is off with any trace sink attached.
//! `tests/failure_modes.rs` deadlocks a program in the first delay slot
//! of a taken PBR to check the frozen stop against ticking with a
//! redirect pending.

use pipe_icache::repeat::{Iteration, LoopMarks, Machine, RepeatCounts, Snapshot, State, Timing};
use pipe_mem::TimingKey;

use super::{Decision, Processor};
use crate::stats::SimStats;
use crate::trace::{Repeat, TraceSink};

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
    /// The cycle count and statistics after that cycle; cycle 0 before
    /// the first.
    after: Snapshot<SimStats>,
    key: TimingKey,
    /// Scratch key, swapped with `key`.
    next_key: TimingKey,
}

/// The processor as the loop marks drive it.
struct Repeating<'a, S: TraceSink>(&'a mut Processor<S>);

impl<S: TraceSink> Machine for Repeating<'_, S> {
    type Event = Decision;
    type Counters = SimStats;

    fn describe_timing(&self, key: &mut TimingKey) -> Timing {
        self.0.describe_timing(key);
        if self.0.mem.describe_timing(key) {
            Timing::Described
        } else {
            Timing::Opaque
        }
    }

    fn state(&self) -> State<'_, SimStats> {
        self.0.state()
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
    /// applies as many repeats of the iteration since that PBR last issued,
    /// or of the two since the time before, as exactly match ticking, then
    /// marks the current state.
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
        if frozen.after.cycle + 1 == self.cycle && frozen.next_key == frozen.key {
            let n = self.max_cycles.saturating_sub(self.cycle);
            let rest = frozen.after.until(&self.state()).times(n);
            rest.apply(
                &mut self.cycle,
                &mut self.stats,
                &mut self.mem,
                &mut *self.fetch,
            );
        } else {
            std::mem::swap(&mut frozen.key, &mut frozen.next_key);
            frozen.after.take(&self.state());
        }
        self.frozen = Some(frozen);
    }

    /// The cycle and statistics as the marks read them.
    fn state(&self) -> State<'_, SimStats> {
        State {
            cycle: self.cycle,
            counters: &self.stats,
            fetch: self.fetch.stats(),
            mem: self.mem.stats(),
        }
    }

    /// Writes the timing state of the core and the fetch engine into
    /// `key` (see the module docs); the memory system describes its own.
    fn describe_timing(&self, key: &mut TimingKey) {
        key.add(&self.core);
        self.fetch.describe_timing(key);
    }

    /// Applies repeats of `iteration`, whose issues made `choices`, until
    /// the course's next iteration chooses differently, the trace sink
    /// declines a repeat or a repeat would end past `max_cycles`; the
    /// rest of a course run in one step. Returns how many it applied,
    /// jumped ones included. A method of the processor, not of
    /// `Repeating`: as the latter, measured over Figures 4a–6b, it made
    /// `run` about 5 % slower.
    fn apply_repeats(
        &mut self,
        iteration: &Iteration<SimStats>,
        choices: &[Decision],
        counts: &mut RepeatCounts,
    ) -> u64 {
        let traced = self.trace.enabled();
        let mut applied = 0;
        while self.cycle + iteration.cycles <= self.max_cycles {
            // The course's next steps, issued if they make `choices` and
            // the sink takes them; a course that ends first is a mismatch.
            // The sink is asked at the last step, the PBR that closes the
            // iteration, once every other step matched.
            let (mut lowest, mut highest, mut left) = (u32::MAX, u32::MIN, choices.len());
            let mut declined = false;
            let trace = &mut self.trace;
            let moved = self.steps.advance_if(choices, |step, &choice| {
                if Decision::of(step) != choice {
                    return false;
                }
                if !traced {
                    return true;
                }
                (lowest, highest, left) = (lowest.min(step.addr), highest.max(step.addr), left - 1);
                declined = left == 0
                    && !trace.iteration(&Repeat {
                        pbr: step.addr,
                        lowest,
                        highest,
                        cycles: iteration.cycles,
                        stats: &iteration.counters,
                    });
                !declined
            });
            if !moved {
                counts.diverged += u64::from(!declined);
                break;
            }
            iteration.apply(
                &mut self.cycle,
                &mut self.stats,
                &mut self.mem,
                &mut *self.fetch,
            );
            applied += 1;
            // The rest of a course run in one step (see the module docs).
            let most = (self.max_cycles - self.cycle) / iteration.cycles;
            let jumped = self.steps.skip_run(choices.len(), most);
            if jumped > 0 {
                iteration.times(jumped).apply(
                    &mut self.cycle,
                    &mut self.stats,
                    &mut self.mem,
                    &mut *self.fetch,
                );
                applied += jumped;
            }
        }
        applied
    }
}
