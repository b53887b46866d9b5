//! Applying repeating loop iterations in one step: the bookkeeping shared
//! by the processor's cycle loop (`pipe_core::Processor::run`) and trace
//! replay ([`ReplayHarness`](crate::ReplayHarness)).
//!
//! After each prepare-to-branch (PBR), a cycle loop writes its timing
//! state into a [`TimingKey`]. Every component keeps that state relative
//! by construction — countdowns instead of deadlines, queues and
//! requests in the order memory answers them, no tags — in one struct
//! with derived `Hash`, so the key is the state itself, with no data
//! values and no statistics. If the key equals the one recorded when the
//! same PBR last issued, the iteration in between left the timing state
//! unchanged. A further repeat then takes exactly as many cycles and adds
//! exactly the same statistics, as long as its inputs make the same
//! timing choices as the iteration's logged events; the cycle loop checks
//! that before it applies each repeat.
//!
//! ## Period-two marks
//!
//! In some loops no iteration leaves the state the one before it left:
//! one part of it alternates between two values (the TIB's fetch queue
//! between two alignments, for one), so the state repeats every second
//! iteration. The key is therefore compared with the one recorded when
//! the same PBR last issued and, failing that, with the one recorded the
//! time before. A match with the earlier one makes the two iterations
//! since then one repeating unit: the cycle loop checks and applies it
//! pair by pair, exactly as a single iteration, and each applied pair
//! counts as two [`RepeatCounts::iterations`]. When both match, the
//! single iteration wins.
//!
//! [`LoopMarks`] keeps these two marks per PBR address (the key, a
//! snapshot of cycle and statistics, and where the following iterations
//! begin in the event log), keeps the log bounded, and hands a repeating
//! [`Iteration`] to the cycle loop, whose [`Machine`] implementation
//! checks and applies the repeats. Applying one
//! ([`Iteration::apply`]) adds the cycles and the statistics deltas of
//! the loop, the memory system and the fetch engine; no state moves.
//! Once a repeat is applied, every snapshot taken before it lacks the
//! applied cycles, so only the mark taken after it is kept.

use std::collections::HashMap;

use pipe_mem::{MemStats, MemorySystem, TimingKey};

use crate::engine::FetchEngine;
use crate::stats::FetchStats;

/// Once the event log holds twice this many events, marks older than
/// this many are dropped and the log is trimmed to the oldest mark left,
/// so the log never holds more than twice this many. Livermore loop
/// iterations hold far fewer events.
pub const MAX_ITERATION_EVENTS: usize = 256;

/// The statistics a cycle loop keeps besides the fetch engine's and the
/// memory system's, as deltas over an iteration.
pub trait Counters: Clone + Default {
    /// The counts accumulated since `earlier`, a snapshot of the same run.
    fn since(&self, earlier: &Self) -> Self;
    /// Adds a delta computed by [`since`](Counters::since).
    fn add(&mut self, delta: &Self);
}

/// What the skip did over a run (for tests and measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepeatCounts {
    /// Iterations applied without ticking, the repeats of a course run
    /// that the processor jumps past at once included.
    pub iterations: u64,
    /// Cycles those iterations covered.
    pub cycles: u64,
    /// Repeats not applied because the next iteration's inputs would
    /// take another course than the logged one; that iteration is ticked.
    pub diverged: u64,
    /// PBRs after which the state was too large to describe.
    pub unsettled: u64,
    /// The most events the log held at a PBR.
    pub longest_log: usize,
}

/// Whether a cycle loop could describe its timing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// The key holds the whole timing state.
    Described,
    /// Not this time (a queue is too deep to compare cheaply); the PBR is
    /// not marked.
    Unsettled,
    /// Never: the memory system models an external cache, whose timing
    /// depends on addresses, so the skip stays off for the rest of the
    /// run.
    Opaque,
}

/// A cycle loop's state as the marks read it.
#[derive(Debug, Clone, Copy)]
pub struct State<'a, C> {
    /// Cycles completed.
    pub cycle: u64,
    /// The loop's own statistics.
    pub counters: &'a C,
    /// The fetch engine's statistics.
    pub fetch: &'a FetchStats,
    /// The memory system's statistics.
    pub mem: &'a MemStats,
}

/// A cycle loop that can apply repeating iterations.
pub trait Machine {
    /// What the loop logs per cycle or step, to check a repeat against.
    type Event;
    /// The loop's own statistics.
    type Counters: Counters;

    /// Writes the timing state into `key` (see the [module docs](self)).
    fn describe_timing(&self, key: &mut TimingKey) -> Timing;

    /// The current cycle, statistics and memory system.
    fn state(&self) -> State<'_, Self::Counters>;

    /// Applies repeats of `iteration`, whose logged events are `events`,
    /// for as long as each would take exactly the recorded course, and
    /// returns how many it applied.
    fn apply_repeats(
        &mut self,
        iteration: &Iteration<Self::Counters>,
        events: &[Self::Event],
        counts: &mut RepeatCounts,
    ) -> u64;
}

/// Cycle and statistics at a mark.
#[derive(Debug, Default)]
pub struct Snapshot<C> {
    /// Cycles completed.
    pub cycle: u64,
    counters: C,
    fetch: FetchStats,
    mem: MemStats,
}

impl<C: Counters> Snapshot<C> {
    /// Records `now`.
    pub fn take(&mut self, now: &State<'_, C>) {
        self.cycle = now.cycle;
        self.counters.clone_from(now.counters);
        self.fetch.clone_from(now.fetch);
        self.mem.clone_from(now.mem);
    }

    /// What the cycles from this snapshot to `now` added.
    pub fn until(&self, now: &State<'_, C>) -> Iteration<C> {
        Iteration {
            cycles: now.cycle - self.cycle,
            counters: now.counters.since(&self.counters),
            fetch: now.fetch.since(&self.fetch),
            mem: now.mem.since(&self.mem),
        }
    }
}

/// What one repeat of an iteration adds.
#[derive(Debug, Clone)]
pub struct Iteration<C> {
    /// Cycles the iteration took.
    pub cycles: u64,
    /// Its delta of the loop's own statistics.
    pub counters: C,
    fetch: FetchStats,
    mem: MemStats,
}

impl<C: Counters> Iteration<C> {
    /// The iteration repeated `n` times over, summed by doubling.
    pub fn times(&self, n: u64) -> Iteration<C> {
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
        Iteration {
            cycles: self.cycles * n,
            counters: times(&self.counters, n, C::add),
            fetch: times(&self.fetch, n, FetchStats::add),
            mem: times(&self.mem, n, MemStats::add),
        }
    }

    /// Applies one repeat: adds its cycles and the statistics deltas of
    /// the loop, the memory system and the fetch engine.
    pub fn apply(
        &self,
        cycle: &mut u64,
        counters: &mut C,
        mem: &mut MemorySystem,
        fetch: &mut dyn FetchEngine,
    ) {
        *cycle += self.cycles;
        counters.add(&self.counters);
        mem.add_stats(&self.mem);
        fetch.add_stats(&self.fetch);
    }
}

/// The state recorded right after a PBR.
#[derive(Debug, Default)]
struct Mark<C> {
    key: TimingKey,
    /// Where the following iteration's events begin in the log.
    pos: usize,
    snapshot: Snapshot<C>,
}

/// A PBR's latest mark and the one before it, if still valid: a match
/// with `[n]` repeats the last `n + 1` iterations.
type Marks<C> = [Option<Mark<C>>; 2];

/// The marks and the bounded event log of one run (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct LoopMarks<E, C> {
    /// Events since the oldest mark.
    log: Vec<E>,
    /// The latest two marks per PBR address.
    marks: HashMap<u32, Marks<C>>,
    /// Scratch key, reused between PBRs.
    key: TimingKey,
    counts: RepeatCounts,
}

impl<E, C> Default for LoopMarks<E, C> {
    fn default() -> LoopMarks<E, C> {
        LoopMarks {
            log: Vec::new(),
            marks: HashMap::new(),
            key: TimingKey::default(),
            counts: RepeatCounts::default(),
        }
    }
}

impl<E, C: Counters> LoopMarks<E, C> {
    /// What the skip did so far.
    pub fn counts(&self) -> RepeatCounts {
        self.counts
    }

    /// Logs one event, trimming the log first when it is full.
    pub fn log(&mut self, event: E) {
        if self.log.len() >= 2 * MAX_ITERATION_EVENTS {
            self.trim();
        }
        self.log.push(event);
    }

    /// Drops the marks more than [`MAX_ITERATION_EVENTS`] events old and
    /// the events before the oldest mark left. Out of line, so that the
    /// check in [`log`](Self::log) stays small in a cycle loop's step.
    #[cold]
    #[inline(never)]
    fn trim(&mut self) {
        let keep_from = self.log.len() - MAX_ITERATION_EVENTS;
        self.marks.retain(|_, marks| {
            for mark in marks.iter_mut() {
                if mark.as_ref().is_some_and(|m| m.pos < keep_from) {
                    *mark = None;
                }
            }
            // The older mark is gone too when the latest one is.
            marks[0].is_some()
        });
        let start = self.marks.values().flatten().flatten().map(|m| m.pos).min();
        let start = start.unwrap_or(self.log.len());
        self.log.drain(..start);
        for m in self.marks.values_mut().flatten().flatten() {
            m.pos -= start;
        }
    }

    /// Called after `machine` replayed or issued the PBR at fetch address
    /// `at`, with that PBR's event logged: applies as many repeats of the
    /// iteration since the PBR's latest mark, or else of the two since the
    /// mark before it, as `machine` accepts, then marks the current state.
    /// Returns `false` when `machine` can never describe its timing, which
    /// ends the skip for the run.
    pub fn after_pbr<M>(&mut self, at: u32, machine: &mut M) -> bool
    where
        M: Machine<Event = E, Counters = C>,
    {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        let timing = machine.describe_timing(&mut key);
        self.counts.longest_log = self.counts.longest_log.max(self.log.len());
        match timing {
            Timing::Described => {}
            Timing::Unsettled => {
                self.counts.unsettled += 1;
                self.key = key;
                return true;
            }
            Timing::Opaque => return false,
        }
        // The latest mark first: when both match, one iteration repeats.
        let matched = self.marks.get(&at).and_then(|marks| {
            let mut marks = (1..).zip(marks);
            marks.find_map(|(span, mark)| Some((span, mark.as_ref().filter(|m| m.key == key)?)))
        });
        let repeated = match matched {
            Some((span, mark)) => {
                let iteration = mark.snapshot.until(&machine.state());
                let events = &self.log[mark.pos..];
                let applied = machine.apply_repeats(&iteration, events, &mut self.counts);
                self.counts.iterations += applied * span;
                self.counts.cycles += applied * iteration.cycles;
                applied > 0
            }
            None => false,
        };
        if repeated {
            // The other marks' iterations now lack the repeats applied here.
            self.marks.retain(|&a, _| a == at);
            self.log.clear();
        }
        let marks = self.marks.entry(at).or_default();
        marks.rotate_right(1);
        if repeated {
            // So do the iterations since this PBR's own marks: the older
            // one is overwritten below, the latest one dropped.
            marks[1] = None;
        }
        let mark = marks[0].get_or_insert_with(Mark::default);
        mark.key.clone_from(&key);
        mark.pos = self.log.len();
        mark.snapshot.take(&machine.state());
        self.key = key;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PBR every scripted iteration ends at.
    const AT: u32 = 0x40;

    /// The scripted loop's own statistic: PBRs issued.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Pbrs(u64);

    impl Counters for Pbrs {
        fn since(&self, earlier: &Pbrs) -> Pbrs {
            Pbrs(self.0 - earlier.0)
        }
        fn add(&mut self, delta: &Pbrs) {
            self.0 += delta.0;
        }
    }

    /// A repeat the marks handed over: its cycles, PBRs, delivered
    /// instructions and logged events.
    type Offer = (u64, u64, u64, usize);

    /// A cycle loop whose iterations are scripted: each ends at `AT` with
    /// a given key, after given cycles, one instruction per event.
    #[derive(Default)]
    struct Scripted {
        cycle: u64,
        pbrs: Pbrs,
        fetch: FetchStats,
        mem: MemStats,
        key: u8,
        /// How many more repeats `apply_repeats` accepts.
        accept: u64,
        offers: Vec<Offer>,
    }

    impl Machine for Scripted {
        type Event = u32;
        type Counters = Pbrs;

        fn describe_timing(&self, key: &mut TimingKey) -> Timing {
            key.add(&self.key);
            Timing::Described
        }

        fn state(&self) -> State<'_, Pbrs> {
            State {
                cycle: self.cycle,
                counters: &self.pbrs,
                fetch: &self.fetch,
                mem: &self.mem,
            }
        }

        fn apply_repeats(
            &mut self,
            iteration: &Iteration<Pbrs>,
            events: &[u32],
            _: &mut RepeatCounts,
        ) -> u64 {
            let delivered = iteration.fetch.instructions_delivered;
            let offer = (
                iteration.cycles,
                iteration.counters.0,
                delivered,
                events.len(),
            );
            self.offers.push(offer);
            let applied = std::mem::take(&mut self.accept);
            for _ in 0..applied {
                self.cycle += iteration.cycles;
                self.pbrs.add(&iteration.counters);
                self.fetch.add(&iteration.fetch);
            }
            applied
        }
    }

    #[derive(Default)]
    struct Run {
        marks: LoopMarks<u32, Pbrs>,
        machine: Scripted,
    }

    impl Run {
        /// Ticks one iteration of `cycles` cycles and `events` events,
        /// ending at a PBR that leaves `key`, and accepts up to `accept`
        /// repeats after it.
        fn iterate(&mut self, cycles: u64, events: u32, key: u8, accept: u64) {
            for event in 0..events {
                self.marks.log(event);
            }
            let m = &mut self.machine;
            m.cycle += cycles;
            m.pbrs.0 += 1;
            m.fetch.instructions_delivered += u64::from(events);
            (m.key, m.accept) = (key, accept);
            assert!(self.marks.after_pbr(AT, m));
        }
    }

    #[test]
    fn a_state_that_repeats_every_second_iteration_is_applied_in_pairs() {
        // Keys A, B, A: the third PBR matches the mark from two PBRs
        // back, so the two iterations since (3 + 5 cycles, 2 + 4 events)
        // repeat as one.
        let mut run = Run::default();
        run.iterate(10, 1, b'A', 0);
        run.iterate(3, 2, b'B', 0);
        assert!(run.machine.offers.is_empty(), "no key repeated yet");
        run.iterate(5, 4, b'A', 3);
        assert_eq!(run.machine.offers, [(8, 2, 6, 6)]);
        assert_eq!(run.machine.cycle, 18 + 3 * 8);
        assert_eq!(run.machine.pbrs, Pbrs(3 + 3 * 2));
        assert_eq!(run.machine.fetch.instructions_delivered, 7 + 3 * 6);
        let counts = run.marks.counts();
        assert_eq!((counts.iterations, counts.cycles), (6, 24));
    }

    #[test]
    fn period_one_wins_when_both_marks_match() {
        // Keys A, A, A: at the third PBR both marks match; the one from
        // the iteration before is offered.
        let mut run = Run::default();
        run.iterate(10, 1, b'A', 0);
        run.iterate(3, 2, b'A', 0);
        run.iterate(3, 2, b'A', 1);
        assert_eq!(run.machine.offers, [(3, 1, 2, 2), (3, 1, 2, 2)]);
        let counts = run.marks.counts();
        assert_eq!((counts.iterations, counts.cycles), (1, 3));
    }

    #[test]
    fn a_mark_taken_before_an_applied_repeat_is_never_matched() {
        // Keys A, B, A (a pair applied), B, A. Kept, the B mark from
        // before the pair would match at the fourth PBR and offer the two
        // iterations since it: 5 + 8 + 3 cycles, with the applied pair's
        // cycles wrongly inside. Dropped, the next pair is offered only
        // at the fifth PBR, from the mark taken after the applied one.
        let mut run = Run::default();
        run.iterate(10, 1, b'A', 0);
        run.iterate(3, 2, b'B', 0);
        run.iterate(5, 4, b'A', 1);
        run.iterate(3, 2, b'B', 1);
        assert_eq!(run.machine.offers, [(8, 2, 6, 6)], "a stale mark matched");
        run.iterate(5, 4, b'A', 1);
        assert_eq!(run.machine.offers, [(8, 2, 6, 6); 2]);
        assert_eq!(run.machine.cycle, 10 + 4 * 8);
        let counts = run.marks.counts();
        assert_eq!((counts.iterations, counts.cycles), (4, 16));

        // Keys B, A, A (one iteration applied), B: likewise the B mark
        // from before the applied iteration, older than its A mark.
        let mut run = Run::default();
        run.iterate(10, 1, b'B', 0);
        run.iterate(3, 2, b'A', 0);
        run.iterate(3, 2, b'A', 1);
        run.iterate(5, 4, b'B', 1);
        assert_eq!(run.machine.offers, [(3, 1, 2, 2)], "a stale mark matched");
    }

    #[test]
    fn trim_drops_older_marks_with_the_latest() {
        // The A mark sits at the start of the log, 300 events before the
        // B mark. Once the log is full, the trim drops the A mark (too
        // old) but keeps the B mark, and drains the log to it; the next
        // A then matches nothing.
        let mut run = Run::default();
        run.iterate(10, 0, b'A', 0);
        run.iterate(300, 300, b'B', 0);
        let full = 2 * MAX_ITERATION_EVENTS as u32;
        run.iterate(400, full - 300 + 1, b'A', 1);
        assert!(run.machine.offers.is_empty(), "a trimmed mark matched");
        let [latest, older] = &run.marks.marks[&AT];
        assert_eq!(
            latest.as_ref().map(|m| m.pos),
            Some(full as usize - 300 + 1)
        );
        assert_eq!(older.as_ref().map(|m| m.pos), Some(0), "the B mark");
    }
}
