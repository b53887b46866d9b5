//! Execute once, time many: a program's course, recorded once and read by
//! every run that times it.
//!
//! A program's values do not depend on its timing, so neither does its
//! course: the instructions it executes, in order, and the choices they
//! make. A [`Course`] records that course from the
//! [`Interpreter`], keeping only what timing reads from each [`Step`]
//! ([`Step::timed`]): the instruction address, a prepare-to-branch's
//! outcome and target, the kind of data-side operation, and a data
//! address only inside the FPU window, where it decides what a store
//! does. Any other data address times nothing unless an external cache
//! is modelled, and a store's value never does.
//!
//! The course is kept as *blocks*: the steps after one prepare-to-branch
//! up to and including the next, which is one loop iteration in a
//! program like the Livermore loops. A block equal to the one before it
//! is not stored again but counted, so consecutive repeats of a block are
//! one *run*. The 150,575 steps of the Livermore benchmark are 4,578
//! blocks that end in a prepare-to-branch, in 42 runs of 2,203 steps, and
//! a 5-step tail to `halt`: about 45 KB against 3.0 MB for the steps one
//! by one.
//!
//! Runs also save time. Once the processor's loop skip has applied a
//! repeat that was exactly one block of a run, every remaining repeat of
//! the run is that block and makes the same choices, so the cursor moves
//! past all of them in one step (`Cursor::skip_run`) instead of checking
//! each: a figure point reads 42 runs, not 150,575 steps.
//!
//! [`Course::record`] interprets a program to its end, so it is for
//! programs that halt or fail; a sweep records one and every point reads
//! it through an `Arc`. A single run, and a run that observes true data
//! addresses and store values, reads a [`Cursor`] over an interpreter of
//! its own instead, which executes only a few steps ahead of issue: a
//! deadlocked program that would loop forever in the interpreter is never
//! interpreted further than the processor gets.
//!
//! ```
//! use std::sync::Arc;
//! use pipe_core::{Course, Cursor};
//! use pipe_isa::{Assembler, DecodedProgram, InstrFormat};
//!
//! let program = Assembler::new(InstrFormat::Fixed32)
//!     .assemble("lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
//!     .unwrap();
//! let course = Course::record(&Arc::new(DecodedProgram::new(program)));
//! let addrs: Vec<u32> = Cursor::new(course).map(|step| step.addr).collect();
//! assert_eq!(addrs, [0, 4, 8, 12, 8, 12, 8, 12, 16]);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use pipe_isa::DecodedProgram;
use pipe_mem::is_fpu_address;

use crate::interp::{InterpError, Interpreter, Step};
use crate::trace::DataOp;

/// Steps a cursor over an interpreter executes at a time when it needs
/// one: stepping in batches costs less than a call per instruction, and
/// steps executed early wait in the cursor.
const LOOK_AHEAD: usize = 32;

impl Step {
    /// The step as a course keeps it: a data address only inside the FPU
    /// window, every other one and every store value 0.
    pub fn timed(self) -> Step {
        let address = |addr| if is_fpu_address(addr) { addr } else { 0 };
        let data = self.data.map(|op| match op {
            DataOp::Load { addr } => DataOp::Load {
                addr: address(addr),
            },
            DataOp::StoreAddr { addr } => DataOp::StoreAddr {
                addr: address(addr),
            },
            DataOp::StoreData { .. } => DataOp::StoreData { value: 0 },
        });
        Step { data, ..self }
    }
}

/// How a course ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum End {
    /// The program halted after its last step.
    Halted,
    /// The interpreter stopped with this error after the last step.
    Failed(InterpError),
}

/// Consecutive repeats of one block.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The block's range in the course's steps.
    start: usize,
    end: usize,
    repeats: u64,
}

/// A program's course (see the [module docs](self)).
#[derive(Debug)]
pub struct Course {
    decoded: Arc<DecodedProgram>,
    /// The block of each run, one after another.
    steps: Vec<Step>,
    runs: Vec<Run>,
    end: End,
}

impl Course {
    /// Interprets `decoded` until it halts or fails, and returns the
    /// course to share between runs. A program that loops forever never
    /// returns.
    pub fn record(decoded: &Arc<DecodedProgram>) -> Arc<Course> {
        let mut interp = Interpreter::new(decoded);
        let mut steps = Vec::new();
        let mut runs: Vec<Run> = Vec::new();
        let end = loop {
            let start = steps.len();
            let end = loop {
                match interp.step() {
                    Ok(Some(step)) => {
                        steps.push(step.timed());
                        if step.branch.is_some() {
                            break None;
                        }
                    }
                    Ok(None) => break Some(End::Halted),
                    Err(e) => break Some(End::Failed(e)),
                }
            };
            // A block equal to the one before repeats its run.
            match runs.last_mut() {
                Some(run) if steps[run.start..run.end] == steps[start..] => {
                    run.repeats += 1;
                    steps.truncate(start);
                }
                _ if steps.len() == start => {}
                _ => runs.push(Run {
                    start,
                    end: steps.len(),
                    repeats: 1,
                }),
            }
            if let Some(end) = end {
                break end;
            }
        };
        // A shared course lives as long as the sweep that reads it.
        steps.shrink_to_fit();
        runs.shrink_to_fit();
        Arc::new(Course {
            decoded: Arc::clone(decoded),
            steps,
            runs,
            end,
        })
    }

    /// The predecoded program.
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }
}

/// A place in a course: the run, the repeat within it, and the step
/// within that repeat's block as an index into the course's steps.
#[derive(Debug, Clone, Copy, Default)]
struct Place {
    run: usize,
    repeat: u64,
    at: usize,
    block_end: usize,
}

impl Place {
    /// Moves to the first step of the current or a later repeat; past the
    /// last, `at == block_end`.
    fn settle(&mut self, course: &Course) {
        while let Some(run) = course.runs.get(self.run) {
            if self.repeat < run.repeats {
                (self.at, self.block_end) = (run.start, run.end);
                return;
            }
            self.run += 1;
            self.repeat = 0;
        }
    }

    /// The step here, if the course holds one.
    #[inline]
    fn step<'c>(&self, course: &'c Course) -> Option<&'c Step> {
        (self.at < self.block_end).then(|| &course.steps[self.at])
    }

    /// Moves past the step here, which the course holds.
    #[inline]
    fn advance(&mut self, course: &Course) {
        self.at += 1;
        if self.at == self.block_end {
            self.repeat += 1;
            self.settle(course);
        }
    }
}

/// Where a cursor reads.
#[derive(Debug)]
enum Source {
    /// A recorded course.
    Course { course: Arc<Course>, place: Place },
    /// An interpreter of the cursor's own, the steps it executed that the
    /// cursor has not moved past yet, and how it ended if it did.
    Interpreter {
        interp: Box<Interpreter>,
        ahead: VecDeque<Step>,
        end: Option<End>,
    },
}

/// A reader of a program's course, one step per issued instruction: of a
/// shared [`Course`], or of an interpreter of its own, whose steps keep
/// their true data addresses and store values.
#[derive(Debug)]
pub struct Cursor {
    source: Source,
}

impl Cursor {
    /// A cursor at the start of `course`.
    pub fn new(course: Arc<Course>) -> Cursor {
        let mut place = Place::default();
        place.settle(&course);
        Cursor {
            source: Source::Course { course, place },
        }
    }

    /// A cursor at the start of `decoded`'s course that interprets it as
    /// it reads.
    pub(crate) fn interpreting(decoded: &Arc<DecodedProgram>) -> Cursor {
        Cursor {
            source: Source::Interpreter {
                interp: Box::new(Interpreter::new(decoded)),
                ahead: VecDeque::new(),
                end: None,
            },
        }
    }

    /// A cursor whose steps keep their true data addresses and store
    /// values, at the place of this one, which has read `taken` steps:
    /// this one if it interprets, otherwise a new one that interprets past
    /// them.
    pub(crate) fn observing_values(self, taken: u64) -> Cursor {
        match self.source {
            Source::Course { course, .. } => {
                let mut cursor = Cursor::interpreting(course.decoded());
                for _ in 0..taken {
                    cursor.next();
                }
                cursor
            }
            source => Cursor { source },
        }
    }

    /// How the course ends, once the cursor knows.
    pub(crate) fn end(&self) -> Option<&End> {
        match &self.source {
            Source::Course { course, .. } => Some(&course.end),
            Source::Interpreter { end, .. } => end.as_ref(),
        }
    }

    /// The next step, or `None` at the end of the course.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Step> {
        match &mut self.source {
            Source::Course { course, place } => place.step(course).copied(),
            Source::Interpreter { interp, ahead, end } => {
                if ahead.is_empty() {
                    look_ahead(interp, ahead, end, LOOK_AHEAD);
                }
                ahead.front().copied()
            }
        }
    }

    /// Moves past the step [`peek`](Self::peek) returned.
    #[inline]
    pub(crate) fn advance(&mut self) {
        match &mut self.source {
            Source::Course { course, place } => {
                debug_assert!(place.at < place.block_end, "advance past the end");
                place.advance(course);
            }
            Source::Interpreter { ahead, .. } => {
                ahead.pop_front().expect("advance past a step read");
            }
        }
    }

    /// Moves past the next `expected.len()` steps if each `matches` its
    /// element of `expected`, and returns whether it did; otherwise, or if
    /// the course ends first, it stays where it is. It calls `matches` in
    /// order and not after the first step that does not match.
    pub(crate) fn advance_if<T>(
        &mut self,
        expected: &[T],
        mut matches: impl FnMut(&Step, &T) -> bool,
    ) -> bool {
        match &mut self.source {
            Source::Course { course, place } => {
                let mut next = *place;
                for item in expected {
                    match next.step(course) {
                        Some(step) if matches(step, item) => next.advance(course),
                        _ => return false,
                    }
                }
                *place = next;
                true
            }
            Source::Interpreter { interp, ahead, end } => {
                look_ahead(interp, ahead, end, expected.len());
                let matched = ahead.len() >= expected.len()
                    && ahead
                        .iter()
                        .zip(expected)
                        .all(|(step, item)| matches(step, item));
                if matched {
                    ahead.drain(..expected.len());
                }
                matched
            }
        }
    }

    /// Called right after the cursor moved past `len` steps that matched:
    /// if those steps were exactly one block of a run, that is, the cursor
    /// reads a shared course, stands at the start of a later repeat of
    /// the run, and the run's block is `len` steps long, moves past the
    /// run's remaining repeats, at most `most` of them, in one step.
    /// Returns how many it moved past. Each of them is the block just
    /// matched, so each would match again. A cursor that interprets
    /// never jumps.
    pub(crate) fn skip_run(&mut self, len: usize, most: u64) -> u64 {
        let Source::Course { course, place } = &mut self.source else {
            return 0;
        };
        match course.runs.get(place.run) {
            Some(run)
                if place.repeat > 0 && place.at == run.start && run.end - run.start == len =>
            {
                let k = (run.repeats - place.repeat).min(most);
                place.repeat += k;
                place.settle(course);
                k
            }
            _ => 0,
        }
    }
}

/// Steps `interp` until `ahead` holds `n` steps or the program ends, and
/// notes how it ends. An interpreter that failed changed nothing, so
/// stepping it again fails the same way. Out of line, as it runs once
/// per batch: the interpreter inlined here stays out of issue.
#[inline(never)]
fn look_ahead(
    interp: &mut Interpreter,
    ahead: &mut VecDeque<Step>,
    end: &mut Option<End>,
    n: usize,
) {
    while ahead.len() < n {
        match interp.step() {
            Ok(Some(step)) => ahead.push_back(step),
            Ok(None) => {
                *end = Some(End::Halted);
                return;
            }
            Err(e) => {
                *end = Some(End::Failed(e));
                return;
            }
        }
    }
}

impl Iterator for Cursor {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let step = self.peek()?;
        self.advance();
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};

    fn decoded(src: &str) -> Arc<DecodedProgram> {
        let program = Assembler::new(InstrFormat::Fixed32)
            .assemble(src)
            .unwrap_or_else(|e| panic!("assembly failed: {e}"));
        Arc::new(DecodedProgram::new(program))
    }

    fn interpreted(decoded: &Arc<DecodedProgram>) -> Vec<Step> {
        let mut interp = Interpreter::new(decoded);
        std::iter::from_fn(|| interp.step().expect("interprets"))
            .map(Step::timed)
            .collect()
    }

    /// Starts an FPU operation per trip, each at the next offset (multiply,
    /// add, subtract, divide): the middle two trips differ only in the
    /// store's address.
    const FPU_LOOP: &str = r#"
        lim  r5, -4096
        lim  r1, 4
        sta  r5, 0
        or   r7, r1, r1
        addi r5, r5, 4
        lbr  b0, top
        top: sta r5, 0
        or   r7, r1, r1
        or   r2, r7, r7
        addi r5, r5, 4
        subi r1, r1, 1
        pbr.nez b0, r1, 0
        halt
    "#;

    /// Fifty trips that store to successive words of data memory.
    const STORE_LOOP: &str = "lim r1, 0x100\nlim r2, 50\nlbr b0, top\ntop: sta r1, 0\n\
        or r7, r2, r2\naddi r1, r1, 4\nsubi r2, r2, 1\npbr.nez b0, r2, 0\nhalt\n";

    /// Steps recorded in `course`.
    fn len(course: &Course) -> usize {
        course
            .runs
            .iter()
            .map(|run| (run.end - run.start) * run.repeats as usize)
            .sum()
    }

    #[test]
    fn blocks_differing_in_an_fpu_address_stay_apart() {
        let decoded = decoded(FPU_LOOP);
        let course = Course::record(&decoded);
        // The prologue with the first trip, three trips, the halt.
        assert_eq!(course.runs.len(), 5, "{course:?}");
        let steps: Vec<Step> = Cursor::new(Arc::clone(&course)).collect();
        assert_eq!(steps, interpreted(&decoded));
        let stores: Vec<DataOp> = steps
            .iter()
            .filter_map(|s| s.data)
            .filter(|op| matches!(op, DataOp::StoreAddr { .. }))
            .collect();
        let addrs = [0, 4, 8, 12, 16].map(|off| DataOp::StoreAddr {
            addr: 0xFFFF_F000 + off,
        });
        assert_eq!(stores, addrs);
    }

    #[test]
    fn equal_blocks_are_stored_once_in_one_run() {
        let decoded = decoded(STORE_LOOP);
        let course = Course::record(&decoded);
        assert_eq!(course.end, End::Halted);
        assert_eq!(len(&course), 3 + 50 * 5 + 1);
        // Store addresses outside the FPU window and store values are
        // erased, so the 48 trips between the first and the last are one
        // block.
        assert_eq!(course.runs.len(), 4);
        assert_eq!(course.runs[1].repeats, 48);
        assert_eq!(course.steps.len(), len(&course) - 47 * 5);
        assert_eq!(
            Cursor::new(course).collect::<Vec<_>>(),
            interpreted(&decoded)
        );
    }

    #[test]
    fn an_interpreting_cursor_steps_a_little_ahead_of_what_it_reads() {
        // Stores whose data never comes: the interpreter would run forever.
        let decoded = decoded("lim r1, 0x100\nlbr b0, top\ntop: sta r1, 0\npbr b0, r0, 0\nhalt\n");
        let mut cursor = Cursor::interpreting(&decoded);
        for _ in 0..10 {
            cursor.next().expect("loops forever");
        }
        let Source::Interpreter { ahead, end, .. } = &cursor.source else {
            panic!("a cursor that interprets");
        };
        assert_eq!(ahead.len(), LOOK_AHEAD - 10);
        assert_eq!(*end, None);
        // With its true values, where a course erases them.
        let store: Vec<Step> = Cursor::interpreting(&decoded).take(3).collect();
        assert_eq!(store[2].data, Some(DataOp::StoreAddr { addr: 0x100 }));
    }

    #[test]
    fn advance_if_moves_only_on_a_match() {
        let decoded = decoded(FPU_LOOP);
        let addrs: Vec<u32> = interpreted(&decoded).iter().map(|s| s.addr).collect();
        for mut cursor in [
            Cursor::new(Course::record(&decoded)),
            Cursor::interpreting(&decoded),
        ] {
            assert!(!cursor.advance_if(&[addrs[0], addrs[0]], |s, &a| s.addr == a));
            assert!(cursor.advance_if(&addrs[..3], |s, &a| s.addr == a));
            assert_eq!(cursor.peek().map(|s| s.addr), Some(addrs[3]));
            let rest = &addrs[3..];
            let mut past_the_end = rest.to_vec();
            past_the_end.push(rest[0]);
            assert!(!cursor.advance_if(&past_the_end, |s, &a| s.addr == a));
            assert!(cursor.advance_if(rest, |s, &a| s.addr == a));
            assert_eq!(cursor.next(), None);
            assert_eq!(cursor.end(), Some(&End::Halted));
        }
    }

    #[test]
    fn skip_run_jumps_only_past_repeats_of_the_block_just_read() {
        let decoded = decoded(STORE_LOOP);
        let steps = interpreted(&decoded);
        // The prologue with the first trip (8 steps), 48 equal trips of 5
        // steps, the last trip, the halt.
        let course = Course::record(&decoded);
        let trip = course.runs[1].end - course.runs[1].start;
        assert_eq!((trip, course.runs[1].repeats), (5, 48));
        let rest = |cursor: Cursor| cursor.map(Step::timed).collect::<Vec<_>>();
        let at = |read: usize| {
            let mut cursor = Cursor::new(Arc::clone(&course));
            assert_eq!(cursor.by_ref().take(read).count(), read);
            cursor
        };
        // At the run's first repeat: the steps read were another block.
        let mut cursor = at(8);
        assert_eq!(cursor.skip_run(trip, u64::MAX), 0);
        assert_eq!(rest(cursor), steps[8..]);
        // Inside a repeat, or after steps that were not one block.
        for (read, len) in [(8 + 5 + 2, trip), (8 + 5, trip - 1), (8 + 10, 2 * trip)] {
            let mut cursor = at(read);
            assert_eq!(cursor.skip_run(len, u64::MAX), 0, "{read} {len}");
            assert_eq!(rest(cursor), steps[read..], "{read} {len}");
        }
        // At the second repeat: past the other 47, or at most `most`.
        for (most, jumped) in [(u64::MAX, 47), (47, 47), (3, 3), (0, 0)] {
            let mut cursor = at(8 + 5);
            assert_eq!(cursor.skip_run(trip, most), jumped, "{most}");
            assert_eq!(
                rest(cursor),
                steps[8 + 5 * (1 + jumped as usize)..],
                "{most}"
            );
        }
        // A cursor that interprets, and one at the end, never jump.
        let mut cursor = Cursor::interpreting(&decoded);
        assert_eq!(cursor.by_ref().take(8 + 5).count(), 8 + 5);
        assert_eq!(cursor.skip_run(trip, u64::MAX), 0);
        assert_eq!(rest(cursor), steps[8 + 5..]);
        let mut cursor = at(steps.len());
        assert_eq!(cursor.skip_run(trip, u64::MAX), 0);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn a_failing_program_ends_with_its_error() {
        let decoded = decoded("nop\nnop\n");
        let course = Course::record(&decoded);
        assert_eq!(len(&course), 2);
        for mut cursor in [Cursor::new(course), Cursor::interpreting(&decoded)] {
            assert_eq!(cursor.by_ref().count(), 2);
            assert!(matches!(
                cursor.end(),
                Some(End::Failed(InterpError::PcOutOfRange { .. }))
            ));
        }
    }
}
