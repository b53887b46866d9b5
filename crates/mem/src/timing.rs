//! Timing keys: a component's timing state, written out whole.
//!
//! Every component of the simulation keeps the fields that decide its
//! future timing in one struct with derived `Eq` and `Hash`: counts,
//! countdowns, addresses, flags and ordered sets bounded by the
//! configuration, never an absolute cycle or a counter that grows with
//! the run. Statistics and immutable configuration stay outside it. Two
//! states that hash the same bytes into a [`TimingKey`] therefore behave
//! the same from then on, which is what the loop-iteration skip of the
//! processor and of trace replay compares.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// A [`Hasher`] that keeps every byte written to it: the key is compared
/// whole, never digested, so equal keys mean equal states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingKey(Vec<u8>);

impl TimingKey {
    /// Empties the key, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Writes `state` into the key.
    pub fn add(&mut self, state: &impl Hash) {
        state.hash(self);
    }
}

impl Hasher for TimingKey {
    // Inlined so that the derived `Hash` of another crate's state writes
    // its fields without a call each.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a timing key is compared whole, not digested")
    }
}

/// A field that does not enter a timing key: every two values compare
/// equal and hash to nothing.
///
/// It holds the data addresses of loads and stores waiting for memory.
/// Only a finite external cache reads them to time a run, and a memory
/// system that models one cannot describe its state, which turns the
/// loop-iteration skip off. So after a skipped iteration a queued entry
/// may keep the address it held one iteration earlier: nothing that
/// times the run reads it. A memo of a function of timed fields is
/// untimed too, and so is a read-only handle that is the same in every
/// state of a run, such as a fetch queue's view of the program image.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untimed<T>(pub T);

impl<T> PartialEq for Untimed<T> {
    fn eq(&self, _: &Untimed<T>) -> bool {
        true
    }
}

impl<T> Eq for Untimed<T> {}

impl<T> Hash for Untimed<T> {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// Work started in order, each item ready a number of cycles after it
/// starts and leaving only from the front: the reads memory has accepted,
/// the FPU's operations. Every time is kept relative to its neighbours,
/// so a cycle moves two counters however many items wait.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Pipeline<T> {
    /// Items oldest first, each with the cycles from the previous item's
    /// start to its own (0 for the oldest), and from its start to ready.
    items: VecDeque<(T, u32, u32)>,
    /// Cycles since the oldest item started; 0 while empty.
    front_age: u32,
    /// Cycles since the newest item started; 0 while empty.
    back_age: u32,
}

impl<T> Default for Pipeline<T> {
    fn default() -> Pipeline<T> {
        Pipeline {
            items: VecDeque::new(),
            front_age: 0,
            back_age: 0,
        }
    }
}

impl<T> Pipeline<T> {
    /// Starts `item` this cycle, ready `latency` [`tick`](Self::tick)s
    /// later.
    pub(crate) fn push(&mut self, item: T, latency: u32) {
        let gap = if self.items.is_empty() {
            0
        } else {
            self.back_age
        };
        self.items.push_back((item, gap, latency));
        self.back_age = 0;
    }

    /// The oldest item, once it is ready.
    pub(crate) fn front_ready(&self) -> Option<&T> {
        let (item, _, latency) = self.items.front()?;
        (self.front_age >= *latency).then_some(item)
    }

    /// Removes the oldest item; the next one becomes the front.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let (item, ..) = self.items.pop_front()?;
        match self.items.front_mut() {
            Some((_, gap, _)) => self.front_age -= std::mem::take(gap),
            None => (self.front_age, self.back_age) = (0, 0),
        }
        Some(item)
    }

    /// Items started and not yet removed.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no item waits.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Moves one cycle on.
    #[inline]
    pub(crate) fn tick(&mut self) {
        if !self.items.is_empty() {
            self.front_age += 1;
            self.back_age += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(state: &impl Hash) -> TimingKey {
        let mut key = TimingKey::default();
        key.add(state);
        key
    }

    #[test]
    fn keys_are_the_bytes_written() {
        assert_eq!(key(&(1u32, true)), key(&(1u32, true)));
        assert_ne!(key(&(1u32, true)), key(&(2u32, true)));
        // Length prefixes keep sequences apart.
        assert_ne!(
            key(&(vec![1u8], vec![2u8])),
            key(&(vec![1u8, 2], Vec::<u8>::new()))
        );
    }

    #[test]
    fn a_pipeline_keeps_each_items_latency_from_its_start() {
        let mut p = Pipeline::default();
        p.push('a', 3);
        p.tick();
        p.push('b', 1); // ready with 'a', two cycles from now
        p.tick();
        assert_eq!(p.front_ready(), None);
        p.tick();
        assert_eq!(p.front_ready(), Some(&'a'));
        p.tick(); // 'a' waits a cycle; time passes for 'b' too
        assert_eq!(p.pop(), Some('a'));
        assert_eq!(p.front_ready(), Some(&'b'));
        // The same state reached without the wait keys the same.
        let mut q = Pipeline::default();
        q.push('b', 1);
        q.tick();
        q.tick();
        q.tick();
        assert_eq!(key(&p), key(&q));
        assert_eq!(p.pop(), Some('b'));
        assert_eq!((p.len(), p.pop()), (0, None));
        assert_eq!(key(&p), key(&Pipeline::<char>::default()), "no stale age");
    }

    #[test]
    fn untimed_fields_do_not_enter_the_key() {
        assert_eq!(key(&(7u32, Untimed(1u32))), key(&(7u32, Untimed(2u32))));
        assert_eq!((7u32, Untimed(1u32)), (7u32, Untimed(2u32)));
    }
}
