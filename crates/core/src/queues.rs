//! The architectural queues: LAQ, SAQ, SDQ and the slot-based LDQ.

use std::collections::VecDeque;

/// One LAQ/SAQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// The queued byte address.
    pub value: u32,
    /// For LAQ entries: the LDQ slot the response will fill.
    pub tag: u64,
    /// Program-order sequence number of the issuing instruction, used to
    /// keep loads and stores in order at the memory interface.
    pub seq: u64,
}

/// A bounded FIFO of addresses, used for the LAQ (addresses waiting to be
/// sent to memory) and SAQ (store addresses).
#[derive(Debug, Clone)]
pub struct AddressQueue {
    entries: VecDeque<QueueEntry>,
    capacity: usize,
}

impl AddressQueue {
    /// Creates an empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> AddressQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        AddressQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` when no more entries fit.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics when full — the issue logic must check [`is_full`](Self::is_full).
    pub fn push(&mut self, value: u32, tag: u64, seq: u64) {
        assert!(!self.is_full(), "architectural queue overflow");
        self.entries.push_back(QueueEntry { value, tag, seq });
    }

    /// The head entry.
    pub fn front(&self) -> Option<QueueEntry> {
        self.entries.front().copied()
    }

    /// Removes and returns the head entry.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.entries.pop_front()
    }

    /// The entries, head first.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Moves every entry's tag `tags` and sequence number `seqs` later.
    pub fn shift(&mut self, tags: u64, seqs: u64) {
        for e in &mut self.entries {
            e.tag += tags;
            e.seq += seqs;
        }
    }
}

/// The Load Queue: data returning from memory, readable as `r7`.
///
/// Slots are allocated in program order at issue time (by loads and by
/// FPU-triggering stores) and filled as responses arrive, possibly out of
/// order with respect to FPU latencies; the head is readable only once its
/// slot has been filled, which keeps `r7` reads in program order.
///
/// The interpreter's slots hold the words (`LoadQueue<u32>`, the
/// default); the processor, which models timing only, fills its slots
/// with `()` and tracks only which have arrived.
#[derive(Debug, Clone)]
pub struct LoadQueue<T = u32> {
    slots: VecDeque<Option<T>>,
    /// Sequence number of the slot at the front of `slots`.
    base_seq: u64,
    capacity: usize,
}

impl<T: Copy> LoadQueue<T> {
    /// Creates an empty load queue with room for `capacity` slots,
    /// allocated as they fill.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LoadQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        LoadQueue {
            slots: VecDeque::new(),
            base_seq: 0,
            capacity,
        }
    }

    /// Occupied slots (filled or awaiting data).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns `true` when no more slots can be allocated.
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    /// Allocates the next slot, returning its sequence number, or `None`
    /// when full.
    pub fn alloc(&mut self) -> Option<u64> {
        if self.is_full() {
            return None;
        }
        let seq = self.base_seq + self.slots.len() as u64;
        self.slots.push_back(None);
        Some(seq)
    }

    /// Fills a previously allocated slot with its value.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not name an allocated, unfilled slot.
    pub fn fill(&mut self, seq: u64, value: T) {
        let idx = seq
            .checked_sub(self.base_seq)
            .expect("slot already retired") as usize;
        let slot = self.slots.get_mut(idx).expect("slot not allocated");
        assert!(slot.is_none(), "slot filled twice");
        *slot = Some(value);
    }

    /// Sequence number of the head slot (the next one to pop).
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Renumbers every slot `n` later, as if `n` more slots had been
    /// allocated and popped.
    pub fn shift_seq(&mut self, n: u64) {
        self.base_seq += n;
    }

    /// Whether each allocated slot has been filled, head first.
    pub fn filled(&self) -> impl Iterator<Item = bool> + '_ {
        self.slots.iter().map(Option::is_some)
    }

    /// The value at the head, if its data has arrived.
    pub fn front_ready(&self) -> Option<T> {
        self.slots.front().copied().flatten()
    }

    /// Pops the head value.
    ///
    /// # Panics
    ///
    /// Panics if the head is missing or unfilled — check
    /// [`front_ready`](Self::front_ready) first.
    pub fn pop(&mut self) -> T {
        let v = self
            .slots
            .pop_front()
            .expect("pop from empty load queue")
            .expect("pop of unfilled load queue slot");
        self.base_seq += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_queue_fifo() {
        let mut q = AddressQueue::new(2);
        assert!(q.is_empty());
        q.push(10, 1, 100);
        q.push(20, 2, 101);
        assert!(q.is_full());
        let head = q.front().unwrap();
        assert_eq!((head.value, head.tag, head.seq), (10, 1, 100));
        assert_eq!(q.pop().unwrap().value, 10);
        assert_eq!(q.pop().unwrap().seq, 101);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn address_queue_overflow_panics() {
        let mut q = AddressQueue::new(1);
        q.push(1, 1, 0);
        q.push(2, 2, 1);
    }

    #[test]
    fn load_queue_in_order_head() {
        let mut q = LoadQueue::new(4);
        let a = q.alloc().unwrap();
        let b = q.alloc().unwrap();
        // Fill out of order: head not ready until its own fill.
        q.fill(b, 200);
        assert_eq!(q.front_ready(), None);
        q.fill(a, 100);
        assert_eq!(q.front_ready(), Some(100));
        assert_eq!(q.pop(), 100);
        assert_eq!(q.pop(), 200);
    }

    #[test]
    fn load_queue_capacity() {
        let mut q = LoadQueue::new(2);
        assert!(q.alloc().is_some());
        assert!(q.alloc().is_some());
        assert!(q.alloc().is_none());
        q.fill(0, 1);
        q.pop();
        assert!(q.alloc().is_some(), "slot freed by pop");
    }

    #[test]
    fn load_queue_seq_numbers_advance() {
        let mut q = LoadQueue::new(2);
        let a = q.alloc().unwrap();
        q.fill(a, 5);
        assert_eq!(q.pop(), 5);
        let b = q.alloc().unwrap();
        assert_eq!(b, a + 1);
        q.fill(b, 6);
        assert_eq!(q.front_ready(), Some(6));
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let mut q = LoadQueue::new(2);
        let a = q.alloc().unwrap();
        q.fill(a, 1);
        q.fill(a, 2);
    }
}
