//! The architectural queues: the LAQ and SAQ, kept as one address queue
//! in program order, and the slot-based LDQ.
//!
//! Both hold only what is relative by construction: entries in order and
//! counts, never a sequence number. The processor's timing key is these
//! queues as they stand.

use std::collections::VecDeque;

use pipe_mem::{FpOp, Untimed};

/// What a store address does at the memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreRole {
    /// Writes data memory.
    Data,
    /// Latches the FPU's operand A.
    OperandLatch,
    /// Starts an FPU operation, whose result returns to the LDQ.
    Operation,
    /// An unmapped offset inside the FPU window: ignored.
    Unmapped,
}

impl StoreRole {
    /// The role of a store to `addr`.
    pub fn of(addr: u32) -> StoreRole {
        if !pipe_mem::is_fpu_address(addr) {
            return StoreRole::Data;
        }
        match addr - pipe_mem::FPU_BASE {
            0 => StoreRole::OperandLatch,
            off if FpOp::from_offset(off).is_some() => StoreRole::Operation,
            _ => StoreRole::Unmapped,
        }
    }
}

/// A load or store address waiting to drain to memory. A store's role is
/// all of its address that times a run (see [`Untimed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load, whose word fills the oldest LDQ slot waiting on a load.
    Load {
        /// Effective byte address.
        addr: Untimed<u32>,
    },
    /// A store, sent to memory with the oldest SDQ word.
    Store {
        /// Effective byte address.
        addr: Untimed<u32>,
        /// What the address does at the memory interface.
        role: StoreRole,
    },
}

impl Access {
    /// A load of `addr`.
    pub fn load(addr: u32) -> Access {
        Access::Load {
            addr: Untimed(addr),
        }
    }

    /// A store to `addr`.
    pub fn store(addr: u32) -> Access {
        Access::Store {
            addr: Untimed(addr),
            role: StoreRole::of(addr),
        }
    }

    /// The effective byte address.
    pub fn addr(&self) -> u32 {
        match *self {
            Access::Load { addr } | Access::Store { addr, .. } => addr.0,
        }
    }
}

/// The LAQ and SAQ as one queue of addresses in program order. Loads and
/// stores drain to memory strictly in this order, so a load can never
/// bypass an older store (the memory-consistency rule of the decoupled
/// interface). The counts of each kind are the two queues' occupancies,
/// each bounded by the same capacity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressQueue {
    entries: VecDeque<Access>,
    loads: usize,
    /// The capacity of the LAQ and of the SAQ.
    capacity: usize,
}

impl AddressQueue {
    /// Creates an empty queue with room for `entries` loads and `entries`
    /// stores.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> AddressQueue {
        assert!(entries > 0, "queue capacity must be positive");
        AddressQueue {
            entries: VecDeque::new(),
            loads: 0,
            capacity: entries,
        }
    }

    /// Loads queued: the LAQ's occupancy.
    pub fn loads(&self) -> usize {
        self.loads
    }

    /// Stores queued: the SAQ's occupancy.
    pub fn stores(&self) -> usize {
        self.entries.len() - self.loads
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` when no more loads fit.
    pub fn laq_full(&self) -> bool {
        self.loads == self.capacity
    }

    /// Returns `true` when no more stores fit.
    pub fn saq_full(&self) -> bool {
        self.stores() == self.capacity
    }

    /// Appends an access.
    ///
    /// # Panics
    ///
    /// Panics when its queue is full — the issue logic must check
    /// [`laq_full`](Self::laq_full) and [`saq_full`](Self::saq_full).
    pub fn push(&mut self, access: Access) {
        let full = match access {
            Access::Load { .. } => self.laq_full(),
            Access::Store { .. } => self.saq_full(),
        };
        assert!(!full, "architectural queue overflow");
        self.loads += usize::from(matches!(access, Access::Load { .. }));
        self.entries.push_back(access);
    }

    /// The oldest access.
    pub fn front(&self) -> Option<Access> {
        self.entries.front().copied()
    }

    /// Removes and returns the oldest access.
    pub fn pop(&mut self) -> Option<Access> {
        let access = self.entries.pop_front()?;
        self.loads -= usize::from(matches!(access, Access::Load { .. }));
        Some(access)
    }
}

/// What an LDQ slot waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotSource {
    /// A data load's word.
    Load,
    /// An FPU operation's result.
    Fpu,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot<T> {
    Waiting(SlotSource),
    Filled(T),
}

/// The Load Queue: data returning from memory, readable as `r7`.
///
/// Slots are allocated in program order at issue time (by loads and by
/// FPU-triggering stores) and filled as responses arrive. Loads and FPU
/// results each return in program order, so a response fills the oldest
/// slot waiting on its source, possibly ahead of an older slot waiting on
/// the other; the head is readable only once its slot has been filled,
/// which keeps `r7` reads in program order.
///
/// The interpreter's slots hold the words (`LoadQueue<u32>`, the
/// default); the processor, which models timing only, fills its slots
/// with `()` and tracks only which have arrived.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoadQueue<T = u32> {
    slots: VecDeque<Slot<T>>,
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

    /// Allocates the next slot, to be filled from `source`.
    ///
    /// # Panics
    ///
    /// Panics when full — check [`is_full`](Self::is_full) first.
    pub fn alloc(&mut self, source: SlotSource) {
        assert!(!self.is_full(), "load queue overflow");
        self.slots.push_back(Slot::Waiting(source));
    }

    /// Fills the oldest slot waiting on `source` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if no slot waits on `source`.
    pub fn fill(&mut self, source: SlotSource, value: T) {
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| matches!(slot, Slot::Waiting(s) if *s == source))
            .unwrap_or_else(|| panic!("no load queue slot waits on {source:?}"));
        *slot = Slot::Filled(value);
    }

    /// Slots waiting on `source`.
    pub fn waiting(&self, source: SlotSource) -> usize {
        let waits = |slot: &&Slot<T>| matches!(slot, Slot::Waiting(s) if *s == source);
        self.slots.iter().filter(waits).count()
    }

    /// The value at the head, if its data has arrived.
    pub fn front_ready(&self) -> Option<T> {
        match self.slots.front() {
            Some(&Slot::Filled(value)) => Some(value),
            _ => None,
        }
    }

    /// Pops the head value.
    ///
    /// # Panics
    ///
    /// Panics if the head is missing or unfilled — check
    /// [`front_ready`](Self::front_ready) first.
    pub fn pop(&mut self) -> T {
        let value = self
            .front_ready()
            .expect("pop of an empty or unfilled slot");
        self.slots.pop_front();
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_queue_fifo() {
        let mut q = AddressQueue::new(2);
        assert!(q.is_empty());
        q.push(Access::store(10));
        q.push(Access::load(20));
        assert!(!q.laq_full() && !q.saq_full());
        q.push(Access::store(pipe_mem::FPU_BASE + 4));
        q.push(Access::load(30));
        assert!(q.laq_full() && q.saq_full());
        assert_eq!((q.loads(), q.stores()), (2, 2));
        assert_eq!(q.front(), Some(Access::store(10)));
        assert_eq!(q.pop().map(|a| a.addr()), Some(10));
        assert!(!q.saq_full() && q.laq_full());
        assert_eq!(q.pop().map(|a| a.addr()), Some(20));
        assert!(!q.laq_full());
        assert!(matches!(
            q.pop(),
            Some(Access::Store {
                role: StoreRole::Operation,
                ..
            })
        ));
        assert_eq!(q.pop().map(|a| a.addr()), Some(30));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn address_queue_overflow_panics() {
        let mut q = AddressQueue::new(1);
        q.push(Access::store(1));
        q.push(Access::load(2));
        q.push(Access::load(3));
    }

    #[test]
    fn load_queue_in_order_head() {
        let mut q = LoadQueue::new(4);
        q.alloc(SlotSource::Load);
        q.alloc(SlotSource::Fpu);
        // Fill out of order: head not ready until its own fill.
        q.fill(SlotSource::Fpu, 200);
        assert_eq!(q.front_ready(), None);
        q.fill(SlotSource::Load, 100);
        assert_eq!(q.front_ready(), Some(100));
        assert_eq!(q.pop(), 100);
        assert_eq!(q.pop(), 200);
    }

    #[test]
    fn load_queue_capacity() {
        let mut q = LoadQueue::new(2);
        q.alloc(SlotSource::Load);
        q.alloc(SlotSource::Load);
        assert!(q.is_full());
        q.fill(SlotSource::Load, 1);
        q.pop();
        assert!(!q.is_full(), "slot freed by pop");
    }

    #[test]
    fn a_response_fills_the_oldest_slot_waiting_on_its_source() {
        let mut q = LoadQueue::new(4);
        q.alloc(SlotSource::Fpu);
        q.alloc(SlotSource::Load);
        q.alloc(SlotSource::Load);
        assert_eq!(q.waiting(SlotSource::Load), 2);
        q.fill(SlotSource::Load, 5);
        q.fill(SlotSource::Load, 6);
        assert_eq!(q.waiting(SlotSource::Load), 0);
        q.fill(SlotSource::Fpu, 4);
        assert_eq!([q.pop(), q.pop(), q.pop()], [4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "no load queue slot waits on Load")]
    fn double_fill_panics() {
        let mut q = LoadQueue::new(2);
        q.alloc(SlotSource::Load);
        q.fill(SlotSource::Load, 1);
        q.fill(SlotSource::Load, 2);
    }
}
