//! The parcel queues (IQ / IQB) of the PIPE fetch unit.

use std::collections::VecDeque;

use pipe_isa::encode::{parcel_has_ext, parcel_is_branch};
use pipe_isa::{Image, PARCEL_BYTES};

/// A bounded FIFO of instruction parcels with address tracking.
///
/// Parcels in the queue are always contiguous in memory: the queue knows
/// the byte address of its head, and every push appends the next sequential
/// parcel. Redirects flush the queue and restart it at the new address.
#[derive(Debug, Clone)]
pub struct ParcelQueue {
    capacity_parcels: usize,
    head_addr: u32,
    parcels: VecDeque<u16>,
}

impl ParcelQueue {
    /// Creates an empty queue holding up to `capacity_bytes` of parcels.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero or odd.
    pub fn new(capacity_bytes: u32) -> ParcelQueue {
        assert!(
            capacity_bytes >= PARCEL_BYTES && capacity_bytes.is_multiple_of(PARCEL_BYTES),
            "queue capacity must be a positive multiple of {PARCEL_BYTES} bytes"
        );
        ParcelQueue {
            capacity_parcels: (capacity_bytes / PARCEL_BYTES) as usize,
            head_addr: 0,
            parcels: VecDeque::with_capacity((capacity_bytes / PARCEL_BYTES) as usize),
        }
    }

    /// Capacity in parcels.
    pub fn capacity(&self) -> usize {
        self.capacity_parcels
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.capacity_parcels as u32 * PARCEL_BYTES
    }

    /// Parcels currently queued.
    pub fn len(&self) -> usize {
        self.parcels.len()
    }

    /// Returns `true` when no parcels are queued.
    pub fn is_empty(&self) -> bool {
        self.parcels.is_empty()
    }

    /// Free parcel slots.
    pub fn room(&self) -> usize {
        self.capacity_parcels - self.parcels.len()
    }

    /// Byte address of the parcel at the head (meaningful only when
    /// non-empty or just restarted).
    pub fn front_addr(&self) -> u32 {
        self.head_addr
    }

    /// Byte address one past the last queued parcel.
    pub fn end_addr(&self) -> u32 {
        self.head_addr + self.parcels.len() as u32 * PARCEL_BYTES
    }

    /// Empties the queue and restarts it at `addr`.
    pub fn restart(&mut self, addr: u32) {
        self.parcels.clear();
        self.head_addr = addr;
    }

    /// Appends the parcel at `addr`, which must be the current
    /// [`end_addr`](Self::end_addr) (or anything if empty — the queue
    /// restarts there).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `addr` breaks contiguity.
    pub fn push(&mut self, addr: u32, parcel: u16) {
        assert!(self.room() > 0, "parcel queue overflow");
        if self.parcels.is_empty() {
            self.head_addr = addr;
        } else {
            assert_eq!(addr, self.end_addr(), "non-contiguous parcel push");
        }
        self.parcels.push_back(parcel);
    }

    /// Pops the head parcel, advancing the head address.
    pub fn pop(&mut self) -> Option<u16> {
        let p = self.parcels.pop_front();
        if p.is_some() {
            self.head_addr += PARCEL_BYTES;
        }
        p
    }

    /// Peeks the parcel `i` entries from the head.
    pub fn peek(&self, i: usize) -> Option<u16> {
        self.parcels.get(i).copied()
    }

    /// Returns the head instruction's parcels if a *complete* instruction
    /// is available: `(first, second)` where `second` is present exactly
    /// when the first parcel's ext bit is set.
    pub fn peek_instruction(&self) -> Option<(u16, Option<u16>)> {
        let first = self.peek(0)?;
        if parcel_has_ext(first) {
            Some((first, Some(self.peek(1)?)))
        } else {
            Some((first, None))
        }
    }

    /// Pops the head instruction whole, as
    /// [`peek_instruction`](Self::peek_instruction) returns it, or `None`
    /// if it is not complete.
    pub fn pop_instruction(&mut self) -> Option<(u16, Option<u16>)> {
        let instr = self.peek_instruction()?;
        self.pop();
        if instr.1.is_some() {
            self.pop();
        }
        Some(instr)
    }

    /// Image parcel index of the head instruction when it is complete, for
    /// a queue that holds copies of `image` at their addresses.
    pub fn head_index(&self, image: &Image) -> Option<usize> {
        self.peek_instruction()?;
        Some(image.index_of(self.head_addr))
    }

    /// Appends the image parcels at `[from, to)`, stopping when the queue
    /// is full or the image ends. Returns the address after the last
    /// parcel appended.
    pub fn fill_from(&mut self, image: &Image, from: u32, to: u32) -> u32 {
        let mut a = from;
        while a < to && self.room() > 0 {
            let Some(p) = image.parcel_at(a) else { break };
            self.push(a, p);
            a += PARCEL_BYTES;
        }
        a
    }

    /// Returns `true` if the queue holds no complete instruction (empty, or
    /// a lone first parcel whose immediate hasn't arrived).
    pub fn needs_refill(&self) -> bool {
        self.peek_instruction().is_none()
    }

    /// Scans the queued parcels for a prepare-to-branch first parcel.
    ///
    /// This is the single-bit scan the PIPE control logic performs to decide
    /// whether the next sequential line is guaranteed to be executed. The
    /// scan walks instruction boundaries so immediate parcels are not
    /// misread as opcodes.
    pub fn contains_branch(&self) -> bool {
        let mut i = 0;
        while let Some(p) = self.peek(i) {
            if parcel_is_branch(p) {
                return true;
            }
            i += if parcel_has_ext(p) { 2 } else { 1 };
        }
        false
    }

    /// Moves up to `max` parcels from `src` into `self`, preserving
    /// contiguity. Returns the number moved.
    pub fn take_from(&mut self, src: &mut ParcelQueue, max: usize) -> usize {
        let n = max.min(self.room()).min(src.len());
        for _ in 0..n {
            let addr = src.front_addr();
            let p = src.pop().expect("length checked");
            self.push(addr, p);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{encode, AluOp, Cond, InstrFormat, Instruction};
    use pipe_isa::{BranchReg, Reg};

    fn push_instr(q: &mut ParcelQueue, addr: u32, i: &Instruction, f: InstrFormat) -> u32 {
        let e = encode(i, f);
        let mut a = addr;
        for &p in e.parcels() {
            q.push(a, p);
            a += PARCEL_BYTES;
        }
        a
    }

    #[test]
    fn push_pop_tracks_addresses() {
        let mut q = ParcelQueue::new(8);
        q.push(0x100, 1);
        q.push(0x102, 2);
        assert_eq!(q.front_addr(), 0x100);
        assert_eq!(q.end_addr(), 0x104);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.front_addr(), 0x102);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_push_panics() {
        let mut q = ParcelQueue::new(8);
        q.push(0x100, 1);
        q.push(0x106, 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = ParcelQueue::new(4);
        q.push(0, 0);
        q.push(2, 0);
        q.push(4, 0);
    }

    #[test]
    fn restart_resets() {
        let mut q = ParcelQueue::new(8);
        q.push(0x100, 1);
        q.restart(0x200);
        assert!(q.is_empty());
        assert_eq!(q.front_addr(), 0x200);
        q.push(0x200, 9);
        assert_eq!(q.peek(0), Some(9));
    }

    #[test]
    fn peek_instruction_requires_complete() {
        let mut q = ParcelQueue::new(8);
        let lim = Instruction::Lim {
            rd: Reg::new(1),
            imm: 7,
        };
        let e = encode(&lim, InstrFormat::Fixed32);
        q.push(0, e.parcels()[0]);
        assert_eq!(q.peek_instruction(), None, "immediate missing");
        assert!(q.needs_refill());
        q.push(2, e.parcels()[1]);
        let (p0, p1) = q.peek_instruction().unwrap();
        assert_eq!(p0, e.parcels()[0]);
        assert_eq!(p1, Some(e.parcels()[1]));
        assert!(!q.needs_refill());
    }

    #[test]
    fn branch_scan_finds_pbr() {
        let mut q = ParcelQueue::new(16);
        let mut a = 0;
        a = push_instr(&mut q, a, &Instruction::Nop, InstrFormat::Mixed);
        a = push_instr(
            &mut q,
            a,
            &Instruction::Lim {
                rd: Reg::new(1),
                imm: -1, // immediate 0xFFFF has bit 15 set but must not fool the scan
            },
            InstrFormat::Mixed,
        );
        assert!(!q.contains_branch());
        push_instr(
            &mut q,
            a,
            &Instruction::Pbr {
                cond: Cond::Nez,
                br: BranchReg::new(0),
                rs: Reg::new(1),
                delay: 3,
            },
            InstrFormat::Mixed,
        );
        assert!(q.contains_branch());
    }

    #[test]
    fn branch_scan_skips_immediates() {
        // An ALU immediate whose value looks like a branch parcel.
        let mut q = ParcelQueue::new(8);
        push_instr(
            &mut q,
            0,
            &Instruction::AluImm {
                op: AluOp::Add,
                rd: Reg::new(0),
                rs1: Reg::new(0),
                imm: i16::MIN, // 0x8000
            },
            InstrFormat::Fixed32,
        );
        assert!(!q.contains_branch());
    }

    #[test]
    fn take_from_moves_contiguously() {
        let mut src = ParcelQueue::new(8);
        let mut dst = ParcelQueue::new(4);
        for (i, addr) in (0x10u32..0x18).step_by(2).enumerate() {
            src.push(addr, i as u16);
        }
        let moved = dst.take_from(&mut src, 10);
        assert_eq!(moved, 2, "limited by destination room");
        assert_eq!(dst.front_addr(), 0x10);
        assert_eq!(src.front_addr(), 0x14);
        assert_eq!(dst.peek(0), Some(0));
        assert_eq!(dst.peek(1), Some(1));
    }

    #[test]
    fn whole_instructions_pop_and_index_into_the_image() {
        let p = pipe_isa::Assembler::new(InstrFormat::Mixed)
            .assemble("nop\nlim r1, 7\nhalt\n")
            .unwrap();
        let image = p.image();
        let mut q = ParcelQueue::new(4);
        // Stops when full: the immediate of `lim` does not fit yet.
        assert_eq!(q.fill_from(&image, 0, p.end()), 4);
        assert_eq!(q.head_index(&image), Some(0));
        assert_eq!(
            q.pop_instruction(),
            Some((image.parcel_at(0).unwrap(), None))
        );
        assert_eq!(q.head_index(&image), None, "immediate missing");
        assert_eq!(q.pop_instruction(), None);
        assert_eq!(q.fill_from(&image, 4, p.end()), 6);
        let lim = q.pop_instruction().unwrap();
        assert_eq!(lim, (image.parcel_at(2).unwrap(), image.parcel_at(4)));
        // Stops at the image end.
        assert_eq!(q.fill_from(&image, 6, p.end() + 8), p.end());
        assert_eq!(q.head_index(&image), Some(3));
    }

    #[test]
    fn capacity_reporting() {
        let q = ParcelQueue::new(16);
        assert_eq!(q.capacity(), 8);
        assert_eq!(q.capacity_bytes(), 16);
        assert_eq!(q.room(), 8);
    }
}
