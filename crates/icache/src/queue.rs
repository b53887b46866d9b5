//! The parcel queues of the queue-based fetch engines: the PIPE IQ and
//! IQB, and the fetch queues of the TIB and prefetch-buffer engines.

use pipe_isa::decode::instr_len;
use pipe_isa::encode::parcel_is_branch;
use pipe_isa::{Image, PARCEL_BYTES};

/// A bounded FIFO window onto the instruction stream.
///
/// The program image is the only copy of the instructions: the queue
/// holds a head address and a length over it and reads the ext and branch
/// bits of the parcels it covers from the image. Queued parcels are always
/// contiguous and inside the image: every push appends the next sequential
/// parcel. Redirects flush the queue and restart it at the new address.
#[derive(Debug, Clone)]
pub struct ParcelQueue {
    image: Image,
    capacity: usize,
    head_addr: u32,
    len: usize,
}

impl ParcelQueue {
    /// Creates an empty queue over `image` holding up to `capacity_bytes`
    /// of parcels.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero or odd.
    pub fn new(image: &Image, capacity_bytes: u32) -> ParcelQueue {
        assert!(
            capacity_bytes >= PARCEL_BYTES && capacity_bytes.is_multiple_of(PARCEL_BYTES),
            "queue capacity must be a positive multiple of {PARCEL_BYTES} bytes"
        );
        ParcelQueue {
            image: image.clone(),
            capacity: (capacity_bytes / PARCEL_BYTES) as usize,
            head_addr: 0,
            len: 0,
        }
    }

    /// Parcels currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no parcels are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free parcel slots.
    pub fn room(&self) -> usize {
        self.capacity - self.len
    }

    /// Byte address of the parcel at the head (meaningful only when
    /// non-empty or just restarted).
    pub fn front_addr(&self) -> u32 {
        self.head_addr
    }

    /// Byte address one past the last queued parcel.
    pub fn end_addr(&self) -> u32 {
        self.head_addr + self.len as u32 * PARCEL_BYTES
    }

    /// Empties the queue and restarts it at `addr`.
    pub fn restart(&mut self, addr: u32) {
        self.len = 0;
        self.head_addr = addr;
    }

    /// Appends `n` parcels starting at `addr`.
    fn append(&mut self, addr: u32, n: usize) {
        assert!(n <= self.room(), "parcel queue overflow");
        if self.is_empty() {
            self.head_addr = addr;
        } else {
            assert_eq!(addr, self.end_addr(), "non-contiguous parcel push");
        }
        self.len += n;
    }

    /// Appends the parcel at `addr`, which must be the current
    /// [`end_addr`](Self::end_addr) (or anything if empty — the queue
    /// restarts there). An address outside the image queues nothing: the
    /// last beat of a line may reach past the image end.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `addr` breaks contiguity.
    pub fn push(&mut self, addr: u32) {
        if self.image.parcel_at(addr).is_some() {
            self.append(addr, 1);
        }
    }

    /// Appends the image parcels at `[from, to)`, stopping when the queue
    /// is full or the image ends. Returns the address after the last
    /// parcel appended.
    pub fn fill_from(&mut self, from: u32, to: u32) -> u32 {
        if self.image.parcel_at(from).is_none() {
            return from;
        }
        let end = to.min(self.image.end());
        let n = (end.saturating_sub(from).div_ceil(PARCEL_BYTES) as usize).min(self.room());
        if n > 0 {
            self.append(from, n);
        }
        from + n as u32 * PARCEL_BYTES
    }

    /// Moves up to `max` parcels from the head of `src` into `self`,
    /// preserving contiguity. Returns the number moved.
    pub fn take_from(&mut self, src: &mut ParcelQueue, max: usize) -> usize {
        let n = max.min(self.room()).min(src.len);
        if n > 0 {
            self.append(src.head_addr, n);
            src.head_addr += n as u32 * PARCEL_BYTES;
            src.len -= n;
        }
        n
    }

    /// The first parcel of each instruction starting in the queue, with
    /// whether the queue holds the whole instruction, in stream order.
    fn instructions(&self) -> impl Iterator<Item = (u16, bool)> + '_ {
        let end = self.end_addr();
        let mut addr = self.head_addr;
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let first = self
                .image
                .parcel_at(addr)
                .expect("queued parcels lie inside the image");
            addr += instr_len(first) as u32 * PARCEL_BYTES;
            Some((first, addr <= end))
        })
    }

    /// The head instruction's first parcel and length in parcels, if the
    /// queue holds all of it.
    fn head(&self) -> Option<(u16, usize)> {
        let (first, complete) = self.instructions().next()?;
        complete.then(|| (first, instr_len(first)))
    }

    /// Image parcel index of the head instruction when it is complete.
    pub fn head_index(&self) -> Option<usize> {
        self.head()?;
        Some(self.image.index_of(self.head_addr))
    }

    /// Pops the head instruction whole and returns its first parcel, or
    /// `None` if it is not complete.
    pub fn pop_instruction(&mut self) -> Option<u16> {
        let (first, parcels) = self.head()?;
        self.head_addr += parcels as u32 * PARCEL_BYTES;
        self.len -= parcels;
        Some(first)
    }

    /// Returns `true` if the queue holds no complete instruction (empty, or
    /// a lone first parcel whose immediate hasn't arrived).
    pub fn needs_refill(&self) -> bool {
        self.head().is_none()
    }

    /// Number of complete instructions in the queue.
    pub fn complete_instructions(&self) -> u32 {
        self.instructions()
            .filter(|&(_, complete)| complete)
            .count() as u32
    }

    /// Scans the queued parcels for a prepare-to-branch first parcel.
    ///
    /// This is the single-bit scan the PIPE control logic performs to decide
    /// whether the next sequential line is guaranteed to be executed. The
    /// scan walks instruction boundaries so immediate parcels are not
    /// misread as opcodes.
    pub fn contains_branch(&self) -> bool {
        self.instructions()
            .any(|(first, _)| parcel_is_branch(first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{AluOp, BranchReg, Cond, InstrFormat, Instruction, ProgramBuilder, Reg};

    /// The image of `instrs` at `base`.
    fn image(format: InstrFormat, base: u32, instrs: &[Instruction]) -> Image {
        let mut b = ProgramBuilder::with_base(format, base);
        b.extend(instrs.iter().copied());
        b.build().unwrap().image()
    }

    /// Eight fixed-32 `nop`s at `base`: parcels `[base, base + 32)`.
    fn nops(base: u32) -> Image {
        image(InstrFormat::Fixed32, base, &[Instruction::Nop; 8])
    }

    #[test]
    fn push_pop_tracks_addresses() {
        let image = nops(0x100);
        let mut q = ParcelQueue::new(&image, 8);
        q.push(0x100);
        q.push(0x102);
        assert_eq!(q.front_addr(), 0x100);
        assert_eq!(q.end_addr(), 0x104);
        assert_eq!(q.pop_instruction(), image.parcel_at(0x100));
        assert_eq!(q.front_addr(), 0x104);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_push_panics() {
        let mut q = ParcelQueue::new(&nops(0x100), 8);
        q.push(0x100);
        q.push(0x106);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = ParcelQueue::new(&nops(0), 4);
        q.push(0);
        q.push(2);
        q.push(4);
    }

    #[test]
    fn pushes_outside_the_image_queue_nothing() {
        let image = nops(0x100);
        let mut q = ParcelQueue::new(&image, 8);
        q.push(0xfe);
        assert!(q.is_empty(), "below the base");
        q.push(0x11c);
        q.push(0x11e);
        q.push(image.end());
        assert_eq!(q.len(), 2, "past the end");
        assert_eq!(q.end_addr(), image.end());
    }

    #[test]
    fn restart_resets() {
        let mut q = ParcelQueue::new(&nops(0), 8);
        q.push(0x4);
        q.restart(0x10);
        assert!(q.is_empty());
        assert_eq!(q.front_addr(), 0x10);
        q.push(0x10);
        q.push(0x12);
        assert_eq!(q.head_index(), Some(8));
    }

    #[test]
    fn head_needs_the_whole_instruction() {
        let lim = Instruction::Lim {
            rd: Reg::new(1),
            imm: 7,
        };
        let mut q = ParcelQueue::new(&image(InstrFormat::Fixed32, 0, &[lim]), 8);
        q.push(0);
        assert_eq!(q.head_index(), None, "immediate missing");
        assert!(q.needs_refill());
        assert_eq!(q.complete_instructions(), 0);
        q.push(2);
        assert_eq!(q.head_index(), Some(0));
        assert!(!q.needs_refill());
        assert_eq!(q.complete_instructions(), 1);
    }

    #[test]
    fn branch_scan_finds_pbr() {
        let image = image(
            InstrFormat::Mixed,
            0,
            &[
                Instruction::Nop,
                Instruction::Lim {
                    rd: Reg::new(1),
                    imm: -1, // immediate 0xFFFF has bit 15 set but must not fool the scan
                },
                Instruction::Pbr {
                    cond: Cond::Nez,
                    br: BranchReg::new(0),
                    rs: Reg::new(1),
                    delay: 3,
                },
            ],
        );
        let mut q = ParcelQueue::new(&image, 16);
        assert_eq!(q.fill_from(0, 6), 6);
        assert!(!q.contains_branch());
        assert_eq!(q.complete_instructions(), 2);
        q.fill_from(6, image.end());
        assert!(q.contains_branch());
        assert_eq!(q.complete_instructions(), 3);
    }

    #[test]
    fn branch_scan_skips_immediates() {
        // An ALU immediate whose value looks like a branch parcel.
        let image = image(
            InstrFormat::Fixed32,
            0,
            &[Instruction::AluImm {
                op: AluOp::Add,
                rd: Reg::new(0),
                rs1: Reg::new(0),
                imm: i16::MIN, // 0x8000
            }],
        );
        let mut q = ParcelQueue::new(&image, 8);
        q.fill_from(0, image.end());
        assert_eq!(q.len(), 2);
        assert!(!q.contains_branch());
    }

    #[test]
    fn take_from_moves_contiguously() {
        let image = nops(0);
        let mut src = ParcelQueue::new(&image, 8);
        let mut dst = ParcelQueue::new(&image, 4);
        assert_eq!(src.fill_from(0x10, 0x18), 0x18);
        let moved = dst.take_from(&mut src, 10);
        assert_eq!(moved, 2, "limited by destination room");
        assert_eq!((dst.front_addr(), dst.end_addr()), (0x10, 0x14));
        assert_eq!((src.front_addr(), src.len()), (0x14, 2));
        assert_eq!(dst.take_from(&mut src, 10), 0, "destination full");
        assert_eq!(dst.front_addr(), 0x10);
    }

    #[test]
    fn whole_instructions_pop_and_index_into_the_image() {
        let p = pipe_isa::Assembler::new(InstrFormat::Mixed)
            .assemble("nop\nlim r1, 7\nhalt\n")
            .unwrap();
        let image = p.image();
        let mut q = ParcelQueue::new(&image, 4);
        // Stops when full: the immediate of `lim` does not fit yet.
        assert_eq!(q.fill_from(0, p.end()), 4);
        assert_eq!(q.head_index(), Some(0));
        assert_eq!(q.pop_instruction(), image.parcel_at(0));
        assert_eq!(q.head_index(), None, "immediate missing");
        assert_eq!(q.pop_instruction(), None);
        assert_eq!(q.fill_from(4, p.end()), 6);
        assert_eq!(q.pop_instruction(), image.parcel_at(2));
        // Stops at the image end.
        assert_eq!(q.fill_from(6, p.end() + 8), p.end());
        assert_eq!(q.head_index(), Some(3));
    }

    #[test]
    fn capacity_reporting() {
        let mut q = ParcelQueue::new(&nops(0), 16);
        assert_eq!(q.room(), 8);
        q.fill_from(0, 6);
        assert_eq!(q.room(), 5);
    }
}
