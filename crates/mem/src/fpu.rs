//! The memory-mapped external floating-point unit.
//!
//! The PIPE chip has no floating-point or multiply hardware; the paper
//! attaches an off-chip FPU addressed as memory: "a pair of data stores to
//! the appropriate locations will cause a multiply to occur", with the
//! multiply taking a constant 4 clock cycles (§5). Results return over the
//! shared input bus with priority below loads/stores and above instruction
//! prefetches.
//!
//! Address map (see the `FPU_*` constants in `pipe-isa` for the canonical
//! values used by generated code):
//!
//! | offset | store effect                      |
//! |-------:|-----------------------------------|
//! | +0     | latch operand A                   |
//! | +4     | operand B, start multiply          |
//! | +8     | operand B, start add               |
//! | +12    | operand B, start subtract          |
//! | +16    | operand B, start divide            |

use std::collections::VecDeque;

/// A floating-point operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `a * b`
    Mul,
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a / b`
    Div,
}

impl FpOp {
    /// Decodes the operation selected by a store at byte offset `off` into
    /// the FPU window. Offset 0 is the operand-A latch, not an operation.
    pub fn from_offset(off: u32) -> Option<FpOp> {
        match off {
            4 => Some(FpOp::Mul),
            8 => Some(FpOp::Add),
            12 => Some(FpOp::Sub),
            16 => Some(FpOp::Div),
            _ => None,
        }
    }

    /// Evaluates the operation on IEEE-754 single-precision bit patterns.
    pub fn eval_bits(self, a: u32, b: u32) -> u32 {
        let (a, b) = (f32::from_bits(a), f32::from_bits(b));
        let r = match self {
            FpOp::Mul => a * b,
            FpOp::Add => a + b,
            FpOp::Sub => a - b,
            FpOp::Div => a / b,
        };
        r.to_bits()
    }
}

/// The external FPU's timing: when each started operation's result is
/// ready for the input bus. Operand and result *values* belong to the
/// processor, which evaluates an operation with [`FpOp::eval_bits`] when
/// its store is accepted; the memory system only schedules the result's
/// return.
#[derive(Debug, Clone, Default)]
pub struct Fpu {
    base: u32,
    latency: u32,
    /// Ready cycles of the operations in flight, oldest first.
    results: VecDeque<u64>,
    ops_started: u64,
}

impl Fpu {
    /// Creates an FPU mapped at byte address `base` with the given
    /// operation latency in cycles.
    pub fn new(base: u32, latency: u32) -> Fpu {
        Fpu {
            base,
            latency,
            results: VecDeque::new(),
            ops_started: 0,
        }
    }

    /// Returns `true` if `addr` falls inside this FPU's window.
    pub fn owns(&self, addr: u32) -> bool {
        (self.base..self.base + 0x20).contains(&addr)
    }

    /// Applies a store to the FPU window at cycle `now`.
    ///
    /// A store at an operation offset starts that operation, completing
    /// `latency` cycles later. Stores at offset 0 (the operand latch) and
    /// at unmapped offsets start nothing.
    pub fn store(&mut self, addr: u32, now: u64) {
        debug_assert!(self.owns(addr));
        if FpOp::from_offset(addr - self.base).is_some() {
            self.results.push_back(now + u64::from(self.latency));
            self.ops_started += 1;
        }
    }

    /// Takes the oldest result if it is ready at cycle `now`, returning
    /// whether one was taken. Results return strictly in operation order.
    pub fn take_ready(&mut self, now: u64) -> bool {
        let ready = self.has_ready(now);
        if ready {
            self.results.pop_front();
        }
        ready
    }

    /// Peeks whether a result is ready at cycle `now` without taking it.
    pub fn has_ready(&self, now: u64) -> bool {
        matches!(self.results.front(), Some(&at) if at <= now)
    }

    /// Ready cycles of the operations in flight, oldest first.
    pub(crate) fn ready_cycles_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.results.iter_mut()
    }

    /// Ready cycles of the operations in flight, oldest first.
    pub(crate) fn ready_cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.results.iter().copied()
    }

    /// Number of operations started over the FPU's lifetime.
    pub fn ops_started(&self) -> u64 {
        self.ops_started
    }

    /// Counts `n` more started operations (a loop-iteration skip applies
    /// the operations of the iterations it skips this way).
    pub(crate) fn add_ops_started(&mut self, n: u64) {
        self.ops_started += n;
    }

    /// Number of results still in flight or waiting for the bus.
    pub fn pending(&self) -> usize {
        self.results.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fpu() -> Fpu {
        Fpu::new(0xFFFF_F000, 4)
    }

    #[test]
    fn op_decoding() {
        assert_eq!(FpOp::from_offset(0), None);
        assert_eq!(FpOp::from_offset(4), Some(FpOp::Mul));
        assert_eq!(FpOp::from_offset(8), Some(FpOp::Add));
        assert_eq!(FpOp::from_offset(12), Some(FpOp::Sub));
        assert_eq!(FpOp::from_offset(16), Some(FpOp::Div));
        assert_eq!(FpOp::from_offset(20), None);
    }

    #[test]
    fn multiply_latency() {
        let mut f = fpu();
        f.store(0xFFFF_F000, 10);
        assert_eq!(f.pending(), 0, "the operand latch starts nothing");
        f.store(0xFFFF_F004, 10);
        assert_eq!(f.pending(), 1);
        assert!(!f.has_ready(13));
        assert!(f.has_ready(14));
        assert!(f.take_ready(14));
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn results_return_in_order() {
        let mut f = fpu();
        f.store(0xFFFF_F008, 0); // ready at 4
        f.store(0xFFFF_F00C, 1); // ready at 5
        assert!(!f.take_ready(3));
        assert!(f.take_ready(4));
        assert!(!f.take_ready(4), "the second result is not ready yet");
        assert!(f.take_ready(10));
        assert!(!f.take_ready(10));
        assert_eq!(f.ops_started(), 2);
    }

    #[test]
    fn unmapped_offsets_start_nothing() {
        let mut f = fpu();
        f.store(0xFFFF_F014, 0);
        assert_eq!((f.pending(), f.ops_started()), (0, 0));
    }

    #[test]
    fn division() {
        let (a, b) = (9.0f32.to_bits(), 2.0f32.to_bits());
        assert_eq!(FpOp::Div.eval_bits(a, b), 4.5f32.to_bits());
    }

    #[test]
    fn window_ownership() {
        let f = fpu();
        assert!(f.owns(0xFFFF_F000));
        assert!(f.owns(0xFFFF_F01F));
        assert!(!f.owns(0xFFFF_F020));
        assert!(!f.owns(0x1000));
    }
}
