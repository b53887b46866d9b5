//! The memory-mapped external floating-point unit.
//!
//! The PIPE chip has no floating-point or multiply hardware; the paper
//! attaches an off-chip FPU addressed as memory: "a pair of data stores to
//! the appropriate locations will cause a multiply to occur", with the
//! multiply taking a constant 4 clock cycles (§5). Results return over the
//! shared input bus with priority below loads/stores and above instruction
//! prefetches.
//!
//! The window starts at [`FPU_BASE`] and spans 32 bytes
//! ([`is_fpu_address`]); this is the one definition of it:
//!
//! | offset | store effect                      |
//! |-------:|-----------------------------------|
//! | +0     | latch operand A                   |
//! | +4     | operand B, start multiply          |
//! | +8     | operand B, start add               |
//! | +12    | operand B, start subtract          |
//! | +16    | operand B, start divide            |

use crate::timing::Pipeline;

/// Base byte address of the FPU's memory-mapped window. Generated code
/// reaches it with `lim r5, -4096`, which sign-extends to this address.
pub const FPU_BASE: u32 = 0xFFFF_F000;

/// Cycles from an operation's start to its result being ready for the
/// input bus: a constant 4 in the paper (§5).
pub const FPU_LATENCY: u32 = 4;

/// Returns `true` if `addr` falls inside the FPU's window.
#[inline]
pub fn is_fpu_address(addr: u32) -> bool {
    (FPU_BASE..FPU_BASE + 0x20).contains(&addr)
}

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
    #[inline]
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

/// The external FPU's timing: the operations in flight, each ready for the
/// input bus [`FPU_LATENCY`] cycles after it started. Operand and
/// result *values* belong to the interpreter, which evaluates an
/// operation with [`FpOp::eval_bits`]; the memory system only schedules
/// the result's return.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Fpu {
    /// The operations in flight, oldest first.
    results: Pipeline<()>,
}

impl Fpu {
    /// Applies a store to the FPU window, returning whether it started
    /// an operation.
    ///
    /// A store at an operation offset starts that operation, ready
    /// [`FPU_LATENCY`] [`tick`](Self::tick)s later. Stores at
    /// offset 0 (the operand latch) and at unmapped offsets start nothing.
    pub fn store(&mut self, addr: u32) -> bool {
        debug_assert!(is_fpu_address(addr));
        let starts = FpOp::from_offset(addr - FPU_BASE).is_some();
        if starts {
            self.results.push((), FPU_LATENCY);
        }
        starts
    }

    /// Takes the oldest result if it is ready, returning whether one was
    /// taken. Results return strictly in operation order.
    pub fn take_ready(&mut self) -> bool {
        let ready = self.has_ready();
        if ready {
            self.results.pop();
        }
        ready
    }

    /// Peeks whether the oldest result is ready without taking it.
    pub fn has_ready(&self) -> bool {
        self.results.front_ready().is_some()
    }

    /// Moves the operations in flight one cycle on.
    #[inline]
    pub fn tick(&mut self) {
        self.results.tick();
    }

    /// Number of results still in flight or waiting for the bus.
    pub fn pending(&self) -> usize {
        self.results.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut f = Fpu::default();
        assert!(!f.store(0xFFFF_F000), "the operand latch starts nothing");
        assert_eq!(f.pending(), 0);
        assert!(f.store(0xFFFF_F004));
        assert_eq!(f.pending(), 1);
        for _ in 0..3 {
            f.tick();
            assert!(!f.has_ready());
        }
        f.tick();
        assert!(f.has_ready());
        assert!(f.take_ready());
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn results_return_in_order() {
        let mut f = Fpu::default();
        f.store(0xFFFF_F008); // ready after 4 cycles
        f.tick();
        f.store(0xFFFF_F00C); // ready a cycle later
        f.tick();
        f.tick();
        assert!(!f.take_ready());
        f.tick();
        assert!(f.take_ready());
        assert!(!f.take_ready(), "the second result is not ready yet");
        for _ in 0..6 {
            f.tick();
        }
        assert!(f.take_ready());
        assert!(!f.take_ready());
    }

    #[test]
    fn unmapped_offsets_start_nothing() {
        let mut f = Fpu::default();
        assert!(!f.store(0xFFFF_F014));
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn division() {
        let (a, b) = (9.0f32.to_bits(), 2.0f32.to_bits());
        assert_eq!(FpOp::Div.eval_bits(a, b), 4.5f32.to_bits());
    }

    #[test]
    fn window_ownership() {
        assert!(is_fpu_address(0xFFFF_F000));
        assert!(is_fpu_address(0xFFFF_F01F));
        assert!(!is_fpu_address(0xFFFF_F020));
        assert!(!is_fpu_address(0xFFFF_EFFF));
        assert!(!is_fpu_address(0x1000));
    }
}
