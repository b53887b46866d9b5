//! A perfect (always-hit, zero-traffic) fetch engine for functional tests.

use std::sync::Arc;

use pipe_isa::decode::instr_len;
use pipe_isa::encode::parcel_has_ext;
use pipe_isa::{Program, PARCEL_BYTES};
use pipe_mem::{Beat, MemorySystem};

use crate::engine::{describe_redirect, shift_redirect, FetchEngine};
use crate::stats::FetchStats;

/// Supplies one instruction per cycle directly from the program image with
/// no cache, queues, or memory traffic. Useful for testing the processor
/// core's functional semantics in isolation from fetch timing.
#[derive(Debug)]
pub struct PerfectFetch {
    image: Arc<Vec<u16>>,
    base: u32,
    pc: u32,
    delivered: u64,
    redirect: Option<(u64, u32)>,
    stats: FetchStats,
}

impl PerfectFetch {
    /// Creates a perfect fetch engine over `program`.
    pub fn new(program: &Program) -> PerfectFetch {
        PerfectFetch {
            image: program.image(),
            base: program.base(),
            pc: program.entry(),
            delivered: 0,
            redirect: None,
            stats: FetchStats::default(),
        }
    }

    fn parcel(&self, addr: u32) -> Option<u16> {
        if addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) / PARCEL_BYTES) as usize;
        self.image.get(idx).copied()
    }

    fn maybe_trigger(&mut self) {
        if let Some((after, target)) = self.redirect {
            if self.delivered == after {
                self.pc = target;
                self.redirect = None;
                self.stats.redirects += 1;
            }
        }
    }
}

impl FetchEngine for PerfectFetch {
    fn reset(&mut self, pc: u32) {
        self.pc = pc;
        self.delivered = 0;
        self.redirect = None;
    }

    fn offer_requests(&mut self, _mem: &mut MemorySystem) {}

    fn on_accepted(&mut self, _tag: u64) {}

    fn on_beat(&mut self, _beat: &Beat) {}

    fn advance(&mut self) {}

    fn peek(&self) -> Option<(u16, Option<u16>)> {
        let first = self.parcel(self.pc)?;
        if parcel_has_ext(first) {
            Some((first, Some(self.parcel(self.pc + PARCEL_BYTES)?)))
        } else {
            Some((first, None))
        }
    }

    fn peek_index(&self) -> Option<usize> {
        self.peek()?;
        Some(((self.pc - self.base) / PARCEL_BYTES) as usize)
    }

    fn consume(&mut self) {
        let (first, _) = self.peek().expect("consume without available instruction");
        self.pc += instr_len(first) as u32 * PARCEL_BYTES;
        self.delivered += 1;
        self.stats.instructions_delivered += 1;
        self.maybe_trigger();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        if taken {
            self.redirect = Some((self.delivered + u64::from(remaining), target));
            self.maybe_trigger();
        }
    }

    fn has_outstanding(&self) -> bool {
        false
    }

    fn describe_timing(&self, key: &mut Vec<u64>, _next_tag: u64) {
        key.push(u64::from(self.pc));
        describe_redirect(key, self.redirect, self.delivered);
    }

    fn shift_timing(&mut self, _tags: u64, stats: &FetchStats) {
        self.delivered += stats.instructions_delivered;
        shift_redirect(&mut self.redirect, stats.instructions_delivered);
        self.stats.add(stats);
    }

    fn stats(&self) -> &FetchStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "perfect"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};

    fn program() -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble("lim r1, 2\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
            .unwrap()
    }

    #[test]
    fn sequential_delivery() {
        let p = program();
        let mut f = PerfectFetch::new(&p);
        for expected_addr in [0u32, 4, 8] {
            let (first, second) = f.peek().unwrap();
            let (instr, _) = p.instruction_at(expected_addr).unwrap();
            let direct = pipe_isa::decode(first, second).unwrap();
            assert_eq!(direct, instr);
            f.consume();
        }
        assert_eq!(f.stats().instructions_delivered, 3);
    }

    #[test]
    fn redirect_after_delay_slots() {
        let p = program();
        let mut f = PerfectFetch::new(&p);
        f.consume(); // lim
        f.consume(); // lbr
        f.consume(); // subi
        f.consume(); // pbr (delay 0)
                     // Branch resolves taken with 0 remaining slots → immediate redirect.
        f.resolve_branch(true, 0, p.symbols()["top"]);
        let (first, second) = f.peek().unwrap();
        let instr = pipe_isa::decode(first, second).unwrap();
        let (expected, _) = p.instruction_at(p.symbols()["top"]).unwrap();
        assert_eq!(instr, expected);
        assert_eq!(f.stats().redirects, 1);
    }

    #[test]
    fn redirect_waits_for_remaining() {
        let p = program();
        let mut f = PerfectFetch::new(&p);
        f.resolve_branch(true, 2, 0); // after 2 more instructions, back to 0
        f.consume();
        f.consume();
        assert_eq!(f.stats().redirects, 1);
        let (first, second) = f.peek().unwrap();
        let instr = pipe_isa::decode(first, second).unwrap();
        let (expected, _) = p.instruction_at(0).unwrap();
        assert_eq!(instr, expected);
    }

    #[test]
    fn not_taken_is_a_no_op() {
        let p = program();
        let mut f = PerfectFetch::new(&p);
        f.resolve_branch(false, 0, 0x100);
        f.consume();
        assert_eq!(f.stats().redirects, 0);
    }

    #[test]
    fn peek_past_end_is_none() {
        let p = program();
        let mut f = PerfectFetch::new(&p);
        f.reset(p.end());
        assert_eq!(f.peek(), None);
    }
}
