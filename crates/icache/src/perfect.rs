//! A perfect (always-hit, zero-traffic) fetch engine for functional tests.

use pipe_isa::decode::instr_len;
use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::{Beat, MemorySystem, ReqClass, TimingKey};

use crate::engine::{FetchEngine, Redirect};
use crate::stats::FetchStats;

/// Supplies one instruction per cycle directly from the program image with
/// no cache, queues, or memory traffic. Useful for testing the processor
/// core's functional semantics in isolation from fetch timing.
#[derive(Debug)]
pub struct PerfectFetch {
    image: Image,
    state: PerfectState,
    stats: FetchStats,
}

/// The perfect engine's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PerfectState {
    pc: u32,
    redirect: Redirect,
}

impl PerfectFetch {
    /// Creates a perfect fetch engine over `program`.
    pub(crate) fn new(program: &Program) -> PerfectFetch {
        PerfectFetch {
            image: program.image(),
            state: PerfectState {
                pc: program.entry(),
                redirect: Redirect::default(),
            },
            stats: FetchStats::default(),
        }
    }

    fn maybe_trigger(&mut self) {
        if let Some(target) = self.state.redirect.take_due() {
            self.state.pc = target;
            self.stats.redirects += 1;
        }
    }
}

impl FetchEngine for PerfectFetch {
    fn offer_requests(&mut self, _mem: &mut MemorySystem) {}

    fn on_accepted(&mut self, _class: ReqClass) {}

    fn on_beat(&mut self, _beat: &Beat) {}

    fn advance(&mut self) {}

    fn peek_index(&self) -> Option<usize> {
        self.image.instruction_parcels(self.state.pc)?;
        Some(self.image.index_of(self.state.pc))
    }

    fn consume(&mut self) {
        let (first, _) = self
            .image
            .instruction_parcels(self.state.pc)
            .expect("consume without available instruction");
        self.state.pc += instr_len(first) as u32 * PARCEL_BYTES;
        self.stats.instructions_delivered += 1;
        self.state.redirect.delivered();
        self.maybe_trigger();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        self.state.redirect.resolve(taken, remaining, target);
        self.maybe_trigger();
    }

    fn outstanding(&self) -> usize {
        0
    }

    fn describe_timing(&self, key: &mut TimingKey) {
        key.add(&self.state);
    }

    fn add_stats(&mut self, delta: &FetchStats) {
        self.stats.add(delta);
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
            assert_eq!(f.peek_index(), Some(p.image().index_of(expected_addr)));
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
        let top = p.image().index_of(p.symbols()["top"]);
        assert_eq!(f.peek_index(), Some(top));
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
        assert_eq!(f.peek_index(), Some(0));
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
        // A program whose last instruction is not `halt` runs off the end.
        let p = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\n")
            .unwrap();
        let mut f = PerfectFetch::new(&p);
        f.consume();
        assert_eq!(f.peek_index(), None);
    }
}
