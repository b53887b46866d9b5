//! Synthetic programs for tests and trace-driven sweeps.

use pipe_isa::{AluOp, BranchReg, Cond, InstrFormat, Instruction, Program, ProgramBuilder, Reg};

/// A tight loop with a `body` of filler ALU instructions executed `trips`
/// times. `body` is the number of instructions between the loop top and
/// the prepare-to-branch; total inner-loop size is `body + 2` instructions
/// plus delay slots.
pub fn tight_loop(body: u32, trips: u16, format: InstrFormat) -> Program {
    assert!(trips > 0, "tight_loop needs at least one trip");
    let r1 = Reg::new(1);
    let r2 = Reg::new(2);
    let b0 = BranchReg::new(0);
    let mut b = ProgramBuilder::new(format);
    b.push(Instruction::Lim {
        rd: r1,
        imm: trips as i16,
    });
    b.lbr_label(b0, "top");
    b.label("top");
    for _ in 0..body {
        b.push(Instruction::AluImm {
            op: AluOp::Add,
            rd: r2,
            rs1: r2,
            imm: 1,
        });
    }
    b.push(Instruction::AluImm {
        op: AluOp::Sub,
        rd: r1,
        rs1: r1,
        imm: 1,
    });
    b.push(Instruction::Pbr {
        cond: Cond::Nez,
        br: b0,
        rs: r1,
        delay: 2,
    });
    b.push(Instruction::Nop);
    b.push(Instruction::Nop);
    b.push(Instruction::Halt);
    b.build().expect("tight_loop builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_loop_size() {
        // lim, lbr, 4 body, subi, pbr, 2 delay slots, halt.
        let p = tight_loop(4, 3, InstrFormat::Fixed32);
        assert_eq!(p.static_count(), 11);
    }

    #[test]
    #[should_panic]
    fn zero_trips_rejected() {
        let _ = tight_loop(1, 0, InstrFormat::Fixed32);
    }
}
