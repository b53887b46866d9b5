//! End-to-end tests across crates: assembly → simulation on every fetch
//! engine, whose issue order must be the interpreter's → architectural
//! state.

use std::cell::RefCell;
use std::rc::Rc;

use pipe_repro::core::IssueTrace;
use pipe_repro::prelude::*;

fn engines_for(cache_bytes: u32) -> Vec<FetchStrategy> {
    vec![
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(cache_bytes, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(cache_bytes, 8, 8, 8)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(cache_bytes, 16, 16, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(cache_bytes, 32, 16, 32)),
    ]
}

/// Runs `program` under `fetch` at memory access time `access`, checks
/// that it issues the interpreter's instructions in the interpreter's
/// order, and returns the statistics with the interpreter's registers
/// `r0..r6` and the 16 words at `0x0010_0000`.
fn run_on(program: &Program, fetch: FetchStrategy, access: u32) -> (SimStats, Vec<u32>, Vec<u32>) {
    let cfg = SimConfig {
        fetch,
        mem: pipe_repro::mem::MemConfig {
            access_cycles: access,
            in_bus_bytes: 4,
            ..Default::default()
        },
        ..SimConfig::default()
    };
    let sink = Rc::new(RefCell::new(IssueTrace::default()));
    let proc = Processor::new(program, &cfg).expect("valid");
    let mut proc = proc.with_trace(Rc::clone(&sink));
    proc.run().expect("runs");
    let mut interp = pipe_repro::core::Interpreter::new(&std::sync::Arc::new(
        pipe_repro::isa::DecodedProgram::new(program.clone()),
    ));
    let executed: Vec<u32> = std::iter::from_fn(|| interp.step().expect("interprets"))
        .map(|step| step.addr)
        .collect();
    assert_eq!(sink.borrow().0, executed, "issue order under {fetch}");
    let values = interpret(program, 100_000).expect("interprets");
    let regs = values.regs[..7].to_vec();
    let mem = (0..16)
        .map(|i| values.memory.read(0x0010_0000 + i * 4))
        .collect();
    (proc.into_stats(), regs, mem)
}

#[test]
fn fibonacci_program_agrees_everywhere() {
    let source = r#"
        lim  r1, 10
        lim  r2, 0          ; fib(0)
        lim  r3, 1          ; fib(1)
        lbr  b0, top
    top:
        add  r4, r2, r3
        or   r2, r3, r3
        or   r3, r4, r4
        subi r1, r1, 1
        pbr.nez b0, r1, 1
        nop
        halt
    "#;
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(source)
        .unwrap();
    let mut all = Vec::new();
    for fetch in engines_for(64) {
        for access in [1, 6] {
            let (stats, regs, _) = run_on(&program, fetch, access);
            assert_eq!(regs[3], 89, "fib(11) under {fetch}, access {access}");
            all.push(stats.instructions_issued);
        }
    }
    assert!(
        all.windows(2).all(|w| w[0] == w[1]),
        "same instruction count"
    );
}

#[test]
fn store_stream_agrees_everywhere() {
    let source = r#"
        lim  r1, 16
        lim  r2, 0
        lui  r2, 0x10
        lim  r3, 0
        lbr  b0, top
    top:
        sta  r2, 0
        or   r7, r3, r3
        addi r3, r3, 7
        addi r2, r2, 4
        subi r1, r1, 1
        pbr.nez b0, r1, 2
        nop
        nop
        halt
    "#;
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(source)
        .unwrap();
    let expect: Vec<u32> = (0..16).map(|i| i * 7).collect();
    for fetch in engines_for(32) {
        let (_, _, mem) = run_on(&program, fetch, 3);
        assert_eq!(mem, expect, "under {fetch}");
    }
}

#[test]
fn mixed_format_programs_run_on_all_engines() {
    let source =
        "lim r1, 8\nlbr b0, top\ntop: add r2, r2, r1\nsubi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n";
    let program = Assembler::new(InstrFormat::Mixed).assemble(source).unwrap();
    for fetch in engines_for(32) {
        let (stats, regs, _) = run_on(&program, fetch, 2);
        assert_eq!(regs[2], 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1, "under {fetch}");
        assert_eq!(stats.instructions_issued, 2 + 8 * 3 + 1);
    }
}

#[test]
fn deep_delay_slots_execute_exactly_once_per_iteration() {
    // 7 delay slots — the architectural maximum.
    let source = r#"
        lim  r1, 5
        lim  r2, 0
        lbr  b0, top
    top:
        subi r1, r1, 1
        pbr.nez b0, r1, 7
        addi r2, r2, 1
        addi r2, r2, 1
        addi r2, r2, 1
        addi r2, r2, 1
        addi r2, r2, 1
        addi r2, r2, 1
        addi r2, r2, 1
        halt
    "#;
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(source)
        .unwrap();
    for fetch in engines_for(64) {
        let (_, regs, _) = run_on(&program, fetch, 6);
        assert_eq!(regs[2], 5 * 7, "under {fetch}");
    }
}

#[test]
fn disassembler_round_trips_the_livermore_suite() {
    let suite = livermore_benchmark();
    let text = pipe_repro::isa::disassemble(suite.program());
    assert!(text.contains("loop1:"));
    assert!(text.contains("loop14:"));
    assert!(text.contains("pbr.nez"));
    // Every loop label present.
    for i in 1..=14 {
        assert!(text.contains(&format!("loop{i}:")), "loop{i} missing");
    }
}
