//! Differential testing: the cycle-level processor must issue exactly the
//! instructions the timing-free interpreter executes, in its order, and
//! count the same branches, loads, stores and FPU operations.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pipe_core::{
    interpret, FetchStrategy, Interpreter, IssueTrace, Processor, SimConfig, SimStats,
};

use pipe_icache::{
    BufferConfig, CacheConfig, ConvPrefetch, ConventionalConfig, PipeFetchConfig, TibConfig,
};
use pipe_isa::{Assembler, DecodedProgram, InstrFormat, Program};
use pipe_mem::MemConfig;

/// Runs `program` under `cfg` with a sink collecting the issued
/// addresses; returns them in order with the run's statistics.
fn issued(program: &Program, cfg: &SimConfig) -> (Vec<u32>, SimStats) {
    let sink = Rc::new(RefCell::new(IssueTrace::default()));
    let proc = Processor::new(program, cfg).expect("valid");
    let mut proc = proc.with_trace(Rc::clone(&sink));
    proc.run().unwrap_or_else(|e| panic!("{}: {e}", cfg.fetch));
    let addrs = std::mem::take(&mut sink.borrow_mut().0);
    (addrs, proc.into_stats())
}

/// The addresses the interpreter executes on `program`, in order.
fn executed(program: &Program) -> Vec<u32> {
    let mut interp = Interpreter::new(&Arc::new(DecodedProgram::new(program.clone())));
    std::iter::from_fn(|| interp.step().expect("interprets"))
        .map(|step| step.addr)
        .collect()
}

/// Runs `program` under every engine in `fetches`, on plain and on
/// pipelined memory, and checks the issue order and the counts against
/// the interpreter's.
fn agree(program: &Program, fetches: &[FetchStrategy], access: u32) {
    let reference = interpret(program, 10_000_000).expect("interprets");
    let expected = executed(program);
    for (&fetch, pipelined) in fetches.iter().flat_map(|f| [(f, false), (f, true)]) {
        let cfg = SimConfig {
            fetch,
            mem: MemConfig {
                access_cycles: access,
                pipelined,
                ..MemConfig::default()
            },
            max_cycles: 200_000_000,
        };
        let (addrs, stats) = issued(program, &cfg);
        let fetch = format!("{fetch}{}", if pipelined { ", pipelined" } else { "" });
        assert_eq!(
            stats.instructions_issued, reference.instructions,
            "instruction count under {fetch}"
        );
        assert_eq!(
            stats.branches_taken, reference.branches_taken,
            "taken branches under {fetch}"
        );
        assert_eq!(stats.loads, reference.loads, "loads under {fetch}");
        assert_eq!(stats.stores, reference.stores, "stores under {fetch}");
        assert_eq!(stats.fpu_ops, reference.fpu_ops, "fpu ops under {fetch}");
        assert!(addrs == expected, "issue order under {fetch}");
    }
}

fn all_engines() -> Vec<FetchStrategy> {
    vec![
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(32, 16)),
        FetchStrategy::Conventional(ConventionalConfig {
            cache: CacheConfig::new(32, 16),
            prefetch: ConvPrefetch::OnMissOnly,
        }),
        FetchStrategy::Conventional(ConventionalConfig {
            cache: CacheConfig::new(32, 16),
            prefetch: ConvPrefetch::Tagged,
        }),
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 8, 8, 8)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(64, 32, 16, 32)),
        FetchStrategy::Pipe(PipeFetchConfig {
            partial_lines: true,
            ..PipeFetchConfig::table2(32, 16, 16, 16)
        }),
        FetchStrategy::Tib(TibConfig::with_budget(32, 16)),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 2,
            cache: None,
        }),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 4,
            cache: Some(CacheConfig::new(64, 16)),
        }),
    ]
}

#[test]
fn differential_branchy_program() {
    let src = r#"
        lim  r1, 12
        lim  r2, 0
        lim  r3, 0
        lbr  b0, even
        lbr  b1, done
    even:
        addi r2, r2, 5
        subi r1, r1, 1
        pbr.eqz b1, r1, 2
        addi r3, r3, 1
        nop
        pbr  b0, r0, 1
        nop
        halt
    done:
        halt
    "#;
    let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
    agree(&p, &all_engines(), 3);
}

#[test]
fn differential_store_load_fpu_chain() {
    let src = r#"
        lim  r5, -4096
        lim  r1, 0x400
        lui  r2, 0x4080          ; 4.0
        lui  r3, 0x3F00          ; 0.5
        sta  r1, 0
        or   r7, r2, r2          ; mem[0x400] = 4.0
        ldw  r1, 0
        sta  r5, 0
        or   r7, r7, r7          ; FPU A = mem[0x400]
        sta  r5, 4
        or   r7, r3, r3          ; * 0.5
        sta  r1, 4
        or   r7, r7, r7          ; mem[0x404] = product (2.0)
        halt
    "#;
    let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
    let reference = interpret(&p, 1000).unwrap();
    assert_eq!(reference.memory.read(0x404), 2.0f32.to_bits());
    agree(&p, &all_engines(), 6);
}

#[test]
fn differential_load_before_store_to_the_same_word() {
    // Each iteration loads x[i], then overwrites it with a value that is
    // already in a register, then sums the loaded word. A pipelined memory
    // accepts the store before the load's response returns; the load must
    // still see the old word (0), so the sum stays 0.
    let src = r#"
        lim  r1, 0x400
        lim  r2, 8
        lim  r3, 0
        lbr  b0, top
    top:
        ldw  r1, 0
        sta  r1, 0
        or   r7, r2, r2
        add  r3, r3, r7
        addi r1, r1, 4
        subi r2, r2, 1
        pbr.nez b0, r2, 0
        halt
    "#;
    let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
    let reference = interpret(&p, 10_000).unwrap();
    assert_eq!(reference.regs[3], 0);
    assert_eq!(reference.memory.read(0x400), 8);
    agree(&p, &all_engines(), 6);
}

#[test]
fn differential_mixed_format() {
    let src =
        "lim r1, 6\nlbr b0, top\ntop: add r2, r2, r1\nsubi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n";
    let p = Assembler::new(InstrFormat::Mixed).assemble(src).unwrap();
    agree(&p, &all_engines(), 2);
}

#[test]
fn differential_single_livermore_kernels() {
    for index in [1usize, 5, 8, 11] {
        let p = pipe_workloads::livermore::single_kernel_program(index, 12, InstrFormat::Fixed32)
            .unwrap();
        agree(&p, &all_engines(), 3);
    }
}

#[test]
fn differential_deep_delay_slots_with_tiny_iq() {
    // 7 delay slots = 28 bytes of instructions, far more than an 8-byte
    // IQ can hold: the PIPE engine's early target preparation can never
    // start ("all the instructions guaranteed to execute" never fit in
    // the IQ at once), exercising the trigger-time fallback.
    let src = r#"
        lim  r1, 4
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
    let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
    let reference = interpret(&p, 100_000).unwrap();
    assert_eq!(reference.regs[2], 4 * 7);
    let engines = vec![
        FetchStrategy::Pipe(PipeFetchConfig::table2(16, 8, 8, 8)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(64, 8, 8, 8)),
        FetchStrategy::Tib(TibConfig {
            entries: 2,
            entry_bytes: 8,
        }),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 1,
            cache: None,
        }),
    ];
    for access in [1, 6] {
        agree(&p, &engines, access);
    }
}

#[test]
fn differential_full_livermore_benchmark() {
    let suite = pipe_workloads::livermore_benchmark();
    let reference = interpret(suite.program(), 1_000_000).expect("interprets");
    assert_eq!(reference.instructions, suite.expected_instructions());

    // One representative timed configuration (the full engine matrix is
    // covered by the smaller differential programs above).
    let cfg = SimConfig {
        fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
        mem: MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..MemConfig::default()
        },
        max_cycles: 200_000_000,
    };
    let (addrs, stats) = issued(suite.program(), &cfg);
    assert_eq!(stats.instructions_issued, reference.instructions);
    assert_eq!(stats.branches_taken, reference.branches_taken);
    assert_eq!(stats.fpu_ops, reference.fpu_ops);
    assert!(addrs == executed(suite.program()), "issue order");
}
