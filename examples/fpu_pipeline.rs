//! Demonstrates the decoupled architectural queues and the memory-mapped
//! FPU: computing a dot product the way the PIPE compiler would —
//! streaming loads into the LDQ, shipping operand pairs to the off-chip
//! FPU, and reading results back through `r7`.
//!
//! ```sh
//! cargo run --release --example fpu_pipeline
//! ```

use pipe_repro::mem::FPU_BASE;
use pipe_repro::prelude::*;

fn main() {
    // dot = Σ a[i] * b[i] for 4-element vectors. The accumulator lives in
    // r6 as an f32 bit pattern; each step is mul-then-add through the FPU.
    let source = r#"
        lim  r5, -4096        ; FPU base (0xFFFFF000)
        lim  r2, 0
        lui  r2, 0x10         ; r2 = 0x100000, vector a; b at +0x1000
        lim  r1, 4            ; element count
        lim  r6, 0            ; accumulator = 0.0f
        lbr  b0, top
    top:
        ldw  r2, 0            ; push &a[i] -> LAQ; a[i] will appear in LDQ
        ldw  r2, 0x1000       ; b[i]
        sta  r5, 0            ; FPU operand A address
        or   r7, r7, r7       ; move a[i] from LDQ to SDQ
        sta  r5, 4            ; FPU multiply trigger
        or   r7, r7, r7       ; move b[i]; product will return to the LDQ
        sta  r5, 0
        or   r7, r6, r6       ; operand A = accumulator
        sta  r5, 8            ; FPU add trigger
        or   r7, r7, r7       ; operand B = the product
        or   r6, r7, r7       ; accumulator = sum
        addi r2, r2, 4
        subi r1, r1, 1
        pbr.nez b0, r1, 0
        sta  r2, 0x2000       ; store the result after the loop
        or   r7, r6, r6
        halt

        .data 0x100000, 0x3F800000   ; a = [1.0, 2.0, 3.0, 4.0]
        .data 0x100004, 0x40000000
        .data 0x100008, 0x40400000
        .data 0x10000C, 0x40800000
        .data 0x101000, 0x40000000   ; b = [2.0, 2.0, 2.0, 2.0]
        .data 0x101004, 0x40000000
        .data 0x101008, 0x40000000
        .data 0x10100C, 0x40000000
    "#;

    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(source)
        .expect("assembles");

    let cfg = SimConfig {
        mem: MemConfig {
            access_cycles: 3,
            in_bus_bytes: 8,
            ..MemConfig::default()
        },
        ..SimConfig::default()
    };
    let mut proc = Processor::new(&program, &cfg).expect("valid config");
    proc.run().expect("runs");
    let stats = proc.stats();

    // The result was stored at the final r2 position + 0x2000. Values are
    // the interpreter's: the processor times the program, and checks each
    // instruction it issues against the interpreter's course.
    let result_addr = 0x100000 + 4 * 4 + 0x2000;
    let values = interpret(&program, 10_000).expect("interprets");
    let result = f32::from_bits(values.memory.read(result_addr));
    println!("dot([1,2,3,4], [2,2,2,2]) = {result}");
    assert_eq!(result, 20.0);

    println!("cycles: {}", stats.cycles);
    println!("fpu operations: {}", stats.fpu_ops);
    println!(
        "data-wait stalls: {} (cycles the issue stage waited on the LDQ)",
        stats.stalls.data_wait
    );
    println!(
        "fpu window: operand A at {FPU_BASE:#x}, multiply at {:#x}",
        FPU_BASE + 4
    );
}
