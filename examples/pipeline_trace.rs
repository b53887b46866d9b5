//! Watch the pipeline cycle by cycle: attach a text trace sink and print
//! every issue, stall, and branch resolution for a short program running
//! on a cold PIPE cache with slow memory.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use pipe_repro::core::trace::TraceEvent;
use pipe_repro::core::{Processor, TextTrace, VecTrace};
use pipe_repro::prelude::*;

fn main() {
    let source = r#"
        lim  r1, 2
        lim  r2, 0x400
        lbr  b0, top
    top:
        ldw  r2, 0            ; load (6-cycle memory: watch the data-wait)
        or   r3, r7, r7
        addi r2, r2, 4
        subi r1, r1, 1
        pbr.nez b0, r1, 2
        nop
        nop
        halt
        .data 0x400, 11
        .data 0x404, 22
    "#;
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(source)
        .expect("assembles");

    let cfg = SimConfig {
        fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        mem: MemConfig {
            access_cycles: 6,
            in_bus_bytes: 4,
            ..MemConfig::default()
        },
        ..SimConfig::default()
    };

    // Two sinks: a live text renderer and a collector for the summary.
    let collector = Rc::new(RefCell::new(VecTrace::new()));
    struct Tee {
        text: TextTrace<std::io::Stdout>,
        collect: Rc<RefCell<VecTrace>>,
    }
    impl pipe_repro::core::TraceSink for Tee {
        fn event(&mut self, e: &TraceEvent) {
            self.text.event(e);
            self.collect.event(e);
        }
    }

    let proc = Processor::new(&program, &cfg).expect("valid config");
    let mut proc = proc.with_trace(Tee {
        text: TextTrace::new(std::io::stdout()),
        collect: Rc::clone(&collector),
    });
    proc.run().expect("runs");
    let stats = proc.stats();

    let events = collector.borrow();
    let stalls = events
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Stall { .. }))
        .count();
    println!(
        "\nsummary: {} cycles, {} instructions, {} stall events",
        stats.cycles, stats.instructions_issued, stalls
    );
    println!(
        "stall breakdown: {} ifetch, {} data-wait, {} queue, {} branch",
        stats.stalls.ifetch, stats.stalls.data_wait, stats.stalls.queue_full, stats.stalls.branch
    );
    assert_eq!(interpret(&program, 1000).expect("interprets").regs[3], 22);
}
