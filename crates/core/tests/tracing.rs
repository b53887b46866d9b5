//! Trace-infrastructure integration: events are complete, ordered, and
//! consistent with the statistics.

use std::cell::RefCell;
use std::rc::Rc;

use pipe_core::{
    FetchStrategy, Processor, Region, RegionProfiler, SimConfig, TraceEvent, VecTrace,
};
use pipe_icache::PipeFetchConfig;
use pipe_isa::{Assembler, InstrFormat};
use pipe_mem::MemConfig;

fn traced_run(
    src: &str,
    fetch: FetchStrategy,
    access: u32,
) -> (Vec<TraceEvent>, pipe_core::SimStats) {
    let program = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
    let cfg = SimConfig {
        fetch,
        mem: MemConfig {
            access_cycles: access,
            ..MemConfig::default()
        },
        ..SimConfig::default()
    };
    let sink = Rc::new(RefCell::new(VecTrace::new()));
    let proc = Processor::new(&program, &cfg).unwrap();
    let mut proc = proc.with_trace(Rc::clone(&sink));
    proc.run().unwrap();
    let events = sink.borrow().events().to_vec();
    (events, proc.into_stats())
}

const LOOP_SRC: &str =
    "lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 1\nnop\nhalt\n";

#[test]
fn every_prehalt_cycle_has_an_issue_or_stall() {
    let (events, stats) = traced_run(
        LOOP_SRC,
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        3,
    );
    let halted_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Halted { cycle } => Some(*cycle),
            _ => None,
        })
        .expect("halt event");
    let issue_or_stall = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Issue { .. } | TraceEvent::Stall { .. }))
        .count() as u64;
    assert_eq!(issue_or_stall, halted_at + 1, "one per pre-halt cycle");
    let issues = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Issue { .. }))
        .count() as u64;
    assert_eq!(issues, stats.instructions_issued);
}

#[test]
fn events_are_cycle_ordered_with_addresses() {
    let (events, _) = traced_run(
        LOOP_SRC,
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        1,
    );
    assert!(events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
    // First issue is at the entry point.
    let first = events.iter().find_map(|e| match e {
        TraceEvent::Issue { addr, .. } => Some(*addr),
        _ => None,
    });
    assert_eq!(first, Some(0));
}

#[test]
fn branch_resolutions_traced() {
    let (events, stats) = traced_run(
        LOOP_SRC,
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        1,
    );
    let taken = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::BranchResolved { taken: true, .. }))
        .count() as u64;
    let not_taken = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::BranchResolved { taken: false, .. }))
        .count() as u64;
    assert_eq!(taken, stats.branches_taken);
    assert_eq!(not_taken, stats.branches_not_taken);
}

#[test]
fn region_profiler_splits_loop_from_prologue() {
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(LOOP_SRC)
        .unwrap();
    let top = program.symbols()["top"];
    let cfg = SimConfig {
        fetch: FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        ..SimConfig::default()
    };
    let profiler = Rc::new(RefCell::new(RegionProfiler::new(vec![
        Region {
            name: "prologue".into(),
            start: 0,
            end: top,
        },
        Region {
            name: "loop".into(),
            start: top,
            end: program.end(),
        },
    ])));
    let proc = Processor::new(&program, &cfg).unwrap();
    let mut proc = proc.with_trace(Rc::clone(&profiler));
    proc.run().unwrap();
    let stats = proc.stats();

    let p = profiler.borrow();
    let results: Vec<_> = p
        .results()
        .map(|(r, c, i)| (r.name.clone(), c, i))
        .collect();
    assert_eq!(results[0].2, 2, "prologue instructions");
    assert_eq!(
        results[0].2 + results[1].2,
        stats.instructions_issued,
        "all instructions attributed"
    );
    assert!(results[1].1 >= results[1].2, "cycles >= instructions");
}
