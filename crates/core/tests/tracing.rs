//! Trace-infrastructure integration: events are complete, ordered, and
//! consistent with the statistics.

use std::cell::RefCell;
use std::rc::Rc;

use pipe_core::{
    FetchStrategy, Processor, Region, RegionProfiler, SimConfig, SimStats, TraceEvent, TraceSink,
    VecTrace,
};
use pipe_icache::repeat::RepeatCounts;
use pipe_icache::{BufferConfig, CacheConfig, PipeFetchConfig, TibConfig};
use pipe_isa::{Assembler, InstrFormat, Program};
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

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

/// Per-region cycles and instructions, and the cycles outside all regions.
type Profile = (Vec<(u64, u64)>, u64);

/// Profiles `program` under `config` over `regions`, with the profiler
/// shared through an `Rc<RefCell<_>>` that `wrap` turns into the
/// processor's sink: through `run`, returning what its loop skip did, or,
/// if `tick`, by ticking `step` to the end.
fn profiled<S: TraceSink>(
    program: &Program,
    config: &SimConfig,
    regions: &[Region],
    wrap: impl FnOnce(Rc<RefCell<RegionProfiler>>) -> S,
    tick: bool,
) -> (Profile, SimStats, RepeatCounts) {
    let profiler = Rc::new(RefCell::new(RegionProfiler::new(regions.to_vec())));
    let proc = Processor::new(program, config).unwrap();
    let mut proc = proc.with_trace(wrap(Rc::clone(&profiler)));
    let counts = if tick {
        while !proc.is_done() {
            proc.step().unwrap();
        }
        proc.run().unwrap();
        RepeatCounts::default()
    } else {
        proc.run_counting_repeats().unwrap()
    };
    let p = profiler.borrow();
    let per_region = p.results().map(|(_, c, i)| (c, i)).collect();
    ((per_region, p.other_cycles()), proc.into_stats(), counts)
}

/// `run` keeps its loop skip on for a `RegionProfiler`, which takes whole
/// iterations. Profiling every Livermore loop (a trip-scaled suite) under
/// all five engines at Figure 4a and Figure 5b timing, through both
/// forwarding sinks, `Rc<RefCell<_>>` and `Box<dyn TraceSink>`, the skip
/// applies iterations and the profile and statistics equal ticking's. A
/// forwarding sink that dropped `takes_iterations` would tick instead,
/// and one that dropped `iteration` would decline every repeat.
#[test]
fn livermore_profiles_apply_iterations_and_equal_ticking() {
    let suite = LivermoreSuite::build_scaled(InstrFormat::Fixed32, 20).unwrap();
    let regions: Vec<Region> = suite
        .loops()
        .iter()
        .map(|info| Region {
            name: format!("LL{}", info.index),
            start: info.top_address,
            end: info.top_address + info.inner_loop_bytes,
        })
        .collect();
    let engines = [
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(128, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(128, 16, 16, 16)),
        FetchStrategy::Tib(TibConfig::with_budget(128, 16)),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 4,
            cache: None,
        }),
    ];
    // Figure 4a: 1-cycle memory, 4-byte bus; Figure 5b: 6-cycle, 8-byte.
    for (access_cycles, in_bus_bytes) in [(1, 4), (6, 8)] {
        for fetch in engines {
            let config = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles,
                    in_bus_bytes,
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let context = format!("{fetch} at access {access_cycles}, bus {in_bus_bytes}");
            let (ticked, ticked_stats, _) =
                profiled(suite.program(), &config, &regions, |p| p, true);
            let shared = profiled(suite.program(), &config, &regions, |p| p, false);
            let boxed = profiled(
                suite.program(),
                &config,
                &regions,
                |p| Box::new(p) as Box<dyn TraceSink>,
                false,
            );
            for (sink, (profile, stats, counts)) in [("Rc", shared), ("Box", boxed)] {
                assert!(counts.iterations > 0, "{context}, {sink}: nothing applied");
                assert_eq!(profile, ticked, "{context}, {sink}");
                assert_eq!(stats, ticked_stats, "{context}, {sink}");
            }
        }
    }
}
