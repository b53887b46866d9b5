//! Record one Livermore run as a binary trace, then replay the identical
//! instruction stream through three fetch engines — the trace subsystem's
//! "capture once, evaluate many" workflow — and once more through the
//! recorded engine, which must reproduce the recorded run exactly.
//!
//! ```sh
//! cargo run --release --example trace_replay [scale]
//! ```
//!
//! `scale` divides the benchmark's iteration counts (default 10); use 1
//! for the paper's full 150,575-instruction run.

use std::cell::RefCell;
use std::io::Cursor;
use std::rc::Rc;

use pipe_repro::core::{Processor, SimConfig};
use pipe_repro::experiments::{mem_key, WorkloadSpec};
use pipe_repro::icache::{CacheConfig, PipeFetchConfig};
use pipe_repro::prelude::{FetchStrategy, InstrFormat};
use pipe_repro::trace::{program_fnv, replay_trace, TraceMeta, TraceReader, TraceRecorder};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10)
        .max(1);

    let spec = WorkloadSpec::Livermore {
        format: InstrFormat::Fixed32,
        scale,
    };
    let program = spec.build();
    let config = SimConfig::default();

    // --- record: one functional run, captured into an in-memory trace ---
    let meta = TraceMeta {
        workload: spec.key(),
        program_fnv: program_fnv(&program),
        entry_pc: program.entry(),
        fetch_key: config.fetch.cache_key(),
        mem_key: mem_key(&config.mem),
    };
    let recorder = Rc::new(RefCell::new(
        TraceRecorder::new(Vec::new(), &meta).expect("trace header writes"),
    ));
    let proc = Processor::new(&program, &config).expect("processor builds");
    let mut proc = proc.with_trace(Rc::clone(&recorder));
    proc.run().expect("benchmark runs");
    let stats = proc.stats();
    let (bytes, summary) = recorder
        .borrow_mut()
        .finish(stats.cycles)
        .expect("trace finishes");
    println!(
        "recorded {} instructions ({} cycles) into a {}-byte trace\n",
        summary.instructions,
        summary.cycles,
        bytes.len()
    );

    // --- replay: the same stream through three different fetch engines ---
    let engines: Vec<(&str, FetchStrategy)> = vec![
        (
            "conventional 64 B cache",
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
        ),
        (
            "PIPE 16 B IQ + 16 B IQB",
            FetchStrategy::Pipe(PipeFetchConfig::table2(128, 16, 16, 16)),
        ),
        ("perfect fetch (lower bound)", FetchStrategy::Perfect),
    ];

    println!(
        "{:<28} {:>10} {:>8} {:>14} {:>12}",
        "engine", "cycles", "CPI", "ifetch stalls", "bytes req'd"
    );
    for (name, fetch) in engines {
        let reader = TraceReader::new(Cursor::new(bytes.clone())).expect("trace decodes");
        let outcome = replay_trace(reader, &program, &fetch, &config.mem).expect("trace replays");
        let s = &outcome.stats;
        println!(
            "{:<28} {:>10} {:>8.3} {:>14} {:>12}",
            name,
            s.cycles,
            s.cpi(),
            s.ifetch_stalls,
            s.fetch.bytes_requested
        );
    }

    // --- replay under the recorded engine: the recorded run, bit for bit ---
    let reader = TraceReader::new(Cursor::new(bytes)).expect("trace decodes");
    let outcome =
        replay_trace(reader, &program, &config.fetch, &config.mem).expect("trace replays");
    assert!(
        outcome.matches_recording(),
        "a replay under the recorded engine must reproduce the recorded run"
    );
    println!(
        "\nreplayed under the recorded engine (`{}`): {} cycles, {} ifetch stalls, \
         equal to the recorded run",
        meta.fetch_key, outcome.stats.cycles, outcome.stats.ifetch_stalls
    );
}
