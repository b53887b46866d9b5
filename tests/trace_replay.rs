//! Acceptance tests for the trace record & replay subsystem
//! (`pipe-trace`): recording a run must capture the instruction stream
//! exactly, replaying it under the recorded configuration must reproduce
//! the fetch-side results bit for bit, and damaged or mismatched traces
//! must fail with typed errors rather than panics.

mod common;

use std::io::Cursor;

use common::{record, replay_ticked, steps};
use pipe_core::SimConfig;
use pipe_experiments::{figure_mem, StrategyKind, SweepSpec};
use pipe_icache::repeat::MAX_ITERATION_EVENTS;
use pipe_icache::{
    CacheConfig, FetchConfig, PipeFetchConfig, PrefetchPolicy, ReplayHarness, ReplayOp, ReplayStep,
};
use pipe_isa::{Assembler, InstrFormat, Program};
use pipe_mem::{MemorySystem, FPU_BASE};
use pipe_trace::{
    crc32::crc32, program_fnv, replay_trace, varint, ReplayTraceError, TraceError, TraceReader,
};

fn scaled_livermore(scale: u32) -> Program {
    pipe_experiments::WorkloadSpec::Livermore {
        format: InstrFormat::Fixed32,
        scale,
    }
    .build()
}

/// The headline guarantee: recording the full 150,575-instruction
/// Livermore benchmark and replaying the trace under the recorded
/// configuration reproduces the fetch-stall cycle count — and every other
/// fetch-side statistic — bit-identically.
#[test]
fn full_livermore_record_replay_is_bit_identical() {
    let suite = pipe_workloads::livermore_benchmark();
    let program = suite.program().clone();
    let config = SimConfig::default();

    let (bytes, stats, summary) = record(&program, &config);
    assert_eq!(summary.instructions, stats.instructions_issued);
    assert_eq!(summary.cycles, stats.cycles);
    // Recording is passive: the recorded run equals an unrecorded one.
    let unrecorded = pipe_core::run_program(&program, &config).expect("program runs to halt");
    assert_eq!(stats, unrecorded);

    let reader = TraceReader::new(Cursor::new(bytes)).expect("trace decodes");
    let outcome =
        replay_trace(reader, &program, &config.fetch, &config.mem).expect("trace replays");
    assert!(outcome.matches_recording());
    assert_eq!(outcome.stats.cycles, stats.cycles);
    assert_eq!(outcome.stats.instructions, stats.instructions_issued);
    assert_eq!(outcome.stats.ifetch_stalls, stats.stalls.ifetch);
    assert_eq!(outcome.stats.fetch, stats.fetch);
}

/// One recording replays through arbitrary fetch engines: all deliver the
/// same instruction stream, and perfect fetch lower-bounds the cycle
/// counts.
#[test]
fn one_recording_replays_through_other_engines() {
    let program = scaled_livermore(20);
    let config = SimConfig::default();
    let (bytes, stats, _) = record(&program, &config);

    let engines = [
        FetchConfig::Perfect,
        FetchConfig::conventional(CacheConfig::new(64, 16)),
        FetchConfig::Pipe(PipeFetchConfig::table2(128, 16, 16, 16)),
    ];
    let mut cycles = Vec::new();
    for fetch in engines {
        let reader = TraceReader::new(Cursor::new(bytes.clone())).expect("trace decodes");
        let outcome = replay_trace(reader, &program, &fetch, &config.mem).expect("trace replays");
        assert_eq!(outcome.stats.instructions, stats.instructions_issued);
        cycles.push(outcome.stats.cycles);
    }
    let perfect = cycles[0];
    assert!(cycles.iter().all(|&c| c >= perfect));
}

/// A flipped byte inside a payload block is rejected with the typed
/// `CorruptBlock` error — never a panic, never silently wrong data.
#[test]
fn corrupted_trace_block_is_a_typed_error() {
    let program = scaled_livermore(50);
    let config = SimConfig::default();
    let (mut bytes, _, _) = record(&program, &config);

    // Flip a byte well past the header, inside step-block payload.
    let target = bytes.len() / 2;
    bytes[target] ^= 0xff;

    let result = match TraceReader::new(Cursor::new(bytes)) {
        Ok(reader) => replay_trace(reader, &program, &config.fetch, &config.mem).map(|_| ()),
        // A flip landing in a block header can surface at open time.
        Err(e) => Err(ReplayTraceError::Trace(e)),
    };
    match result {
        Err(ReplayTraceError::Trace(
            TraceError::CorruptBlock { .. } | TraceError::Malformed(_) | TraceError::Truncated,
        )) => {}
        other => panic!("expected a typed trace error, got {other:?}"),
    }
}

/// A short loop with a load, a store and a taken branch, so its trace
/// holds every kind of step field: addresses, waits, data ops and
/// branch resolutions.
const SMALL_LOOP: &str = "
    lim  r1, 2
    lim  r3, 0x100
    ldw  r3, 0
    sta  r3, 4
    or   r7, r7, r7
    lbr  b0, top
top:
    subi r1, r1, 1
    pbr.nez b0, r1, 0
    halt
";

/// One block of an encoded trace: its marker, where its CRC sits, and
/// its payload.
struct Block {
    marker: u8,
    crc_at: usize,
    payload: std::ops::Range<usize>,
}

/// Splits an encoded trace into its blocks (after magic and version).
fn blocks(bytes: &[u8]) -> Vec<Block> {
    let mut out = Vec::new();
    let mut pos = 6;
    while pos < bytes.len() {
        let marker = bytes[pos];
        pos += 1;
        let len = varint::read_u64(bytes, &mut pos).expect("block length") as usize;
        let crc_at = pos;
        pos += 4;
        out.push(Block {
            marker,
            crc_at,
            payload: pos..pos + len,
        });
        pos += len;
    }
    assert_eq!(pos, bytes.len(), "blocks tile the trace");
    out
}

/// Damage that passes the CRC check reaches the header, step and
/// summary decoders. Every single-bit flip and every `0xFF` overwrite of
/// every payload byte, with the block CRC repaired, must replay to `Ok`
/// or a typed error, never a panic.
#[test]
fn crc_repaired_payload_damage_is_a_typed_error_not_a_panic() {
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(SMALL_LOOP)
        .expect("loop assembles");
    let config = SimConfig::default();
    let (bytes, _, _) = record(&program, &config);
    let blocks = blocks(&bytes);
    let markers: Vec<u8> = blocks.iter().map(|b| b.marker).collect();
    assert_eq!(markers, b"HBE", "one header, one step block, one summary");

    let mut cases = Vec::new();
    for block in &blocks {
        for at in block.payload.clone() {
            let original = bytes[at];
            let damage = (0..8).map(|bit| original ^ (1 << bit)).chain([0xFF]);
            cases.extend(damage.filter(|&v| v != original).map(|v| (block, at, v)));
        }
    }
    let replay_damaged = |&(block, at, value): &(&Block, usize, u8)| {
        let mut damaged = bytes.clone();
        damaged[at] = value;
        let crc = crc32(&damaged[block.payload.clone()]);
        damaged[block.crc_at..block.crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let reader = TraceReader::new(Cursor::new(damaged)).map_err(ReplayTraceError::Trace)?;
            replay_trace(reader, &program, &config.fetch, &config.mem).map(|_| ())
        }))
    };
    // A case that sends fetch off the image spends the replay's whole
    // progress limit before its `Stuck` error, so deal the cases out to
    // two threads.
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let mine = cases.iter().skip(w).step_by(2);
                s.spawn(move || mine.map(|c| (c, replay_damaged(c))).collect::<Vec<_>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("panics are caught per case"))
            .collect()
    });

    let (mut oks, mut malformed, mut mismatches) = (0, 0, 0);
    let mut panics = Vec::new();
    for (&(block, at, value), result) in results {
        match result {
            Ok(Ok(())) => oks += 1,
            Ok(Err(ReplayTraceError::Trace(TraceError::Malformed(_)))) => malformed += 1,
            Ok(Err(ReplayTraceError::ProgramMismatch { .. })) => mismatches += 1,
            Ok(Err(ReplayTraceError::Trace(TraceError::CorruptBlock { .. }))) => {
                panic!("byte {at}: the CRC repair missed")
            }
            Ok(Err(_)) => {}
            Err(_) => panics.push((block.marker as char, at, value)),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {} cases panicked: {panics:?}",
        panics.len(),
        cases.len()
    );
    // The damage got past the CRC into the decoders' error paths.
    assert!(
        oks > 0 && malformed > 0 && mismatches > 0,
        "{oks} ok, {malformed} malformed, {mismatches} mismatched"
    );
}

/// Replaying against the wrong program is caught by the header's program
/// fingerprint before any cycles are simulated.
#[test]
fn wrong_program_is_a_typed_mismatch() {
    let program = scaled_livermore(50);
    let config = SimConfig::default();
    let (bytes, _, _) = record(&program, &config);

    let other = pipe_workloads::synthetic::tight_loop(6, 30, InstrFormat::Fixed32);
    let reader = TraceReader::new(Cursor::new(bytes)).expect("trace decodes");
    match replay_trace(reader, &other, &config.fetch, &config.mem) {
        Err(ReplayTraceError::ProgramMismatch { expected, got }) => {
            assert_eq!(expected, program_fnv(&program));
            assert_eq!(got, program_fnv(&other));
        }
        other => panic!("expected ProgramMismatch, got {other:?}"),
    }
}

/// A scaled Livermore run recorded the way perfbench records it: PIPE
/// 16-16 with a 128-byte cache at Figure 5b's memory timing.
fn recorded_livermore(scale: u32) -> (Program, Vec<u8>) {
    let program = scaled_livermore(scale);
    let config = SimConfig {
        fetch: StrategyKind::Pipe16x16
            .fetch_for(128, PrefetchPolicy::TruePrefetch)
            .expect("16-16 fits a 128-byte cache"),
        mem: figure_mem("5b").0,
        ..SimConfig::default()
    };
    let (bytes, _, _) = record(&program, &config);
    (program, bytes)
}

/// `replay_trace` applies repeating loop iterations in one step. On
/// every point of Figures 4a and 5b it must equal the step-by-step
/// replay in every statistic, and apply most of the cycles.
#[test]
fn loop_skip_replay_equals_ticked_replay_on_figure_points() {
    let (program, bytes) = recorded_livermore(10);
    for id in ["4a", "5b"] {
        let spec = SweepSpec::figure(id);
        let (mut applied, mut total) = (0, 0);
        for job in spec.expand() {
            let reader = TraceReader::new(&bytes[..]).expect("trace decodes");
            let outcome = replay_trace(reader, &program, &job.fetch, &spec.mem).expect("replays");
            let ticked =
                replay_ticked(steps(&bytes), &program, &job.fetch, &spec.mem).expect("replays");
            assert_eq!(
                outcome.stats,
                ticked,
                "fig{id}, {} at {} B",
                job.kind.label(),
                job.cache_bytes
            );
            applied += outcome.repeats.cycles;
            total += outcome.stats.cycles;
        }
        assert!(
            applied * 3 > total * 2,
            "fig{id}: {applied} of {total} cycles applied"
        );
    }
}

/// Replay is open loop, so at Figure 5b's timing a 512-byte conventional
/// cache lets the data queue run away. The skip then stops comparing
/// states, and the step log must stay within its bound all the same.
#[test]
fn runaway_data_queue_keeps_the_step_log_bounded() {
    let (program, bytes) = recorded_livermore(10);
    let fetch = StrategyKind::Conventional
        .fetch_for(512, PrefetchPolicy::TruePrefetch)
        .expect("conventional fits 512 bytes");
    let mem = figure_mem("5b").0;
    let reader = TraceReader::new(&bytes[..]).expect("trace decodes");
    let outcome = replay_trace(reader, &program, &fetch, &mem).expect("replays");
    let repeats = outcome.repeats;
    assert!(repeats.unsettled > 0, "{repeats:?}");
    assert!(
        repeats.longest_log <= 2 * MAX_ITERATION_EVENTS,
        "{repeats:?}"
    );
    let ticked = replay_ticked(steps(&bytes), &program, &fetch, &mem).expect("replays");
    assert_eq!(outcome.stats, ticked);
}

/// A loop that stores to data memory on every iteration.
const STORE_LOOP: &str = "
    lim  r1, 60
    lim  r3, 0x100
    lbr  b0, top
top:
    sta  r3, 4
    or   r7, r1, r1
    subi r1, r1, 1
    pbr.nez b0, r1, 0
    halt
";

/// The skip fires on a repeating schedule, and iterations that differ
/// from the ones before them in a field timing reads are ticked, not
/// applied: one more wait in a single step, or stores that become FPU
/// operations. The replay still equals ticking.
#[test]
fn an_iteration_that_differs_in_timing_is_ticked() {
    let program = Assembler::new(InstrFormat::Fixed32)
        .assemble(STORE_LOOP)
        .expect("loop assembles");
    let config = SimConfig {
        fetch: FetchConfig::conventional(CacheConfig::new(16, 16)),
        mem: figure_mem("4a").0,
        ..SimConfig::default()
    };
    let steps = steps(&record(&program, &config).0);
    let replay = |schedule: &[ReplayStep]| {
        let engine = config.fetch.build(&program).expect("engine builds");
        let mut harness = ReplayHarness::new(engine, MemorySystem::new(config.mem));
        let stats = harness.run(schedule.to_vec()).expect("replays");
        let ticked = replay_ticked(schedule.to_vec(), &program, &config.fetch, &config.mem);
        assert_eq!(Ok(&stats), ticked.as_ref());
        (stats, harness.repeats())
    };
    let (plain, plain_repeats) = replay(&steps);
    assert!(plain_repeats.iterations > 40, "{plain_repeats:?}");

    let branches: Vec<usize> = (0..steps.len())
        .filter(|&i| steps[i].resolve.is_some())
        .collect();
    // One more wait in the first step of the 31st iteration.
    let mut waits = steps.clone();
    waits[branches[30] + 1].waits += 1;
    // From the 31st iteration on, every store starts an FPU multiply.
    let mut fpu = steps.clone();
    for op in fpu[branches[30]..].iter_mut().flat_map(|s| &mut s.ops) {
        if let ReplayOp::StoreAddr { addr } = op {
            *addr = FPU_BASE + 4;
        }
    }
    for changed in [waits, fpu] {
        let (stats, repeats) = replay(&changed);
        assert_ne!(stats, plain, "the change must alter timing");
        assert!(repeats.iterations > 0, "{repeats:?}");
        assert!(repeats.iterations < plain_repeats.iterations, "{repeats:?}");
    }
}
