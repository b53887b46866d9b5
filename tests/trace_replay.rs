//! Acceptance tests for the trace record & replay subsystem
//! (`pipe-trace`): recording a run must capture the instruction stream
//! exactly, replaying it under the recorded configuration must reproduce
//! the fetch-side results bit for bit, and damaged or mismatched traces
//! must fail with typed errors rather than panics.

use std::cell::RefCell;
use std::io::Cursor;
use std::rc::Rc;

use pipe_core::{Processor, SimConfig, SimStats};
use pipe_icache::{EngineBuilder, FetchKind};
use pipe_isa::{Assembler, InstrFormat, Program};
use pipe_trace::{
    crc32::crc32, program_fnv, replay_trace, varint, ReplayTraceError, TraceError, TraceMeta,
    TraceReader, TraceRecorder, TraceSummary,
};

/// Records `program` running under `config` into an in-memory trace.
fn record(program: &Program, config: &SimConfig) -> (Vec<u8>, SimStats, TraceSummary) {
    let meta = TraceMeta {
        workload: "test:acceptance".into(),
        program_fnv: program_fnv(program),
        entry_pc: program.entry(),
        fetch_key: config.fetch.cache_key(),
        mem_key: pipe_experiments::mem_key(&config.mem),
    };
    let recorder = Rc::new(RefCell::new(
        TraceRecorder::new(Vec::new(), &meta).expect("trace header writes"),
    ));
    let proc = Processor::new(program, config).expect("processor builds");
    let mut proc = proc.with_trace(Rc::clone(&recorder));
    proc.run().expect("program runs to halt");
    let stats = proc.stats().clone();
    let (bytes, summary) = recorder
        .borrow_mut()
        .finish(stats.cycles)
        .expect("trace finishes");
    (bytes, stats, summary)
}

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
        EngineBuilder::new(FetchKind::Perfect).config().unwrap(),
        EngineBuilder::new(FetchKind::Conventional)
            .cache_bytes(64)
            .line_bytes(16)
            .config()
            .unwrap(),
        EngineBuilder::new(FetchKind::Pipe)
            .cache_bytes(128)
            .line_bytes(16)
            .config()
            .unwrap(),
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
