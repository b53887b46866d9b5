//! Trace-driven sweep execution.
//!
//! Connects the `pipe-trace` subsystem to the sweep engine: a
//! [`WorkloadSpec::Trace`](crate::sweep::WorkloadSpec) names a binary
//! `.ptr` trace file, and every job of the sweep replays that trace
//! through its fetch engine instead of running the functional core. The
//! workload fragment of each point's key is the FNV-1a 64 digest of the
//! trace file's bytes, so the key names the trace content rather than its
//! path. No figure uses this; perfbench's `scalar` workload drives it.
//!
//! A trace carries the canonical key of the workload it was recorded
//! from; [`parse_workload_key`] inverts
//! [`WorkloadSpec::key`](crate::sweep::WorkloadSpec::key) so the backing
//! program can be rebuilt bit-identically (verified against the trace
//! header's program fingerprint).

use std::path::Path;

use pipe_core::{FetchStrategy, SimStats};
use pipe_icache::ReplayStats;
use pipe_isa::{InstrFormat, Program};
use pipe_mem::MemConfig;
use pipe_trace::{program_fnv, replay_trace, TraceReader};

use crate::runner::ExperimentPoint;
use crate::sweep::WorkloadSpec;

fn parse_format(s: &str) -> Option<InstrFormat> {
    match s {
        "fixed-32" => Some(InstrFormat::Fixed32),
        "mixed-16/32" => Some(InstrFormat::Mixed),
        _ => None,
    }
}

/// Parses a canonical workload key (the exact strings
/// [`WorkloadSpec::key`] produces) back into a [`WorkloadSpec`], so a
/// binary trace's backing program can be rebuilt from its header alone.
/// Returns `None` for keys this build cannot reconstruct.
pub fn parse_workload_key(key: &str) -> Option<WorkloadSpec> {
    let (kind, rest) = key.split_once(':')?;
    let field = |name: &str| {
        rest.split(',')
            .filter_map(|f| f.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    };
    match kind {
        "livermore" => Some(WorkloadSpec::Livermore {
            format: parse_format(field("format")?)?,
            scale: field("scale")?.parse().ok()?,
        }),
        _ => None,
    }
}

/// Rebuilds the program backing a trace file: the workload named in its
/// header, fingerprint-checked against the recorded program.
///
/// # Errors
///
/// A user-facing message for I/O failures, undecodable traces, workload
/// keys this build cannot reconstruct, and fingerprint mismatches.
pub fn trace_program(path: &Path) -> Result<Program, String> {
    let display = path.display();
    let reader = TraceReader::open(path).map_err(|e| format!("{display}: {e}"))?;
    let workload = &reader.meta().workload;
    let spec = parse_workload_key(workload).ok_or_else(|| {
        format!(
            "{display}: trace records workload `{workload}`, which this build \
             cannot reconstruct"
        )
    })?;
    let program = spec.build();
    let got = program_fnv(&program);
    let expected = reader.meta().program_fnv;
    if got != expected {
        return Err(format!(
            "{display}: rebuilt workload `{workload}` hashes to {got:#018x}, \
             but the trace was recorded from {expected:#018x}"
        ));
    }
    Ok(program)
}

/// Converts replay statistics into a sweep [`ExperimentPoint`]. Recorded
/// non-fetch stall cycles land in `stalls.data_wait` (the replay model
/// does not distinguish data, queue, and branch stalls).
pub fn point_from_replay(stats: &ReplayStats, cache_bytes: u32) -> ExperimentPoint {
    let mut s = SimStats {
        cycles: stats.cycles,
        instructions_issued: stats.instructions,
        ..SimStats::default()
    };
    s.stalls.ifetch = stats.ifetch_stalls;
    s.stalls.data_wait = stats.wait_cycles;
    s.fetch = stats.fetch.clone();
    ExperimentPoint {
        cache_bytes,
        cycles: stats.cycles,
        stats: s,
    }
}

/// Replays the trace at `path` through `fetch` and returns the measured
/// point — the trace-driven counterpart of
/// [`try_run_point_decoded`](crate::runner::try_run_point_decoded).
/// `program` must be the trace's backing program (see [`trace_program`]).
///
/// # Errors
///
/// A user-facing message for trace decoding failures (including CRC
/// errors), configuration errors, and stuck replays.
pub fn replay_point(
    path: &Path,
    program: &Program,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
) -> Result<ExperimentPoint, String> {
    let display = path.display();
    let reader = TraceReader::open(path).map_err(|e| format!("{display}: {e}"))?;
    let stats = replay_trace(reader, program, &fetch, mem)
        .map_err(|e| format!("{display}: {e}"))?
        .stats;
    Ok(point_from_replay(&stats, cache_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::StrategyKind;
    use crate::sweep::{SweepRunner, SweepSpec};
    use pipe_core::Processor;
    use pipe_icache::PrefetchPolicy;
    use pipe_trace::{TraceMeta, TraceRecorder};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn workload_keys_round_trip() {
        for spec in [
            WorkloadSpec::Livermore {
                format: InstrFormat::Fixed32,
                scale: 20,
            },
            WorkloadSpec::Livermore {
                format: InstrFormat::Mixed,
                scale: 1,
            },
        ] {
            assert_eq!(parse_workload_key(&spec.key()), Some(spec.clone()));
        }
        assert_eq!(parse_workload_key("unknown:x=1"), None);
        assert_eq!(parse_workload_key("livermore:scale=1"), None);
    }

    /// Records a run of the Livermore loops, scaled down 50 times, into a
    /// `.ptr` file and returns its path.
    fn record_livermore(dir: &Path) -> std::path::PathBuf {
        let spec = WorkloadSpec::Livermore {
            format: InstrFormat::Fixed32,
            scale: 50,
        };
        let program = spec.build();
        let config = pipe_core::SimConfig::default();
        let meta = TraceMeta {
            workload: spec.key(),
            program_fnv: program_fnv(&program),
            entry_pc: program.entry(),
            fetch_key: config.fetch.cache_key(),
            mem_key: crate::sweep::mem_key(&config.mem),
        };
        let path = dir.join("livermore.ptr");
        let recorder = Rc::new(RefCell::new(
            TraceRecorder::create(&path, &meta).expect("creates trace"),
        ));
        let proc = Processor::new(&program, &config).expect("builds");
        let mut proc = proc.with_trace(Rc::clone(&recorder));
        proc.run().expect("runs");
        let stats = proc.stats();
        recorder
            .borrow_mut()
            .finish(stats.cycles)
            .expect("finishes trace");
        path
    }

    #[test]
    fn trace_driven_sweep_keys_on_content_hash() {
        let dir = std::env::temp_dir().join(format!("pipe-tracerun-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = record_livermore(&dir);

        let workload = WorkloadSpec::trace(&trace).expect("trace workload");
        let fnv = pipe_trace::file_fnv(&trace).unwrap();
        assert_eq!(workload.key(), format!("trace:fnv={fnv:016x}"));

        let spec = SweepSpec {
            id: "trace-sweep".to_string(),
            strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x16],
            cache_sizes: vec![32, 64],
            mem: MemConfig::default(),
            policy: PrefetchPolicy::TruePrefetch,
            workload,
        };
        for job in spec.expand() {
            assert!(job.key().contains(&format!("trace:fnv={fnv:016x}")));
        }
        // Every replayed point issues exactly the recorded instruction
        // count, whatever the fetch engine.
        let recorded_instructions = pipe_core::run_program(
            &trace_program(&trace).unwrap(),
            &pipe_core::SimConfig::default(),
        )
        .unwrap()
        .instructions_issued;
        let outcome = SweepRunner::new().try_run(&spec).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.computed, 4);
        for series in &outcome.series {
            for point in &series.points {
                assert!(point.cycles > 0);
                assert_eq!(point.stats.instructions_issued, recorded_instructions);
            }
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replayed_trace_matches_recorded_run_through_sweep_path() {
        let dir = std::env::temp_dir().join(format!("pipe-tracerun-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = record_livermore(&dir);
        let program = trace_program(&trace).expect("rebuilds program");

        // Replay under the recorded configuration: bit-identical totals.
        let config = pipe_core::SimConfig::default();
        let point =
            replay_point(&trace, &program, config.fetch, &config.mem, 128).expect("replays");
        let reference = pipe_core::run_program(&program, &config).expect("reference run");
        assert_eq!(point.cycles, reference.cycles);
        assert_eq!(point.stats.stalls.ifetch, reference.stalls.ifetch);
        assert_eq!(
            point.stats.instructions_issued,
            reference.instructions_issued
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
