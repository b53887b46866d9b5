//! # pipe-cli
//!
//! Command-line front ends for the PIPE simulator:
//!
//! * **`pipe-sim`** — assemble a PIPE program and run it on a configurable
//!   processor (fetch strategy, cache geometry, memory timing), printing
//!   statistics and optionally a cycle trace.
//! * **`pipe-asm`** — assemble a program and print its disassembly or
//!   parcel hex dump.
//!
//! Argument parsing lives here so it can be unit tested; the binaries are
//! thin wrappers.

use pipe_core::{FetchStrategy, SimConfig};
use pipe_icache::{ConvPrefetch, EngineBuilder, FetchKind};
use pipe_isa::InstrFormat;
use pipe_mem::{MemConfig, PriorityPolicy};

mod bench;

pub use bench::{parse_bench_args, run_bench, BenchOptions, BENCH_USAGE};

/// Options for `pipe-sim`, parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Path to the assembly source (`-` for stdin), or `None` for
    /// `--livermore`.
    pub input: Option<String>,
    /// Run the built-in Livermore benchmark instead of a file.
    pub livermore: bool,
    /// The simulation configuration.
    pub config: SimConfig,
    /// Instruction format for assembly.
    pub format: InstrFormat,
    /// Attach a text trace to stderr.
    pub trace: bool,
    /// Record the run into a binary `.ptr` trace at this path.
    pub record_trace: Option<String>,
    /// Emit statistics as JSON instead of text.
    pub json: bool,
    /// Run the program on every fetch strategy and print a comparison.
    pub compare: bool,
    /// Raw cache size from the command line (for `--compare`).
    pub cache_bytes: u32,
    /// Raw line size from the command line (for `--compare`).
    pub line_bytes: u32,
    /// Run one of the paper's figure sweeps ("4a".."6b") instead of a
    /// single program.
    pub sweep: Option<String>,
    /// Worker threads for `--sweep`.
    pub jobs: usize,
    /// With `--sweep`, fail fast: the first failed point aborts the sweep
    /// and exits nonzero. Without it, failed points are reported and the
    /// rest of the sweep completes (exit 0).
    pub strict: bool,
    /// Fault injection for `--sweep` (test/diagnostic hooks).
    pub inject: pipe_experiments::FaultInjection,
}

/// The usage string for `pipe-sim`.
pub const SIM_USAGE: &str = "\
usage: pipe-sim [run] <program.s> [options]
       pipe-sim --livermore [options]
       pipe-sim --sweep 4a|4b|5a|5b|6a|6b [--jobs N] [--strict]
       pipe-sim replay <trace> [options]      (see pipe-sim replay --help)
       pipe-sim bench [options]               (see pipe-sim bench --help)

fetch strategy:
  --fetch pipe|conventional|tib|buffers|perfect   (default: pipe)
  --cache BYTES        cache size / TIB budget; 0 = no cache for buffers
                       (default: 128)
  --line BYTES         cache line size              (default: 16)
  --iq BYTES           PIPE instruction queue bytes, or buffer count for
                       --fetch buffers              (default: line / 4)
  --iqb BYTES          PIPE instruction queue buffer(default: line)
  --prefetch always|on-miss|tagged   conventional prefetch (default: always)

memory:
  --access CYCLES      memory access time           (default: 1)
  --bus BYTES          input bus width              (default: 4)
  --pipelined          pipelined external memory
  --data-first         data beats instructions at the memory interface

other:
  --format fixed32|mixed   instruction format       (default: fixed32)
  --trace              print a cycle trace to stderr
  --record-trace FILE  record the run into a binary .ptr trace (replay it
                       with `pipe-sim replay`)
  --json               emit statistics as JSON
  --compare            run on every fetch strategy and compare
  --max-cycles N       abort after N cycles

sweep mode (parallel experiment engine):
  --sweep ID           reproduce a paper figure panel (4a..6b)
  --jobs N             worker threads (cycle counts identical to serial)
  --strict             fail fast: abort on the first failed point and
                       exit nonzero (default: report failures, finish the
                       rest, exit 0)
  --inject-panic N     fault injection (testing): panic while simulating
                       sweep job N
";

fn parse_num(flag: &str, value: Option<&String>) -> Result<u32, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid number `{v}`"))
}

/// Parses `pipe-sim` arguments (excluding the program name).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags, missing values, or
/// inconsistent combinations.
pub fn parse_sim_args(args: &[String]) -> Result<SimOptions, String> {
    let mut input = None;
    let mut livermore = false;
    let mut fetch_kind = "pipe".to_string();
    let mut cache = 128u32;
    let mut line = 16u32;
    let mut iq = None;
    let mut iqb = None;
    let mut prefetch = ConvPrefetch::Always;
    let mut mem = MemConfig::default();
    let mut format = InstrFormat::Fixed32;
    let mut trace = false;
    let mut record_trace = None;
    let mut json = false;
    let mut compare = false;
    let mut max_cycles = 500_000_000u64;
    let mut sweep = None;
    let mut jobs = 1usize;
    let mut strict = false;
    let mut inject = pipe_experiments::FaultInjection::default();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--livermore" => livermore = true,
            "--fetch" => {
                fetch_kind = it
                    .next()
                    .ok_or("--fetch needs a value")?
                    .to_ascii_lowercase();
            }
            "--cache" => cache = parse_num("--cache", it.next())?,
            "--line" => line = parse_num("--line", it.next())?,
            "--iq" => iq = Some(parse_num("--iq", it.next())?),
            "--iqb" => iqb = Some(parse_num("--iqb", it.next())?),
            "--prefetch" => {
                prefetch = match it.next().map(String::as_str) {
                    Some("always") => ConvPrefetch::Always,
                    Some("on-miss") => ConvPrefetch::OnMissOnly,
                    Some("tagged") => ConvPrefetch::Tagged,
                    other => return Err(format!("--prefetch: unknown mode {other:?}")),
                };
            }
            "--access" => mem.access_cycles = parse_num("--access", it.next())?,
            "--bus" => mem.in_bus_bytes = parse_num("--bus", it.next())?,
            "--pipelined" => mem.pipelined = true,
            "--data-first" => mem.priority = PriorityPolicy::DataFirst,
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("fixed32") => InstrFormat::Fixed32,
                    Some("mixed") => InstrFormat::Mixed,
                    other => return Err(format!("--format: unknown format {other:?}")),
                };
            }
            "--trace" => trace = true,
            "--record-trace" => {
                record_trace = Some(it.next().ok_or("--record-trace needs a file")?.clone());
            }
            "--json" => json = true,
            "--compare" => compare = true,
            "--max-cycles" => {
                max_cycles = u64::from(parse_num("--max-cycles", it.next())?);
            }
            "--sweep" => {
                let id = it.next().ok_or("--sweep needs a figure id")?.clone();
                if !pipe_experiments::ALL_FIGURES.contains(&id.as_str()) {
                    return Err(format!("--sweep: unknown figure `{id}`"));
                }
                sweep = Some(id);
            }
            "--jobs" => jobs = parse_num("--jobs", it.next())? as usize,
            "--strict" => strict = true,
            "--inject-panic" => {
                inject
                    .panic_jobs
                    .push(parse_num("--inject-panic", it.next())? as usize);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown flag `{other}`"))
            }
            path => {
                if input.is_some() {
                    return Err("more than one input file".into());
                }
                input = Some(path.to_string());
            }
        }
    }

    if sweep.is_some() && (input.is_some() || livermore) {
        return Err("--sweep conflicts with an input program".into());
    }
    if sweep.is_none() && input.is_none() && !livermore {
        return Err("no input program (give a file, --livermore, or --sweep)".into());
    }
    if input.is_some() && livermore {
        return Err("--livermore conflicts with an input file".into());
    }
    if record_trace.is_some() && (sweep.is_some() || compare) {
        return Err("--record-trace records a single run (not --sweep or --compare)".into());
    }

    let kind = FetchKind::parse(&fetch_kind)
        .ok_or_else(|| format!("--fetch: unknown strategy `{fetch_kind}`"))?;
    let mut builder = EngineBuilder::new(kind)
        .cache_bytes(cache)
        .line_bytes(line)
        .prefetch(prefetch)
        .buffers(iq.unwrap_or(4))
        .buffer_cache(cache > 0);
    if let Some(iq) = iq {
        builder = builder.iq_bytes(iq);
    }
    if let Some(iqb) = iqb {
        builder = builder.iqb_bytes(iqb);
    }
    let fetch = builder.config().map_err(|e| e.to_string())?;

    let config = SimConfig {
        fetch,
        mem,
        max_cycles,
        ..SimConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;

    Ok(SimOptions {
        input,
        livermore,
        config,
        format,
        trace,
        record_trace,
        json,
        compare,
        cache_bytes: cache,
        line_bytes: line,
        sweep,
        jobs,
        strict,
        inject,
    })
}

/// Runs a `--sweep` figure reproduction on the parallel sweep engine and
/// returns the rendered table. Fault-tolerant by default: failed points
/// are listed below the table (and marked `-` in it) while every other
/// point completes. Under `--strict` the first failure aborts the sweep
/// and returns an error.
///
/// # Errors
///
/// Returns a user-facing message if the sweep is strict and a point
/// failed.
pub fn run_sweep(opts: &SimOptions) -> Result<String, String> {
    let id = opts.sweep.as_deref().expect("sweep mode");
    let runner = pipe_experiments::SweepRunner::new()
        .jobs(opts.jobs)
        .progress(true)
        .strict(opts.strict)
        .inject(opts.inject.clone());
    let run = pipe_experiments::try_figure_with(id, &runner).map_err(|e| e.to_string())?;
    let mut out = pipe_experiments::render_text(&run.figure);
    out.push_str(&pipe_experiments::render_failures(run.failed()));
    Ok(out)
}

/// Options for `pipe-sim replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOptions {
    /// Path to the trace: binary `.ptr` or plain-text addresses.
    pub trace: String,
    /// Explicit backing program, for traces whose recorded workload this
    /// binary cannot rebuild.
    pub program: Option<String>,
    /// Instruction format for assembling `--program`.
    pub format: InstrFormat,
    /// The fetch engine to replay through.
    pub fetch: FetchStrategy,
    /// External memory timing.
    pub mem: MemConfig,
    /// Fail unless the replay reproduces the recorded totals exactly.
    pub verify: bool,
    /// Emit statistics as JSON.
    pub json: bool,
}

/// The usage string for `pipe-sim replay`.
pub const REPLAY_USAGE: &str = "\
usage: pipe-sim replay <trace> [options]

Replays a recorded instruction trace through a fetch engine without the
functional core. <trace> is a binary .ptr file (from --record-trace) or a
plain-text address trace (one fetch address per line, decimal or 0x hex,
`#` comments). For a binary trace the backing program is rebuilt from the
trace header when possible; otherwise pass --program.

options:
  --program FILE       the program the trace was recorded from
                       (fingerprint-checked against the trace header)
  --format fixed32|mixed   instruction format for --program
  --fetch pipe|conventional|tib|buffers|perfect   (default: pipe)
  --cache BYTES        cache size / TIB budget     (default: 128)
  --line BYTES         cache line size             (default: 16)
  --iq BYTES           PIPE instruction queue bytes
  --iqb BYTES          PIPE instruction queue buffer bytes
  --prefetch always|on-miss|tagged   conventional prefetch
  --access CYCLES      memory access time          (default: 1)
  --bus BYTES          input bus width             (default: 4)
  --pipelined          pipelined external memory
  --data-first         data beats instructions at the memory interface
  --verify             exit nonzero unless the replay reproduces the
                       recorded instruction/cycle/ifetch-stall totals
                       (requires replaying the recorded configuration)
  --json               emit statistics as JSON
";

/// Parses `pipe-sim replay` arguments (excluding the subcommand name).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags, missing values, or a
/// missing trace path.
pub fn parse_replay_args(args: &[String]) -> Result<ReplayOptions, String> {
    let mut trace = None;
    let mut program = None;
    let mut format = InstrFormat::Fixed32;
    let mut fetch_kind = "pipe".to_string();
    let mut cache = 128u32;
    let mut line = 16u32;
    let mut iq = None;
    let mut iqb = None;
    let mut prefetch = ConvPrefetch::Always;
    let mut mem = MemConfig::default();
    let mut verify = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--program" => {
                program = Some(it.next().ok_or("--program needs a file")?.clone());
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("fixed32") => InstrFormat::Fixed32,
                    Some("mixed") => InstrFormat::Mixed,
                    other => return Err(format!("--format: unknown format {other:?}")),
                };
            }
            "--fetch" => {
                fetch_kind = it
                    .next()
                    .ok_or("--fetch needs a value")?
                    .to_ascii_lowercase();
            }
            "--cache" => cache = parse_num("--cache", it.next())?,
            "--line" => line = parse_num("--line", it.next())?,
            "--iq" => iq = Some(parse_num("--iq", it.next())?),
            "--iqb" => iqb = Some(parse_num("--iqb", it.next())?),
            "--prefetch" => {
                prefetch = match it.next().map(String::as_str) {
                    Some("always") => ConvPrefetch::Always,
                    Some("on-miss") => ConvPrefetch::OnMissOnly,
                    Some("tagged") => ConvPrefetch::Tagged,
                    other => return Err(format!("--prefetch: unknown mode {other:?}")),
                };
            }
            "--access" => mem.access_cycles = parse_num("--access", it.next())?,
            "--bus" => mem.in_bus_bytes = parse_num("--bus", it.next())?,
            "--pipelined" => mem.pipelined = true,
            "--data-first" => mem.priority = PriorityPolicy::DataFirst,
            "--verify" => verify = true,
            "--json" => json = true,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            path => {
                if trace.is_some() {
                    return Err("more than one trace file".into());
                }
                trace = Some(path.to_string());
            }
        }
    }

    let kind = FetchKind::parse(&fetch_kind)
        .ok_or_else(|| format!("--fetch: unknown strategy `{fetch_kind}`"))?;
    let mut builder = EngineBuilder::new(kind)
        .cache_bytes(cache)
        .line_bytes(line)
        .prefetch(prefetch)
        .buffers(iq.unwrap_or(4))
        .buffer_cache(cache > 0);
    if let Some(iq) = iq {
        builder = builder.iq_bytes(iq);
    }
    if let Some(iqb) = iqb {
        builder = builder.iqb_bytes(iqb);
    }
    let fetch = builder.config().map_err(|e| e.to_string())?;

    Ok(ReplayOptions {
        trace: trace.ok_or("no trace file (give a .ptr or address-trace path)")?,
        program,
        format,
        fetch,
        mem,
        verify,
        json,
    })
}

/// Renders replay statistics as text.
pub fn render_replay_stats(stats: &pipe_icache::ReplayStats) -> String {
    format!(
        "{} instructions, {} cycles (CPI {:.3})\n\
         ifetch-stall cycles {}, recorded wait cycles {}\n\
         fetch: {} demand + {} prefetch requests, {} bytes, \
         {} hits / {} misses, {} redirects\n",
        stats.instructions,
        stats.cycles,
        stats.cpi(),
        stats.ifetch_stalls,
        stats.wait_cycles,
        stats.fetch.demand_requests,
        stats.fetch.prefetch_requests,
        stats.fetch.bytes_requested,
        stats.fetch.cache_hits,
        stats.fetch.cache_misses,
        stats.fetch.redirects,
    )
}

/// Serializes replay statistics as a JSON object.
pub fn replay_stats_json(stats: &pipe_icache::ReplayStats) -> String {
    format!(
        concat!(
            "{{\"cycles\":{},\"instructions\":{},\"cpi\":{:.4},",
            "\"ifetch_stalls\":{},\"wait_cycles\":{},",
            "\"fetch\":{{\"demand_requests\":{},\"prefetch_requests\":{},",
            "\"bytes_requested\":{},\"cache_hits\":{},\"cache_misses\":{},",
            "\"redirects\":{},\"wasted_requests\":{}}}}}"
        ),
        stats.cycles,
        stats.instructions,
        stats.cpi(),
        stats.ifetch_stalls,
        stats.wait_cycles,
        stats.fetch.demand_requests,
        stats.fetch.prefetch_requests,
        stats.fetch.bytes_requested,
        stats.fetch.cache_hits,
        stats.fetch.cache_misses,
        stats.fetch.redirects,
        stats.fetch.wasted_requests,
    )
}

/// Runs `pipe-sim replay`: loads the trace, rebuilds or loads the backing
/// program, replays it through the configured fetch engine, and returns
/// the rendered statistics. With `verify`, an inexact reproduction of the
/// recorded totals is an error.
///
/// # Errors
///
/// Returns a user-facing message for I/O failures, undecodable or
/// corrupt traces, program mismatches, stuck replays, and verification
/// failures.
pub fn run_replay(opts: &ReplayOptions) -> Result<String, String> {
    use pipe_experiments::tracerun;
    let path = std::path::Path::new(&opts.trace);
    let display = path.display();
    let binary =
        tracerun::is_binary_trace(path).map_err(|e| format!("cannot read {display}: {e}"))?;
    let mut out = String::new();
    let (stats, recorded) = if binary {
        let reader = pipe_trace::TraceReader::open(path).map_err(|e| format!("{display}: {e}"))?;
        let program = match &opts.program {
            Some(p) => load_program(p, opts.format)?,
            None => tracerun::trace_program(path)
                .map_err(|e| format!("{e} (pass --program <file> to supply it)"))?,
        };
        let meta = reader.meta().clone();
        let outcome = pipe_trace::replay_trace(reader, &program, &opts.fetch, &opts.mem)
            .map_err(|e| format!("{display}: {e}"))?;
        if !opts.json {
            out.push_str(&format!(
                "replaying {display} (workload {}, recorded under fetch {})\n\
                 replay engine: {}\n",
                meta.workload,
                meta.fetch_key,
                opts.fetch.label(),
            ));
        }
        (outcome.stats, outcome.recorded)
    } else {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {display}: {e}"))?;
        let addrs =
            pipe_trace::parse_address_trace(&text).map_err(|e| format!("{display}: {e}"))?;
        let program = match &opts.program {
            Some(p) => load_program(p, opts.format)?,
            None => {
                pipe_trace::synthesize_program(&addrs).map_err(|e| format!("{display}: {e}"))?
            }
        };
        let steps = pipe_trace::schedule_from_addresses(&addrs);
        let engine = opts
            .fetch
            .build(&program)
            .map_err(|e| format!("invalid replay configuration: {e}"))?;
        let mut harness =
            pipe_icache::ReplayHarness::new(engine, pipe_mem::MemorySystem::new(opts.mem));
        harness.run(steps).map_err(|e| format!("{display}: {e}"))?;
        if !opts.json {
            out.push_str(&format!(
                "replaying {display} ({} addresses, synthetic nop program)\n\
                 replay engine: {}\n",
                addrs.len(),
                opts.fetch.label(),
            ));
        }
        (harness.stats(), None)
    };
    if opts.json {
        out.push_str(&replay_stats_json(&stats));
        out.push('\n');
    } else {
        out.push_str(&render_replay_stats(&stats));
    }
    if opts.verify {
        let recorded =
            recorded.ok_or("--verify needs a binary trace with a complete end summary")?;
        if recorded.instructions != stats.instructions
            || recorded.cycles != stats.cycles
            || recorded.ifetch_stalls != stats.ifetch_stalls
        {
            return Err(format!(
                "verification failed: recorded {}/{}/{} \
                 (instructions/cycles/ifetch stalls), replay produced {}/{}/{} \
                 — is the replay configuration the recorded one?",
                recorded.instructions,
                recorded.cycles,
                recorded.ifetch_stalls,
                stats.instructions,
                stats.cycles,
                stats.ifetch_stalls,
            ));
        }
        out.push_str("[verify] replay reproduces the recorded run exactly\n");
    }
    Ok(out)
}

pub use pipe_experiments::stats_json;

/// Runs `program` under every fetch strategy at the given base
/// configuration and returns `(label, stats)` per strategy, in a fixed
/// presentation order. Strategies whose geometry is invalid for the
/// configured cache size are skipped.
pub fn run_comparison(
    program: &pipe_isa::Program,
    base: &SimConfig,
    cache: u32,
    line: u32,
) -> Vec<(String, pipe_core::SimStats)> {
    let strategies: Vec<FetchStrategy> = FetchKind::ALL
        .iter()
        .filter_map(|&kind| {
            EngineBuilder::new(kind)
                .cache_bytes(cache.max(line))
                .line_bytes(line)
                .config()
                .ok()
        })
        .collect();
    strategies
        .into_iter()
        .filter_map(|fetch| {
            let cfg = SimConfig {
                fetch,
                ..base.clone()
            };
            cfg.validate().ok()?;
            let stats = pipe_core::run_program(program, &cfg).ok()?;
            Some((fetch.label(), stats))
        })
        .collect()
}

/// Renders a comparison as a text table.
pub fn render_comparison(rows: &[(String, pipe_core::SimStats)]) -> String {
    let mut out = String::from(
        "strategy                                  cycles    CPI   ifetch-stall  bytes-fetched\n",
    );
    for (label, s) in rows {
        out.push_str(&format!(
            "{:<38} {:>9}  {:>5.2}  {:>12}  {:>13}\n",
            label,
            s.cycles,
            s.cpi(),
            s.stalls.ifetch,
            s.fetch.bytes_requested
        ));
    }
    out
}

/// Options for `pipe-asm`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmOptions {
    /// Path to the assembly source.
    pub input: String,
    /// Instruction format.
    pub format: InstrFormat,
    /// Print a hex dump of the parcels instead of a disassembly.
    pub hex: bool,
    /// Write the assembled program to this binary file.
    pub output: Option<String>,
}

/// The usage string for `pipe-asm`.
pub const ASM_USAGE: &str = "\
usage: pipe-asm <program.s> [--format fixed32|mixed] [--hex] [-o out.bin]

Assembles a PIPE program and prints its disassembly (default) or a parcel
hex dump (--hex). With -o, also writes a binary image that pipe-sim can
run directly.
";

/// Parses `pipe-asm` arguments.
///
/// # Errors
///
/// Returns a user-facing message for unknown flags or a missing input.
pub fn parse_asm_args(args: &[String]) -> Result<AsmOptions, String> {
    let mut input = None;
    let mut format = InstrFormat::Fixed32;
    let mut hex = false;
    let mut output = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("fixed32") => InstrFormat::Fixed32,
                    Some("mixed") => InstrFormat::Mixed,
                    other => return Err(format!("--format: unknown format {other:?}")),
                };
            }
            "--hex" => hex = true,
            "-o" | "--output" => {
                output = Some(it.next().ok_or("-o needs a file name")?.to_string());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            path => {
                if input.is_some() {
                    return Err("more than one input file".into());
                }
                input = Some(path.to_string());
            }
        }
    }
    Ok(AsmOptions {
        input: input.ok_or("no input program")?,
        format,
        hex,
        output,
    })
}

/// Loads a program from `path`: the PIPE binary container if the file
/// starts with its magic, assembly text otherwise.
///
/// # Errors
///
/// Returns a user-facing message for I/O, assembly, or container errors.
pub fn load_program(path: &str, format: InstrFormat) -> Result<pipe_isa::Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(&pipe_isa::binfmt::MAGIC) {
        return pipe_isa::read_program(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let source = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8 assembly"))?;
    pipe_isa::Assembler::new(format)
        .assemble(&source)
        .map_err(|e| format!("{path}: {e}"))
}

/// Renders a parcel hex dump, 8 parcels per line with byte addresses.
pub fn hex_dump(program: &pipe_isa::Program) -> String {
    let mut out = String::new();
    for (i, chunk) in program.parcels().chunks(8).enumerate() {
        out.push_str(&format!("{:06x}:", program.base() as usize + i * 16));
        for p in chunk {
            out.push_str(&format!(" {p:04x}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn sim_defaults() {
        let o = parse_sim_args(&args("prog.s")).unwrap();
        assert_eq!(o.input.as_deref(), Some("prog.s"));
        assert!(!o.livermore);
        assert!(matches!(o.config.fetch, FetchStrategy::Pipe(_)));
        assert_eq!(o.format, InstrFormat::Fixed32);
    }

    #[test]
    fn sim_full_flags() {
        let o = parse_sim_args(&args(
            "--livermore --fetch conventional --cache 64 --line 16 --access 6 --bus 8 --pipelined --data-first --trace",
        ))
        .unwrap();
        assert!(o.livermore);
        assert!(
            matches!(o.config.fetch, FetchStrategy::Conventional(c) if c.cache.size_bytes == 64)
        );
        assert_eq!(o.config.mem.access_cycles, 6);
        assert_eq!(o.config.mem.in_bus_bytes, 8);
        assert!(o.config.mem.pipelined);
        assert_eq!(o.config.mem.priority, PriorityPolicy::DataFirst);
        assert!(o.trace);
    }

    #[test]
    fn sim_pipe_queue_sizes_default_to_line() {
        let o = parse_sim_args(&args("p.s --fetch pipe --cache 64 --line 32")).unwrap();
        match o.config.fetch {
            FetchStrategy::Pipe(c) => {
                assert_eq!(c.iq_bytes, 32);
                assert_eq!(c.iqb_bytes, 32);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sim_prefetch_modes() {
        let o = parse_sim_args(&args("p.s --fetch conventional --prefetch tagged")).unwrap();
        assert!(matches!(
            o.config.fetch,
            FetchStrategy::Conventional(c) if c.prefetch == ConvPrefetch::Tagged
        ));
    }

    #[test]
    fn sim_rejects_bad_input() {
        assert!(parse_sim_args(&args("")).is_err());
        assert!(parse_sim_args(&args("a.s b.s")).is_err());
        assert!(parse_sim_args(&args("a.s --livermore")).is_err());
        assert!(parse_sim_args(&args("a.s --fetch warp")).is_err());
        assert!(parse_sim_args(&args("a.s --cache")).is_err());
        assert!(parse_sim_args(&args("a.s --bogus")).is_err());
        // Invalid geometry caught by config validation.
        assert!(parse_sim_args(&args("a.s --cache 8 --line 16")).is_err());
    }

    #[test]
    fn asm_parsing() {
        let o = parse_asm_args(&args("p.s --format mixed --hex")).unwrap();
        assert_eq!(o.input, "p.s");
        assert_eq!(o.format, InstrFormat::Mixed);
        assert!(o.hex);
        assert!(parse_asm_args(&args("--hex")).is_err());
    }

    #[test]
    fn sweep_fault_tolerance_flags() {
        let o = parse_sim_args(&args("--sweep 4a --jobs 2 --strict --inject-panic 3")).unwrap();
        assert_eq!(o.sweep.as_deref(), Some("4a"));
        assert_eq!(o.jobs, 2);
        assert!(o.strict);
        assert_eq!(o.inject.panic_jobs, vec![3]);

        // Defaults: fault-tolerant, no injection.
        let o = parse_sim_args(&args("--sweep 4a")).unwrap();
        assert!(!o.strict);
        assert!(o.inject.panic_jobs.is_empty());
        assert!(parse_sim_args(&args("--sweep 4a --inject-panic")).is_err());
        assert!(parse_sim_args(&args("--sweep 4a --jobs x")).is_err());
    }

    #[test]
    fn json_and_compare_flags() {
        let o = parse_sim_args(&args("p.s --json --compare --cache 64 --line 16")).unwrap();
        assert!(o.json);
        assert!(o.compare);
        assert_eq!(o.cache_bytes, 64);
        assert_eq!(o.line_bytes, 16);
    }

    #[test]
    fn stats_json_is_valid_shape() {
        let stats = pipe_core::SimStats {
            cycles: 100,
            instructions_issued: 40,
            ..Default::default()
        };
        let j = stats_json(&stats);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":100"));
        assert!(j.contains("\"cpi\":2.5000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn comparison_runs_every_strategy() {
        let p = pipe_isa::Assembler::new(InstrFormat::Fixed32)
            .assemble("lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
            .unwrap();
        let rows = run_comparison(&p, &SimConfig::default(), 64, 16);
        assert_eq!(rows.len(), 5);
        // Perfect fetch is the lower bound.
        let perfect = rows[0].1.cycles;
        assert!(rows.iter().all(|(_, s)| s.cycles >= perfect));
        let text = render_comparison(&rows);
        assert!(text.contains("perfect"));
        assert!(text.contains("tib"));
    }

    #[test]
    fn replay_args_parse() {
        let o = parse_replay_args(&args(
            "run.ptr --fetch conventional --cache 64 --line 16 --access 6 --bus 8 --verify --json",
        ))
        .unwrap();
        assert_eq!(o.trace, "run.ptr");
        assert!(matches!(o.fetch, FetchStrategy::Conventional(c) if c.cache.size_bytes == 64));
        assert_eq!(o.mem.access_cycles, 6);
        assert_eq!(o.mem.in_bus_bytes, 8);
        assert!(o.verify);
        assert!(o.json);
        assert!(o.program.is_none());

        let o = parse_replay_args(&args("addrs.txt --program p.s --format mixed")).unwrap();
        assert_eq!(o.trace, "addrs.txt");
        assert_eq!(o.program.as_deref(), Some("p.s"));
        assert_eq!(o.format, InstrFormat::Mixed);
        // Defaults mirror `pipe-sim run`: PIPE engine, 128 B cache.
        assert!(matches!(o.fetch, FetchStrategy::Pipe(_)));

        assert!(parse_replay_args(&args("")).is_err()); // no trace
        assert!(parse_replay_args(&args("a.ptr b.ptr")).is_err()); // two traces
        assert!(parse_replay_args(&args("a.ptr --bogus")).is_err());
    }

    #[test]
    fn record_trace_flag() {
        let o = parse_sim_args(&args("p.s --record-trace out.ptr")).unwrap();
        assert_eq!(o.record_trace.as_deref(), Some("out.ptr"));
        let o = parse_sim_args(&args("p.s")).unwrap();
        assert!(o.record_trace.is_none());
        // Recording is a single-run feature.
        assert!(parse_sim_args(&args("--sweep 4a --record-trace out.ptr")).is_err());
        assert!(parse_sim_args(&args("p.s --compare --record-trace out.ptr")).is_err());
        assert!(parse_sim_args(&args("p.s --record-trace")).is_err());
    }

    #[test]
    fn replay_stats_json_shape() {
        let stats = pipe_icache::ReplayStats {
            cycles: 200,
            instructions: 100,
            ifetch_stalls: 0,
            wait_cycles: 0,
            fetch: pipe_icache::FetchStats::default(),
        };
        let j = replay_stats_json(&stats);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":200"));
        assert!(j.contains("\"cpi\":2.0000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn hex_dump_format() {
        let p = pipe_isa::Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nhalt\n")
            .unwrap();
        let dump = hex_dump(&p);
        assert!(dump.starts_with("000000:"));
        assert_eq!(dump.lines().count(), 1);
    }
}
