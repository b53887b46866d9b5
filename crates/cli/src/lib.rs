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

use std::str::FromStr;

use pipe_core::{FetchStrategy, SimConfig};
use pipe_icache::{ConvPrefetch, EngineBuilder, FetchKind};
use pipe_isa::InstrFormat;
use pipe_mem::{MemConfig, PriorityPolicy};

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
}

/// The usage string for `pipe-sim`.
pub const SIM_USAGE: &str = "\
usage: pipe-sim [run] <program.s> [options]
       pipe-sim --livermore [options]
       pipe-sim replay <trace> [options]      (see pipe-sim replay --help)

Paper figures: `repro --figN --jobs N`. Benchmark: perfbench.

fetch strategy:
  --fetch pipe|conventional|tib|buffers|perfect   (default: pipe)
  --cache BYTES        cache size / TIB budget; 0 = no cache for buffers
                       (default: 128)
  --line BYTES         cache line size              (default: 16)
  --iq N               PIPE instruction queue bytes (default: line), or
                       buffer count for --fetch buffers (default: 4)
  --iqb BYTES          PIPE instruction queue buffer bytes (default: line)
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
  --max-cycles N       abort after N cycles         (default: 500000000)
";

fn parse_num<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid number `{v}`"))
}

fn parse_format(value: Option<&String>) -> Result<InstrFormat, String> {
    match value.map(String::as_str) {
        Some("fixed32") => Ok(InstrFormat::Fixed32),
        Some("mixed") => Ok(InstrFormat::Mixed),
        other => Err(format!("--format: unknown format {other:?}")),
    }
}

/// The fetch-engine and memory flags shared by `pipe-sim run` and
/// `pipe-sim replay`, with their defaults.
struct EngineFlags {
    fetch_kind: String,
    cache: u32,
    line: u32,
    iq: Option<u32>,
    iqb: Option<u32>,
    prefetch: ConvPrefetch,
    mem: MemConfig,
}

impl EngineFlags {
    fn new() -> EngineFlags {
        EngineFlags {
            fetch_kind: "pipe".to_string(),
            cache: 128,
            line: 16,
            iq: None,
            iqb: None,
            prefetch: ConvPrefetch::Always,
            mem: MemConfig::default(),
        }
    }

    /// Applies `flag` (taking its value from `rest`) if it is one of the
    /// shared flags; returns whether it was.
    fn accept<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match flag {
            "--fetch" => {
                self.fetch_kind = rest
                    .next()
                    .ok_or("--fetch needs a value")?
                    .to_ascii_lowercase();
            }
            "--cache" => self.cache = parse_num(flag, rest.next())?,
            "--line" => self.line = parse_num(flag, rest.next())?,
            "--iq" => self.iq = Some(parse_num(flag, rest.next())?),
            "--iqb" => self.iqb = Some(parse_num(flag, rest.next())?),
            "--prefetch" => {
                self.prefetch = match rest.next().map(String::as_str) {
                    Some("always") => ConvPrefetch::Always,
                    Some("on-miss") => ConvPrefetch::OnMissOnly,
                    Some("tagged") => ConvPrefetch::Tagged,
                    other => return Err(format!("--prefetch: unknown mode {other:?}")),
                };
            }
            "--access" => self.mem.access_cycles = parse_num(flag, rest.next())?,
            "--bus" => self.mem.in_bus_bytes = parse_num(flag, rest.next())?,
            "--pipelined" => self.mem.pipelined = true,
            "--data-first" => self.mem.priority = PriorityPolicy::DataFirst,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds and validates the fetch configuration.
    fn fetch(&self) -> Result<FetchStrategy, String> {
        let kind = FetchKind::parse(&self.fetch_kind)
            .ok_or_else(|| format!("--fetch: unknown strategy `{}`", self.fetch_kind))?;
        let mut builder = EngineBuilder::new(kind)
            .cache_bytes(self.cache)
            .line_bytes(self.line)
            .prefetch(self.prefetch)
            .buffers(self.iq.unwrap_or(4))
            .buffer_cache(self.cache > 0);
        if let Some(iq) = self.iq {
            builder = builder.iq_bytes(iq);
        }
        if let Some(iqb) = self.iqb {
            builder = builder.iqb_bytes(iqb);
        }
        builder.config().map_err(|e| e.to_string())
    }
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
    let mut engine = EngineFlags::new();
    let mut format = InstrFormat::Fixed32;
    let mut trace = false;
    let mut record_trace = None;
    let mut json = false;
    let mut compare = false;
    let mut max_cycles = 500_000_000u64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if engine.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--livermore" => livermore = true,
            "--format" => format = parse_format(it.next())?,
            "--trace" => trace = true,
            "--record-trace" => {
                record_trace = Some(it.next().ok_or("--record-trace needs a file")?.clone());
            }
            "--json" => json = true,
            "--compare" => compare = true,
            "--max-cycles" => max_cycles = parse_num("--max-cycles", it.next())?,
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

    if input.is_none() && !livermore {
        return Err("no input program (give a file or --livermore)".into());
    }
    if input.is_some() && livermore {
        return Err("--livermore conflicts with an input file".into());
    }
    if record_trace.is_some() && compare {
        return Err("--record-trace records a single run (not --compare)".into());
    }

    let config = SimConfig {
        fetch: engine.fetch()?,
        mem: engine.mem,
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
        cache_bytes: engine.cache,
        line_bytes: engine.line,
    })
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
  --iq N               PIPE instruction queue bytes (default: line), or
                       buffer count for --fetch buffers (default: 4)
  --iqb BYTES          PIPE instruction queue buffer bytes (default: line)
  --prefetch always|on-miss|tagged   conventional prefetch (default: always)
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
    let mut engine = EngineFlags::new();
    let mut verify = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if engine.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--program" => {
                program = Some(it.next().ok_or("--program needs a file")?.clone());
            }
            "--format" => format = parse_format(it.next())?,
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

    let fetch = engine.fetch()?;
    Ok(ReplayOptions {
        trace: trace.ok_or("no trace file (give a .ptr or address-trace path)")?,
        program,
        format,
        fetch,
        mem: engine.mem,
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
            "--format" => format = parse_format(it.next())?,
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
    fn max_cycles_takes_the_full_u64_range() {
        let o = parse_sim_args(&args("p.s --max-cycles 5000000000")).unwrap();
        assert_eq!(o.config.max_cycles, 5_000_000_000);
        assert_eq!(
            parse_sim_args(&args("p.s")).unwrap().config.max_cycles,
            500_000_000
        );
        assert!(parse_sim_args(&args("p.s --max-cycles 18446744073709551616")).is_err());
        assert!(parse_sim_args(&args("p.s --max-cycles -1")).is_err());
        assert!(parse_sim_args(&args("p.s --max-cycles")).is_err());
    }

    #[test]
    fn run_and_replay_share_engine_flags() {
        let flags = "--fetch buffers --cache 0 --iq 6 --access 3 --bus 8 --pipelined --data-first";
        let run = parse_sim_args(&args(&format!("p.s {flags}"))).unwrap();
        let replay = parse_replay_args(&args(&format!("t.ptr {flags}"))).unwrap();
        assert_eq!(run.config.fetch, replay.fetch);
        assert_eq!(run.config.mem, replay.mem);
        assert!(matches!(replay.fetch, FetchStrategy::Buffers(c) if c.buffers == 6));
        // Buffers default to four when --iq is absent.
        let o = parse_replay_args(&args("t.ptr --fetch buffers")).unwrap();
        assert!(matches!(o.fetch, FetchStrategy::Buffers(c) if c.buffers == 4));
        for bad in ["--prefetch warp", "--iqb x", "--fetch"] {
            assert!(
                parse_sim_args(&args(&format!("p.s {bad}"))).is_err(),
                "{bad}"
            );
            assert!(
                parse_replay_args(&args(&format!("t.ptr {bad}"))).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn removed_sweep_flags_are_unknown() {
        for flags in ["--sweep 4a", "--jobs 2", "--strict", "--inject-panic 3"] {
            let err = parse_sim_args(&args(&format!("--livermore {flags}"))).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{flags}: {err}");
        }
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
