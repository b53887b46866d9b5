//! # pipe-cli
//!
//! Command-line front ends for the PIPE simulator:
//!
//! * **`pipe-sim`** — assemble a PIPE program from its source and run it on
//!   a configurable processor (fetch strategy, cache geometry, memory
//!   timing), printing statistics and optionally a cycle trace.
//! * **`pipe-asm`** — assemble a program and print its disassembly or
//!   parcel hex dump.
//!
//! Argument parsing lives here so it can be unit tested; the binaries are
//! thin wrappers. The fetch flags map straight onto a `FetchConfig`
//! variant, which validates the geometry; a flag the selected engine
//! never reads is a usage error.

pub mod json;

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use pipe_core::{FetchStrategy, SimConfig, SimError};
use pipe_icache::{
    BufferConfig, CacheConfig, ConvPrefetch, ConventionalConfig, PipeFetchConfig, TibConfig,
};
use pipe_isa::InstrFormat;
use pipe_mem::{MemConfig, PriorityPolicy};

pub use json::stats_json;

/// Options for `pipe-sim`, parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Path to the assembly source, or `None` for `--livermore`.
    pub input: Option<String>,
    /// Run the built-in Livermore benchmark instead of a file.
    pub livermore: bool,
    /// The simulation configuration.
    pub config: SimConfig,
    /// Instruction format for assembly.
    pub format: InstrFormat,
    /// Attach a text trace to stderr.
    pub trace: bool,
    /// Emit statistics as JSON instead of text.
    pub json: bool,
    /// Run the program on every fetch strategy and print a comparison
    /// (`config.fetch` is then unused).
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
  A flag the selected strategy does not read is an error, and --compare
  takes only --cache and --line of these.

memory:
  --access CYCLES      memory access time           (default: 1)
  --bus BYTES          input bus width              (default: 4)
  --pipelined          pipelined external memory
  --data-first         data beats instructions at the memory interface

other:
  --format fixed32|mixed   instruction format       (default: fixed32)
  --trace              print a cycle trace to stderr
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

/// The fetch-engine and memory flags of `pipe-sim`; `None` where a flag
/// was not given.
struct EngineFlags {
    fetch_kind: Option<String>,
    cache: u32,
    line: u32,
    iq: Option<u32>,
    iqb: Option<u32>,
    prefetch: Option<ConvPrefetch>,
    mem: MemConfig,
}

impl EngineFlags {
    fn new() -> EngineFlags {
        EngineFlags {
            fetch_kind: None,
            cache: 128,
            line: 16,
            iq: None,
            iqb: None,
            prefetch: None,
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
                let kind = rest.next().ok_or("--fetch needs a value")?;
                self.fetch_kind = Some(kind.to_ascii_lowercase());
            }
            "--cache" => self.cache = parse_num(flag, rest.next())?,
            "--line" => self.line = parse_num(flag, rest.next())?,
            "--iq" => self.iq = Some(parse_num(flag, rest.next())?),
            "--iqb" => self.iqb = Some(parse_num(flag, rest.next())?),
            "--prefetch" => {
                self.prefetch = Some(match rest.next().map(String::as_str) {
                    Some("always") => ConvPrefetch::Always,
                    Some("on-miss") => ConvPrefetch::OnMissOnly,
                    Some("tagged") => ConvPrefetch::Tagged,
                    other => return Err(format!("--prefetch: unknown mode {other:?}")),
                });
            }
            "--access" => self.mem.access_cycles = parse_num(flag, rest.next())?,
            "--bus" => self.mem.in_bus_bytes = parse_num(flag, rest.next())?,
            "--pipelined" => self.mem.pipelined = true,
            "--data-first" => self.mem.priority = PriorityPolicy::DataFirst,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds and validates the fetch configuration (PIPE by default).
    /// PIPE queues default to the line size, cache sub-blocks are 4
    /// bytes, the TIB splits the cache budget into line-sized entries, and
    /// the buffer engine gets `--iq` buffers (default 4) and a cache only
    /// when `--cache` is nonzero. `--iq` and `--iqb` apply to PIPE (and
    /// `--iq` to buffers), `--prefetch` to the conventional cache.
    fn fetch(&self) -> Result<FetchStrategy, String> {
        let kind = self.fetch_kind.as_deref().unwrap_or("pipe");
        for (flag, given, reads) in [
            (
                "--iq",
                self.iq.is_some(),
                matches!(kind, "pipe" | "buffers"),
            ),
            ("--iqb", self.iqb.is_some(), kind == "pipe"),
            (
                "--prefetch",
                self.prefetch.is_some(),
                kind == "conventional",
            ),
        ] {
            if given && !reads {
                return Err(format!("{flag} does not apply to --fetch {kind}"));
            }
        }
        let cache = CacheConfig::new(self.cache, self.line);
        let fetch = match kind {
            "perfect" => FetchStrategy::Perfect,
            "conventional" => FetchStrategy::Conventional(ConventionalConfig {
                cache,
                prefetch: self.prefetch.unwrap_or(ConvPrefetch::Always),
            }),
            "pipe" => FetchStrategy::Pipe(PipeFetchConfig::table2(
                self.cache,
                self.line,
                self.iq.unwrap_or(self.line),
                self.iqb.unwrap_or(self.line),
            )),
            "tib" => FetchStrategy::Tib(TibConfig::with_budget(self.cache, self.line)),
            "buffers" => FetchStrategy::Buffers(BufferConfig {
                buffers: self.iq.unwrap_or(4),
                cache: (self.cache > 0).then_some(cache),
            }),
            other => return Err(format!("--fetch: unknown strategy `{other}`")),
        };
        fetch.validate().map_err(|e| e.to_string())?;
        Ok(fetch)
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
            "--json" => json = true,
            "--compare" => compare = true,
            "--max-cycles" => max_cycles = parse_num("--max-cycles", it.next())?,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
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

    let fetch = if compare {
        let given = [
            ("--fetch", engine.fetch_kind.is_some()),
            ("--iq", engine.iq.is_some()),
            ("--iqb", engine.iqb.is_some()),
            ("--prefetch", engine.prefetch.is_some()),
        ];
        if let Some((flag, _)) = given.iter().find(|(_, set)| *set) {
            return Err(format!("{flag} does not apply to --compare"));
        }
        for fetch in comparison_strategies(engine.cache, engine.line) {
            fetch
                .validate()
                .map_err(|e| format!("--compare: {}: {e}", fetch.label()))?;
        }
        // Unused: the comparison builds each strategy from --cache/--line.
        FetchStrategy::Perfect
    } else {
        engine.fetch()?
    };
    let config = SimConfig {
        fetch,
        mem: engine.mem,
        max_cycles,
    };
    config.validate().map_err(|e| e.to_string())?;

    Ok(SimOptions {
        input,
        livermore,
        config,
        format,
        trace,
        json,
        compare,
        cache_bytes: engine.cache,
        line_bytes: engine.line,
    })
}

/// The strategies `--compare` runs, in presentation order: perfect,
/// conventional, PIPE (queues of one line), TIB and four cache-less
/// prefetch buffers, over a cache of at least one line.
fn comparison_strategies(cache: u32, line: u32) -> [FetchStrategy; 5] {
    let size = cache.max(line);
    [
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(size, line)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(size, line, line, line)),
        FetchStrategy::Tib(TibConfig::with_budget(size, line)),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 4,
            cache: None,
        }),
    ]
}

/// A `--compare` strategy whose run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareError {
    /// The strategy's label.
    pub strategy: String,
    /// Why its run failed.
    pub error: SimError,
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.strategy, self.error)
    }
}

impl Error for CompareError {}

/// Runs `program` under every `--compare` strategy at the given base
/// configuration and returns `(label, stats)` per strategy, in
/// presentation order: perfect, conventional, PIPE (queues of one line),
/// TIB and four cache-less prefetch buffers. The cache is at least one
/// line.
///
/// # Errors
///
/// Returns the first strategy whose run fails, with its [`SimError`]
/// (an invalid geometry fails as [`SimError::Config`]).
pub fn run_comparison(
    program: &pipe_isa::Program,
    base: &SimConfig,
    cache: u32,
    line: u32,
) -> Result<Vec<(String, pipe_core::SimStats)>, CompareError> {
    comparison_strategies(cache, line)
        .into_iter()
        .map(|fetch| {
            let cfg = SimConfig {
                fetch,
                ..base.clone()
            };
            pipe_core::run_program(program, &cfg)
                .map(|stats| (fetch.label(), stats))
                .map_err(|error| CompareError {
                    strategy: fetch.label(),
                    error,
                })
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
}

/// The usage string for `pipe-asm`.
pub const ASM_USAGE: &str = "\
usage: pipe-asm <program.s> [--format fixed32|mixed] [--hex]

Assembles a PIPE program and prints its disassembly (default) or a parcel
hex dump (--hex).
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
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format(it.next())?,
            "--hex" => hex = true,
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
    })
}

/// Loads and assembles the program source at `path`.
///
/// # Errors
///
/// Returns a user-facing message for I/O, encoding, or assembly errors.
pub fn load_program(path: &str, format: InstrFormat) -> Result<pipe_isa::Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
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

        let o = parse_sim_args(&args("p.s --fetch buffers --cache 0 --iq 6")).unwrap();
        assert!(matches!(o.config.fetch, FetchStrategy::Buffers(c) if c.buffers == 6));
        // Buffers default to four when --iq is absent.
        let o = parse_sim_args(&args("p.s --fetch buffers")).unwrap();
        assert!(matches!(o.config.fetch, FetchStrategy::Buffers(c) if c.buffers == 4));
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
    fn sim_fetch_names_select_their_engine() {
        for name in ["perfect", "conventional", "pipe", "tib", "buffers"] {
            let o = parse_sim_args(&args(&format!("p.s --fetch {name}"))).unwrap();
            assert!(o.config.fetch.label().starts_with(name), "{name}");
        }
        // The TIB splits the cache budget into line-sized entries.
        let o = parse_sim_args(&args("p.s --fetch tib --cache 64 --line 16")).unwrap();
        assert_eq!(
            o.config.fetch,
            FetchStrategy::Tib(TibConfig::with_budget(64, 16))
        );
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
        assert!(parse_sim_args(&args("a.s --prefetch warp")).is_err());
        assert!(parse_sim_args(&args("a.s --iqb x")).is_err());
        assert!(parse_sim_args(&args("a.s --fetch")).is_err());
        // Invalid geometry caught by config validation.
        assert!(parse_sim_args(&args("a.s --cache 8 --line 16")).is_err());
        // A flag the selected strategy never reads.
        for flags in [
            "--fetch tib --iq 64",
            "--fetch conventional --iq 16",
            "--fetch perfect --iq 16",
            "--fetch buffers --iqb 16",
            "--fetch tib --iqb 16",
            "--prefetch tagged",
            "--fetch pipe --prefetch on-miss",
            "--fetch buffers --prefetch always",
            "--compare --fetch pipe",
            "--compare --iq 16",
            "--compare --iqb 16",
            "--compare --prefetch tagged",
        ] {
            let err = parse_sim_args(&args(&format!("a.s {flags}"))).unwrap_err();
            assert!(err.contains("does not apply to"), "{flags}: {err}");
        }
        // --compare builds its own strategies: the default PIPE geometry
        // is not validated, so a cache of 0 (one line each) runs.
        assert!(parse_sim_args(&args("a.s --compare --cache 0")).is_ok());
        // A cache size a compared strategy rejects is a usage error that
        // names the strategy.
        let err = parse_sim_args(&args("a.s --compare --cache 24")).unwrap_err();
        assert!(err.contains("conventional(24B)"), "{err}");
        assert!(parse_sim_args(&args("a.s --fetch buffers --iq 2")).is_ok());
        assert!(parse_sim_args(&args("a.s --fetch conventional --prefetch tagged")).is_ok());
    }

    #[test]
    fn asm_parsing() {
        let o = parse_asm_args(&args("p.s --format mixed --hex")).unwrap();
        assert_eq!(o.input, "p.s");
        assert_eq!(o.format, InstrFormat::Mixed);
        assert!(o.hex);
        assert!(parse_asm_args(&args("--hex")).is_err());
        assert!(parse_asm_args(&args("p.s -o p.bin")).is_err());
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
    fn removed_sweep_flags_are_unknown() {
        for flags in [
            "--sweep 4a",
            "--jobs 2",
            "--strict",
            "--inject-panic 3",
            "--record-trace x.ptr",
        ] {
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
        // The nested objects `pipe-sim --json` prints after the totals.
        let mut stats = pipe_core::SimStats::default();
        stats.stalls.ifetch = 7;
        stats.fetch.redirects = 3;
        let j = stats_json(&stats);
        assert!(j.contains("\"stalls\":{\"ifetch\":7,"), "{j}");
        assert!(j.contains("\"redirects\":3,"), "{j}");
        assert!(j.ends_with("\"mem\":{\"contended_cycles\":0}}"), "{j}");
    }

    #[test]
    fn comparison_runs_every_strategy() {
        let p = pipe_isa::Assembler::new(InstrFormat::Fixed32)
            .assemble("lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
            .unwrap();
        let rows = run_comparison(&p, &SimConfig::default(), 64, 16).unwrap();
        assert_eq!(rows.len(), 5);
        // Perfect fetch is the lower bound.
        let perfect = rows[0].1.cycles;
        assert!(rows.iter().all(|(_, s)| s.cycles >= perfect));
        let text = render_comparison(&rows);
        assert!(text.contains("perfect"));
        assert!(text.contains("tib"));
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
