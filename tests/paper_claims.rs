//! The paper's qualitative claims, checked on a trip-scaled Livermore
//! suite (fast enough for the test suite; the full-scale numbers come from
//! the `repro` binary and match these orderings).

use pipe_repro::core::{run_program, FetchStrategy, SimConfig};
use pipe_repro::icache::{CacheConfig, PipeFetchConfig, PrefetchPolicy};
use pipe_repro::isa::InstrFormat;
use pipe_repro::mem::MemConfig;
use pipe_repro::workloads::LivermoreSuite;

fn suite() -> LivermoreSuite {
    LivermoreSuite::build_scaled(InstrFormat::Fixed32, 8).expect("builds")
}

fn cycles(suite: &LivermoreSuite, fetch: FetchStrategy, mem: MemConfig) -> u64 {
    let cfg = SimConfig {
        fetch,
        mem,
        max_cycles: 500_000_000,
    };
    run_program(suite.program(), &cfg).expect("runs").cycles
}

fn mem(access: u32, bus: u32, pipelined: bool) -> MemConfig {
    MemConfig {
        access_cycles: access,
        in_bus_bytes: bus,
        pipelined,
        ..MemConfig::default()
    }
}

fn pipe(cache: u32, line: u32, iq: u32, iqb: u32) -> FetchStrategy {
    FetchStrategy::Pipe(PipeFetchConfig::table2(cache, line, iq, iqb))
}

fn conventional(cache: u32) -> FetchStrategy {
    FetchStrategy::conventional(CacheConfig::new(cache, 16))
}

/// §6: "For a memory access time larger than 1 clock cycle, all PIPE
/// configurations always perform better than the conventional cache."
#[test]
fn pipe_beats_conventional_for_slow_memory() {
    let s = suite();
    for access in [2, 6] {
        for cache in [32u32, 128] {
            let conv = cycles(&s, conventional(cache), mem(access, 4, false));
            for (line, iq, iqb) in [(8, 8, 8), (16, 16, 16), (32, 16, 32), (32, 32, 32)] {
                let p = cycles(&s, pipe(cache, line, iq, iqb), mem(access, 4, false));
                assert!(
                    p < conv,
                    "access {access}, cache {cache}: pipe {line}-{iq}/{iqb} = {p} !< conv {conv}"
                );
            }
        }
    }
}

/// §6: the processor with IQ/IQB "performs up to twice as fast" than the
/// conventional cache at small cache sizes.
#[test]
fn small_cache_speedup_approaches_two() {
    let s = suite();
    let conv = cycles(&s, conventional(16), mem(6, 8, false));
    let best = [(8u32, 8u32, 8u32), (16, 16, 16)]
        .iter()
        .map(|&(l, q, b)| cycles(&s, pipe(16, l, q, b), mem(6, 8, false)))
        .min()
        .unwrap();
    let speedup = conv as f64 / best as f64;
    assert!(speedup > 1.6, "speedup {speedup:.2} too small");
}

/// §6 / Figure 4: bus width has a dramatic impact below 128 bytes, little
/// above 256 bytes.
#[test]
fn bus_width_matters_mainly_for_small_caches() {
    let s = suite();
    let small_narrow = cycles(&s, pipe(32, 16, 16, 16), mem(6, 4, false));
    let small_wide = cycles(&s, pipe(32, 16, 16, 16), mem(6, 8, false));
    let big_narrow = cycles(&s, pipe(512, 16, 16, 16), mem(6, 4, false));
    let big_wide = cycles(&s, pipe(512, 16, 16, 16), mem(6, 8, false));
    let small_gain = small_narrow as f64 / small_wide as f64;
    let big_gain = big_narrow as f64 / big_wide as f64;
    assert!(
        small_gain > big_gain,
        "small {small_gain:.3} !> big {big_gain:.3}"
    );
    assert!(big_gain < 1.05, "large caches barely care: {big_gain:.3}");
}

/// §6 / Figure 6: pipelined memory shifts the curves down.
#[test]
fn pipelined_memory_helps_everyone() {
    let s = suite();
    for fetch in [conventional(64), pipe(64, 16, 16, 16)] {
        let np = cycles(&s, fetch, mem(6, 8, false));
        let p = cycles(&s, fetch, mem(6, 8, true));
        assert!(p < np, "{fetch}: pipelined {p} !< non-pipelined {np}");
    }
}

/// §6 / Figures 4 vs 6: small lines (8 B) win with fast memory; larger
/// lines (16–32 B) win with slow memory — the paper's observed reversal.
#[test]
fn best_line_size_reverses_with_memory_speed() {
    let s = suite();
    // Fast memory, narrow bus: 8-8 at least matches the 32-byte lines.
    let fast_8 = cycles(&s, pipe(64, 8, 8, 8), mem(1, 4, false));
    let fast_32 = cycles(&s, pipe(64, 32, 32, 32), mem(1, 4, false));
    assert!(fast_8 < fast_32, "fast: 8-8 {fast_8} !< 32-32 {fast_32}");
    // Slow memory, wide bus: the 32-byte-line configurations win.
    let slow_8 = cycles(&s, pipe(64, 8, 8, 8), mem(6, 8, false));
    let slow_32 = cycles(&s, pipe(64, 32, 32, 32), mem(6, 8, false));
    assert!(slow_32 < slow_8, "slow: 32-32 {slow_32} !< 8-8 {slow_8}");
}

/// §6, second paragraph: the chip's guaranteed-execution-only policy pays
/// a penalty relative to true prefetch.
#[test]
fn true_prefetch_at_least_matches_guaranteed_only() {
    let s = suite();
    for cache in [32u32, 128] {
        let mut true_cfg = PipeFetchConfig::table2(cache, 16, 16, 16);
        true_cfg.policy = PrefetchPolicy::TruePrefetch;
        let mut guarded = true_cfg;
        guarded.policy = PrefetchPolicy::GuaranteedOnly;
        let t = cycles(&s, FetchStrategy::Pipe(true_cfg), mem(6, 8, false));
        let g = cycles(&s, FetchStrategy::Pipe(guarded), mem(6, 8, false));
        assert!(t <= g, "cache {cache}: true {t} !<= guaranteed {g}");
    }
}

/// §2.1: "a small TIB can provide better performance than a simple small
/// instruction cache [but] the use of a TIB implies large amounts of
/// off-chip accessing".
#[test]
fn tib_beats_small_cache_but_floods_the_bus() {
    use pipe_repro::icache::TibConfig;
    let s = suite();
    let m = mem(6, 8, false);

    let run = |fetch: FetchStrategy| {
        let cfg = SimConfig {
            fetch,
            mem: m,
            max_cycles: 500_000_000,
        };
        run_program(s.program(), &cfg).expect("runs")
    };

    let conv = run(conventional(16));
    let tib = run(FetchStrategy::Tib(TibConfig::with_budget(16, 16)));
    assert!(
        tib.cycles < conv.cycles,
        "tib {} !< conventional {}",
        tib.cycles,
        conv.cycles
    );

    // The traffic cost: against a conventional cache big enough to hold
    // the hot loops, the TIB requests far more instruction bytes.
    let conv_big = run(conventional(256));
    assert!(
        tib.fetch.bytes_requested > conv_big.fetch.bytes_requested * 3,
        "tib bytes {} not >> cache bytes {}",
        tib.fetch.bytes_requested,
        conv_big.fetch.bytes_requested
    );
}

/// §6: "The knee of the curve corresponds to the size of most of the
/// inner loops" — half the loops fit in 128 bytes, so the conventional
/// cache's largest per-doubling gain comes when crossing from 128 to
/// 256 bytes.
#[test]
fn knee_sits_at_the_inner_loop_sizes() {
    let s = suite();
    let m = mem(6, 8, false);
    let sizes = [16u32, 32, 64, 128, 256, 512];
    let curve: Vec<u64> = sizes
        .iter()
        .map(|&size| cycles(&s, conventional(size), m))
        .collect();
    let gains: Vec<f64> = curve
        .windows(2)
        .map(|w| w[0] as f64 / w[1] as f64)
        .collect();
    let knee = gains
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| sizes[i + 1])
        .expect("gains nonempty");
    assert_eq!(
        knee, 256,
        "largest gain crossing into 256B; gains {gains:?}"
    );
}

/// §6: growing the cache helps both strategies (monotone curves), and a
/// small PIPE cache rivals a much larger conventional one.
#[test]
fn small_pipe_cache_rivals_large_conventional() {
    let s = suite();
    let pipe_32 = cycles(&s, pipe(32, 16, 16, 16), mem(6, 8, false));
    let conv_256 = cycles(&s, conventional(256), mem(6, 8, false));
    assert!(
        (pipe_32 as f64) < conv_256 as f64 * 1.35,
        "pipe 32B {pipe_32} not within 1.35x of conventional 256B {conv_256}"
    );
}
