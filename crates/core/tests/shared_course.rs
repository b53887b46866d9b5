//! A run over a shared course against a run that interprets the program
//! itself, on the full Livermore benchmark at figure timings: the first
//! jumps past whole runs of repeated loop iterations, the second checks
//! every repeat, and both must end with the same statistics and the same
//! count of applied iterations.

use std::sync::Arc;

use pipe_core::{Course, FetchStrategy, Processor, SimConfig};
use pipe_icache::{BufferConfig, CacheConfig, PipeFetchConfig, TibConfig};
use pipe_isa::DecodedProgram;
use pipe_mem::MemConfig;
use pipe_workloads::livermore_benchmark;

/// Every engine at a `cache_bytes` budget: the conventional cache, the
/// four Table II PIPE configurations, the TIB and the buffers, and the
/// perfect cache.
fn engines(cache_bytes: u32) -> Vec<FetchStrategy> {
    let mut engines = vec![FetchStrategy::conventional(CacheConfig::new(
        cache_bytes,
        16,
    ))];
    for (line, iq, iqb) in [(8, 8, 8), (16, 16, 16), (32, 16, 32), (32, 32, 32)] {
        engines.push(FetchStrategy::Pipe(PipeFetchConfig::table2(
            cache_bytes,
            line,
            iq,
            iqb,
        )));
    }
    engines.push(FetchStrategy::Tib(TibConfig::with_budget(cache_bytes, 16)));
    engines.push(FetchStrategy::Buffers(BufferConfig {
        buffers: 4,
        cache: Some(CacheConfig::new(cache_bytes, 16)),
    }));
    engines.push(FetchStrategy::Perfect);
    engines
}

/// Figure 4a (1-cycle memory, 4-byte bus) and Figure 5b (6-cycle memory,
/// 8-byte bus) timing, at 64 and 512 bytes of cache.
#[test]
fn livermore_over_a_shared_course_times_as_over_its_own_interpreter() {
    let decoded = Arc::new(DecodedProgram::new(livermore_benchmark().program().clone()));
    let course = Course::record(&decoded);
    for (access_cycles, in_bus_bytes) in [(1, 4), (6, 8)] {
        for cache_bytes in [64, 512] {
            for fetch in engines(cache_bytes) {
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
                let mut shared = Processor::from_course(&course, &config).unwrap();
                let mut private = Processor::from_decoded(&decoded, &config).unwrap();
                let counts = shared.run_counting_repeats().unwrap();
                assert_eq!(private.run_counting_repeats().unwrap(), counts, "{context}");
                assert_eq!(shared.stats(), private.stats(), "{context}");
                assert!(counts.iterations > 0, "{context}: nothing applied");
            }
        }
    }
}

/// Figure 5b points where part of the timing state alternates from
/// one iteration to the next for whole loop runs (kernel 3 at 64 B under
/// the conventional cache and PIPE 16-16, kernels 5, 6 and 11 under PIPE
/// 32-32 at 64 B, kernel 1 under PIPE 32-32 at 128 B), so the skip
/// applies those iterations in pairs. A run over a shared course must
/// time them as ticking does, apply what a run over its own interpreter
/// applies, and tick at most the cycles measured with pairs (48,015,
/// 27,920, 61,972 and 98,296 without).
#[test]
fn period_two_loops_over_a_shared_course_time_as_ticking() {
    let decoded = Arc::new(DecodedProgram::new(livermore_benchmark().program().clone()));
    let course = Course::record(&decoded);
    let points = [
        (
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            20_874,
        ),
        (
            FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
            10_241,
        ),
        (
            FetchStrategy::Pipe(PipeFetchConfig::table2(64, 32, 32, 32)),
            8_844,
        ),
        (
            FetchStrategy::Pipe(PipeFetchConfig::table2(128, 32, 32, 32)),
            37_292,
        ),
    ];
    for (fetch, most_ticked) in points {
        let config = SimConfig {
            fetch,
            mem: MemConfig {
                access_cycles: 6,
                in_bus_bytes: 8,
                ..MemConfig::default()
            },
            ..SimConfig::default()
        };
        let mut ticked = Processor::from_decoded(&decoded, &config).unwrap();
        while !ticked.is_done() {
            ticked.step().unwrap();
        }
        ticked.run().unwrap();
        let mut shared = Processor::from_course(&course, &config).unwrap();
        let mut private = Processor::from_decoded(&decoded, &config).unwrap();
        let counts = shared.run_counting_repeats().unwrap();
        assert_eq!(private.run_counting_repeats().unwrap(), counts, "{fetch}");
        assert_eq!(shared.stats(), ticked.stats(), "{fetch}");
        assert_eq!(private.stats(), ticked.stats(), "{fetch}");
        let ticked_cycles = shared.stats().cycles - counts.cycles;
        assert!(
            ticked_cycles <= most_ticked,
            "{fetch}: {ticked_cycles} cycles ticked"
        );
    }
}
