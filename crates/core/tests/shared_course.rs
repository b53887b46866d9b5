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
