//! Golden statistics for the full Livermore benchmark.
//!
//! These values were captured from the simulator **before** the
//! predecode/allocation-free hot-path overhaul and are asserted
//! verbatim here: any behavioral drift in the fetch engines, memory
//! system, or issue logic — however small — fails this test with the
//! exact field that moved. Performance work must be invisible at this
//! level; only wall-clock time is allowed to change.
//!
//! The configuration mirrors the benchmark harness (`pipe-sim bench`)
//! and the paper's Figure 4a memory system: 1-cycle access, 4-byte
//! buses, non-pipelined, instruction priority.

use std::sync::Arc;

use pipe_repro::core::{run_decoded, SimConfig, SimStats};
use pipe_repro::experiments::{figure_mem, StrategyKind};
use pipe_repro::icache::PrefetchPolicy;
use pipe_repro::isa::DecodedProgram;

/// One pinned measurement: engine, cache size, and the stats fields the
/// run must reproduce bit-for-bit.
struct Golden {
    kind: StrategyKind,
    cache_bytes: u32,
    cycles: u64,
    ifetch_stalls: u64,
    data_wait_stalls: u64,
    demand_requests: u64,
    prefetch_requests: u64,
    bytes_requested: u64,
    cache_hits: u64,
    cache_misses: u64,
    wasted_requests: u64,
}

const GOLDEN: &[Golden] = &[
    Golden {
        kind: StrategyKind::Conventional,
        cache_bytes: 32,
        cycles: 381_803,
        ifetch_stalls: 221_148,
        data_wait_stalls: 10_080,
        demand_requests: 65_747,
        prefetch_requests: 84_828,
        bytes_requested: 602_300,
        cache_hits: 5_040,
        cache_misses: 145_535,
        wasted_requests: 0,
    },
    Golden {
        kind: StrategyKind::Conventional,
        cache_bytes: 128,
        cycles: 303_006,
        ifetch_stalls: 127_931,
        data_wait_stalls: 24_500,
        demand_requests: 40_892,
        prefetch_requests: 41_695,
        bytes_requested: 330_348,
        cache_hits: 71_012,
        cache_misses: 79_563,
        wasted_requests: 7,
    },
    Golden {
        kind: StrategyKind::Conventional,
        cache_bytes: 512,
        cycles: 206_895,
        ifetch_stalls: 10_061,
        data_wait_stalls: 46_259,
        demand_requests: 3_277,
        prefetch_requests: 3_152,
        bytes_requested: 25_716,
        cache_hits: 144_388,
        cache_misses: 6_187,
        wasted_requests: 13,
    },
    Golden {
        kind: StrategyKind::Pipe16x16,
        cache_bytes: 32,
        cycles: 274_747,
        ifetch_stalls: 21_876,
        data_wait_stalls: 102_296,
        demand_requests: 4_565,
        prefetch_requests: 36_548,
        bytes_requested: 657_808,
        cache_hits: 0,
        cache_misses: 41_113,
        wasted_requests: 4_564,
    },
    Golden {
        kind: StrategyKind::Pipe16x16,
        cache_bytes: 128,
        cycles: 243_651,
        ifetch_stalls: 8_217,
        data_wait_stalls: 84_859,
        demand_requests: 1_223,
        prefetch_requests: 20_643,
        bytes_requested: 349_856,
        cache_hits: 19_247,
        cache_misses: 21_866,
        wasted_requests: 1_229,
    },
    Golden {
        kind: StrategyKind::Pipe16x16,
        cache_bytes: 512,
        cycles: 202_316,
        ifetch_stalls: 481,
        data_wait_stalls: 51_260,
        demand_requests: 50,
        prefetch_requests: 1_619,
        bytes_requested: 26_704,
        cache_hits: 39_444,
        cache_misses: 1_669,
        wasted_requests: 62,
    },
    Golden {
        kind: StrategyKind::Tib16,
        cache_bytes: 32,
        cycles: 259_874,
        ifetch_stalls: 28_784,
        data_wait_stalls: 80_515,
        demand_requests: 28_752,
        prefetch_requests: 40_897,
        bytes_requested: 571_376,
        cache_hits: 4_550,
        cache_misses: 14,
        wasted_requests: 4_564,
    },
];

fn run_golden(decoded: &Arc<DecodedProgram>, g: &Golden) -> SimStats {
    let (mem, _) = figure_mem("4a");
    let fetch = g
        .kind
        .fetch_for(g.cache_bytes, PrefetchPolicy::TruePrefetch)
        .expect("strategy supports this size");
    let cfg = SimConfig {
        fetch,
        mem,
        max_cycles: 2_000_000_000,
    };
    run_decoded(decoded, &cfg).expect("livermore runs to halt")
}

#[test]
fn full_livermore_statistics_are_bit_identical_to_the_recorded_golden_runs() {
    let suite = pipe_repro::workloads::livermore_benchmark();
    let decoded = Arc::new(DecodedProgram::new(suite.program().clone()));
    for g in GOLDEN {
        let label = format!("{} @ {}B", g.kind.label(), g.cache_bytes);
        let stats = run_golden(&decoded, g);
        // Architectural counts are engine-independent; pin them once per
        // point so a workload change is reported on every row.
        assert_eq!(stats.instructions_issued, 150_575, "{label}: instructions");
        assert_eq!(stats.loads, 24_232, "{label}: loads");
        assert_eq!(stats.stores, 41_514, "{label}: stores");
        assert_eq!(stats.fpu_ops, 16_535, "{label}: fpu ops");
        assert_eq!(stats.branches_taken, 4_564, "{label}: taken branches");
        assert_eq!(stats.branches_not_taken, 14, "{label}: not-taken branches");
        // Timing and fetch behavior, per engine/size.
        assert_eq!(stats.cycles, g.cycles, "{label}: cycles");
        assert_eq!(
            stats.stalls.ifetch, g.ifetch_stalls,
            "{label}: ifetch stalls"
        );
        assert_eq!(
            stats.stalls.data_wait, g.data_wait_stalls,
            "{label}: data-wait stalls"
        );
        assert_eq!(
            stats.fetch.demand_requests, g.demand_requests,
            "{label}: demand requests"
        );
        assert_eq!(
            stats.fetch.prefetch_requests, g.prefetch_requests,
            "{label}: prefetch requests"
        );
        assert_eq!(
            stats.fetch.bytes_requested, g.bytes_requested,
            "{label}: bytes requested"
        );
        assert_eq!(stats.fetch.cache_hits, g.cache_hits, "{label}: cache hits");
        assert_eq!(
            stats.fetch.cache_misses, g.cache_misses,
            "{label}: cache misses"
        );
        assert_eq!(
            stats.fetch.wasted_requests, g.wasted_requests,
            "{label}: wasted requests"
        );
    }
}
