//! Integration: the Livermore benchmark runs to completion on the
//! simulator and executes exactly the paper's instruction count.

use pipe_core::{run_program, FetchStrategy, SimConfig};
use pipe_icache::{CacheConfig, PipeFetchConfig};
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;
use pipe_workloads::livermore::single_kernel_program;
use pipe_workloads::{livermore_benchmark, PAPER_TOTAL_INSTRUCTIONS};

#[test]
fn each_kernel_runs_standalone() {
    for i in 1..=14 {
        let p = single_kernel_program(i, 10, InstrFormat::Fixed32).unwrap();
        let cfg = SimConfig {
            fetch: FetchStrategy::Perfect,
            max_cycles: 5_000_000,
            ..SimConfig::default()
        };
        let stats = run_program(&p, &cfg).unwrap_or_else(|e| panic!("kernel {i}: {e}"));
        assert!(stats.instructions_issued > 0, "kernel {i}");
        assert!(stats.fpu_ops > 0 || i == 0, "kernel {i} exercised the FPU");
    }
}

#[test]
fn full_benchmark_executes_exact_paper_count_perfect_fetch() {
    let suite = livermore_benchmark();
    let cfg = SimConfig {
        fetch: FetchStrategy::Perfect,
        max_cycles: 50_000_000,
        ..SimConfig::default()
    };
    let stats = run_program(suite.program(), &cfg).expect("benchmark completes");
    assert_eq!(stats.instructions_issued, PAPER_TOTAL_INSTRUCTIONS);
    assert_eq!(stats.instructions_issued, suite.expected_instructions());
    assert!(
        stats.fpu_ops > 10_000,
        "heavy FP traffic: {}",
        stats.fpu_ops
    );
    assert!(stats.loads > 20_000, "heavy load traffic: {}", stats.loads);
}

#[test]
fn full_benchmark_on_pipe_and_conventional_engines() {
    let suite = livermore_benchmark();
    let mem = MemConfig {
        access_cycles: 1,
        in_bus_bytes: 8,
        ..MemConfig::default()
    };
    for fetch in [
        FetchStrategy::Pipe(PipeFetchConfig::table2(128, 16, 16, 16)),
        FetchStrategy::conventional(CacheConfig::new(128, 16)),
    ] {
        let cfg = SimConfig {
            fetch,
            mem,
            max_cycles: 100_000_000,
        };
        let stats = run_program(suite.program(), &cfg).unwrap_or_else(|e| panic!("{fetch}: {e}"));
        assert_eq!(
            stats.instructions_issued, PAPER_TOTAL_INSTRUCTIONS,
            "under {fetch}"
        );
    }
}
