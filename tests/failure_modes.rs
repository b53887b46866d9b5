//! Failure injection: malformed programs and configurations must fail
//! loudly and legibly, never hang silently or corrupt state.

use pipe_repro::core::{
    interpret, run_program, FetchStrategy, InterpError, Processor, SimConfig, SimError,
};
use pipe_repro::icache::{
    BufferConfig, CacheConfig, ConvPrefetch, ConventionalConfig, PipeFetchConfig, PrefetchPolicy,
    TibConfig,
};
use pipe_repro::isa::{Assembler, InstrFormat};
use pipe_repro::mem::{ExternalCacheConfig, MemConfig};

fn asm(src: &str) -> pipe_repro::isa::Program {
    Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap()
}

fn quick(src: &str, fetch: FetchStrategy) -> Result<pipe_repro::core::SimStats, SimError> {
    let cfg = SimConfig {
        fetch,
        mem: MemConfig::default(),
        max_cycles: 20_000,
        ..SimConfig::default()
    };
    run_program(&asm(src), &cfg)
}

#[test]
fn unpaired_store_address_times_out() {
    // A store address with no data can never drain.
    let err = quick("lim r1, 0x100\nsta r1, 0\nhalt\n", FetchStrategy::Perfect).unwrap_err();
    assert!(matches!(err, SimError::Timeout { .. }));
}

#[test]
fn queue_read_without_producer_times_out_on_every_engine() {
    for fetch in [
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(32, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
    ] {
        let err = quick("or r1, r7, r7\nhalt\n", fetch).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "under {fetch}");
    }
}

#[test]
fn interpreter_reports_the_same_bugs_precisely() {
    // The interpreter diagnoses the root cause rather than timing out.
    let e = interpret(&asm("or r1, r7, r7\nhalt\n"), 1000).unwrap_err();
    assert!(matches!(e, InterpError::QueueUnderflow { pc: 0 }));

    let e = interpret(&asm("nop\nnop\n"), 1000).unwrap_err();
    assert!(matches!(e, InterpError::PcOutOfRange { .. }));
}

#[test]
fn running_off_the_image_times_out_not_panics() {
    // No halt: engines run out of instructions and the processor stalls
    // forever — a timeout, never a panic.
    for fetch in [
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(32, 16)),
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
    ] {
        let err = quick("nop\nnop\nnop\n", fetch).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "under {fetch}");
    }
}

#[test]
fn invalid_configurations_rejected_up_front() {
    let program = asm("halt\n");
    let bad_cache = SimConfig {
        fetch: FetchStrategy::conventional(CacheConfig::new(24, 16)),
        ..SimConfig::default()
    };
    assert!(matches!(
        run_program(&program, &bad_cache),
        Err(SimError::Config(_))
    ));

    let bad_mem = SimConfig {
        mem: MemConfig {
            access_cycles: 0,
            ..MemConfig::default()
        },
        ..SimConfig::default()
    };
    assert!(matches!(
        run_program(&program, &bad_mem),
        Err(SimError::Config(_))
    ));
}

#[test]
fn branch_to_garbage_is_a_timeout() {
    // Branch register never loaded: the branch goes to address 0... which
    // re-executes from the top forever (no counter change) until the
    // budget runs out. Must be a timeout, not a hang or panic.
    let src = "lim r1, 1\npbr b0, r1, 0\nhalt\n";
    let err = quick(
        src,
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
    );
    assert!(matches!(err, Err(SimError::Timeout { .. })));
}

#[test]
fn error_messages_are_legible() {
    let err = quick("sta r0, 0\nhalt\n", FetchStrategy::Perfect).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("did not complete"), "{msg}");
    let e = interpret(&asm("or r1, r7, r7\nhalt\n"), 10).unwrap_err();
    assert!(e.to_string().contains("empty load queue"), "{e}");
}

/// The three ways a program deadlocks: a store address whose data never
/// comes (the program halts but never drains), a queue read with no load
/// to fill it, and running off the end of the image. The second comes
/// three times: with a branch queued behind the read, a guaranteed-only
/// PIPE engine counts a blocked prefetch probe on every cycle of the
/// deadlock; in the first delay slot of a taken branch, the engine's
/// redirect stays pending, two delay-slot instructions from its target.
const DEADLOCKS: [&str; 5] = [
    "lim r1, 0x100\nsta r1, 0\nhalt\n",
    "or r1, r7, r7\nhalt\n",
    "or r1, r7, r7\npbr b0, r0, 0\nnop\nnop\nhalt\n",
    "lbr b0, out\npbr b0, r0, 2\nor r1, r7, r7\nnop\nout: halt\n",
    "nop\nnop\nnop\n",
];

/// Every fetch engine, with and without each engine's options.
fn every_engine() -> Vec<FetchStrategy> {
    let mut guaranteed = PipeFetchConfig::table2(32, 16, 16, 16);
    guaranteed.policy = PrefetchPolicy::GuaranteedOnly;
    vec![
        FetchStrategy::Perfect,
        FetchStrategy::conventional(CacheConfig::new(32, 16)),
        FetchStrategy::Conventional(ConventionalConfig {
            cache: CacheConfig::new(32, 16),
            prefetch: ConvPrefetch::Tagged,
        }),
        FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
        FetchStrategy::Pipe(guaranteed),
        FetchStrategy::Tib(TibConfig::with_budget(32, 16)),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 4,
            cache: None,
        }),
        FetchStrategy::Buffers(BufferConfig {
            buffers: 2,
            cache: Some(CacheConfig::new(32, 16)),
        }),
    ]
}

#[test]
fn deadlocks_time_out_exactly_as_ticking_does_and_at_once() {
    for src in DEADLOCKS {
        let program = asm(src);
        for fetch in every_engine() {
            // At small budgets, with and without an external cache, `run`
            // must end exactly where ticking `step` does, with the same
            // statistics.
            let external = [
                None,
                Some(ExternalCacheConfig {
                    size_bytes: 256,
                    line_bytes: 64,
                    miss_penalty: 20,
                }),
            ];
            let budgets = [1, 2, 3, 40, 333, 2_000];
            for (external_cache, max_cycles) in
                external.into_iter().flat_map(|e| budgets.map(|m| (e, m)))
            {
                let config = SimConfig {
                    fetch,
                    mem: MemConfig {
                        access_cycles: 3,
                        external_cache,
                        ..MemConfig::default()
                    },
                    max_cycles,
                    ..SimConfig::default()
                };
                let mut ticked = Processor::new(&program, &config).unwrap();
                while ticked.cycle() < max_cycles {
                    ticked.step().unwrap();
                }
                // At the budget `run` issues no cycle: it times out at once
                // and finalizes the statistics.
                let expected = ticked.run();
                let mut proc = Processor::new(&program, &config).unwrap();
                let result = proc.run();
                assert_eq!(result, Err(SimError::Timeout { cycles: max_cycles }));
                assert_eq!(result, expected, "{src:?} under {fetch}");
                assert_eq!(proc.stats(), ticked.stats(), "{src:?} under {fetch}");
            }
            // A budget no ticking loop could finish.
            for external_cache in external {
                let config = SimConfig {
                    fetch,
                    mem: MemConfig {
                        external_cache,
                        ..MemConfig::default()
                    },
                    max_cycles: 1_000_000_000_000,
                    ..SimConfig::default()
                };
                let err = run_program(&program, &config).unwrap_err();
                assert_eq!(
                    err,
                    SimError::Timeout {
                        cycles: 1_000_000_000_000
                    },
                    "{src:?} under {fetch}"
                );
            }
        }
    }
}
