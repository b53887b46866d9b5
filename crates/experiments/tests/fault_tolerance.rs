//! End-to-end fault tolerance. A parallel sweep with one injected worker
//! panic completes every other job, reports the failed point in the
//! outcome, and keeps every successful cycle count bit-identical to a
//! serial, fault-free run; a strict sweep (a figure's or an ablation's)
//! aborts with a typed error.

use pipe_experiments::{
    render_failures, try_ablation, FaultInjection, JobError, StrategyKind, SweepError, SweepRunner,
    SweepSpec, WorkloadSpec,
};
use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;

fn spec(id: &str) -> SweepSpec {
    SweepSpec {
        id: id.to_string(),
        strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x16],
        cache_sizes: vec![32, 64, 128],
        mem: MemConfig {
            access_cycles: 3,
            ..MemConfig::default()
        },
        policy: PrefetchPolicy::TruePrefetch,
        workload: WorkloadSpec::Livermore {
            format: InstrFormat::Fixed32,
            scale: 50,
        },
    }
}

#[test]
fn injected_panic_yields_partial_outcome_with_identical_survivors() {
    let serial: Vec<(String, u32, u64)> = SweepRunner::new()
        .try_run(&spec("accept"))
        .unwrap()
        .series
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(|p| (s.label.clone(), p.cache_bytes, p.cycles))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(serial.len(), 6);

    let outcome = SweepRunner::new()
        .jobs(4)
        .inject(FaultInjection {
            panic_jobs: vec![2],
        })
        .try_run(&spec("accept"))
        .unwrap();

    // Exactly the panicked job failed.
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].index, 2);
    assert!(matches!(outcome.failed[0].error, JobError::Panic(_)));
    assert_eq!(outcome.computed, 5);

    // The report below the figure table counts and names the failed job.
    let report = render_failures(&outcome.failed);
    assert!(report.contains("1 point(s) failed"), "{report}");
    assert!(report.contains("[failed]"), "{report}");
    assert!(report.contains("(job 2)"), "{report}");
    assert!(report.contains(&outcome.failed[0].to_string()), "{report}");

    // Every surviving point is bit-identical to the serial run.
    for s in &outcome.series {
        for p in &s.points {
            assert!(
                serial.contains(&(s.label.clone(), p.cache_bytes, p.cycles)),
                "{} @ {}B diverged from serial",
                s.label,
                p.cache_bytes
            );
        }
    }
}

#[test]
fn strict_mode_aborts_with_typed_error() {
    let err = SweepRunner::new()
        .strict(true)
        .inject(FaultInjection {
            panic_jobs: vec![0],
        })
        .try_run(&spec("accept-strict"))
        .unwrap_err();
    let SweepError::Strict(partial) = &err;
    assert_eq!(partial.failed.len(), 1);
    assert!(!partial.is_complete());
}

#[test]
fn strict_ablation_aborts_with_typed_error() {
    let runner = SweepRunner::new().strict(true).inject(FaultInjection {
        panic_jobs: vec![0],
    });
    let err = try_ablation("tib", &runner).unwrap_err();
    let SweepError::Strict(partial) = &err;
    assert_eq!(partial.failed.len(), 1);
    assert_eq!(partial.failed[0].index, 0);
    assert!(matches!(partial.failed[0].error, JobError::Panic(_)));
    // Fail-fast: the injected job was first, so nothing else ran.
    assert_eq!(partial.computed, 0);
    assert!(err.to_string().contains("strict sweep aborted"));
}
