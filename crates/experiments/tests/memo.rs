//! A runner simulates each distinct point once. Figure 6a re-plots 5b's
//! configuration, so after 5b every 6a point comes from the runner's
//! memo, and the reused series equal those a fresh runner simulates,
//! serially and on the worker pool, down to the rendered table.
//!
//! The panels run on a scaled-down Livermore benchmark (same strategies,
//! cache sizes and memory timing as the paper's panels) so the test stays
//! fast in debug builds; the memo sees the same job keys either way.

use pipe_experiments::{
    render_text, try_figure_with_workload, FigureRun, SweepRunner, WorkloadSpec,
};
use pipe_isa::InstrFormat;

fn workload() -> WorkloadSpec {
    WorkloadSpec::Livermore {
        format: InstrFormat::Fixed32,
        scale: 50,
    }
}

fn figure(id: &str, runner: &SweepRunner) -> FigureRun {
    try_figure_with_workload(id, runner, workload()).expect("non-strict runner")
}

/// Every point of every series, with its full statistics.
fn points(run: &FigureRun) -> Vec<(String, u32, pipe_core::SimStats)> {
    run.figure
        .series
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(|p| (s.label.clone(), p.cache_bytes, p.stats.clone()))
        })
        .collect()
}

#[test]
fn fig6a_is_served_from_fig5b_and_equals_a_fresh_run() {
    let fresh = figure("6a", &SweepRunner::new());
    assert_eq!((fresh.outcome.computed, fresh.outcome.reused), (28, 0));

    for jobs in [1, 4] {
        let runner = SweepRunner::new().jobs(jobs);
        let b = figure("5b", &runner);
        assert_eq!(
            (b.outcome.computed, b.outcome.reused),
            (28, 0),
            "jobs {jobs}"
        );
        let a = figure("6a", &runner);
        assert!(a.outcome.is_complete(), "jobs {jobs}");
        assert_eq!(
            (a.outcome.computed, a.outcome.reused),
            (28, 28),
            "jobs {jobs}: every 6a point comes from the memo"
        );
        assert_eq!(points(&a), points(&fresh), "jobs {jobs}");
        // A reused point prints as if it had been simulated.
        assert_eq!(
            render_text(&a.figure),
            render_text(&fresh.figure),
            "jobs {jobs}"
        );
        assert_eq!(a.outcome.batches, vec![1; 28], "jobs {jobs}");
    }
}

#[test]
fn a_different_memory_timing_is_never_reused() {
    let runner = SweepRunner::new();
    figure("5b", &runner);
    let b6 = figure("6b", &runner);
    assert_eq!((b6.outcome.computed, b6.outcome.reused), (28, 0));
    assert_eq!(points(&b6), points(&figure("6b", &SweepRunner::new())));
}
