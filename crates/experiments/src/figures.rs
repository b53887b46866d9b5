//! Figure definitions: the paper's six figure panels and the ablations.

use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::{MemConfig, PriorityPolicy};

use crate::matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
use crate::runner::ExperimentPoint;
use crate::sweep::{FailedJob, SweepError, SweepOutcome, SweepRunner, SweepSpec, WorkloadSpec};

/// One curve of a figure: a strategy swept over cache sizes.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label ("conventional", "8-8", ...).
    pub label: String,
    /// The strategy.
    pub kind: StrategyKind,
    /// Measured points, ascending cache size.
    pub points: Vec<ExperimentPoint>,
}

/// A reproduced figure panel.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier ("4a", "6b", "ablation-priority", ...).
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// The memory configuration the panel was measured under.
    pub mem: MemConfig,
    /// One series per strategy.
    pub series: Vec<Series>,
}

/// The paper's figure panels.
pub const ALL_FIGURES: [&str; 6] = ["4a", "4b", "5a", "5b", "6a", "6b"];

/// The ablation identifiers supported by [`try_ablation`].
pub const ALL_ABLATIONS: [&str; 5] = ["access", "priority", "prefetch", "format", "tib"];

fn mem_for(access: u32, bus: u32, pipelined: bool) -> MemConfig {
    MemConfig {
        access_cycles: access,
        pipelined,
        in_bus_bytes: bus,
        ..MemConfig::default()
    }
}

/// The memory configuration of a paper figure panel.
///
/// # Panics
///
/// Panics on an unknown id; use [`ALL_FIGURES`].
pub fn figure_mem(id: &str) -> (MemConfig, &'static str) {
    match id {
        "4a" => (
            mem_for(1, 4, false),
            "total execution time, 1-cycle memory, non-pipelined, 4-byte bus",
        ),
        "4b" => (
            mem_for(1, 8, false),
            "total execution time, 1-cycle memory, non-pipelined, 8-byte bus",
        ),
        "5a" => (
            mem_for(6, 4, false),
            "total execution time, 6-cycle memory, non-pipelined, 4-byte bus",
        ),
        "5b" => (
            mem_for(6, 8, false),
            "total execution time, 6-cycle memory, non-pipelined, 8-byte bus",
        ),
        "6a" => (
            mem_for(6, 8, false),
            "total execution time, 6-cycle memory, 8-byte bus, non-pipelined (same data as 5b)",
        ),
        "6b" => (
            mem_for(6, 8, true),
            "total execution time, 6-cycle memory, 8-byte bus, pipelined",
        ),
        other => panic!("unknown figure id {other:?}"),
    }
}

/// A reproduced figure panel plus the run's execution record — how many
/// points were simulated or failed.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The (possibly partial) figure: failed points are missing from
    /// their series, never zeroed.
    pub figure: Figure,
    /// The sweep's execution record (counts, failed jobs, wall time).
    pub outcome: SweepOutcome,
}

impl FigureRun {
    /// Jobs that failed, in expansion order (empty for a complete run).
    pub fn failed(&self) -> &[FailedJob] {
        &self.outcome.failed
    }
}

/// Reproduces one of the paper's figure panels using `runner` for
/// execution (worker count, strictness, progress), returning
/// the partial figure and failed-job list rather than panicking when
/// jobs fail.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the partial outcome.
///
/// # Panics
///
/// Panics on an unknown id; valid ids are listed in [`ALL_FIGURES`].
pub fn try_figure_with(id: &str, runner: &SweepRunner) -> Result<FigureRun, SweepError> {
    let (mem, title) = figure_mem(id);
    let outcome = runner.try_run(&SweepSpec::figure(id))?;
    Ok(FigureRun {
        figure: Figure {
            id: format!("fig{id}"),
            title: format!("Figure {id}: {title}"),
            mem,
            series: outcome.series.clone(),
        },
        outcome,
    })
}

/// Reproduces one of the paper's figure panels with its workload replaced
/// — a scaled-down Livermore run, or a [`WorkloadSpec::Trace`] so the
/// whole sweep runs trace-driven (perfbench does both). The figure id,
/// strategies, cache sizes, and memory timing are unchanged; the title
/// marks the substituted workload by its content key.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the partial outcome.
///
/// # Panics
///
/// Panics on an unknown id; valid ids are listed in [`ALL_FIGURES`].
pub fn try_figure_with_workload(
    id: &str,
    runner: &SweepRunner,
    workload: WorkloadSpec,
) -> Result<FigureRun, SweepError> {
    let (mem, title) = figure_mem(id);
    let mut spec = SweepSpec::figure(id);
    spec.workload = workload;
    let wl = spec.workload.key();
    let outcome = runner.try_run(&spec)?;
    Ok(FigureRun {
        figure: Figure {
            id: format!("fig{id}"),
            title: format!("Figure {id}: {title} [workload: {wl}]"),
            mem,
            series: outcome.series.clone(),
        },
        outcome,
    })
}

/// Reproduces one of the paper's figure panels using `runner` for
/// execution (worker count, strictness, progress).
///
/// # Panics
///
/// Panics on an unknown id (valid ids are listed in [`ALL_FIGURES`]), or
/// when the runner is strict and a job failed — use [`try_figure_with`]
/// to handle partial outcomes.
pub fn figure_with(id: &str, runner: &SweepRunner) -> Figure {
    let (mem, title) = figure_mem(id);
    let outcome = runner.run(&SweepSpec::figure(id));
    Figure {
        id: format!("fig{id}"),
        title: format!("Figure {id}: {title}"),
        mem,
        series: outcome.series,
    }
}

/// Reproduces one of the paper's figure panels serially.
///
/// # Panics
///
/// Panics on an unknown id; valid ids are listed in [`ALL_FIGURES`].
pub fn figure(id: &str) -> Figure {
    figure_with(id, &SweepRunner::new())
}

/// Runs one of the ablation studies (see [`ALL_ABLATIONS`]) using
/// `runner` for execution (worker count, strictness, progress, and the
/// memo that reuses points an earlier figure already simulated):
///
/// * `"access"` — memory access times 2 and 3 (the paper reports these
///   "showed similar results" to access time 6); returns one panel per
///   access time at an 8-byte bus.
/// * `"priority"` — instruction-first vs data-first arbitration
///   (paper §5's selectable priority) at access 6, bus 8.
/// * `"prefetch"` — true prefetch vs the chip's guaranteed-execution-only
///   policy (paper §6, second paragraph) at access 6, bus 8.
/// * `"format"` — fixed 32-bit vs the chip's mixed 16/32-bit instruction
///   format (paper parameter 1) at access 6, bus 8.
/// * `"tib"` — a cache-less Target Instruction Buffer (paper §2.1) swept
///   over total hardware budgets, against the conventional cache and PIPE
///   16-16 at the same budgets; verifies §2.1's claims that a small TIB
///   can beat a small cache while generating far more off-chip traffic.
///
/// Each panel comes back with its execution record, so failed points are
/// reported like a figure's.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the failing panel's partial outcome, and no
/// later panel runs.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn try_ablation(id: &str, runner: &SweepRunner) -> Result<Vec<FigureRun>, SweepError> {
    ablation_panels(id)
        .into_iter()
        .map(|(title, spec)| {
            let outcome = runner.try_run(&spec)?;
            Ok(FigureRun {
                figure: Figure {
                    id: spec.id,
                    title,
                    mem: spec.mem,
                    series: outcome.series.clone(),
                },
                outcome,
            })
        })
        .collect()
}

/// A full-scale Livermore sweep of `strategies` over the figure cache
/// sizes.
fn panel(
    id: String,
    mem: MemConfig,
    policy: PrefetchPolicy,
    strategies: &[StrategyKind],
    format: InstrFormat,
) -> SweepSpec {
    SweepSpec {
        id,
        strategies: strategies.to_vec(),
        cache_sizes: sweep_sizes().to_vec(),
        mem,
        policy,
        workload: WorkloadSpec::Livermore { format, scale: 1 },
    }
}

/// The panels of one ablation: each panel's title and the sweep behind
/// it, whose id is the panel's figure id.
fn ablation_panels(id: &str) -> Vec<(String, SweepSpec)> {
    let fixed = InstrFormat::Fixed32;
    match id {
        "access" => [2u32, 3]
            .iter()
            .map(|&access| {
                (
                    format!("ablation: {access}-cycle memory, non-pipelined, 8-byte bus"),
                    panel(
                        format!("ablation-access{access}"),
                        mem_for(access, 8, false),
                        PrefetchPolicy::TruePrefetch,
                        &ALL_STRATEGIES,
                        fixed,
                    ),
                )
            })
            .collect(),
        "priority" => [PriorityPolicy::InstructionFirst, PriorityPolicy::DataFirst]
            .iter()
            .map(|&priority| {
                let mem = MemConfig {
                    priority,
                    ..mem_for(6, 8, false)
                };
                (
                    format!("ablation: {priority} arbitration, 6-cycle memory, 8-byte bus"),
                    panel(
                        format!("ablation-priority-{priority}"),
                        mem,
                        PrefetchPolicy::TruePrefetch,
                        &ALL_STRATEGIES,
                        fixed,
                    ),
                )
            })
            .collect(),
        "prefetch" => {
            let pipes: Vec<StrategyKind> =
                ALL_STRATEGIES.into_iter().filter(|s| s.is_pipe()).collect();
            [
                (PrefetchPolicy::TruePrefetch, "true-prefetch"),
                (PrefetchPolicy::GuaranteedOnly, "guaranteed-only"),
            ]
            .iter()
            .map(|&(policy, name)| {
                (
                    format!("ablation: {name} off-chip policy, 6-cycle memory, 8-byte bus"),
                    panel(
                        format!("ablation-prefetch-{name}"),
                        mem_for(6, 8, false),
                        policy,
                        &pipes,
                        fixed,
                    ),
                )
            })
            .collect()
        }
        "tib" => vec![(
            "ablation: target instruction buffer vs cache strategies, 6-cycle memory, 8-byte bus"
                .into(),
            panel(
                "ablation-tib".into(),
                mem_for(6, 8, false),
                PrefetchPolicy::TruePrefetch,
                &[
                    StrategyKind::Conventional,
                    StrategyKind::Tib16,
                    StrategyKind::Pipe16x16,
                ],
                fixed,
            ),
        )],
        "format" => [InstrFormat::Fixed32, InstrFormat::Mixed]
            .iter()
            .map(|&format| {
                (
                    format!("ablation: {format} instruction format, 6-cycle memory, 8-byte bus"),
                    panel(
                        format!("ablation-format-{format}").replace('/', "-"),
                        mem_for(6, 8, false),
                        PrefetchPolicy::TruePrefetch,
                        &ALL_STRATEGIES,
                        format,
                    ),
                )
            })
            .collect(),
        other => panic!("unknown ablation id {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_mem_parameters() {
        let (m, _) = figure_mem("4a");
        assert_eq!(
            (m.access_cycles, m.in_bus_bytes, m.pipelined),
            (1, 4, false)
        );
        let (m, _) = figure_mem("6b");
        assert_eq!((m.access_cycles, m.in_bus_bytes, m.pipelined), (6, 8, true));
        let (a, _) = figure_mem("5b");
        let (b, _) = figure_mem("6a");
        assert_eq!(a, b, "6a re-plots 5b");
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_figure_panics() {
        let _ = figure_mem("9z");
    }
}
