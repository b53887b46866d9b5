//! # pipe-experiments
//!
//! The experiment harness that regenerates every table and figure of
//! Farrens & Pleszkun (ISCA 1989):
//!
//! | experiment | function |
//! |---|---|
//! | Table I — inner-loop sizes | [`tables::table1`] |
//! | Table II — IQ/IQB configurations | [`tables::table2`] |
//! | Fig. 4a/4b — access 1, bus 4/8 B | [`figures::try_figure_with`]`("4a" / "4b", &runner)` |
//! | Fig. 5a/5b — access 6, bus 4/8 B | [`figures::try_figure_with`]`("5a" / "5b", &runner)` |
//! | Fig. 6a/6b — access 6, bus 8 B, non-pipelined/pipelined | [`figures::try_figure_with`]`("6a" / "6b", &runner)` |
//! | ablations (access 2–3, priority, prefetch policy, format, TIB) | [`figures::try_ablation`] |
//!
//! Every figure is a cache-size sweep (16–512 bytes) of the five
//! strategies of Table II (conventional plus the four PIPE
//! configurations), measured as **total cycles to execute the 150,575
//! instruction Livermore benchmark** — the paper's metric.
//!
//! The `repro` binary drives all of this from the command line and prints
//! paper-shaped tables; [`report`] renders text and CSV.

pub mod figures;
pub mod matrix;
pub mod profile;
pub mod report;
pub mod runner;
pub mod studies;
pub mod svg;
pub mod sweep;
pub mod tables;
pub mod tracerun;

pub use figures::{
    figure_mem, try_ablation, try_figure_with, try_figure_with_workload, Figure, FigureRun, Series,
    ALL_ABLATIONS, ALL_FIGURES,
};
pub use matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
pub use profile::{per_loop_profile, render_profile, render_profile_csv, LoopProfile, LoopShare};
pub use report::{check_expectations, render_csv, render_failures, render_text};
pub use runner::{try_run_points_batched, ExperimentPoint};
pub use svg::render_figure_svg;
pub use sweep::{
    mem_key, FailedJob, FaultInjection, JobError, PointOutcome, SweepError, SweepJob, SweepOutcome,
    SweepRunner, SweepSpec, WorkloadSpec,
};
pub use tracerun::{parse_workload_key, replay_point, trace_program};
