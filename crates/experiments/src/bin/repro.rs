//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--all] [--table1] [--table2] [--fig4a ... --fig6b]
//!       [--ablation-access] [--ablation-priority] [--ablation-prefetch]
//!       [--ablation-format] [--ablation-tib] [--profile] [--studies]
//!       [--check] [--csv-dir DIR] [--svg-dir DIR]
//!       [--jobs N] [--progress] [--strict] [--help]
//! ```
//!
//! With no arguments, runs everything except the ablations. `--check`
//! verifies the paper's qualitative expectations and exits nonzero on a
//! violation. `--csv-dir` additionally writes one CSV per figure (and,
//! with `--profile`, one per-loop CSV per profiled strategy). Both output
//! directories are created before any simulation runs, so one that
//! cannot be written is reported at once and exits 1.
//!
//! The figure and ablation sweeps run on one parallel sweep engine:
//! `--jobs N` spreads the points over N worker threads (cycle counts are
//! bit-identical to a serial run), and a point already simulated earlier
//! in the run (Figure 6a re-plots 5b; several ablations contain 5b's
//! configuration) is reused instead of simulated again. `--progress`
//! prints one line per point with its wall time, and a closing count of
//! points simulated and reused.
//!
//! Sweeps are fault-tolerant: a failed point is reported (and marked
//! missing in the table) while every other point completes, and the run
//! exits 0. `--strict` restores fail-fast semantics — the first failed
//! point aborts with a nonzero exit.
//!
//! `--help` (or `-h`) prints the usage on stdout and exits 0. A malformed
//! command line prints `repro: <error>` and the usage, and exits 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pipe_experiments::figures::{
    try_ablation, try_figure_with, Figure, ALL_ABLATIONS, ALL_FIGURES,
};
use pipe_experiments::report::{check_expectations, render_csv, render_failures, render_text};
use pipe_experiments::sweep::{FailedJob, SweepRunner};
use pipe_experiments::tables::{render_table1, render_table2};

struct Options {
    tables: Vec<&'static str>,
    figures: Vec<&'static str>,
    ablations: Vec<&'static str>,
    profile: bool,
    studies: bool,
    check: bool,
    csv_dir: Option<PathBuf>,
    svg_dir: Option<PathBuf>,
    jobs: usize,
    progress: bool,
    strict: bool,
}

const USAGE: &str = "\
usage: repro [--all] [--table1] [--table2] [--fig4a ... --fig6b]
             [--ablation-access|priority|prefetch|format|tib]
             [--profile] [--studies] [--check] [--csv-dir DIR] [--svg-dir DIR]
             [--jobs N] [--progress] [--strict] [--help]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        tables: Vec::new(),
        figures: Vec::new(),
        ablations: Vec::new(),
        profile: false,
        studies: false,
        check: false,
        csv_dir: None,
        svg_dir: None,
        jobs: 1,
        progress: false,
        strict: false,
    };
    let mut any = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => {
                opts.tables = vec!["1", "2"];
                opts.figures = ALL_FIGURES.to_vec();
                opts.ablations = ALL_ABLATIONS.to_vec();
                opts.profile = true;
                opts.studies = true;
                any = true;
            }
            "--profile" => {
                opts.profile = true;
                any = true;
            }
            "--studies" => {
                opts.studies = true;
                any = true;
            }
            "--table1" => {
                opts.tables.push("1");
                any = true;
            }
            "--table2" => {
                opts.tables.push("2");
                any = true;
            }
            "--check" => opts.check = true,
            "--jobs" => {
                let n = args.next().ok_or("--jobs needs a count")?;
                opts.jobs = n
                    .parse()
                    .map_err(|_| format!("--jobs: invalid count `{n}`"))?;
            }
            "--progress" => opts.progress = true,
            "--strict" => opts.strict = true,
            "--csv-dir" => {
                let dir = args.next().ok_or("--csv-dir needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(dir));
            }
            "--svg-dir" => {
                let dir = args.next().ok_or("--svg-dir needs a directory")?;
                opts.svg_dir = Some(PathBuf::from(dir));
            }
            other => {
                if let Some(id) = other.strip_prefix("--fig") {
                    let id = ALL_FIGURES
                        .iter()
                        .find(|&&f| f == id)
                        .ok_or_else(|| format!("unknown figure {other}"))?;
                    opts.figures.push(id);
                    any = true;
                } else if let Some(id) = other.strip_prefix("--ablation-") {
                    let id = ALL_ABLATIONS
                        .iter()
                        .find(|&&a| a == id)
                        .ok_or_else(|| format!("unknown ablation {other}"))?;
                    opts.ablations.push(id);
                    any = true;
                } else {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if !any {
        opts.tables = vec!["1", "2"];
        opts.figures = ALL_FIGURES.to_vec();
    }
    Ok(opts)
}

/// Writes `contents` to `dir/name` and says so on stdout. `main` has
/// already created `dir`.
///
/// # Errors
///
/// `cannot write <path>: <error>` naming the file that failed.
fn write_output(dir: &Path, name: &str, kind: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  [{kind} written to {}]", path.display());
    Ok(())
}

fn emit(
    fig: &Figure,
    failed: &[FailedJob],
    opts: &Options,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    println!("{}", render_text(fig));
    print!("{}", render_failures(failed));
    if let Some(dir) = &opts.csv_dir {
        write_output(dir, &format!("{}.csv", fig.id), "csv", &render_csv(fig))?;
    }
    if let Some(dir) = &opts.svg_dir {
        let svg = pipe_experiments::render_figure_svg(fig);
        write_output(dir, &format!("{}.svg", fig.id), "svg", &svg)?;
    }
    if opts.check {
        let v = check_expectations(fig);
        if v.is_empty() {
            println!("  [check] all paper expectations hold");
        }
        for msg in &v {
            println!("  [check] VIOLATION: {msg}");
        }
        violations.extend(v);
    }
    println!();
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Fail on an unwritable output directory now, not after the sweeps.
    for dir in opts.csv_dir.iter().chain(&opts.svg_dir) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot write {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut violations = Vec::new();

    let runner = SweepRunner::new()
        .jobs(opts.jobs)
        .progress(opts.progress)
        .strict(opts.strict);

    for t in &opts.tables {
        match *t {
            "1" => println!("{}", render_table1()),
            "2" => println!("{}", render_table2()),
            _ => unreachable!(),
        }
    }

    // Figures, then ablations, all on the one runner: a point an earlier
    // sweep simulated is reused rather than simulated again.
    let figure_runs = opts
        .figures
        .iter()
        .map(|id| try_figure_with(id, &runner).map(|run| vec![run]));
    let ablation_runs = opts.ablations.iter().map(|id| try_ablation(id, &runner));
    let (mut total_failed, mut simulated, mut reused) = (0usize, 0usize, 0usize);
    for result in figure_runs.chain(ablation_runs) {
        match result {
            Ok(runs) => {
                for run in runs {
                    total_failed += run.failed().len();
                    reused += run.outcome.reused;
                    simulated += run.outcome.computed - run.outcome.reused;
                    if let Err(e) = emit(&run.figure, run.failed(), &opts, &mut violations) {
                        eprintln!("repro: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                // Strict fail-fast: report what completed, then abort.
                eprintln!("repro: {e}");
                print!("{}", render_failures(&e.partial().failed));
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.progress && simulated + reused > 0 {
        eprintln!("repro: {simulated} point(s) simulated, {reused} reused");
    }

    if opts.profile {
        use pipe_experiments::profile::{per_loop_profile, render_profile, render_profile_csv};
        use pipe_experiments::StrategyKind;
        let suite = pipe_workloads::livermore_benchmark();
        let mem = pipe_mem::MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..pipe_mem::MemConfig::default()
        };
        for kind in [StrategyKind::Pipe16x16, StrategyKind::Conventional] {
            let fetch = kind
                .fetch_for(128, pipe_icache::PrefetchPolicy::TruePrefetch)
                .expect("valid");
            let profile = per_loop_profile(&suite, fetch, &mem);
            println!("{}", render_profile(&profile));
            if let Some(dir) = &opts.csv_dir {
                let name = format!("profile_{}.csv", kind.label());
                if let Err(e) = write_output(dir, &name, "csv", &render_profile_csv(&profile)) {
                    eprintln!("repro: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if opts.studies {
        use pipe_experiments::studies::{
            partial_line_study, queue_size_study, render_partial_line_study, render_queue_study,
        };
        let suite = pipe_workloads::livermore_benchmark();
        let mem = pipe_mem::MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..pipe_mem::MemConfig::default()
        };
        let sizes = [8u32, 16, 32];
        let cells = queue_size_study(&suite, 64, 16, &mem, &sizes);
        println!("{}", render_queue_study(&cells, &sizes));
        let narrow = pipe_mem::MemConfig {
            in_bus_bytes: 4,
            ..mem
        };
        let rows = partial_line_study(&suite, &narrow, &[16, 32, 64, 128, 256, 512]);
        println!("{}", render_partial_line_study(&rows));
        use pipe_experiments::studies::{hill_prefetch_study, render_hill_study};
        let rows = hill_prefetch_study(&suite, &mem, &[16, 32, 64, 128, 256, 512]);
        println!("{}", render_hill_study(&rows));
        use pipe_experiments::studies::{buffer_study, render_buffer_study};
        let pipelined = pipe_mem::MemConfig {
            pipelined: true,
            access_cycles: 4,
            ..mem
        };
        let rows = buffer_study(&suite, &pipelined, &[1, 2, 4, 8], None);
        println!("{}", render_buffer_study(&rows));
        use pipe_experiments::studies::{access_sweep_study, render_access_study};
        let rows = access_sweep_study(&suite, 32, 8, &[1, 2, 3, 4, 5, 6, 8]);
        println!("{}", render_access_study(&rows, 32));
        use pipe_experiments::studies::{external_cache_study, render_ext_cache_study};
        let rows = external_cache_study(&suite, &mem, 20, &[4096, 16384, 65536, 262144]);
        println!("{}", render_ext_cache_study(&rows, 20));
    }

    if total_failed > 0 {
        eprintln!(
            "repro: {total_failed} sweep point(s) failed (marked `-` above); \
             re-run with --strict to make this fatal"
        );
    }
    if opts.check && !violations.is_empty() {
        eprintln!("{} expectation violation(s)", violations.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
