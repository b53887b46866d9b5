//! # pipe-perfbench
//!
//! Host-time benchmark of the reproduction pipeline, in the shape of the
//! paper's figures. Each workload runs in its own process on one thread
//! (`repro`'s default `--jobs 1`), through the public entry points
//! `repro` uses, and every output it produces is gated for exactness
//! (see [`gate`]).
//!
//! A run sets the workload up several times (the first cold) and then
//! repeats whole passes over it for about `--seconds`, at least
//! [`MIN_PASSES`] times; times are medians over the repeats. The
//! end-to-end times are normalised to an unloaded host by calibration
//! bursts taken between units (see [`calib`]); the host seconds are kept
//! in the context line. With `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics, in host seconds,
//! from the traced ones (see [`spans`]).

pub mod calib;
pub mod gate;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gate::{Gate, Reference};
use spans::Spans;
use workloads::{run_pass, set_up, PassContext, PassOutput, Prepared, Unit, Workload, STUDIES};

/// Version of the benchmark's definition, recorded with every result.
pub const VERSION: &str = "perfbench-v1";

/// After each pass, set-up repeats for this many seconds (at least
/// once); `setup_s` is the median repetition.
pub const SETUP_BURST_S: f64 = 0.01;

/// Fewest timed passes per run (per kind, in a traced run).
pub const MIN_PASSES: usize = 2;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Shuffles the order the units are visited in.
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub traced: bool,
    /// Livermore iteration divisor; 1 is the paper's run, larger values
    /// give a fast smoke run that is gated only for repeatability.
    pub scale: u32,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// No output failed.
    pub correct: bool,
    /// Gated outputs, over all passes.
    pub attempted: u64,
    /// Gated outputs that failed.
    pub failed: u64,
    /// The end-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// One line per failed output.
    pub errors: Vec<String>,
    /// The first pass's gated outputs.
    pub outputs: BTreeMap<String, u64>,
    /// The modelled counts (identical in every pass of a correct run).
    pub counts: BTreeMap<&'static str, u64>,
    /// Untraced and traced passes made.
    pub passes: (usize, usize),
    /// Set-up repetitions made.
    pub setup_reps: usize,
    /// The first (cold) set-up's seconds.
    pub setup_cold_s: f64,
    /// Median host seconds of a set-up, not normalised.
    pub setup_raw_s: f64,
    /// Host seconds of a typical untraced pass, not normalised.
    pub wall_s: f64,
    /// Median seconds of the run's calibration bursts.
    pub calib_burst_s: f64,
    /// The CPU the run was pinned to, if pinning succeeded.
    pub pinned_cpu: Option<usize>,
    /// Recorded spans, empty for an untraced run.
    pub spans: Spans,
}

/// The end-to-end metrics, by name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_norm_s", "s"),
    ("sim_mips_norm", "MIPS"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Strategy labels, in the order the figures plot them.
const ENGINES: [&str; 5] = ["conventional", "8-8", "16-16", "16-32", "32-32"];

/// Every per-layer metric, by name and unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for fig in ["4a", "4b", "5a", "5b", "6a", "6b"] {
        out.push((format!("experiments.figure_s.fig{fig}"), "s"));
    }
    for study in STUDIES {
        out.push((format!("experiments.study_s.{study}"), "s"));
    }
    for (name, unit) in [
        ("experiments.check_s", "s"),
        ("experiments.render_s", "s"),
        ("experiments.runner_other_s", "s"),
        ("experiments.batch_width_mean", "lanes"),
        ("workloads.build_s", "s"),
        ("isa.predecode_s", "s"),
        ("trace.record_s", "s"),
        ("core.simulate_s", "s"),
        ("core.mcycles_per_s", "Mcycle/s"),
        ("core.cycles", "count"),
        ("core.instructions", "count"),
        ("core.stall.ifetch", "count"),
        ("core.stall.data_wait", "count"),
        ("core.stall.queue_full", "count"),
        ("core.stall.branch", "count"),
    ] {
        out.push((name.to_string(), unit));
    }
    for engine in ENGINES {
        out.push((format!("icache.replay_s.{engine}"), "s"));
    }
    for engine in ENGINES {
        out.push((format!("icache.replay_mcycles_per_s.{engine}"), "Mcycle/s"));
    }
    for (name, unit) in [
        ("icache.demand_requests", "count"),
        ("icache.prefetch_requests", "count"),
        ("icache.hit_rate", "frac"),
        ("icache.redirects", "count"),
        ("icache.flushed_parcels", "count"),
        ("icache.wasted_requests", "count"),
        ("mem.accepted", "count"),
        ("mem.in_bus_busy_cycles", "count"),
        ("mem.in_bus_utilization", "frac"),
        ("mem.contended_cycles", "count"),
        ("mem.blocked_cycles", "count"),
        ("trace.bytes", "B"),
        ("bench.tracing_overhead_s", "s"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// The benchmark's own directory (this package), where the reference
/// digests live and outputs are written.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (the parent of [`bench_dir`]).
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The reference the full-scale workload is gated against: the committed
/// figure CSVs plus `reference.txt`.
///
/// # Errors
///
/// A message naming an unreadable or malformed reference file.
pub fn load_reference(workload: Workload) -> Result<Reference, String> {
    Reference::load(
        workload.name(),
        &workload.csv_figures(),
        &repo_root().join("results"),
        &bench_dir().join("reference.txt"),
    )
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Shuffles the units with a SplitMix64 stream from `seed`.
fn shuffled(mut units: Vec<Unit>, seed: u64) -> Vec<Unit> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..units.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        units.swap(i, j);
    }
    units
}

/// The process's peak resident set in MiB (Linux `VmHWM`).
///
/// # Errors
///
/// A message when `/proc/self/status` has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one benchmark run of `config`, gated against `reference`,
/// writing its scratch files (the recorded trace) under `work_dir`.
///
/// # Errors
///
/// A message when set-up fails or a measurement cannot be taken; wrong
/// outputs are not errors but failed outputs in the report.
pub fn run(config: &Config, reference: Reference, work_dir: &Path) -> Result<Report, String> {
    let pinned_cpu = calib::pin_to_current_cpu();
    std::fs::create_dir_all(work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let trace_path = work_dir.join(format!("livermore-{}.ptr", std::process::id()));
    let result = measure(config, reference, &trace_path).map(|report| Report {
        pinned_cpu,
        ..report
    });
    // The recorded traces are scratch; a missing file is fine.
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(trace_path.with_extension("repeat.ptr"));
    result
}

fn measure(config: &Config, reference: Reference, trace_path: &Path) -> Result<Report, String> {
    let mut traced_spans = Spans::new(config.traced);
    let mut untraced_spans = Spans::new(false);

    // The first, cold set-up builds what the passes use; the repeats
    // after each pass spread the set-up samples over the whole run, so
    // their median sees the same host as the passes do.
    let mut setups = SetupSamples::default();
    let prepared = setups.burst(config, trace_path, &mut traced_spans, 0.0)?;
    let repeat_path = trace_path.with_extension("repeat.ptr");

    let units = shuffled(config.workload.units(), config.seed);
    let mut gate = Gate::new(reference);
    let mut widths = BTreeMap::new();
    // Per pass, the seconds of each unit in visiting order: host seconds
    // and normalised ones, of untraced and of traced passes.
    let mut untraced: Vec<Vec<f64>> = Vec::new();
    let mut traced: Vec<Vec<f64>> = Vec::new();
    let mut untraced_norm: Vec<Vec<f64>> = Vec::new();
    let mut traced_norm: Vec<Vec<f64>> = Vec::new();
    let mut traced_runs = Vec::new();
    let mut first: Option<PassOutput> = None;

    let mut calib_bursts = Vec::new();
    let started = Instant::now();
    let mut last_pass = 0.0;
    loop {
        // Stop at the pass boundary nearest to the time budget.
        let done = started.elapsed().as_secs_f64() + last_pass / 2.0 >= config.seconds;
        let enough = untraced.len() >= MIN_PASSES && (!config.traced || traced.len() >= MIN_PASSES);
        if done && enough {
            break;
        }
        // A traced run alternates: untraced, traced, untraced, ...
        let is_traced = config.traced && traced.len() < untraced.len();
        let (label, spans) = if is_traced {
            traced_runs.push(traced_spans.begin_run());
            (format!("traced pass {}", traced.len()), &mut traced_spans)
        } else {
            (format!("pass {}", untraced.len()), &mut untraced_spans)
        };
        let ctx = PassContext {
            workload: config.workload,
            prepared: &prepared,
            widths: &widths,
        };
        let out = run_pass(&ctx, &units, spans, is_traced);
        let wall: f64 = out.unit_seconds.iter().sum();
        let norm = out.normalised_seconds();
        last_pass = wall;
        let list = |v: &[f64]| v.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>();
        eprintln!(
            "[{}] {label}: {wall:.3} s, normalised {:.3} s (units {}; bursts {})",
            config.workload.name(),
            norm.iter().sum::<f64>(),
            list(&out.unit_seconds).join(" "),
            list(&out.calib_seconds).join(" ")
        );
        calib_bursts.extend_from_slice(&out.calib_seconds);
        gate.check(&label, &out.values, &out.invariants);
        let (host, normalised) = if is_traced {
            (&mut traced, &mut traced_norm)
        } else {
            (&mut untraced, &mut untraced_norm)
        };
        host.push(out.unit_seconds.clone());
        normalised.push(norm);
        if first.is_none() {
            widths = out.batches.clone();
            first = Some(out);
        }
        setups.burst(config, &repeat_path, &mut traced_spans, SETUP_BURST_S)?;
    }
    let first = first.expect("at least one pass");

    let wall_s = typical_pass(&untraced);
    let wall_norm_s = typical_pass(&untraced_norm);
    let instructions = first.counts.get("core.instructions").copied().unwrap_or(0);
    let ok_frac = 1.0 - gate.failed as f64 / gate.attempted.max(1) as f64;
    let metrics = if config.traced {
        let overhead = typical_pass(&traced_norm) - wall_norm_s;
        per_layer(&traced_spans, &setups.runs, &traced_runs, &first, overhead)
    } else {
        vec![
            metric("wall_norm_s", "s", wall_norm_s),
            metric(
                "sim_mips_norm",
                "MIPS",
                ratio(instructions as f64 / 1e6, wall_norm_s),
            ),
            metric("setup_s", "s", median(&setups.normalised)),
            metric("peak_rss_mb", "MB", peak_rss_mb()?),
            metric("ok_frac", "frac", ok_frac),
        ]
    };
    Ok(Report {
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        errors: gate.errors,
        outputs: first.values,
        counts: first.counts,
        passes: (untraced.len(), traced.len()),
        setup_reps: setups.seconds.len(),
        setup_cold_s: setups.seconds[0],
        setup_raw_s: median(&setups.seconds),
        wall_s,
        calib_burst_s: median(&calib_bursts),
        pinned_cpu: None,
        spans: traced_spans,
    })
}

/// Set-up repetitions: their span run ids and seconds (host, and
/// normalised by the calibration bursts around each set-up burst).
#[derive(Default)]
struct SetupSamples {
    runs: Vec<u32>,
    seconds: Vec<f64>,
    normalised: Vec<f64>,
}

impl SetupSamples {
    /// Sets the workload up once, then again until `budget` seconds have
    /// passed, recording each repetition; returns the last products.
    fn burst(
        &mut self,
        config: &Config,
        trace_path: &Path,
        spans: &mut Spans,
        budget: f64,
    ) -> Result<Prepared, String> {
        let first = self.seconds.len();
        let before = calib::burst();
        let started = Instant::now();
        let prepared = loop {
            self.runs.push(spans.begin_run());
            let t0 = Instant::now();
            let prepared = set_up(config.workload, config.scale, trace_path, spans)?;
            self.seconds.push(t0.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= budget {
                break prepared;
            }
        };
        let after = calib::burst();
        let normalised = self.seconds[first..]
            .iter()
            .map(|&s| calib::normalise(s, before, after));
        self.normalised.extend(normalised);
        Ok(prepared)
    }
}

/// The seconds of a typical pass: each unit's median over the passes,
/// summed. A burst of host slowness shorter than a pass then skews only
/// the units it overlapped, and the medians drop it.
fn typical_pass(passes: &[Vec<f64>]) -> f64 {
    let units = passes.first().map_or(0, Vec::len);
    (0..units)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: span times are medians over the traced passes
/// (set-up spans over the set-up repetitions); counts come from the
/// first pass. A metric whose layer the workload never calls reads 0.
fn per_layer(
    spans: &Spans,
    setup_runs: &[u32],
    traced_runs: &[u32],
    first: &PassOutput,
    overhead: f64,
) -> Vec<Metric> {
    let per_pass = |pick: &dyn Fn(&str) -> bool| {
        median(
            &traced_runs
                .iter()
                .map(|&r| spans.seconds(r, pick))
                .collect::<Vec<_>>(),
        )
    };
    let per_setup = |name: &str| {
        median(
            &setup_runs
                .iter()
                .map(|&r| spans.seconds(r, |n| n == name))
                .collect::<Vec<_>>(),
        )
    };
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0);
    let simulate_s = per_pass(&|n| n == "core.simulate");
    let batches: Vec<usize> = first.batches.values().flatten().copied().collect();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in per_layer_metrics() {
        let v = if let Some(fig) = name.strip_prefix("experiments.figure_s.") {
            per_pass(&|n| n.strip_prefix("experiments.figure.") == Some(fig))
        } else if let Some(study) = name.strip_prefix("experiments.study_s.") {
            per_pass(&|n| n.strip_prefix("experiments.study.") == Some(study))
        } else if let Some(engine) = name.strip_prefix("icache.replay_s.") {
            per_pass(&|n| n.strip_prefix("icache.replay.") == Some(engine))
        } else if name.starts_with("icache.replay_mcycles_per_s.") {
            // Filled in below from the replay times.
            0.0
        } else {
            match name.as_str() {
                "experiments.check_s" => per_pass(&|n| n == "experiments.check"),
                "experiments.render_s" => per_pass(&|n| n == "experiments.render"),
                "experiments.runner_other_s" => median(
                    &traced_runs
                        .iter()
                        .map(|&r| spans.self_seconds(r, |n| n.starts_with("experiments.figure.")))
                        .collect::<Vec<_>>(),
                ),
                "experiments.batch_width_mean" => {
                    ratio(batches.iter().sum::<usize>() as f64, batches.len() as f64)
                }
                "workloads.build_s" => per_setup("workloads.build"),
                "isa.predecode_s" => per_setup("isa.predecode"),
                "trace.record_s" => per_setup("trace.record"),
                "core.simulate_s" => simulate_s,
                "core.mcycles_per_s" => ratio(count("core.cycles") as f64 / 1e6, simulate_s),
                "icache.hit_rate" => {
                    let hits = count("icache.cache_hits") as f64;
                    ratio(hits, hits + count("icache.cache_misses") as f64)
                }
                "mem.in_bus_utilization" => ratio(
                    count("mem.in_bus_busy_cycles") as f64,
                    count("mem.cycles") as f64,
                ),
                "bench.tracing_overhead_s" => overhead,
                other => count(other) as f64,
            }
        };
        values.insert(name, v);
    }
    // Replayed cycles per engine over the replay time per engine.
    for engine in ENGINES {
        let secs = values[&format!("icache.replay_s.{engine}")];
        let cycles = first.engine_cycles.get(engine).copied().unwrap_or(0) as f64;
        values.insert(
            format!("icache.replay_mcycles_per_s.{engine}"),
            ratio(cycles / 1e6, secs),
        );
    }
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = values[&name];
            metric(name, unit, value)
        })
        .collect()
}
