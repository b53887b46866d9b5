//! The two workloads: their set-up, and one pass over their units.
//!
//! A pass visits the workload's units (figures, studies, replayed
//! figures) in the run's seed-shuffled order. The untraced pass calls
//! the same entry points `repro` calls. The traced pass issues the calls
//! those entry points make one by one (workload build, predecode, each
//! simulate or replay call) so each can carry its own span, and must
//! produce exactly the untraced pass's outputs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pipe_core::{FetchStrategy, Processor, SimStats};
use pipe_experiments::figures::{figure_mem, try_figure_with, try_figure_with_workload};
use pipe_experiments::profile::{per_loop_profile, render_profile};
use pipe_experiments::runner::{
    point_config, try_run_point_decoded, try_run_points_batched, ExperimentPoint,
};
use pipe_experiments::studies::{
    access_sweep_study, buffer_study, external_cache_study, hill_prefetch_study,
    partial_line_study, queue_size_study, render_access_study, render_buffer_study,
    render_ext_cache_study, render_hill_study, render_partial_line_study, render_queue_study,
};
use pipe_experiments::{
    check_expectations, mem_key, render_text, replay_point, Figure, Series, StrategyKind,
    SweepRunner, SweepSpec, WorkloadSpec,
};
use pipe_icache::PrefetchPolicy;
use pipe_isa::{DecodedProgram, InstrFormat};
use pipe_mem::MemConfig;
use pipe_trace::{program_fnv, replay_trace, TraceMeta, TraceReader, TraceRecorder};
use pipe_workloads::LivermoreSuite;

use crate::calib;
use crate::spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 4a–6b through the sweep runner (batched kernel, stall
    /// fast-forwarding): 4a and 4b at 1-cycle memory, where a bus beat
    /// lands on almost every stalled cycle and fast-forwarding never
    /// fires, then the paper's headline panels 5a–6b at 6-cycle memory,
    /// with long idle stalls and IQB prefetching.
    Figures,
    /// The scalar paths: the studies and profile runs of
    /// `repro --studies --profile` (`run_point` over the widest spread of
    /// memory timings), then one recorded Livermore trace replayed
    /// through every strategy and size at the Figure 4a and 5b timings
    /// (fetch engines and memory with no processor core).
    Scalar,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Figures, Workload::Scalar];

    /// The name used on the command line and in output keys.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Scalar => "scalar",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The units one pass visits, in canonical order.
    pub fn units(self) -> Vec<Unit> {
        match self {
            Workload::Figures => ["4a", "4b", "5a", "5b", "6a", "6b"]
                .map(Unit::Figure)
                .to_vec(),
            Workload::Scalar => STUDIES
                .map(Unit::Study)
                .into_iter()
                .chain([Unit::Replay("4a"), Unit::Replay("5b"), Unit::Recording])
                .collect(),
        }
    }

    /// The paper figures whose committed CSVs gate this workload.
    pub fn csv_figures(self) -> Vec<&'static str> {
        self.units()
            .into_iter()
            .filter_map(|u| match u {
                Unit::Figure(id) => Some(id),
                _ => None,
            })
            .collect()
    }
}

/// The studies `repro --studies --profile` runs, by metric name.
pub const STUDIES: [&str; 8] = [
    "queue_size",
    "partial_line",
    "hill_prefetch",
    "pipelined_buffers",
    "access_time",
    "external_cache",
    "profile_16-16",
    "profile_conventional",
];

/// One step of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A paper figure on the Livermore workload.
    Figure(&'static str),
    /// One study (or profile run) of `repro --studies --profile`.
    Study(&'static str),
    /// A paper figure replayed from the recorded trace.
    Replay(&'static str),
    /// The trace replayed under its recording configuration, which must
    /// reproduce the recorded run exactly.
    Recording,
}

/// What set-up builds once per run and the passes reuse.
pub struct Prepared {
    /// Iteration-count divisor (1 = the paper's full run).
    pub scale: u32,
    /// The Livermore suite.
    pub suite: LivermoreSuite,
    /// The recorded trace (scalar workload only).
    pub trace: Option<RecordedTrace>,
}

/// A Livermore run recorded to a trace file during set-up.
pub struct RecordedTrace {
    /// The trace file.
    pub path: PathBuf,
    /// The sweep workload that replays it.
    pub workload: WorkloadSpec,
    /// The configuration it was recorded under.
    pub fetch: FetchStrategy,
    /// The memory timing it was recorded under.
    pub mem: MemConfig,
    /// File size in bytes.
    pub bytes: u64,
}

fn livermore_spec(scale: u32) -> WorkloadSpec {
    WorkloadSpec::Livermore {
        format: InstrFormat::Fixed32,
        scale,
    }
}

/// The set-up calls a user pays on each run: code generation with
/// Table I calibration, predecode, and for the scalar workload recording
/// the trace and opening it as a sweep workload (written to `trace_path`).
///
/// # Errors
///
/// A message for any failing set-up call.
pub fn set_up(
    workload: Workload,
    scale: u32,
    trace_path: &Path,
    spans: &mut Spans,
) -> Result<Prepared, String> {
    spans.enter("setup");
    let suite = spans.time("workloads.build", || {
        if scale <= 1 {
            LivermoreSuite::build(InstrFormat::Fixed32)
        } else {
            LivermoreSuite::build_scaled(InstrFormat::Fixed32, scale)
        }
    })?;
    // The sweep runner predecodes the program for each figure; set-up
    // times the same call as users pay it.
    black_box(spans.time("isa.predecode", || {
        DecodedProgram::new(suite.program().clone())
    }));
    let trace = match workload {
        Workload::Scalar => Some(record_trace(&suite, scale, trace_path, spans)?),
        Workload::Figures => None,
    };
    spans.exit();
    Ok(Prepared {
        scale,
        suite,
        trace,
    })
}

/// Records the Livermore run under PIPE 16-16 at 128 B and Figure 5b
/// timing, then opens the file as a sweep workload.
fn record_trace(
    suite: &LivermoreSuite,
    scale: u32,
    path: &Path,
    spans: &mut Spans,
) -> Result<RecordedTrace, String> {
    let fetch = StrategyKind::Pipe16x16
        .fetch_for(128, PrefetchPolicy::TruePrefetch)
        .expect("16-16 fits a 128-byte cache");
    let (mem, _) = figure_mem("5b");
    let program = suite.program();
    let meta = TraceMeta {
        workload: livermore_spec(scale).key(),
        program_fnv: program_fnv(program),
        entry_pc: program.entry(),
        fetch_key: fetch.cache_key(),
        mem_key: mem_key(&mem),
    };
    spans.enter("trace.record");
    let recorder = TraceRecorder::create(path, &meta)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let recorder = Rc::new(RefCell::new(recorder));
    let mut proc = Processor::new(program, &point_config(fetch, &mem))
        .map_err(|e| format!("recording run: {e}"))?
        .with_trace(Rc::clone(&recorder));
    proc.run().map_err(|e| format!("recording run: {e}"))?;
    recorder
        .borrow_mut()
        .finish(proc.stats().cycles)
        .map_err(|e| format!("cannot finish {}: {e}", path.display()))?;
    spans.exit();
    let workload = spans.time("trace.open", || WorkloadSpec::trace(path))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    Ok(RecordedTrace {
        path: path.to_path_buf(),
        workload,
        fetch,
        mem,
        bytes,
    })
}

/// The outputs of one pass.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Gated output values (see [`crate::gate`]).
    pub values: BTreeMap<String, u64>,
    /// Modelled counts summed over the pass; they must repeat exactly.
    pub counts: BTreeMap<&'static str, u64>,
    /// Invariant checks: failed runner jobs, the recording replay.
    pub invariants: Vec<Result<(), String>>,
    /// Simulated cycles per strategy label, over every figure point.
    pub engine_cycles: BTreeMap<&'static str, u64>,
    /// Lane widths of each figure's simulate calls, per unit.
    pub batches: BTreeMap<&'static str, Vec<usize>>,
    /// Host seconds of each unit, in visiting order.
    pub unit_seconds: Vec<f64>,
    /// Seconds of the calibration burst before the first unit and after
    /// each unit (one more than `unit_seconds`).
    pub calib_seconds: Vec<f64>,
}

impl PassOutput {
    fn add(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn add_stats(&mut self, s: &SimStats) {
        self.add("core.cycles", s.cycles);
        self.add("core.instructions", s.instructions_issued);
        self.add("core.stall.ifetch", s.stalls.ifetch);
        self.add("core.stall.data_wait", s.stalls.data_wait);
        self.add("core.stall.queue_full", s.stalls.queue_full);
        self.add("core.stall.branch", s.stalls.branch);
        self.add("icache.demand_requests", s.fetch.demand_requests);
        self.add("icache.prefetch_requests", s.fetch.prefetch_requests);
        self.add("icache.cache_hits", s.fetch.cache_hits);
        self.add("icache.cache_misses", s.fetch.cache_misses);
        self.add("icache.redirects", s.fetch.redirects);
        self.add("icache.flushed_parcels", s.fetch.flushed_parcels);
        self.add("icache.wasted_requests", s.fetch.wasted_requests);
        self.add("mem.accepted", s.mem.accepted.iter().sum());
        self.add("mem.in_bus_busy_cycles", s.mem.in_bus_busy_cycles);
        self.add("mem.cycles", s.mem.cycles);
        self.add("mem.contended_cycles", s.mem.contended_cycles);
        self.add("mem.blocked_cycles", s.mem.blocked_cycles);
    }

    /// Records a figure's points (keyed `<workload>/fig<id>/<label>/<size>`),
    /// its claim-check violations and its failed jobs.
    fn add_figure(&mut self, prefix: &str, figure: &Figure, violations: usize, failed: usize) {
        for series in &figure.series {
            for point in &series.points {
                let key = format!(
                    "{prefix}/{}/{}/{}",
                    figure.id, series.label, point.cache_bytes
                );
                self.values.insert(key, point.cycles);
                self.add_stats(&point.stats);
                *self.engine_cycles.entry(series.kind.label()).or_default() += point.cycles;
            }
        }
        self.values.insert(
            format!("{prefix}/{}/violations", figure.id),
            violations as u64,
        );
        self.invariants.push(match failed {
            0 => Ok(()),
            n => Err(format!("{}: {n} point(s) failed", figure.id)),
        });
    }

    /// Each unit's seconds at the unloaded host's speed, scaled by the
    /// calibration bursts on either side of it.
    pub fn normalised_seconds(&self) -> Vec<f64> {
        self.unit_seconds
            .iter()
            .zip(self.calib_seconds.windows(2))
            .map(|(&s, c)| calib::normalise(s, c[0], c[1]))
            .collect()
    }

    /// The canonical text of the modelled counts.
    pub fn counts_text(&self) -> String {
        self.counts
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }
}

/// Everything a pass needs besides its units.
pub struct PassContext<'a> {
    /// The workload.
    pub workload: Workload,
    /// Set-up products.
    pub prepared: &'a Prepared,
    /// Lane widths the untraced pass used per figure; the traced pass
    /// issues its simulate calls in the same groups.
    pub widths: &'a BTreeMap<&'static str, Vec<usize>>,
}

/// Runs one pass over `units`. With `spans` enabled the figures run
/// decomposed (traced); otherwise through the `repro` entry points.
pub fn run_pass(
    ctx: &PassContext<'_>,
    units: &[Unit],
    spans: &mut Spans,
    traced: bool,
) -> PassOutput {
    let mut out = PassOutput::default();
    let prefix = ctx.workload.name();
    let runner = SweepRunner::new();
    out.calib_seconds.push(calib::burst());
    for &unit in units {
        let started = Instant::now();
        match unit {
            Unit::Figure(id) | Unit::Replay(id) => {
                let workload = match unit {
                    Unit::Replay(_) => Some(
                        ctx.prepared
                            .trace
                            .as_ref()
                            .expect("replay units run after recording")
                            .workload
                            .clone(),
                    ),
                    _ if ctx.prepared.scale > 1 => Some(livermore_spec(ctx.prepared.scale)),
                    _ => None,
                };
                let (figure, failed, widths) = if traced {
                    traced_figure(ctx, id, workload, spans)
                } else {
                    let run = match workload {
                        Some(wl) => try_figure_with_workload(id, &runner, wl),
                        None => try_figure_with(id, &runner),
                    };
                    match run {
                        Ok(run) => {
                            let failed = run.failed().len();
                            (run.figure, failed, run.outcome.batches)
                        }
                        Err(e) => {
                            out.invariants.push(Err(format!("fig{id}: {e}")));
                            out.unit_seconds.push(started.elapsed().as_secs_f64());
                            out.calib_seconds.push(calib::burst());
                            continue;
                        }
                    }
                };
                let violations = spans.time("experiments.check", || check_expectations(&figure));
                black_box(spans.time("experiments.render", || render_text(&figure)));
                out.add_figure(prefix, &figure, violations.len(), failed);
                out.batches.insert(id, widths);
            }
            Unit::Study(name) => {
                let text = study(&ctx.prepared.suite, name, &mut out, spans);
                out.values.insert(
                    format!("{prefix}/{name}/text"),
                    pipe_trace::fnv1a64(text.as_bytes()),
                );
            }
            Unit::Recording => {
                let trace = ctx.prepared.trace.as_ref().expect("recorded in set-up");
                let check = spans.time("trace.verify", || {
                    let reader = TraceReader::open(&trace.path).map_err(|e| e.to_string())?;
                    let outcome = replay_trace(
                        reader,
                        ctx.prepared.suite.program(),
                        &trace.fetch,
                        &trace.mem,
                    )
                    .map_err(|e| e.to_string())?;
                    match outcome.matches_recording() {
                        true => Ok(()),
                        false => Err("replay under the recording configuration diverged".into()),
                    }
                });
                out.invariants.push(check);
            }
        }
        out.unit_seconds.push(started.elapsed().as_secs_f64());
        out.calib_seconds.push(calib::burst());
    }
    if let Some(trace) = &ctx.prepared.trace {
        out.add("trace.bytes", trace.bytes);
    }
    let counts = out.counts_text();
    out.values.insert(
        format!("{prefix}/counts"),
        pipe_trace::fnv1a64(counts.as_bytes()),
    );
    out
}

/// The calls `try_figure_with(_workload)` makes, one span each: build,
/// predecode, then the simulate calls grouped as the untraced pass
/// grouped them (or one replay call per point for a trace workload).
fn traced_figure(
    ctx: &PassContext<'_>,
    id: &'static str,
    workload: Option<WorkloadSpec>,
    spans: &mut Spans,
) -> (Figure, usize, Vec<usize>) {
    let (mem, title) = figure_mem(id);
    let mut spec = SweepSpec::figure(id);
    if let Some(wl) = workload {
        spec.workload = wl;
    }
    spans.enter(&format!("experiments.figure.fig{id}"));
    let jobs = spec.expand();
    let program = spans.time("workloads.build", || spec.workload.build());
    let decoded = spans.time("isa.predecode", || Arc::new(DecodedProgram::new(program)));
    let mut points: Vec<Option<ExperimentPoint>> = vec![None; jobs.len()];
    let mut widths = Vec::new();
    if let WorkloadSpec::Trace { path, .. } = &spec.workload {
        for job in &jobs {
            let name = format!("icache.replay.{}", job.kind.label());
            let point = spans.time(&name, || {
                replay_point(
                    Path::new(path),
                    decoded.program(),
                    job.fetch,
                    &spec.mem,
                    job.cache_bytes,
                )
            });
            points[job.index] = point.ok();
            widths.push(1);
        }
    } else {
        let groups = ctx.widths.get(id).cloned().unwrap_or_default();
        let groups = if groups.iter().sum::<usize>() == jobs.len() {
            groups
        } else {
            vec![1; jobs.len()]
        };
        let mut start = 0;
        for &width in &groups {
            let batch = &jobs[start..start + width];
            start += width;
            if width == 1 {
                let job = &batch[0];
                let point = spans.time("core.simulate", || {
                    try_run_point_decoded(&decoded, job.fetch, &spec.mem, job.cache_bytes)
                });
                points[job.index] = point.ok();
            } else {
                let lanes: Vec<_> = batch.iter().map(|j| (j.fetch, j.cache_bytes)).collect();
                let results = spans.time("core.simulate", || {
                    try_run_points_batched(&decoded, &lanes, &spec.mem)
                });
                for (job, result) in batch.iter().zip(results) {
                    points[job.index] = result.ok();
                }
            }
        }
        widths = groups;
    }
    let failed = points.iter().filter(|p| p.is_none()).count();
    let series = spec
        .strategies
        .iter()
        .map(|&kind| Series {
            label: kind.label().to_string(),
            kind,
            points: jobs
                .iter()
                .filter(|j| j.kind == kind)
                .filter_map(|j| points[j.index].clone())
                .collect(),
        })
        .collect();
    spans.exit();
    let figure = Figure {
        id: format!("fig{id}"),
        title: format!("Figure {id}: {title}"),
        mem,
        series,
    };
    (figure, failed, widths)
}

/// Runs one study as `repro --studies --profile` does and returns its
/// rendered text; adds its cycles and point count to the pass.
fn study(suite: &LivermoreSuite, name: &str, out: &mut PassOutput, spans: &mut Spans) -> String {
    const SIZES: [u32; 6] = [16, 32, 64, 128, 256, 512];
    let mem = MemConfig {
        access_cycles: 6,
        in_bus_bytes: 8,
        ..MemConfig::default()
    };
    let span = format!("experiments.study.{name}");
    let (cycles, text): (Vec<u64>, String) = match name {
        "queue_size" => {
            let queues = [8u32, 16, 32];
            let cells = spans.time(&span, || queue_size_study(suite, 64, 16, &mem, &queues));
            let text = spans.time("experiments.render", || render_queue_study(&cells, &queues));
            (cells.iter().map(|c| c.cycles).collect(), text)
        }
        "partial_line" => {
            let narrow = MemConfig {
                in_bus_bytes: 4,
                ..mem
            };
            let rows = spans.time(&span, || partial_line_study(suite, &narrow, &SIZES));
            let text = spans.time("experiments.render", || render_partial_line_study(&rows));
            let cycles = rows
                .iter()
                .flat_map(|r| [r.whole_line_cycles, r.partial_line_cycles])
                .collect();
            (cycles, text)
        }
        "hill_prefetch" => {
            let rows = spans.time(&span, || hill_prefetch_study(suite, &mem, &SIZES));
            let text = spans.time("experiments.render", || render_hill_study(&rows));
            (rows.iter().flat_map(|r| r.cycles).collect(), text)
        }
        "pipelined_buffers" => {
            let pipelined = MemConfig {
                pipelined: true,
                access_cycles: 4,
                ..mem
            };
            let rows = spans.time(&span, || {
                buffer_study(suite, &pipelined, &[1, 2, 4, 8], None)
            });
            let text = spans.time("experiments.render", || render_buffer_study(&rows));
            (rows.iter().map(|r| r.cycles).collect(), text)
        }
        "access_time" => {
            let rows = spans.time(&span, || {
                access_sweep_study(suite, 32, 8, &[1, 2, 3, 4, 5, 6, 8])
            });
            let text = spans.time("experiments.render", || render_access_study(&rows, 32));
            (
                rows.iter().flat_map(|r| [r.conventional, r.pipe]).collect(),
                text,
            )
        }
        "external_cache" => {
            let rows = spans.time(&span, || {
                external_cache_study(suite, &mem, 20, &[4096, 16384, 65536, 262144])
            });
            let text = spans.time("experiments.render", || render_ext_cache_study(&rows, 20));
            (rows.iter().map(|r| r.cycles).collect(), text)
        }
        "profile_16-16" | "profile_conventional" => {
            let kind = match name {
                "profile_16-16" => StrategyKind::Pipe16x16,
                _ => StrategyKind::Conventional,
            };
            let fetch = kind
                .fetch_for(128, PrefetchPolicy::TruePrefetch)
                .expect("strategy fits a 128-byte cache");
            let profile = spans.time(&span, || per_loop_profile(suite, fetch, &mem));
            let text = spans.time("experiments.render", || render_profile(&profile));
            (vec![profile.total_cycles], text)
        }
        other => unreachable!("unknown study {other}"),
    };
    out.add("core.cycles", cycles.iter().sum());
    out.add(
        "core.instructions",
        suite.expected_instructions() * cycles.len() as u64,
    );
    text
}
