//! `pipe-sim bench` — the in-repo benchmark harness.
//!
//! Runs pinned workloads (the full Livermore suite swept across fetch
//! engines and cache sizes, plus synthetic kernels) in-process and
//! measures *simulator throughput*: simulated cycles per wall-clock
//! second. Results are appended as labeled entries to `BENCH_<name>.json`
//! so the repo tracks its performance trajectory across commits
//! (`baseline` → `optimized` → ...).
//!
//! Two gates make the harness a correctness check as well as a stopwatch:
//!
//! * **repetition gate** — every point is simulated `reps` times and all
//!   repetitions must produce bit-identical [`SimStats`]; a divergence is
//!   a simulator-determinism bug and fails the bench.
//! * **cross-entry gate** — when a `BENCH_<name>.json` already holds
//!   entries, the new entry's per-point simulated cycle counts must match
//!   every recorded entry exactly. Timing may drift with the machine;
//!   *simulated* behaviour may not.
//!
//! No external dependencies (no criterion): plain [`Instant`] timing with
//! best-of-N repetitions, hand-rolled JSON.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipe_core::{run_decoded, SimConfig, SimStats};
use pipe_experiments::{figure_mem, mem_key, StrategyKind};
use pipe_icache::PrefetchPolicy;
use pipe_isa::{DecodedProgram, InstrFormat, Program};
use pipe_mem::MemConfig;

/// The usage string for `pipe-sim bench`.
pub const BENCH_USAGE: &str = "\
usage: pipe-sim bench [options]

Measures simulator throughput (simulated cycles per wall-clock second) on
pinned workloads and writes BENCH_<name>.json files at the output
directory, appending one labeled entry per invocation so the performance
trajectory is tracked across commits.

benches:
  full_livermore       the full Livermore suite (150,575 instructions)
                       under figure-4a memory timing, swept across the
                       conventional, PIPE 16-16, and TIB engines and the
                       paper's cache sizes
  synthetic            synthetic kernels (tight loops, branch-heavy code)
                       across the same three engines

options:
  --quick              reduced point set for CI smoke testing; writes
                       BENCH_<name>.quick.json so full results are not
                       disturbed
  --label NAME         label recorded on this entry   (default: current)
  --dir DIR            output directory               (default: .)
  --bench NAME         run a single bench (full_livermore | synthetic;
                       default: all)

Every point is simulated repeatedly and must reproduce bit-identical
statistics across repetitions, and against every entry already recorded
in the JSON file. A mismatch exits nonzero: simulated behaviour regressed.
Timing differences never fail the bench.
";

/// Options for `pipe-sim bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOptions {
    /// Reduced point set (CI smoke); writes `BENCH_<name>.quick.json`.
    pub quick: bool,
    /// Label recorded on the new entry.
    pub label: String,
    /// Output directory for the JSON files.
    pub dir: String,
    /// Restrict to one bench by name.
    pub only: Option<String>,
}

/// Parses `pipe-sim bench` arguments (excluding the subcommand name).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags or missing values.
pub fn parse_bench_args(args: &[String]) -> Result<BenchOptions, String> {
    let mut quick = false;
    let mut label = "current".to_string();
    let mut dir = ".".to_string();
    let mut only = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--label" => {
                label = it.next().ok_or("--label needs a value")?.clone();
                if label.is_empty() || !label.bytes().all(|b| b.is_ascii_graphic() && b != b'"') {
                    return Err(format!("--label: invalid label `{label}`"));
                }
            }
            "--dir" => dir = it.next().ok_or("--dir needs a directory")?.clone(),
            "--bench" => {
                let name = it.next().ok_or("--bench needs a name")?.clone();
                if !["full_livermore", "synthetic"].contains(&name.as_str()) {
                    return Err(format!("--bench: unknown bench `{name}`"));
                }
                only = Some(name);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(BenchOptions {
        quick,
        label,
        dir,
        only,
    })
}

/// One measured point of a bench.
struct BenchPoint {
    engine: &'static str,
    cache_bytes: u32,
    workload: String,
    stats: SimStats,
    /// Best (minimum) wall time over the repetitions.
    wall: Duration,
}

/// The engines every bench sweeps: the paper's conventional cache, the
/// canonical PIPE 16-16 configuration, and the TIB.
const BENCH_STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Conventional,
    StrategyKind::Pipe16x16,
    StrategyKind::Tib16,
];

fn run_point(
    program: &Arc<DecodedProgram>,
    fetch: pipe_core::FetchStrategy,
    mem: &MemConfig,
    reps: u32,
) -> Result<(SimStats, Duration), String> {
    let cfg = SimConfig {
        fetch,
        mem: *mem,
        max_cycles: 2_000_000_000,
        ..SimConfig::default()
    };
    let mut best = Duration::MAX;
    let mut reference: Option<SimStats> = None;
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        let stats = run_decoded(program, &cfg).map_err(|e| e.to_string())?;
        let wall = t0.elapsed();
        best = best.min(wall);
        match &reference {
            None => reference = Some(stats),
            Some(prev) => {
                if *prev != stats {
                    return Err(format!(
                        "determinism violation: repetition {rep} produced different \
                         statistics ({} vs {} cycles)",
                        stats.cycles, prev.cycles,
                    ));
                }
            }
        }
    }
    Ok((reference.expect("at least one rep"), best))
}

/// Measures every `(strategy, fetch, size)` point of one workload, one
/// point at a time. Errors name the offending point.
fn measure_points(
    program: &Arc<DecodedProgram>,
    grid: &[(StrategyKind, pipe_core::FetchStrategy, u32)],
    mem: &MemConfig,
    reps: u32,
) -> Result<Vec<(SimStats, Duration)>, String> {
    grid.iter()
        .map(|&(kind, fetch, size)| {
            run_point(program, fetch, mem, reps)
                .map_err(|e| format!("{} @ {size}B: {e}", kind.label()))
        })
        .collect()
}

fn livermore_points(quick: bool, reps: u32) -> Result<Vec<BenchPoint>, String> {
    let suite = pipe_workloads::livermore_benchmark();
    let program = Arc::new(DecodedProgram::new(suite.program().clone()));
    let (mem, _) = figure_mem("4a");
    let sizes: &[u32] = if quick {
        &[64]
    } else {
        pipe_experiments::sweep_sizes()
    };
    let mut grid = Vec::new();
    for kind in BENCH_STRATEGIES {
        for &size in sizes {
            if let Some(fetch) = kind.fetch_for(size, PrefetchPolicy::TruePrefetch) {
                grid.push((kind, fetch, size));
            }
        }
    }
    let measured = measure_points(&program, &grid, &mem, reps)?;
    Ok(grid
        .iter()
        .zip(measured)
        .map(|(&(kind, _, size), (stats, wall))| BenchPoint {
            engine: kind.label(),
            cache_bytes: size,
            workload: "livermore".to_string(),
            stats,
            wall,
        })
        .collect())
}

fn synthetic_points(quick: bool, reps: u32) -> Result<Vec<BenchPoint>, String> {
    use pipe_workloads::synthetic::{branch_heavy, tight_loop};
    let kernels: Vec<(String, Program)> = if quick {
        vec![(
            "tight16".to_string(),
            tight_loop(16, 500, InstrFormat::Fixed32),
        )]
    } else {
        vec![
            (
                "tight16".to_string(),
                tight_loop(16, 5000, InstrFormat::Fixed32),
            ),
            (
                "tight64".to_string(),
                tight_loop(64, 2000, InstrFormat::Fixed32),
            ),
            (
                "branchy".to_string(),
                branch_heavy(2000, InstrFormat::Fixed32),
            ),
        ]
    };
    let mem = MemConfig::default();
    let mut points = Vec::new();
    for (name, program) in &kernels {
        let program = Arc::new(DecodedProgram::new(program.clone()));
        let grid: Vec<(StrategyKind, pipe_core::FetchStrategy, u32)> = BENCH_STRATEGIES
            .into_iter()
            .filter_map(|kind| {
                kind.fetch_for(128, PrefetchPolicy::TruePrefetch)
                    .map(|fetch| (kind, fetch, 128))
            })
            .collect();
        let measured =
            measure_points(&program, &grid, &mem, reps).map_err(|e| format!("{name}/{e}"))?;
        points.extend(
            grid.iter()
                .zip(measured)
                .map(|(&(kind, _, _), (stats, wall))| BenchPoint {
                    engine: kind.label(),
                    cache_bytes: 128,
                    workload: name.clone(),
                    stats,
                    wall,
                }),
        );
    }
    Ok(points)
}

fn render_entry(label: &str, reps: u32, points: &[BenchPoint]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"label\":\"{label}\",\"reps\":{reps},\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let wall_ms = p.wall.as_secs_f64() * 1e3;
        let cps = p.stats.cycles as f64 / p.wall.as_secs_f64();
        let _ = write!(
            s,
            "{{\"engine\":\"{}\",\"cache_bytes\":{},\"workload\":\"{}\",\
             \"cycles\":{},\"instructions\":{},\"wall_ms\":{wall_ms:.3},\
             \"cycles_per_sec\":{cps:.0}}}",
            p.engine, p.cache_bytes, p.workload, p.stats.cycles, p.stats.instructions_issued,
        );
    }
    let sum_cycles: u64 = points.iter().map(|p| p.stats.cycles).sum();
    let sum_wall: f64 = points.iter().map(|p| p.wall.as_secs_f64()).sum();
    let cps = sum_cycles as f64 / sum_wall;
    let _ = write!(
        s,
        "],\"sum_cycles\":{sum_cycles},\"sum_wall_ms\":{:.3},\
         \"cycles_per_sec\":{cps:.0}}}",
        sum_wall * 1e3,
    );
    s
}

/// Extracts the verbatim JSON texts of the `"entries":[...]` array
/// elements of a bench file (the format is machine-written, so plain
/// brace counting is exact: no string value may contain braces).
fn extract_entries(json: &str) -> Vec<String> {
    let Some(start) = json.find("\"entries\":[") else {
        return Vec::new();
    };
    let body = &json[start + "\"entries\":[".len()..];
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut begin = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    begin = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(b) = begin.take() {
                        entries.push(body[b..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    entries
}

/// Extracts a string field from a machine-written JSON object.
fn extract_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(&obj[start..start + end])
}

/// Extracts a numeric field from a machine-written JSON object.
fn extract_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(obj.len() - start);
    obj[start..start + end].parse().ok()
}

/// Extracts every point's `(engine, cache_bytes, workload, cycles)` from
/// an entry's JSON text, in order.
fn extract_point_cycles(entry: &str) -> Vec<(String, u64, String, u64)> {
    let mut out = Vec::new();
    let mut rest = entry;
    while let Some(pos) = rest.find("{\"engine\":") {
        let obj_start = &rest[pos..];
        let end = obj_start
            .find('}')
            .map(|e| e + 1)
            .unwrap_or(obj_start.len());
        let obj = &obj_start[..end];
        if let (Some(engine), Some(cache), Some(wl), Some(cycles)) = (
            extract_str(obj, "engine"),
            extract_num(obj, "cache_bytes"),
            extract_str(obj, "workload"),
            extract_num(obj, "cycles"),
        ) {
            out.push((
                engine.to_string(),
                cache as u64,
                wl.to_string(),
                cycles as u64,
            ));
        }
        rest = &obj_start[end..];
    }
    out
}

/// Verifies the new entry's simulated cycle counts against an existing
/// entry. Points present in both must agree exactly; a differing point
/// set (e.g. quick vs full) only checks the intersection.
fn check_cross_entry(prev: &str, new_entry: &str) -> Result<(), String> {
    let prev_label = extract_str(prev, "label").unwrap_or("?").to_string();
    let prev_points = extract_point_cycles(prev);
    for (engine, cache, wl, cycles) in extract_point_cycles(new_entry) {
        if let Some((.., prev_cycles)) = prev_points
            .iter()
            .find(|(e, c, w, _)| *e == engine && *c == cache && *w == wl)
        {
            if *prev_cycles != cycles {
                return Err(format!(
                    "bit-exactness regression: {engine} @ {cache}B ({wl}) simulated \
                     {cycles} cycles, but entry \"{prev_label}\" recorded {prev_cycles}",
                ));
            }
        }
    }
    Ok(())
}

/// Assembles the full bench JSON: header, prior entries (an entry with
/// the same label is replaced), the new entry, and — when a prior entry
/// under a different label exists — a `speedup` block comparing the new
/// entry's throughput against the most recent such entry, so successive
/// milestones chain (`baseline` → `optimized` → ...).
fn render_file(
    name: &str,
    mem: &MemConfig,
    prior: &[String],
    new_label: &str,
    new_entry: &str,
) -> String {
    let mut entries: Vec<&str> = prior
        .iter()
        .map(String::as_str)
        .filter(|e| extract_str(e, "label") != Some(new_label))
        .collect();
    entries.push(new_entry);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"pipe-bench-v1\",\"name\":\"{name}\",\"mem\":\"{}\",\"entries\":[",
        mem_key(mem),
    );
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(e);
    }
    s.push(']');
    // Aggregate throughput from the per-entry sums: `sum_cycles` and
    // `sum_wall_ms` appear exactly once per entry, whereas
    // `cycles_per_sec` also names a per-point field.
    let entry_cps = |e: &str| -> Option<f64> {
        let cycles = extract_num(e, "sum_cycles")?;
        let wall_ms = extract_num(e, "sum_wall_ms")?;
        (wall_ms > 0.0).then(|| cycles / (wall_ms / 1e3))
    };
    // The reference is the most recent prior entry recorded under a
    // different label — so each milestone's entry reports its gain over
    // the one before it.
    let reference = entries
        .iter()
        .rev()
        .skip(1)
        .find(|e| extract_str(e, "label") != Some(new_label));
    let new_cps = entry_cps(new_entry);
    if let (Some(reference), Some(new)) = (reference, new_cps) {
        if let (Some(from), Some(base)) = (extract_str(reference, "label"), entry_cps(reference)) {
            if base > 0.0 {
                let _ = write!(
                    s,
                    ",\"speedup\":{{\"from\":\"{from}\",\"to\":\"{new_label}\",\
                     \"cycles_per_sec_ratio\":{:.3}}}",
                    new / base,
                );
            }
        }
    }
    s.push_str("}\n");
    s
}

fn bench_file_name(name: &str, quick: bool) -> String {
    if quick {
        format!("BENCH_{name}.quick.json")
    } else {
        format!("BENCH_{name}.json")
    }
}

/// Runs the benches and writes/updates the `BENCH_<name>.json` files.
/// Returns the human-readable summary for stdout.
///
/// # Errors
///
/// Returns a user-facing message on simulation failure, a determinism or
/// bit-exactness violation, or an unwritable output directory.
pub fn run_bench(opts: &BenchOptions) -> Result<String, String> {
    let reps: u32 = if opts.quick { 2 } else { 3 };
    let (mem_4a, _) = figure_mem("4a");
    let benches: Vec<(&str, MemConfig, Vec<BenchPoint>)> = {
        let mut b = Vec::new();
        let want = |n: &str| opts.only.as_deref().is_none_or(|o| o == n);
        if want("full_livermore") {
            b.push((
                "full_livermore",
                mem_4a,
                livermore_points(opts.quick, reps)?,
            ));
        }
        if want("synthetic") {
            b.push((
                "synthetic",
                MemConfig::default(),
                synthetic_points(opts.quick, reps)?,
            ));
        }
        b
    };

    let mut out = String::new();
    for (name, mem, points) in &benches {
        let entry = render_entry(&opts.label, reps, points);
        let path = std::path::Path::new(&opts.dir).join(bench_file_name(name, opts.quick));
        let prior = match std::fs::read_to_string(&path) {
            Ok(text) => extract_entries(&text),
            Err(_) => Vec::new(),
        };
        for prev in &prior {
            if extract_str(prev, "label") != Some(opts.label.as_str()) {
                check_cross_entry(prev, &entry).map_err(|e| format!("{name}: {e}"))?;
            }
        }
        let file = render_file(name, mem, &prior, &opts.label, &entry);
        std::fs::write(&path, &file)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        let sum_cycles: u64 = points.iter().map(|p| p.stats.cycles).sum();
        let sum_wall: f64 = points.iter().map(|p| p.wall.as_secs_f64()).sum();
        let _ = writeln!(
            out,
            "{name}: {} points, {sum_cycles} cycles in {:.1} ms \
             ({:.2} Mcycles/s) -> {}",
            points.len(),
            sum_wall * 1e3,
            sum_cycles as f64 / sum_wall / 1e6,
            path.display(),
        );
        if let Some(ratio) = extract_num(&file, "cycles_per_sec_ratio") {
            let from = extract_str(&file, "from").unwrap_or("baseline");
            let _ = writeln!(out, "{name}: speedup vs {from} {ratio:.3}x");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bench_args_parse() {
        let o = parse_bench_args(&args("--quick --label baseline --dir out")).unwrap();
        assert!(o.quick);
        assert_eq!(o.label, "baseline");
        assert_eq!(o.dir, "out");
        assert!(o.only.is_none());

        let o = parse_bench_args(&args("--bench synthetic")).unwrap();
        assert_eq!(o.only.as_deref(), Some("synthetic"));
        assert_eq!(o.label, "current");

        assert!(parse_bench_args(&args("--bench warp")).is_err());
        assert!(parse_bench_args(&args("--label")).is_err());
        assert!(parse_bench_args(&args("--batch 4")).is_err());
        assert!(parse_bench_args(&args("--bogus")).is_err());
    }

    fn fake_point(engine: &'static str, cache: u32, cycles: u64) -> BenchPoint {
        BenchPoint {
            engine,
            cache_bytes: cache,
            workload: "livermore".to_string(),
            stats: SimStats {
                cycles,
                instructions_issued: cycles / 2,
                ..SimStats::default()
            },
            wall: Duration::from_millis(10),
        }
    }

    #[test]
    fn entry_json_shape() {
        let points = vec![
            fake_point("conventional", 64, 1000),
            fake_point("16-16", 64, 900),
        ];
        let e = render_entry("baseline", 3, &points);
        assert!(e.starts_with("{\"label\":\"baseline\""));
        assert!(e.contains("\"sum_cycles\":1900"));
        assert_eq!(e.matches('{').count(), e.matches('}').count());
        assert_eq!(
            extract_point_cycles(&e),
            vec![
                (
                    "conventional".to_string(),
                    64,
                    "livermore".to_string(),
                    1000
                ),
                ("16-16".to_string(), 64, "livermore".to_string(), 900),
            ]
        );
    }

    #[test]
    fn file_roundtrip_preserves_entries() {
        let mem = MemConfig::default();
        let p1 = vec![fake_point("conventional", 64, 1000)];
        let e1 = render_entry("baseline", 3, &p1);
        let f1 = render_file("full_livermore", &mem, &[], "baseline", &e1);
        assert!(f1.contains("\"schema\":\"pipe-bench-v1\""));
        let prior = extract_entries(&f1);
        assert_eq!(prior, vec![e1.clone()]);

        let e2 = render_entry("optimized", 3, &p1);
        let f2 = render_file("full_livermore", &mem, &prior, "optimized", &e2);
        let both = extract_entries(&f2);
        assert_eq!(both.len(), 2);
        assert_eq!(extract_str(&both[0], "label"), Some("baseline"));
        assert_eq!(extract_str(&both[1], "label"), Some("optimized"));
        assert!(f2.contains("\"cycles_per_sec_ratio\":1.000"), "{f2}");

        // Re-running with the same label replaces, not duplicates.
        let f3 = render_file("full_livermore", &mem, &both, "optimized", &e2);
        assert_eq!(extract_entries(&f3).len(), 2);
    }

    #[test]
    fn cross_entry_gate_catches_cycle_drift() {
        let base = render_entry("baseline", 3, &[fake_point("conventional", 64, 1000)]);
        let same = render_entry("next", 3, &[fake_point("conventional", 64, 1000)]);
        let drift = render_entry("next", 3, &[fake_point("conventional", 64, 1001)]);
        let other = render_entry("next", 3, &[fake_point("conventional", 512, 7)]);
        assert!(check_cross_entry(&base, &same).is_ok());
        assert!(check_cross_entry(&base, &drift).is_err());
        // Disjoint point sets only compare the (empty) intersection.
        assert!(check_cross_entry(&base, &other).is_ok());
    }

    #[test]
    fn quick_files_are_separate() {
        assert_eq!(bench_file_name("synthetic", false), "BENCH_synthetic.json");
        assert_eq!(
            bench_file_name("synthetic", true),
            "BENCH_synthetic.quick.json"
        );
    }

    #[test]
    fn quick_synthetic_bench_runs_end_to_end() {
        let tmp = std::env::temp_dir().join(format!("pipe-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        let opts = BenchOptions {
            quick: true,
            label: "t1".to_string(),
            dir: tmp.to_string_lossy().into_owned(),
            only: Some("synthetic".to_string()),
        };
        let out = run_bench(&opts).unwrap();
        assert!(out.contains("synthetic:"), "{out}");
        let text = std::fs::read_to_string(tmp.join("BENCH_synthetic.quick.json")).unwrap();
        assert!(text.contains("\"schema\":\"pipe-bench-v1\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        // Second run under a new label must pass the cross-entry gate and
        // accumulate a second entry.
        let opts2 = BenchOptions {
            label: "t2".to_string(),
            ..opts
        };
        run_bench(&opts2).unwrap();
        let text = std::fs::read_to_string(tmp.join("BENCH_synthetic.quick.json")).unwrap();
        assert_eq!(extract_entries(&text).len(), 2);
        // The speedup block chains from the most recent prior label.
        assert!(text.contains("\"from\":\"t1\",\"to\":\"t2\""), "{text}");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
