//! `perfbench` — one run of the figure-shaped benchmark.
//!
//! ```text
//! perfbench --workload <figures|scalar>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale N] [--bless]
//! ```
//!
//! Prints the run's context (git sha, host, seed, pass counts, modelled
//! counts) as one JSON line, then the result as the last JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the spans to `out/spans-<workload>-seed<N>.tsv` here.
//! `--scale N` divides the Livermore trip counts for a quick smoke run,
//! gated only for repeatability. `--bless` rewrites this workload's lines
//! of `reference.txt` from the run's outputs.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use pipe_perfbench::gate::{bless, Reference};
use pipe_perfbench::workloads::Workload;
use pipe_perfbench::{bench_dir, load_reference, repo_root, run, Config, Report, VERSION};

struct Args {
    config: Config,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut config = Config {
        workload: Workload::Figures,
        seed: 0,
        seconds: 10.0,
        traced: false,
        scale: 1,
    };
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--seconds" => {
                config.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                config.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                };
            }
            "--scale" => {
                config.scale = value("--scale")?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--scale: expected a count of at least 1")?;
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    if bless && config.scale > 1 {
        return Err("--bless needs the full-scale run (--scale 1)".into());
    }
    Ok(Args { config, bless })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit under test, when the checkout is a git repository.
fn git_sha(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a over the paths and bytes of every `.rs`/`.toml` file under
/// `crates/`, in sorted order: names the simulator source when no git
/// metadata is present.
fn source_fnv(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let crates = root.join("crates");
    let mut files = Vec::new();
    walk(&crates, &mut files);
    files.sort();
    let mut hash = pipe_trace::Fnv64::new();
    for file in files {
        let rel = file.strip_prefix(&crates).unwrap_or(&file);
        hash.update(rel.to_string_lossy().as_bytes());
        hash.update(&std::fs::read(&file).unwrap_or_default());
    }
    hash.finish()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn context_line(config: &Config, report: &Report) -> String {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"context\": {{\"benchmark\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \
         \"scale\": {}, \"seconds\": {}, \"git_sha\": {}, \"source_fnv\": \"{:016x}\", \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"threads\": 1, \"setup_reps\": {}, \
         \"setup_cold_s\": {}, \"setup_raw_s\": {}, \"wall_s\": {}, \"calib_burst_s\": {}, \"pinned_cpu\": {}, \"untraced_passes\": {}, \"traced_passes\": {}, \
         \"counts\": {{{}}}}}}}",
        json_str(VERSION),
        json_str(config.workload.name()),
        config.seed,
        u8::from(config.traced),
        config.scale,
        config.seconds,
        json_str(&git_sha(&root)),
        source_fnv(&root),
        json_str(&cpu_model()),
        report.setup_reps,
        report.setup_cold_s,
        report.setup_raw_s,
        report.wall_s,
        report.calib_burst_s,
        report
            .pinned_cpu
            .map_or_else(|| "null".to_string(), |cpu| cpu.to_string()),
        report.passes.0,
        report.passes.1,
        counts.join(", "),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = &args.config;
    let reference = if config.scale > 1 {
        Ok(Reference::default())
    } else {
        load_reference(config.workload)
    };
    let out_dir = bench_dir().join("out");
    let result = reference.and_then(|r| Ok((run(config, r.clone(), &out_dir)?, r)));
    let (report, reference) = match result {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in report.errors.iter().take(20) {
        eprintln!("perfbench: FAILED {e}");
    }
    if config.traced {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.tsv",
            config.workload.name(),
            config.seed
        ));
        match std::fs::write(&path, report.spans.to_tsv()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if args.bless {
        let path = bench_dir().join("reference.txt");
        if let Err(e) = bless(&path, config.workload.name(), &report.outputs, &reference) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: blessed {} in {}",
            config.workload.name(),
            path.display()
        );
    }
    println!("{}", context_line(config, &report));
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
