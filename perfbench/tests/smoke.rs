//! Smoke tests on a trip-scaled Livermore suite: every workload runs,
//! every metric the benchmark declares prints with its unit, and the
//! output gate flags a perturbed reference value without crashing.

use std::path::PathBuf;
use std::process::Command;

use pipe_perfbench::gate::Reference;
use pipe_perfbench::workloads::Workload;
use pipe_perfbench::{bench_dir, per_layer_metrics, run, Config, END_TO_END, MIN_PASSES};

/// Divides every Livermore trip count, so a pass takes milliseconds.
const SCALE: u32 = 50;

fn smoke(workload: Workload, traced: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        scale: SCALE,
    }
}

fn work_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn every_workload_runs() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let report = run(
                &smoke(workload, traced),
                Reference::default(),
                &work_dir("runs"),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(report.correct, "{}: {:?}", workload.name(), report.errors);
            assert!(report.attempted > 0);
            let expected = if traced {
                per_layer_metrics().len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(report.metrics.len(), expected);
            assert!(report.passes.0 >= MIN_PASSES);
            assert_eq!(report.passes.1 >= MIN_PASSES, traced);
            assert!(report.counts.get("core.cycles").copied().unwrap_or(0) > 0);
        }
    }
}

/// The metric lists in `BENCHMARK.json`, one `{"name": .., "unit": ..}`
/// object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    let field = |line: &str, key: &str| {
        line.split(&format!("\"{key}\": \""))
            .nth(1)?
            .split('"')
            .next()
            .map(str::to_string)
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e, "BENCHMARK.json end_to_end");
    assert_eq!(declared("per_layer"), layers, "BENCHMARK.json per_layer");

    for (trace, metrics) in [("0", &e2e), ("1", &layers)] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "scalar", "--seed", "3", "--seconds", "0"])
            .args(["--trace", trace, "--scale", &SCALE.to_string()])
            .output()
            .expect("runs the benchmark binary");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for (name, unit) in metrics {
            let entry = last
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .unwrap_or_else(|| panic!("{name} missing from {last}"));
            let entry = entry.split('}').next().unwrap();
            assert!(
                entry.ends_with(&format!(", \"unit\": \"{unit}\"")),
                "{name}: {entry}"
            );
            let value: f64 = entry.split(',').next().unwrap().parse().unwrap();
            assert!(value.is_finite());
        }
        assert_eq!(last.matches("\"value\": ").count(), metrics.len());
    }
}

#[test]
fn gate_flags_a_perturbed_reference_value() {
    let config = smoke(Workload::Figures, false);
    let dir = work_dir("gate");
    let clean = run(&config, Reference::default(), &dir).expect("runs");
    assert!(clean.correct, "{:?}", clean.errors);

    let key = "figures/fig4a/16-16/64";
    let mut reference = Reference {
        values: clean.outputs.clone(),
        ..Reference::default()
    };
    *reference.values.get_mut(key).expect("point produced") += 1;
    let report = run(&config, reference, &dir).expect("a wrong output is not a crash");
    assert!(!report.correct);
    assert_eq!(
        report.failed as usize, report.passes.0,
        "one wrong key per pass"
    );
    assert!(
        report.errors.iter().all(|e| e.contains(key)),
        "{:?}",
        report.errors
    );
    let ok = report.metrics.iter().find(|m| m.name == "ok_frac").unwrap();
    assert!(ok.value < 1.0);
}
