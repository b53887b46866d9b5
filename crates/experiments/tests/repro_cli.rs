//! `repro` reports malformed arguments and output directories it cannot
//! write as typed errors, never as panics, and reusing a point simulated
//! earlier in the run leaves its output unchanged.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory holding a regular file `blocker`, and a tiny
/// address trace so the figure runs take milliseconds.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pipe-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("blocker"), "a regular file").unwrap();
    std::fs::write(dir.join("trace.txt"), "0x0\n0x4\n0x8\n0x0\n0x4\n0x8\n").unwrap();
    (dir.join("blocker").join("x"), dir)
}

#[test]
fn unwritable_output_dir_is_an_error_not_a_panic() {
    for (name, args) in [
        ("csv", &["--fig4a", "--csv-dir"][..]),
        ("svg", &["--fig4a", "--svg-dir"][..]),
        ("profile", &["--profile", "--csv-dir"][..]),
    ] {
        let (target, dir) = scratch(name);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg(&target)
            .args(["--from-trace", dir.join("trace.txt").to_str().unwrap()])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("repro: cannot write {}: ", target.display())),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Runs `repro` with `args` and returns `(exit code, stderr)`.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_arguments_are_usage_errors_not_panics() {
    for (args, message) in [
        (&["--resume"][..], "repro: unknown argument --resume"),
        (&["--store", "d"][..], "repro: unknown argument --store"),
        (&["--events", "d"][..], "repro: unknown argument --events"),
        (&["--jobs", "x"][..], "repro: --jobs: invalid count `x`"),
        (&["--jobs"][..], "repro: --jobs needs a count"),
        (&["--fig9z"][..], "repro: unknown figure --fig9z"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Runs `repro` with `args` and returns its stdout, asserting success.
fn repro_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn reused_points_print_as_if_simulated() {
    // Figure 6a has 5b's configuration, so in one run every 6a point is
    // reused from 5b. A tiny trace workload keeps the runs fast.
    let (_, dir) = scratch("memo");
    let trace = dir.join("trace.txt");
    let trace = ["--from-trace", trace.to_str().unwrap()];
    let both = repro_stdout(&[&["--fig5b", "--fig6a"][..], &trace].concat());
    let b = repro_stdout(&[&["--fig5b"][..], &trace].concat());
    let a = repro_stdout(&[&["--fig6a"][..], &trace].concat());
    assert!(b.contains("Figure 5b"), "{b}");
    assert!(a.contains("Figure 6a"), "{a}");
    assert_eq!(both, b + &a);
    std::fs::remove_dir_all(&dir).unwrap();
}
