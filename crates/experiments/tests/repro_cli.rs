//! `repro` reports malformed arguments and output directories it cannot
//! write as typed errors, never as panics, reusing a point simulated
//! earlier in the run leaves its output unchanged, and `--progress` times
//! read in milliseconds.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory holding a regular file `blocker`; returns a path
/// under `blocker` (which no directory can be created at) and the
/// scratch directory.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pipe-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("blocker"), "a regular file").unwrap();
    (dir.join("blocker").join("x"), dir)
}

/// The directories are created before any simulation runs, so these
/// fail without simulating a point.
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
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("repro: cannot write {}: ", target.display())),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: printed before failing");
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
        (
            &["--from-trace", "f"][..],
            "repro: unknown argument --from-trace",
        ),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["--all", "--help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout.starts_with("usage: repro"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

/// Starts `repro` with `args`; [`stdout_of`] collects its output.
fn spawn_repro(args: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repro")
}

/// Waits for `child` and returns its stdout, asserting success.
fn stdout_of(child: std::process::Child, what: &str) -> String {
    let out = child.wait_with_output().expect("wait for repro");
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn reused_points_print_as_if_simulated() {
    // Figure 6a has 5b's configuration, so in one run every 6a point is
    // reused from 5b. The three runs are independent processes, so they
    // run side by side.
    let both = spawn_repro(&["--fig5b", "--fig6a"]);
    let b = spawn_repro(&["--fig5b"]);
    let a = spawn_repro(&["--fig6a"]);
    let both = stdout_of(both, "--fig5b --fig6a");
    let b = stdout_of(b, "--fig5b");
    let a = stdout_of(a, "--fig6a");
    assert!(b.contains("Figure 5b"), "{b}");
    assert!(a.contains("Figure 6a"), "{a}");
    assert_eq!(both, b + &a);
}

/// Asserts that `time` reads like `12.3`: milliseconds to 0.1 ms.
fn assert_tenths(time: &str, line: &str) {
    let (whole, tenths) = time.split_once('.').expect(line);
    assert!(whole.parse::<u64>().is_ok() && tenths.len() == 1, "{line}");
    assert!(tenths.parse::<u8>().is_ok(), "{line}");
}

#[test]
fn progress_times_are_in_milliseconds() {
    // Most figure points take well under 10 ms, which a time in seconds
    // to two places would print as 0.00.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--fig4a", "--progress"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let points: Vec<&str> = stderr.lines().filter(|l| l.contains(" cycles (")).collect();
    assert_eq!(points.len(), 28, "{stderr}");
    for line in points {
        let time = line.rsplit_once(" cycles (").unwrap().1;
        assert_tenths(time.strip_suffix(" ms)").expect(line), line);
    }
    let done = stderr.lines().find(|l| l.contains("sweep done")).unwrap();
    let time = done.rsplit_once(" failed in ").unwrap().1;
    assert_tenths(time.strip_suffix(" ms").expect(done), done);
}
