//! End-to-end tests of the `pipe-sim` and `pipe-asm` binaries.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

const PROGRAM: &str = "\
lim r1, 5
lbr b0, top
top: subi r1, r1, 1
pbr.nez b0, r1, 0
halt
";

/// A file in the temp dir, removed when dropped.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl std::ops::Deref for TempFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TempFile {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

fn write_temp(name: &str, contents: impl AsRef<[u8]>) -> TempFile {
    let path = std::env::temp_dir().join(format!("pipe-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    TempFile(path)
}

fn pipe_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipe-sim"))
}

fn pipe_asm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipe-asm"))
}

#[test]
fn sim_runs_a_program() {
    let src = write_temp("run.s", PROGRAM);
    let out = pipe_sim().arg(&src).output().expect("spawn pipe-sim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("instructions:  13"), "{stdout}");
}

#[test]
fn sim_json_output() {
    let src = write_temp("json.s", PROGRAM);
    let out = pipe_sim().arg(&src).arg("--json").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"instructions\":13"), "{stdout}");
}

#[test]
fn sim_compare_lists_strategies() {
    let src = write_temp("cmp.s", PROGRAM);
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--compare", "--cache", "32"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["perfect", "conventional", "pipe", "tib", "buffers"] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
}

#[test]
fn sim_compare_rejects_an_invalid_geometry() {
    // A 24-byte cache is no power of two: conventional and PIPE reject it.
    let src = write_temp("cmp-geometry.s", PROGRAM);
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--compare", "--cache", "24"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no partial table");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("conventional(24B)"), "{stderr}");
    assert!(stderr.contains("size_bytes"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sim_compare_reports_a_failed_run() {
    // A read of r7 with no load in flight never completes.
    let src = write_temp("cmp-dead.s", "or r1, r7, r7\nhalt\n");
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--compare", "--max-cycles", "1000"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no partial table");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("perfect: simulation did not complete within 1000 cycles"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sim_rejects_bad_flags_with_usage() {
    // `-` is not stdin: it is an unknown flag like any other.
    for flag in ["--bogus", "-"] {
        let out = pipe_sim().arg(flag).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
    }
}

#[test]
fn removed_flags_and_subcommands_are_usage_errors() {
    for args in [
        &["--sweep", "4a", "--store", "d"][..],
        &["--sweep", "4a", "--resume"][..],
        &["--sweep", "4a", "--events", "d"][..],
        &["--sweep", "4a", "--inject-store-fail", "1"][..],
        &["--sweep", "4a", "--jobs", "x"][..],
        &["--sweep", "4a"][..],
        &["--livermore", "--jobs", "2"][..],
        &["--livermore", "--strict"][..],
        &["--livermore", "--inject-panic", "3"][..],
        &["store", "prune"][..],
        &["bench", "--batch", "4"][..],
        &["bench", "--quick"][..],
        &["replay", "t.ptr"][..],
        &["--livermore", "--record-trace", "x.ptr"][..],
    ] {
        let out = pipe_sim().args(args).output().expect("spawn");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("pipe-sim"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    // A bare `bench` is no subcommand: it is read as a missing program.
    let out = pipe_sim().arg("bench").output().expect("spawn");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.starts_with("pipe-sim"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sim_reports_assembly_errors_with_line() {
    let src = write_temp("bad.s", "nop\nbogus r1\n");
    let out = pipe_sim().arg(&src).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn asm_disassembles() {
    let src = write_temp("dis.s", PROGRAM);
    let out = pipe_asm().arg(&src).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("top:"), "{stdout}");
    assert!(stdout.contains("pbr.nez"), "{stdout}");
    assert!(stdout.contains("5 instructions"), "{stdout}");
}

#[test]
fn non_utf8_input_is_an_error_not_a_panic() {
    // pipe-sim reads only assembly source, so bytes that look like a
    // binary image are a load error like any other non-text file.
    let path = write_temp("raw.bin", b"PIPE\x01\x00\x00\x00\xff\xff");
    let out = pipe_sim().arg(&path).output().expect("spawn");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("pipe-sim: {}: not UTF-8 assembly", path.display()),
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn queue_smaller_than_an_instruction_is_a_usage_error() {
    // A 2-byte IQ can never hold a 4-byte instruction: it is rejected up
    // front instead of running until the cycle limit.
    let src = write_temp("tinyiq.s", PROGRAM);
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--fetch", "pipe", "--iq", "2"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("iq_bytes"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn sim_timeout_reports_queue_snapshot() {
    // A store with no data deadlocks; the abort dump names the queues.
    let src = write_temp("stuck.s", "lim r1, 0x100\nsta r1, 0\nhalt\n");
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--max-cycles", "500"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("SAQ 1"), "{stderr}");
}

#[test]
fn sim_timeout_reports_the_cycles_it_ran() {
    // A read of r7 with no load deadlocks; the abort report must count
    // the cycles run, not 0.
    let src = write_temp("dead.s", "or r1, r7, r7\nhalt\n");
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--max-cycles", "1000"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("did not complete within 1000 cycles"),
        "{stderr}"
    );
    let cycles = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("cycles:"));
    assert_eq!(cycles.map(str::trim), Some("1000"), "{stderr}");
    assert!(
        stderr.contains("memory statistics over 1000 cycles"),
        "{stderr}"
    );
}

#[test]
fn flags_the_engine_never_reads_are_usage_errors() {
    let src = write_temp("unread.s", PROGRAM);
    for flags in [
        &["--fetch", "tib", "--iq", "64"][..],
        &["--prefetch", "tagged"][..],
        &["--compare", "--fetch", "pipe"][..],
    ] {
        let out = pipe_sim().arg(&src).args(flags).output().expect("spawn");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("does not apply to"), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
    }
    // --compare no longer validates the PIPE default it never runs.
    let out = pipe_sim()
        .args([src.to_str().unwrap(), "--compare", "--cache", "0"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_flags() {
    for mut cmd in [pipe_sim(), pipe_asm()] {
        let out = cmd.arg("--help").output().expect("spawn");
        assert!(out.status.success());
        assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
    }
}
