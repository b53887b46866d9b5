//! End-to-end tests of the `pipe-sim` and `pipe-asm` binaries.

use std::io::Write;
use std::process::Command;

const PROGRAM: &str = "\
lim r1, 5
lbr b0, top
top: subi r1, r1, 1
pbr.nez b0, r1, 0
halt
";

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pipe-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
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
fn sim_rejects_bad_flags_with_usage() {
    let out = pipe_sim().arg("--bogus").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
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
fn asm_binary_roundtrips_through_sim() {
    let src = write_temp("bin.s", PROGRAM);
    let bin = std::env::temp_dir().join(format!("pipe-cli-test-{}.bin", std::process::id()));
    let out = pipe_asm()
        .args([src.to_str().unwrap(), "-o", bin.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pipe_sim().arg(&bin).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("instructions:  13"), "{stdout}");
}

#[test]
fn misaligned_binary_is_an_error_not_a_panic() {
    let src = write_temp("odd.s", PROGRAM);
    let bin = std::env::temp_dir().join(format!("pipe-cli-test-{}-odd.bin", std::process::id()));
    let out = pipe_asm()
        .args([src.to_str().unwrap(), "-o", bin.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    // Byte 8 is the low byte of the base address.
    let mut bytes = std::fs::read(&bin).unwrap();
    bytes[8] = 1;
    std::fs::write(&bin, bytes).unwrap();

    let out = pipe_sim().arg(&bin).output().expect("spawn");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("pipe-sim: {}: ", bin.display())),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
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
fn help_flags() {
    for mut cmd in [pipe_sim(), pipe_asm()] {
        let out = cmd.arg("--help").output().expect("spawn");
        assert!(out.status.success());
        assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
    }
}
