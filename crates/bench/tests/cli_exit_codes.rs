//! Exit-code audit for the `repro` binary: every failure class maps to
//! a distinct, documented code, and no input reaches `main` as an
//! unwind (a panic that does slip through every inner boundary is
//! caught there and mapped to 70 — so a raw abort/101 is always a bug).
//!
//! Codes: 0 ok, 1 denied warnings, 2 usage/parse, 64 invalid-interval,
//! 65 invalid-domain, 66 no-bins, 67 deadline-exceeded, 68
//! worker-panicked, 69 overloaded, 70 panic-reached-main.

use std::process::{Command, Output};

fn repro(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("repro spawns")
}

fn code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("repro must exit, not be signalled")
}

const INLINE: &str = "let x = sample in score(x); x";

#[test]
fn unknown_command_and_bad_flags_exit_2() {
    assert_eq!(code(&repro(&["no-such-command"], &[])), 2);
    assert_eq!(code(&repro(&["--threads", "0", "smoke"], &[])), 2);
    assert_eq!(code(&repro(&["--timeout-ms", "soon", "smoke"], &[])), 2);
    assert_eq!(code(&repro(&["query", "only-two", "0.0"], &[])), 2);
    assert_eq!(
        code(&repro(&["query", "not a ( model", "0.0", "1.0"], &[])),
        2
    );
    // Nesting past the parser's limit is a parse error, not a stack
    // overflow that aborts the process.
    let deep = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
    assert_eq!(code(&repro(&["query", &deep, "0.0", "1.0"], &[])), 2);
}

#[test]
fn successful_query_exits_0_and_reports_completeness() {
    let out = repro(&["query", INLINE, "0.2", "0.8"], &[]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("complete"), "stdout: {stdout}");
}

#[test]
fn invalid_interval_exits_64() {
    // Inverted endpoints and unparseable endpoints (lenient parse to
    // NaN) must both flow through the typed `InvalidInterval` error.
    assert_eq!(code(&repro(&["query", INLINE, "0.8", "0.2"], &[])), 64);
    assert_eq!(code(&repro(&["query", INLINE, "wat", "0.2"], &[])), 64);
}

#[test]
fn pre_expired_deadline_exits_67() {
    let out = repro(&["--timeout-ms", "0", "query", INLINE, "0.2", "0.8"], &[]);
    assert_eq!(code(&out), 67);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
}

#[test]
fn injected_panic_is_contained_as_exit_68() {
    let out = repro(
        &["query", INLINE, "0.2", "0.8"],
        &[("GUBPI_FAULT", "panic@0")],
    );
    assert_eq!(
        code(&out),
        68,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("worker task panicked"), "stderr: {stderr}");
    // The panic was contained at the query boundary, not in `main`.
    assert!(!stderr.contains("panic reached main"), "stderr: {stderr}");
}

#[test]
fn expired_deadline_mid_run_still_exits_0_with_degraded_bounds() {
    // A 1 ms deadline on a heavy query: the run must complete with a
    // sound degraded enclosure, not hang and not fail.
    let out = repro(
        &[
            "--timeout-ms",
            "1",
            "query",
            "pedestrian",
            "1.0",
            "1.25",
            "--posterior",
        ],
        &[],
    );
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("degraded"), "stdout: {stdout}");
}
