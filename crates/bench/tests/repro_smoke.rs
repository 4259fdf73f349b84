//! Smoke tests for the workspace wiring: the `repro` binary must start,
//! answer `--help`, and a tiny model must run end to end through the
//! same harness entry point the binary uses. This is the canary that
//! keeps the binary, the bench harness and the analyzer linked together.
//!
//! Every flag reaches the engine through the one parsed config, never
//! the environment: the `repro` runs below start from an empty
//! environment, so a flag that only worked through a `GUBPI_*` variable
//! would fail here.

use std::process::{Command, Output};

use bench::models::ProbBenchmark;
use bench::{analyze_prob_benchmark, Run, RunConfig};
use gubpi_interval::Interval;

/// Path to the compiled `repro` binary (provided by Cargo for
/// integration tests of the package that owns the binary).
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Runs `repro` with `args` and an empty environment.
fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .env_clear()
        .output()
        .expect("repro binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn repro_help_exits_zero_and_prints_usage() {
    let out = Command::new(REPRO)
        .arg("--help")
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "--help must exit 0: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["USAGE", "table1", "pedestrian", "ablation", "all"] {
        assert!(
            text.contains(needle),
            "usage text missing {needle:?}:\n{text}"
        );
    }
}

#[test]
fn repro_rejects_unknown_commands() {
    let out = Command::new(REPRO)
        .arg("no-such-table")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn repro_rejects_zero_threads() {
    // Regression: `--threads 0` used to be accepted as Fixed(0) and
    // silently clamped to one sequential worker. It must now be a hard
    // usage error pointing at `off`.
    let out = Command::new(REPRO)
        .args(["--threads", "0", "table2"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "zero workers must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("positive worker count") && err.contains("`off`"),
        "stderr must explain the fix: {err}"
    );
}

#[test]
fn tiny_model_end_to_end() {
    // The smallest interesting model: a uniform prior scored to the
    // upper half. The unnormalised mass of [0.5, 1] is exactly 1/2, and
    // the analyzer's guaranteed bounds must bracket it.
    let b = ProbBenchmark {
        name: "smoke",
        query_label: "x in [0.5, 1]",
        source: "let x = sample in score(if x <= 0.5 then 0 else 1); x",
        u: Interval::new(0.5, 1.0),
        unfold: 2,
    };
    let (lo, hi) = analyze_prob_benchmark(&Run::new(RunConfig::default()), &b);
    assert!(
        lo <= 0.5 && 0.5 <= hi,
        "bounds [{lo}, {hi}] must contain 0.5"
    );
    assert!(lo >= 0.0 && hi <= 1.0, "weights are a sub-probability here");
    assert!(hi - lo < 0.45, "bounds [{lo}, {hi}] should be informative");
}

#[test]
fn repro_rejects_invalid_cache_caps() {
    // `--cache-cap 0` would be a cache that evicts every insert
    // immediately; like `--threads 0` it must be a hard usage error, as
    // must non-numeric caps. Both exit before any analysis starts.
    for bad in ["0", "lots"] {
        let out = Command::new(REPRO)
            .args(["--cache-cap", bad, "table2"])
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--cache-cap {bad} must be rejected"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("positive entry count"),
            "stderr must explain the fix: {err}"
        );
    }
    // A missing value is also a usage error, not a silent default.
    let out = Command::new(REPRO)
        .arg("--cache-cap")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn repro_help_documents_the_new_flags() {
    let text = stdout(&repro(&["--help"]));
    for needle in [
        "--cache-cap",
        "--stats",
        "--no-tail",
        "--no-refine",
        "--gap-target",
        "--timeout-ms",
        "--lint",
        "--deny-warnings",
        "analyze",
        "GUBPI_THREADS",
        "GUBPI_FAULT",
    ] {
        assert!(text.contains(needle), "usage text missing {needle:?}");
    }
    for gone in ["--no-kernel", "--no-prune", "-report", "GUBPI_NO_"] {
        assert!(!text.contains(gone), "usage text still mentions {gone:?}");
    }
}

#[test]
fn repro_analyze_is_warning_clean_over_all_builtin_models() {
    // The CI lint gate: every built-in model must stay free of
    // warning-severity findings (notes are expected — the recursive
    // models deliberately lack weight contraction).
    let out = Command::new(REPRO)
        .args(["analyze", "--deny-warnings"])
        .output()
        .expect("repro binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "analyze --deny-warnings must exit 0:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("models analyzed") && text.contains("0 warnings"),
        "analyze must print a warning-free summary:\n{text}"
    );
    // The static facts must actually see through the models: the
    // fail-conditioned discrete models have statically-dead score zeros.
    assert!(
        text.contains("table2/twoCoins: 1 dead branches, 1 zero-weight scores"),
        "facts summary missing:\n{text}"
    );
}

#[test]
fn repro_analyze_filters_and_rejects_unknown_models() {
    let out = Command::new(REPRO)
        .args(["analyze", "pedestrian"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 models analyzed"),
        "filter must match exactly the pedestrian:\n{text}"
    );
    assert!(
        text.contains("truncation-risk-recursion"),
        "the pedestrian's recursion note must render:\n{text}"
    );
    let out = Command::new(REPRO)
        .args(["analyze", "no-such-model"])
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown model filter is a usage error"
    );
}

#[test]
fn repro_rejects_the_bit_identity_escape_hatches() {
    // `--no-kernel` and `--no-prune` only ever proved bit-identity; the
    // differential tests keep that job, with the interpreter and the
    // unpruned executor as oracles. As flags they are usage errors,
    // wherever they appear.
    for args in [
        &["--no-kernel", "smoke"][..],
        &["--no-prune", "--stats", "smoke"][..],
        &["smoke", "--no-kernel"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "stderr: {err}");
    }
}

#[test]
fn repro_stats_report_prune_and_kernel_counters() {
    let out = repro(&["--stats", "smoke"]);
    assert!(out.status.success(), "status: {:?}", out.status);
    let text = stdout(&out);
    assert!(
        text.contains("prune: 0 dead branches skipped"),
        "stats must report the prune counters:\n{text}"
    );
    assert!(
        text.contains("kernel:") && text.contains("tapes") && text.contains("cells/s"),
        "stats must report tape length / CSE / cells-per-second:\n{text}"
    );
}

#[test]
fn no_refine_flag_reaches_the_engine() {
    let plain = stdout(&repro(&["--stats", "smoke"]));
    assert!(
        plain.contains("adaptive rounds") && !plain.contains("no adaptive rounds"),
        "smoke refines its grid query by default:\n{plain}"
    );
    let off = stdout(&repro(&["--no-refine", "--stats", "smoke"]));
    assert!(
        off.contains("no adaptive rounds"),
        "--no-refine must turn refinement off:\n{off}"
    );
}

#[test]
fn cache_cap_flag_reaches_the_cache() {
    let text = stdout(&repro(&["--cache-cap", "1", "--stats", "smoke"]));
    assert!(
        text.contains("(cap 1)"),
        "stats must report the cap:\n{text}"
    );
    let text = stdout(&repro(&["--stats", "smoke"]));
    assert!(text.contains("(cap unbounded)"), "{text}");
}

#[test]
fn no_tail_flag_reaches_the_bounds() {
    // A scored recursion that branches twice per unfolding: the symbolic
    // executor's path cap cuts it, and the cut (⊤) paths carry a
    // geometric tail enclosure (contraction 1/2 per unfolding).
    let src = "let rec f n = if sample <= 0.5 then n else \
               (score(0.5); if sample <= 0.5 then f (n + 1) else f (n + 2)) in f 0";
    let hi = |args: &[&str]| -> String {
        let out = repro(args);
        assert!(out.status.success(), "status: {:?}", out.status);
        let text = stdout(&out);
        let line = text.lines().find(|l| l.contains("unnormalised mass"));
        let line = line.unwrap_or_else(|| panic!("no bound line:\n{text}"));
        let (_, bounds) = line.split_once(": [").expect("bound line shape");
        let (_, hi) = bounds.split_once(", ").expect("bound line shape");
        hi.split(']').next().expect("bound line shape").to_owned()
    };
    let with_tails = hi(&["query", src, "0", "100"]);
    assert!(
        with_tails.parse::<f64>().is_ok_and(f64::is_finite),
        "the tail enclosure must keep the upper bound finite, got {with_tails}"
    );
    assert_eq!(hi(&["--no-tail", "query", src, "0", "100"]), "inf");
}
