//! Satellite: CI-friendly exit codes. `drfrlx check`/`conform` exit
//! 0 when clean, 2 on a real finding (race / soundness violation), 3
//! when a run ends without a verdict (budget exhausted, degraded) and
//! 101 on an internal error — so CI can tell "the program is racy"
//! from "the checker fell over". Flags a subcommand's usage line does
//! not name are rejected, not ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn drfrlx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfrlx")).args(args).output().expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Write a litmus source into a per-test scratch dir, returning its path.
fn litmus_file(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drfrlx_exit_codes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("litmus file written");
    path
}

const RACE_FREE: &str = "litmus quiet\n\nthread t0 {\n    store.data x 1;\n}\n";

const RACY: &str = "litmus noisy\n\n\
    thread t0 {\n    store.data x 1;\n}\n\n\
    thread t1 {\n    store.data x 2;\n}\n";

/// Race-free (paired atomics never race) but every store conflicts,
/// so sleep sets prune nothing: 1680 interleavings dwarf any small
/// --max-execs budget, and the verdict needs the whole tree.
const WIDE: &str = "litmus wide\n\n\
    thread t0 {\n    store.paired x 1;\n    store.paired x 2;\n    store.paired x 3;\n}\n\n\
    thread t1 {\n    store.paired x 4;\n    store.paired x 5;\n    store.paired x 6;\n}\n\n\
    thread t2 {\n    store.paired x 7;\n    store.paired x 8;\n    store.paired x 9;\n}\n";

#[test]
fn check_exits_0_on_race_free_and_2_on_racy() {
    let clean = litmus_file("quiet.litmus", RACE_FREE);
    assert_eq!(code(&drfrlx(&["check", clean.to_str().unwrap()])), 0);

    let racy = litmus_file("noisy.litmus", RACY);
    let out = drfrlx(&["check", racy.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "a data race is a finding: {}", stdout(&out));
}

#[test]
fn check_exits_3_when_the_execution_budget_runs_out() {
    let wide = litmus_file("wide3.litmus", WIDE);
    let out = drfrlx(&["check", wide.to_str().unwrap(), "--max-execs", "10", "--model", "drf0"]);
    // 10 of 1680 executions seen, all race-free: no verdict.
    assert_eq!(code(&out), 3, "{}\n{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("INCONCLUSIVE"), "{}", stdout(&out));
}

#[test]
fn usage_errors_exit_2_and_internal_errors_exit_101() {
    assert_eq!(code(&drfrlx(&["frobnicate"])), 2, "unknown subcommand");
    // A missing file is an error inside a verdict subcommand: 101,
    // distinguishable from the racy exit 2.
    assert_eq!(code(&drfrlx(&["check", "/no/such/file.litmus"])), 101);
    assert_eq!(code(&drfrlx(&["conform", "--fuzz", "0"])), 101);
}

#[test]
fn a_check_cut_short_prints_what_it_explored_and_a_status_line() {
    let wide = litmus_file("wide_status.litmus", WIDE);
    let out = drfrlx(&["check", wide.to_str().unwrap(), "--max-execs", "10"]);
    let text = stdout(&out);
    assert_eq!(code(&out), 3, "{text}");
    for model in ["DRF0", "DRF1", "DRFrlx"] {
        assert!(
            text.contains(&format!("{model}: INCONCLUSIVE (no races in ")),
            "{model} lacks the inconclusive line:\n{text}"
        );
    }
    assert_eq!(text.matches("  status: inconclusive (execution budget (10) exhausted").count(), 3);
    assert!(text.contains("shards completed"), "{text}");
}

#[test]
fn unknown_flags_and_missing_operands_are_rejected() {
    let clean = litmus_file("quiet_flags.litmus", RACE_FREE);
    let path = clean.to_str().unwrap();
    // A misspelled flag is an error, not a silently ignored word.
    let out = drfrlx(&["check", path, "--modle", "drf0"]);
    assert_eq!(code(&out), 101, "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag `--modle` for `check`"), "{err}");
    assert!(err.contains("--model"), "the error lists the valid flags: {err}");
    // So are flags that no longer exist.
    for stale in
        [&["check", path, "--resume", "x"][..], &["conform", "--fuzz", "1", "--resume", "x"]]
    {
        assert_eq!(code(&drfrlx(stale)), 101, "{stale:?}");
    }
    assert_eq!(code(&drfrlx(&["bench", "list", "--perf", "x"])), 2, "non-verdict usage error");
    // A value flag needs its operand.
    let out = drfrlx(&["check", path, "--model"]);
    assert_eq!(code(&out), 101);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model needs a value"));
    let out = drfrlx(&["check", path, "--threads", "--stats"]);
    assert_eq!(code(&out), 101, "a flag is not an operand");
    // Flags may come before the positional argument.
    assert_eq!(code(&drfrlx(&["check", "--model", "drf0", path])), 0);
}

#[test]
fn conform_fuzz_exits_0() {
    let run = drfrlx(&["conform", "--fuzz", "2", "--seed", "1", "--schedules", "2"]);
    assert_eq!(code(&run), 0, "{}", String::from_utf8_lossy(&run.stderr));
    let summary = stdout(&run);
    assert!(summary.contains("2 programs from seed 1"), "{summary}");
}

#[test]
fn conform_corpus_under_chaos_never_crashes() {
    let out = drfrlx(&["conform", "corpus", "--chaos-seed", "1", "--schedules", "8"]);
    let rc = code(&out);
    assert!(matches!(rc, 0 | 2 | 3), "exit {rc}:\n{}", stdout(&out));
    // The fault plan reaches the corpus: seed 1 loses simulation jobs.
    assert!(stdout(&out).contains("status: work_queue: degraded"), "{}", stdout(&out));
}
