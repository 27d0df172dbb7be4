//! Satellite: CI-friendly exit codes. `drfrlx check`/`conform` exit
//! 0 when clean, 2 on a real finding (race / soundness violation), 3
//! when a run ends without a verdict (budget exhausted, degraded) and
//! 101 on an internal error — so CI can tell "the program is racy"
//! from "the checker fell over". Flags a subcommand's usage line does
//! not name are rejected, not ignored, and so is a malformed
//! `DRFRLX_THREADS`. `bench` is the one path to every `results/*`
//! artifact.

use std::path::PathBuf;
use std::process::{Command, Output};

fn drfrlx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfrlx")).args(args).output().expect("binary runs")
}

/// `drfrlx` with `DRFRLX_THREADS` set to `threads`.
fn drfrlx_with_threads_env(threads: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfrlx"))
        .env("DRFRLX_THREADS", threads)
        .args(args)
        .output()
        .expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The per-process scratch dir, created if missing.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drfrlx_exit_codes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Write a litmus source into the scratch dir, returning its path.
fn litmus_file(name: &str, src: &str) -> PathBuf {
    let path = scratch_dir().join(name);
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
fn timeout_secs_reaches_the_checker_and_the_conformance_loop() {
    // A deadline that has passed before the run starts. iriw_stress's
    // 4,825 executions overflow the 512-execution probe, so the
    // checker's pool polls the budget before its first shard.
    let dir = env!("CARGO_MANIFEST_DIR");
    let iriw = format!("{dir}/litmus-tests/iriw_stress.litmus");
    let mp = format!("{dir}/litmus-tests/mp_paired.litmus");
    let runs = [
        vec!["check", &iriw, "--timeout-secs", "0.000001"],
        vec!["conform", &mp, "--schedules", "2", "--timeout-secs", "0.000001"],
    ];
    for args in runs {
        let out = drfrlx(&args);
        let text = stdout(&out);
        assert_eq!(code(&out), 3, "{args:?}:\n{text}");
        assert!(text.contains("status: inconclusive (wall-clock deadline expired"), "{text}");
    }
}

#[test]
fn explore_streams_a_program_too_large_to_materialize() {
    // `check` finds iriw_stress race-free in 4,825 sleep-set-reduced
    // executions; an exhaustive enumeration passes the default limit.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus-tests/iriw_stress.litmus");
    let out = drfrlx(&["explore", path]);
    let text = stdout(&out);
    assert_eq!(code(&out), 0, "{text}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.starts_with("iriw_stress: 4825 SC executions explored, "), "{text}");
    assert!(text.contains("representative execution:"), "{text}");

    // A racy program stops at its first racy execution and exits 1.
    let racy = litmus_file("noisy_explore.litmus", RACY);
    let out = drfrlx(&["explore", racy.to_str().unwrap()]);
    let text = stdout(&out);
    assert_eq!(code(&out), 1, "{text}");
    assert!(text.contains("stopped at the first racy one"), "{text}");
    assert!(text.contains("racy execution:"), "{text}");
}

#[test]
fn explore_takes_the_reduction_flag_of_check() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus-tests");
    // Sleep sets alone pass the default limit on the seqlock stress
    // program; memoization walks it to the verdict `check` gives.
    let stress_path = PathBuf::from(corpus).join("seqlock_counter_stress.litmus");
    let stress = stress_path.to_str().unwrap();
    let out = drfrlx(&["explore", stress, "--reduction", "memo"]);
    let text = stdout(&out);
    assert_eq!(code(&out), 0, "{text}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.starts_with("seqlock_counter_stress: 24 SC executions explored, "), "{text}");
    assert!(text.contains("no illegal races in the shown execution"), "{text}");

    // On every other corpus program memoization keeps the verdict of
    // sleep sets alone.
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus)
        .expect("litmus corpus")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus") && *p != stress_path)
        .collect();
    files.sort();
    assert!(files.len() >= 10, "{files:?}");
    for f in &files {
        let f = f.to_str().unwrap();
        let sleep = code(&drfrlx(&["explore", f]));
        assert!(sleep == 0 || sleep == 1, "{f}: exit {sleep} under sleep sets");
        assert_eq!(code(&drfrlx(&["explore", f, "--reduction", "memo"])), sleep, "{f}");
    }

    // The execution limit is fixed; only `check` takes --max-execs.
    assert_eq!(code(&drfrlx(&["explore", stress, "--reduction", "dpor"])), 2, "a reduction");
    assert_eq!(code(&drfrlx(&["explore", stress, "--max-execs", "10"])), 2, "a limit");
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

#[test]
fn injected_panics_are_reported_not_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus-tests/split_counter.litmus");
    let out = Command::new(env!("CARGO_BIN_EXE_drfrlx"))
        .args(["check", path, "--chaos-seed", "1", "--threads", "1"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("binary runs");
    assert_eq!(code(&out), 3, "{}", stdout(&out));
    assert_eq!(
        stdout(&out),
        "DRF0: race-free (4 SC executions)\n\
         \x20 executions: 4 explored, 7 pruned by partial-order reduction\n\
         DRF1: race-free (4 SC executions)\n\
         \x20 executions: 4 explored, 7 pruned by partial-order reduction\n\
         DRFrlx: INCONCLUSIVE (no races in 711 SC executions explored)\n\
         \x20 status: degraded (7 unit(s) lost: [7, 10, 52, 65, 97, 119, 161]) \
         — 155 of 162 shards completed\n"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("injected panic"), "a caught, injected panic was printed:\n{err}");
}

#[test]
fn a_malformed_threads_variable_is_an_error_that_names_it() {
    let clean = litmus_file("quiet_env.litmus", RACE_FREE);
    let path = clean.to_str().unwrap();
    let out_dir = scratch_dir().join("bad_env_results");
    let out_dir = out_dir.to_str().unwrap();
    for bad in ["0", "abc"] {
        for (args, expect) in [
            (&["check", path][..], 101),
            (&["conform", "corpus"], 101),
            (&["bench", "table2", "--out", out_dir], 2),
        ] {
            let out = drfrlx_with_threads_env(bad, args);
            assert_eq!(code(&out), expect, "DRFRLX_THREADS={bad} {args:?}: {}", stdout(&out));
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(
                err.contains(&format!("DRFRLX_THREADS needs a positive integer, got `{bad}`")),
                "{args:?}: {err}"
            );
        }
    }
    // Nothing ran, so nothing was written.
    assert!(!std::path::Path::new(out_dir).exists());
    // --threads wins over the variable, which is then never read.
    assert_eq!(code(&drfrlx_with_threads_env("abc", &["check", path, "--threads", "1"])), 0);
}

#[test]
fn bench_regenerates_a_static_artifact_without_json() {
    let out_dir = scratch_dir().join("bench_fig2");
    let out = drfrlx(&["bench", "fig2", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/fig2.txt"))
            .expect("committed fig2.txt");
    let written = std::fs::read_to_string(out_dir.join("fig2.txt")).expect("fig2.txt written");
    assert_eq!(written, committed, "bench fig2 drifted from results/fig2.txt");
    assert_eq!(stdout(&out), committed, "stdout is the artifact");
    assert!(!out_dir.join("fig2.json").exists(), "a static artifact writes no JSON");

    let list = stdout(&drfrlx(&["bench", "list"]));
    let listed: Vec<&str> =
        list.lines().skip(1).filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(listed, drfrlx::bench::ids());
    assert_eq!(listed.len(), 21, "{list}");
}
