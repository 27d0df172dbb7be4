//! The `compare` verdicts: better by the paired rule, worse beyond the
//! bound, unresolved under a wide spread, within bound otherwise.

use drfrlx_benchmark::compare::{compare, compare_runs, Verdict};

fn runs(base: f64, steps: &[f64]) -> Vec<f64> {
    steps.iter().map(|s| base * (1.0 + s)).collect()
}

const JITTER: [f64; 10] = [0.0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0.0];

#[test]
fn a_clear_paired_win_is_better() {
    let a = runs(100.0, &JITTER);
    let b = runs(80.0, &JITTER);
    assert_eq!(compare_runs("op_ms_p50", &a, &b, Some(0.25)).verdict, Verdict::Better);
    // The same numbers read the other way for a higher-is-better metric.
    assert_eq!(compare_runs("ops_per_s", &b, &a, Some(0.25)).verdict, Verdict::Better);
    assert_eq!(compare_runs("ops_per_s", &a, &b, Some(0.25)).verdict, Verdict::WithinBound);
}

#[test]
fn worse_beyond_the_bound_is_worse() {
    let a = runs(100.0, &JITTER);
    let b = runs(130.0, &JITTER);
    assert_eq!(compare_runs("op_ms_p90", &a, &b, Some(0.25)).verdict, Verdict::Worse);
    assert_eq!(compare_runs("op_ms_p90", &a, &b, Some(0.35)).verdict, Verdict::WithinBound);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let wide = [0.0, 0.4, -0.4, 0.3, -0.3, 0.2, -0.2, 0.1, -0.1, 0.0];
    let a = runs(100.0, &wide);
    let b = runs(101.0, &wide);
    assert_eq!(compare_runs("op_ms_p50", &a, &b, Some(0.1)).verdict, Verdict::Unresolved);
    let cell = compare_runs("op_ms_p50", &a, &b, Some(0.1));
    assert!(cell.b_wins < 0.9);
}

#[test]
fn setup_time_has_an_absolute_floor() {
    let a = runs(0.001, &JITTER);
    let b = runs(0.005, &JITTER);
    // Five times slower, but 4 ms is under the 20 ms floor.
    assert_eq!(compare_runs("setup_s", &a, &b, Some(0.25)).verdict, Verdict::WithinBound);
    let c = runs(0.05, &JITTER);
    assert_eq!(compare_runs("setup_s", &a, &c, Some(0.25)).verdict, Verdict::Worse);
}

#[test]
fn per_layer_metrics_have_no_bound() {
    let a = runs(1.0, &JITTER);
    assert_eq!(compare_runs("core.races.s", &a, &a, None).verdict, Verdict::NoBound);
    let b = runs(0.5, &JITTER);
    assert_eq!(compare_runs("core.races.s", &a, &b, None).verdict, Verdict::Better);
}

#[test]
fn compare_reads_records_and_flags_a_regression() {
    let record = |seed: u64, p50: f64| {
        format!(
            "{{\"record\":\"drfrlx-benchmark\",\"workload\":\"check_corpus\",\"seed\":{seed},\
             \"metrics\":{{\"op_ms_p50\":{{\"value\":{p50},\"unit\":\"ms\"}}}}}}\n\
             {{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{}}}}\n"
        )
    };
    let a: String = (1..=10).map(|s| record(s, 1.0 + s as f64 * 0.001)).collect();
    let b: String = (1..=10).map(|s| record(s, 2.0 + s as f64 * 0.001)).collect();
    let bounds =
        r#"{"end_to_end":[{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.25}]}"#;
    let (text, worse) = compare(&a, &b, bounds).expect("records parse");
    assert!(worse, "{text}");
    assert!(text.contains("check_corpus") && text.contains("worse"), "{text}");
    let (text, worse) = compare(&a, &a, bounds).expect("records parse");
    assert!(!worse && text.contains("within bound"), "{text}");
}
