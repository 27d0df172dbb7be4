//! Order statistics: nearest-rank percentiles, the "at least ten
//! samples beyond" rule, Python-compatible quartiles, and span self
//! time.

use drfrlx_benchmark::spans::{Span, Spans};
use drfrlx_benchmark::stats::{
    highest_supported_percentile, median, nearest_rank, nearest_rank_index, quartiles,
    relative_spread, samples_beyond, MIN_BEYOND,
};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&xs, 50), 5.0);
    assert_eq!(nearest_rank(&xs, 90), 9.0);
    assert_eq!(nearest_rank(&xs, 91), 10.0);
    assert_eq!(nearest_rank(&xs, 100), 10.0);
    assert_eq!(nearest_rank(&xs, 1), 1.0);
    assert_eq!(nearest_rank(&[7.0], 90), 7.0);
}

#[test]
fn ranks_use_exact_integer_arithmetic() {
    // 0.9 * 540 is 486.00000000000006 in floating point; a float ceil
    // would pick rank 487.
    assert_eq!(nearest_rank_index(540, 90), 486);
    assert_eq!(samples_beyond(540, 90), 54);
    assert_eq!(nearest_rank_index(1926, 50), 963);
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(samples_beyond(100, 90), 10);
    assert_eq!(highest_supported_percentile(100), Some(90));
    // One sample fewer and p90 has only nine beyond it.
    assert_eq!(samples_beyond(99, 90), 9);
    assert_eq!(highest_supported_percentile(99), Some(89));
    // The workloads' sample counts support p90 with room to spare.
    for n in [540, 800, 1926] {
        let p = highest_supported_percentile(n).expect("enough samples");
        assert!(p >= 90, "n={n}: only p{p}");
        assert!(samples_beyond(n, p) >= MIN_BEYOND);
        assert!(p == 99 || samples_beyond(n, p + 1) < MIN_BEYOND);
    }
    assert_eq!(highest_supported_percentile(540), Some(98));
    assert_eq!(highest_supported_percentile(10), None);
    assert_eq!(highest_supported_percentile(0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    let runs = [10.5, 9.75, 11.25, 10.0, 12.0, 9.5, 10.25, 11.0, 10.75, 13.5];
    assert_eq!(quartiles(&runs), [9.9375, 10.625, 11.4375]);
    assert!((relative_spread(&runs) - 1.5 / 10.625).abs() < 1e-12);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn self_time_is_duration_minus_child_coverage_and_inner_time() {
    let span = |name, parent, start, end, inner| Span { name, op: 0, parent, start, end, inner };
    let spans = Spans::from_spans(vec![
        span("op", None, 0.0, 10.0, 0.0),
        // Two overlapping children cover 1..5, not 3 + 3.
        span("a", Some(0), 1.0, 4.0, 0.0),
        span("a", Some(0), 2.0, 5.0, 0.0),
        // A child with 1 s attributed to a layer without a span.
        span("b", Some(0), 6.0, 9.0, 1.0),
    ]);
    let st = spans.self_times();
    assert_eq!(st["op"], 10.0 - 4.0 - 3.0);
    assert_eq!(st["a"], 6.0);
    assert_eq!(st["b"], 2.0);
}

#[test]
fn recorded_spans_nest_and_export_as_chrome_trace_events() {
    let mut spans = Spans::default();
    let (((), child), root) = spans.time("op", 7, |sp| sp.time("core.parse", 7, |_| ()));
    let all = spans.spans();
    assert_eq!(all[child].parent, Some(root));
    assert!(all[child].start >= all[root].start && all[child].end <= all[root].end);
    let json = drfrlx_bench::json::parse_json(&spans.chrome_json()).expect("valid JSON");
    let events = json.get("traceEvents").and_then(|e| e.as_arr()).expect("event list");
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("core.parse"));
    let args = events[1].get("args").expect("args");
    assert_eq!(args.get("op").and_then(|v| v.as_num()), Some(7.0));
    assert_eq!(args.get("parent").and_then(|v| v.as_num()), Some(0.0));
}
