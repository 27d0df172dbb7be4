//! The conformance fold against a naive reference.
//!
//! `report_from_partial_runs` normalizes one outcome per distinct final
//! memory image of a configuration. The reference here normalizes every
//! report with `Outcome::from_sim_memory`, the way the fold did before
//! it deduplicated images. Both must give the same allowed set, and the
//! same observed set and violations per configuration, also when some
//! report slots are empty, as in a degraded sweep.
//!
//! `check_conformance_resilient` keeps only each job's memory image;
//! it must equal the fold over the full reports of the same sweep, in
//! its report and in its status.

use drfrlx_conform::{
    allowed_outcomes, check_conformance_resilient, compile, conform_jobs, generate,
    report_from_partial_runs, table1_corpus, template_corpus, ConformOptions, ConformReport,
    ConformResilience, Outcome,
};
use drfrlx_core::program::Program;
use drfrlx_core::resilience::{EngineId, Fault, FaultPlan, RunStatus};
use hsim_sys::{run_matrix, run_matrix_resilient};
use std::collections::BTreeSet;

/// Check one program's fold against the reference, with every
/// `hole`-th report slot emptied.
fn check(name: &str, p: &Program, hole: usize) {
    let opts = ConformOptions::default();
    let shape = compile(p);
    let jobs = conform_jobs(&shape, &opts);
    let reports: Vec<_> = run_matrix(&jobs, opts.threads)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i % hole != hole - 1).then_some(r))
        .collect();
    let report = report_from_partial_runs(&shape, &opts, &reports)
        .unwrap_or_else(|e| panic!("{name}: oracle failed: {e:?}"));

    let (allowed, _) = allowed_outcomes(&shape, &opts.limits, None, 1).expect("oracle enumerates");
    assert_eq!(report.allowed, allowed, "{name}: allowed set");
    let per = opts.schedules;
    assert_eq!(report.verdicts.len(), opts.configs.len(), "{name}");
    for (ci, verdict) in report.verdicts.iter().enumerate() {
        let observed: BTreeSet<Outcome> = reports[ci * per..(ci + 1) * per]
            .iter()
            .flatten()
            .map(|r| Outcome::from_sim_memory(&shape, &r.memory))
            .collect();
        let violations: Vec<Outcome> = observed.difference(&allowed).cloned().collect();
        assert_eq!(verdict.config, opts.configs[ci], "{name}: config order");
        assert_eq!(verdict.observed, observed, "{name} under {}: observed set", verdict.config);
        assert_eq!(verdict.violations, violations, "{name} under {}: violations", verdict.config);
    }
}

#[test]
fn fold_matches_the_reference_on_the_table1_corpus() {
    for (name, p) in table1_corpus() {
        check(&name, &p, 5);
    }
}

#[test]
fn fold_matches_the_reference_on_the_template_corpus() {
    for (name, p) in template_corpus() {
        check(&name, &p, 7);
    }
}

#[test]
fn fold_matches_the_reference_on_fuzz_programs() {
    for seed in 0..64 {
        check(&format!("fuzz-{seed}"), &generate(seed), 3 + seed as usize % 5);
    }
}

/// The allowed set and every configuration's observed set and
/// violations of two reports must agree.
fn assert_same_report(what: &str, got: &ConformReport, want: &ConformReport) {
    assert_eq!(got.name, want.name, "{what}: name");
    assert_eq!(got.allowed, want.allowed, "{what}: allowed set");
    assert_eq!(got.verdicts.len(), want.verdicts.len(), "{what}: verdicts");
    for (a, b) in got.verdicts.iter().zip(&want.verdicts) {
        assert_eq!(a.config, b.config, "{what}: config order");
        assert_eq!(a.observed, b.observed, "{what} under {}: observed set", a.config);
        assert_eq!(a.violations, b.violations, "{what} under {}: violations", a.config);
    }
}

/// `check_conformance_resilient` against the fold over the full
/// reports of `run_matrix_resilient(conform_jobs(..))`: the same status
/// (lost lists and frontiers included), which it returns, and the same
/// report.
fn images_match_full_reports(
    name: &str,
    p: &Program,
    opts: &ConformOptions,
    res: &ConformResilience,
) -> RunStatus {
    let what = format!("{name} at {} threads", opts.threads);
    let got = check_conformance_resilient(p, opts, res);
    let shape = compile(p);
    let matrix = run_matrix_resilient(&conform_jobs(&shape, opts), opts.threads, res);
    assert_eq!(got.status, matrix.status, "{what}: status");
    let want = report_from_partial_runs(&shape, opts, &matrix.reports)
        .unwrap_or_else(|e| panic!("{what}: oracle failed: {e:?}"));
    assert_same_report(&what, got.report.as_ref().expect("the oracle enumerates"), &want);
    got.status
}

fn images_match_full_reports_at_1_and_2_threads(corpus: &[(String, Program)]) {
    for threads in [1, 2] {
        let opts = ConformOptions { threads, ..ConformOptions::default() };
        for (name, p) in corpus {
            let status = images_match_full_reports(name, p, &opts, &ConformResilience::default());
            assert_eq!(status, RunStatus::Complete, "{name}");
        }
    }
}

#[test]
fn images_only_matches_full_reports_on_the_table1_corpus() {
    images_match_full_reports_at_1_and_2_threads(&table1_corpus());
}

#[test]
fn images_only_matches_full_reports_on_the_template_corpus() {
    images_match_full_reports_at_1_and_2_threads(&template_corpus());
}

#[test]
fn images_only_matches_full_reports_on_fuzz_programs() {
    let corpus: Vec<_> = (0..64).map(|seed| (format!("fuzz-{seed}"), generate(seed))).collect();
    images_match_full_reports_at_1_and_2_threads(&corpus);
}

#[test]
fn images_only_matches_full_reports_under_faults() {
    // Few schedules, so a seeded plan's one-in-sixteen exhaustion draw
    // leaves some runs degraded rather than cut short.
    let opts = ConformOptions { schedules: 2, ..ConformOptions::default() };
    let (name, p) = &table1_corpus()[0];
    let mut degraded = 0;
    for seed in 1..=8 {
        let res = ConformResilience { fault_plan: Some(FaultPlan::seeded(seed)), budget: None };
        let status = images_match_full_reports(&format!("{name}, seed {seed}"), p, &opts, &res);
        degraded += usize::from(matches!(status, RunStatus::Degraded { .. }));
    }
    assert!(degraded > 0, "some seeded plan degrades the sweep");
    // One job lost on both tries, early or late, at either worker count.
    for threads in [1, 2] {
        let opts = ConformOptions { threads, ..ConformOptions::default() };
        for lost in [0, 700] {
            let res = ConformResilience {
                fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, lost, 2, Fault::Panic)),
                budget: None,
            };
            let status = images_match_full_reports(&format!("{name}, job {lost}"), p, &opts, &res);
            assert_eq!(status, RunStatus::Degraded { lost: vec![lost] });
        }
    }
}
