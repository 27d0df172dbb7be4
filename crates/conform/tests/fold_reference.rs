//! The conformance fold against a naive reference.
//!
//! `report_from_partial_runs` normalizes one outcome per distinct final
//! memory image of a configuration. The reference here normalizes every
//! report with `Outcome::from_sim_memory`, the way the fold did before
//! it deduplicated images. Both must give the same allowed set, and the
//! same observed set and violations per configuration, also when some
//! report slots are empty, as in a degraded sweep.

use drfrlx_conform::{
    allowed_outcomes, compile, conform_jobs, generate, report_from_partial_runs, table1_corpus,
    template_corpus, ConformOptions, Outcome,
};
use drfrlx_core::program::Program;
use hsim_sys::run_matrix;
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

    let (allowed, _) = allowed_outcomes(&shape, &opts.limits, 1).expect("oracle enumerates");
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
