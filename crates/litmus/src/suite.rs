//! Declarative registry of the whole corpus with expected verdicts, and
//! a runner that checks every expectation against both models.

use crate::{classic, clauses, mislabeled, stress, usecases};
use drfrlx_core::checker::{check_program_with, CheckOptions};
use drfrlx_core::exec::{EnumLimits, Reduction};
use drfrlx_core::program::Program;
use drfrlx_core::syscentric::compare_with_sc;
use drfrlx_core::{MemoryModel, RaceKind};

/// Which part of the corpus a test belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A Table 1 use case with the paper's labeling.
    UseCase,
    /// A deliberately mislabeled variant.
    Mislabeled,
    /// A classic weak-memory shape.
    Classic,
}

/// One litmus test and its expected verdicts.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    /// Unique name.
    pub name: &'static str,
    /// Corpus category.
    pub category: Category,
    /// What the test demonstrates.
    pub description: &'static str,
    /// Program constructor.
    pub build: fn() -> Program,
    /// Expected race-freedom under [DRF0, DRF1, DRFrlx].
    pub race_free: [bool; 3],
    /// Race kinds expected under DRFrlx (empty when race-free).
    pub drfrlx_kinds: &'static [RaceKind],
    /// The weakest reduction under which the test fits the default
    /// execution budget. Everything enumerable with sleep sets alone
    /// stays on [`Reduction::SleepSet`]; compound stress programs
    /// whose conflicting clusters defeat sleep sets declare
    /// [`Reduction::SleepSetMemo`].
    pub reduction: Reduction,
    /// Expected verdict of the system-centric comparison under DRFrlx
    /// (`None` = skip: too expensive or the outcome lives only in
    /// registers).
    pub sc_only: Option<bool>,
}

/// The full corpus.
pub fn all_tests() -> Vec<LitmusTest> {
    use Category::*;
    use RaceKind::*;
    vec![
        // ---- Table 1 use cases ----
        LitmusTest {
            name: "work_queue",
            category: UseCase,
            description: "Listing 1: unpaired occupancy poll, paired dequeue",
            build: usecases::work_queue,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "work_queue_multi_quantum",
            category: UseCase,
            description: "footnote 4: multi-queue polls as quantum atomics",
            build: usecases::work_queue_multi_quantum,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: None, // quantum-equivalent result comparison needs a custom domain
        },
        LitmusTest {
            name: "event_counter",
            category: UseCase,
            description: "Listing 2: commutative histogram increments",
            build: usecases::event_counter,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "flags",
            category: UseCase,
            description: "Listing 3: non-ordering stop/dirty flags around a barrier",
            build: usecases::flags,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "split_counter",
            category: UseCase,
            description: "Listing 4: quantum partial sums",
            build: usecases::split_counter,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "ref_counter",
            category: UseCase,
            description: "Listing 5: quantum inc/dec, commutative marking",
            build: usecases::ref_counter,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            // The quantum-equivalent result set comparison needs a
            // domain covering every reachable count; skipped for cost.
            sc_only: None,
        },
        LitmusTest {
            name: "seqlock",
            category: UseCase,
            description: "Listing 6: speculative data loads bracketed by seq checks",
            build: usecases::seqlock,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        // ---- Mislabeled variants ----
        LitmusTest {
            name: "work_queue_no_recheck",
            category: Mislabeled,
            description: "task data guarded only by the unpaired poll",
            build: mislabeled::work_queue_no_recheck,
            race_free: [true, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "event_counter_data",
            category: Mislabeled,
            description: "counter left as plain data",
            build: mislabeled::event_counter_data,
            race_free: [false, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "event_counter_observed",
            category: Mislabeled,
            description: "commutative fetch-add return value observed",
            build: mislabeled::event_counter_observed,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Commutative],
            sc_only: None,
        },
        LitmusTest {
            name: "event_counter_noncommuting",
            category: Mislabeled,
            description: "exchange vs fetch-add under commutative labels",
            build: mislabeled::event_counter_noncommuting,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Commutative],
            sc_only: None,
        },
        LitmusTest {
            name: "flags_conflicting_dirty",
            category: Mislabeled,
            description: "commutative stores of different values",
            build: mislabeled::flags_conflicting_dirty,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Commutative],
            sc_only: None,
        },
        LitmusTest {
            name: "flags_ordering_through_stop",
            category: Mislabeled,
            description: "non-ordering flag on the unique ordering path",
            build: mislabeled::flags_ordering_through_stop,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "split_counter_mixed",
            category: Mislabeled,
            description: "paired reader against quantum updates",
            build: mislabeled::split_counter_mixed,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Quantum],
            sc_only: None,
        },
        LitmusTest {
            name: "ref_counter_data_mark",
            category: Mislabeled,
            description: "deletion mark as plain data in the quantum-equivalent program",
            build: mislabeled::ref_counter_data_mark,
            // Both decrements can see old == 1 even under SC (inc, dec,
            // inc, dec), so the data marking stores race under every
            // model.
            race_free: [false, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "seqlock_unconditional_use",
            category: Mislabeled,
            description: "speculative value used without the sequence check",
            build: mislabeled::seqlock_unconditional_use,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Speculative],
            sc_only: None,
        },
        LitmusTest {
            name: "seqlock_double_writer",
            category: Mislabeled,
            description: "two speculative writers",
            build: mislabeled::seqlock_double_writer,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Speculative],
            sc_only: None,
        },
        LitmusTest {
            name: "flags_stop_data",
            category: Mislabeled,
            description: "stop flag left as plain data",
            build: mislabeled::flags_stop_data,
            race_free: [false, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "work_queue_unpublished_slot",
            category: Mislabeled,
            description: "producer forgets the paired publish",
            build: mislabeled::work_queue_unpublished_slot,
            race_free: [true, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "seqlock_relaxed_unlock",
            category: Mislabeled,
            description: "writer unlocks with a non-ordering store",
            build: mislabeled::seqlock_relaxed_unlock,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            // Both contracts break: the payload race becomes observable
            // (speculative) and the unlock store carries ordering it
            // must not (non-ordering).
            drfrlx_kinds: &[NonOrdering, Speculative],
            sc_only: None,
        },
        // ---- Classic shapes ----
        LitmusTest {
            name: "mp_paired",
            category: Classic,
            description: "message passing, paired flag",
            build: classic::mp_paired,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "mp_unpaired",
            category: Classic,
            description: "message passing through an unpaired flag",
            build: classic::mp_unpaired,
            race_free: [true, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "mp_non_ordering",
            category: Classic,
            description: "message passing through a non-ordering flag",
            build: classic::mp_non_ordering,
            race_free: [true, false, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Data],
            sc_only: None,
        },
        LitmusTest {
            name: "mp_release_acquire",
            category: Classic,
            description: "message passing with one-sided release/acquire (§7 extension)",
            build: classic::mp_release_acquire,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "sb_release_acquire",
            category: Classic,
            description: "store buffering with one-sided fences: hb-consistent but non-SC",
            build: classic::sb_release_acquire,
            // Legal under every model (the rel/acq pairs synchronize in
            // the executions where they read each other), yet the
            // relaxed machine reaches the non-SC outcome: one-sided
            // atomics promise happens-before, not SC — exactly C++'s
            // release/acquire semantics, and why the paper defers these
            // orderings to PLpc (§7).
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "sb_paired",
            category: Classic,
            description: "store buffering, paired",
            build: || classic::sb("sb_paired", drfrlx_core::OpClass::Paired),
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "sb_non_ordering",
            category: Classic,
            description: "store buffering, non-ordering labels",
            build: || classic::sb("sb_non_ordering", drfrlx_core::OpClass::NonOrdering),
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "lb_non_ordering",
            category: Classic,
            description: "load buffering with data dependencies",
            build: classic::lb_non_ordering,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "corr_non_ordering",
            category: Classic,
            description: "read-read coherence, absolved by per-location SC",
            build: classic::corr_non_ordering,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "iriw_paired",
            category: Classic,
            description: "IRIW with paired atomics",
            build: classic::iriw_paired,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "iriw_non_ordering",
            category: Classic,
            description: "IRIW with non-ordering atomics",
            build: classic::iriw_non_ordering,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: None,
        },
        LitmusTest {
            name: "figure2a",
            category: Classic,
            description: "Figure 2(a): unabsolved non-ordering path",
            build: classic::figure2a,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "figure2b",
            category: Classic,
            description: "Figure 2(b): paired path absolves the flags",
            build: classic::figure2b,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "wrc_paired",
            category: Classic,
            description: "write-to-read causality through paired flags",
            build: classic::wrc_paired,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "wrc_non_ordering",
            category: Classic,
            description: "WRC causality carried by non-ordering atomics",
            build: classic::wrc_non_ordering,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "isa2_paired",
            category: Classic,
            description: "three-thread transitivity (ISA2) with paired flags",
            build: classic::isa2_paired,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "two_plus_two_w_non_ordering",
            category: Classic,
            description: "2+2W: opposite-order non-ordering write pairs",
            build: classic::two_plus_two_w_non_ordering,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[NonOrdering],
            sc_only: Some(false),
        },
        LitmusTest {
            name: "iriw_release_acquire",
            category: Classic,
            description: "IRIW with one-sided fences: a one-sided race",
            build: classic::iriw_release_acquire,
            // The checker flags the readers' reliance on one-sided
            // fences for cross-reader write ordering — sound, because
            // IRIW under release/acquire is genuinely non-SC on
            // non-multi-copy-atomic hardware. Our relaxed machine has a
            // single shared memory (multi-copy atomic), so it cannot
            // exhibit the disagreement; sc_only documents that the
            // machine under-approximates here.
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[OneSided],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "unpaired_contention",
            category: Classic,
            description: "racing unpaired RMWs (legal)",
            build: classic::unpaired_contention,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
    ]
}

/// The 4-thread stress corpus: programs whose exhaustive interleaving
/// counts blow the default execution budget but which the streaming
/// checker finishes comfortably with sleep-set partial-order reduction.
/// Kept out of [`all_tests`] so the committed `results/listing7.txt`
/// artifact (generated from that registry) is untouched; they get their
/// own artifact, `results/checker_stress.txt`.
pub fn stress_tests() -> Vec<LitmusTest> {
    use Category::*;
    vec![
        LitmusTest {
            name: "iriw_stress",
            category: Classic,
            description: "IRIW, 2 writers x 4 paired stores, 2 readers x 3 loads",
            build: stress::iriw_stress,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: None, // 4.2M exhaustive interleavings: relaxed machine too costly
        },
        LitmusTest {
            name: "event_counter_stress",
            category: UseCase,
            description: "3 workers on 2 commutative bins, main joins 3 paired flags",
            build: stress::event_counter_stress,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: None, // join fan-in makes the relaxed exploration explode
        },
        LitmusTest {
            name: "seqlock_stress",
            category: UseCase,
            description: "seqlock, 1 writer + 3 speculative readers",
            build: stress::seqlock_stress,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: None, // 369,600 exhaustive interleavings before branching
        },
        LitmusTest {
            name: "seqlock_counter_stress",
            category: UseCase,
            description: "seqlock + 2 counter/tick workers; needs memoization",
            build: stress::seqlock_counter_stress,
            race_free: [true, true, true],
            // 20.1M sleep-set interleavings: only duplicate-state
            // memoization fits the default budget.
            reduction: Reduction::SleepSetMemo,
            drfrlx_kinds: &[],
            sc_only: None,
        },
    ]
}

/// Programs that single out one race-rule clause each (see
/// [`clauses`]). Kept out of [`all_tests`], like [`stress_tests`], so
/// the artifacts and digests generated from that registry are
/// untouched.
pub fn clause_tests() -> Vec<LitmusTest> {
    use Category::*;
    use RaceKind::*;
    vec![
        LitmusTest {
            name: "mp_unpaired_past_non_ordering",
            category: Classic,
            description: "§3.3.3: only the all-unpaired valid path absolves a non-ordering store",
            build: clauses::mp_unpaired_past_non_ordering,
            race_free: [true, true, true],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[],
            sc_only: Some(true),
        },
        LitmusTest {
            name: "observed_increment_past_non_ordering",
            category: Mislabeled,
            description:
                "§3.2.3: an observed increment cannot commute, even past a non-ordering flag",
            build: clauses::observed_increment_past_non_ordering,
            race_free: [true, true, false],
            reduction: Reduction::SleepSet,
            drfrlx_kinds: &[Commutative],
            sc_only: None,
        },
    ]
}

/// Run one test: check the programmer-centric verdict under all three
/// models and, when expected, the system-centric comparison.
///
/// # Errors
///
/// Returns a description of the first expectation that failed.
pub fn run(t: &LitmusTest) -> Result<(), String> {
    let p = (t.build)();
    let limits = EnumLimits::default();
    let opts =
        CheckOptions { limits: limits.clone(), reduction: t.reduction, ..CheckOptions::default() };
    for (i, model) in MemoryModel::ALL.iter().enumerate() {
        let report = check_program_with(&p, *model, &opts)
            .map_err(|e| format!("{}: enumeration failed under {model}: {e}", t.name))?;
        if report.is_race_free() != t.race_free[i] {
            return Err(format!(
                "{}: expected race_free={} under {model}, got {} ({:?})",
                t.name,
                t.race_free[i],
                report.is_race_free(),
                report.race_kinds(),
            ));
        }
        if *model == MemoryModel::Drfrlx {
            let kinds = report.race_kinds();
            let mut expected: Vec<RaceKind> = t.drfrlx_kinds.to_vec();
            expected.sort();
            if kinds != expected {
                return Err(format!(
                    "{}: expected DRFrlx race kinds {expected:?}, got {kinds:?}",
                    t.name
                ));
            }
        }
    }
    if let Some(expected_sc) = t.sc_only {
        let cmp = compare_with_sc(&p, MemoryModel::Drfrlx, &limits)
            .map_err(|e| format!("{}: relaxed exploration failed: {e}", t.name))?;
        if cmp.is_sc_only() != expected_sc {
            return Err(format!(
                "{}: expected sc_only={expected_sc}, got {} (non-SC results: {:?})",
                t.name,
                cmp.is_sc_only(),
                cmp.non_sc_results,
            ));
        }
        // Theorem 3.1 (empirical): race-free ⇒ SC-only results. The
        // theorem is scoped to programs without one-sided atomics:
        // release/acquire provide happens-before, not SC (the paper
        // defers these orderings to PLpc, §7).
        let one_sided = p
            .classes_used()
            .iter()
            .any(|c| matches!(c, drfrlx_core::OpClass::Acquire | drfrlx_core::OpClass::Release));
        if t.race_free[2] && !cmp.is_sc_only() && !one_sided {
            return Err(format!("{}: violates Theorem 3.1", t.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_corpus_matches_expected_verdicts() {
        for t in stress_tests() {
            run(&t).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn clause_programs_match_expected_verdicts() {
        for t in clause_tests() {
            run(&t).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn corpus_is_well_formed() {
        let mut tests = all_tests();
        assert!(tests.len() >= 25);
        tests.extend(stress_tests());
        tests.extend(clause_tests());
        // Unique names.
        for (i, a) in tests.iter().enumerate() {
            for b in &tests[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        // Race-free tests expect no kinds; racy tests expect some.
        for t in &tests {
            assert_eq!(t.race_free[2], t.drfrlx_kinds.is_empty(), "{}", t.name);
            // Model strength is monotone: racy under DRF0 ⇒ racy under
            // DRF1 ⇒ racy under DRFrlx for our corpus (DRF0's view is
            // the strongest labeling).
            if !t.race_free[0] {
                assert!(!t.race_free[1], "{}", t.name);
            }
            if !t.race_free[1] {
                assert!(!t.race_free[2], "{}", t.name);
            }
        }
    }
}
