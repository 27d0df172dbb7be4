//! Fuzz campaigns with an escalating oracle-budget ladder.
//!
//! A campaign runs `total` [generated](crate::fuzz::generate) programs
//! (program `i` uses seed `root + i`) through the conformance loop.
//! Each program gets the base oracle limits first; if the oracle
//! exhausts its execution budget the program is retried up the
//! [`BUDGET_LADDER`] (×4, then ×16) before being recorded as
//! **skipped** — skipped programs appear in the summary with their
//! seed, so no fuzz input silently vanishes from the report.
//!
//! The campaign is a pure function of `(root seed, total, options)`.

use crate::fuzz::generate;
use crate::harness::{
    check_conformance_resilient, ConformOptions, ConformReport, ConformResilience,
};
use drfrlx_core::resilience::{EngineId, ExhaustReason, Pool, RunStatus};

/// Oracle `max_executions` multipliers tried per program, in order.
/// A program is skipped only after the whole ladder is exhausted.
pub const BUDGET_LADDER: [usize; 3] = [1, 4, 16];

/// The tallies of a fuzz campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignState {
    /// Root seed: program `i` is `generate(seed + i)`.
    pub seed: u64,
    /// Programs run (fewer than requested when a budget stopped the
    /// campaign).
    pub ran: u64,
    /// Programs whose report was sound.
    pub sound: u64,
    /// Seeds that demonstrated a violation, in discovery order.
    pub violations: Vec<u64>,
    /// Seeds skipped after the whole [`BUDGET_LADDER`] was exhausted,
    /// in discovery order.
    pub skipped: Vec<u64>,
}

/// What one program's ladder run amounted to.
enum Ladder {
    Verdict(ConformReport),
    Skipped,
    Abort(ExhaustReason),
}

/// Run a fuzz campaign of `total` programs rooted at seed `root`.
///
/// Every program climbs the oracle budget ladder, each rung one
/// [`Pool::attempt`] (panics caught there); `res.fault_plan` injects
/// faults per `(EngineId::Conform, program index, ladder rung)` on
/// top of whatever it injects into the inner simulation sweeps. A tripped
/// `res.budget` (deadline or cancellation) stops the campaign between
/// programs and returns `Inconclusive` whose frontier holds the index
/// of the first program not run; the tallies cover the programs before
/// it.
///
/// `on_violation` fires once per unsound program with its seed and
/// report (the CLI prints and shrinks there).
pub fn run_campaign(
    root: u64,
    total: u64,
    opts: &ConformOptions,
    res: &ConformResilience,
    on_violation: &mut dyn FnMut(u64, &ConformReport),
) -> (CampaignState, RunStatus) {
    let mut state =
        CampaignState { seed: root, ran: 0, sound: 0, violations: Vec::new(), skipped: Vec::new() };
    for i in 0..total {
        let stop = |reason| RunStatus::Inconclusive { reason, frontier: vec![i as usize] };
        if let Some(Err(reason)) = res.budget.as_ref().map(|b| b.check(0)) {
            return (state, stop(reason));
        }
        let seed = root.wrapping_add(i);
        match run_ladder(seed, i, opts, res) {
            Ladder::Verdict(report) => {
                if report.sound() {
                    state.sound += 1;
                } else {
                    state.violations.push(seed);
                    on_violation(seed, &report);
                }
            }
            Ladder::Skipped => state.skipped.push(seed),
            Ladder::Abort(reason) => return (state, stop(reason)),
        }
        state.ran = i + 1;
    }
    (state, RunStatus::Complete)
}

/// One program through the budget ladder. Pure in `(seed, index)`
/// given fixed options.
fn run_ladder(seed: u64, index: u64, opts: &ConformOptions, res: &ConformResilience) -> Ladder {
    let p = generate(seed);
    if p.threads().is_empty() {
        return Ladder::Skipped;
    }
    let pool = Pool::new(EngineId::Conform, 1)
        .budget(res.budget.as_deref())
        .faults(res.fault_plan.as_ref());
    for (rung, mult) in BUDGET_LADDER.iter().enumerate() {
        let mut rung_opts = opts.clone();
        rung_opts.limits.max_executions = opts.limits.max_executions.saturating_mul(*mult);
        let Ok(out) =
            pool.attempt(index as usize, rung, || check_conformance_resilient(&p, &rung_opts, res))
        else {
            continue;
        };
        if let RunStatus::Inconclusive {
            reason: reason @ (ExhaustReason::Deadline | ExhaustReason::Cancelled),
            ..
        } = out.status
        {
            return Ladder::Abort(reason);
        }
        match out.report {
            Some(report) => return Ladder::Verdict(report),
            // Oracle exhausted its execution/memory budget: climb.
            None => continue,
        }
    }
    Ladder::Skipped
}

/// The campaign summary printed by `drfrlx conform --fuzz`. Skipped
/// seeds are listed explicitly so every fuzz input is accounted for.
pub fn render_summary(state: &CampaignState) -> String {
    let mut out = format!(
        "fuzz: {} programs from seed {}, {} sound, {} violations, {} skipped\n",
        state.ran,
        state.seed,
        state.sound,
        state.violations.len(),
        state.skipped.len()
    );
    if !state.skipped.is_empty() {
        let seeds: Vec<String> = state.skipped.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "  skipped seeds (oracle budget exhausted after {} attempts): {}\n",
            BUDGET_LADDER.len(),
            seeds.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::exec::EnumLimits;
    use drfrlx_core::resilience::{Budget, FaultPlan};
    use drfrlx_core::SystemConfig;
    use std::sync::Arc;

    fn quick_opts() -> ConformOptions {
        ConformOptions {
            configs: SystemConfig::all().to_vec(),
            schedules: 2,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }

    #[test]
    fn a_clean_campaign_completes_and_counts_every_program() {
        let (state, status) =
            run_campaign(1, 5, &quick_opts(), &ConformResilience::default(), &mut |_, _| {
                panic!("fuzz seeds 1..=5 are sound")
            });
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(state.ran, 5);
        assert_eq!(state.sound + state.violations.len() as u64 + state.skipped.len() as u64, 5);
        assert!(state.skipped.is_empty(), "default limits never exhaust on tiny programs");
    }

    #[test]
    fn a_starved_oracle_records_the_skipped_seed_in_the_summary() {
        // max_executions 0 stays 0 up the whole ladder, so every
        // program exhausts the oracle and lands in `skipped`.
        let opts = ConformOptions {
            limits: EnumLimits { max_executions: 0, ..EnumLimits::default() },
            ..quick_opts()
        };
        let (state, status) =
            run_campaign(7, 3, &opts, &ConformResilience::default(), &mut |_, _| {});
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(state.skipped, vec![7, 8, 9]);
        let summary = render_summary(&state);
        assert!(summary.contains("3 skipped"), "{summary}");
        assert!(summary.contains("7, 8, 9"), "{summary}");
    }

    #[test]
    fn a_cancelled_budget_stops_between_programs() {
        let budget = Arc::new(Budget::unlimited());
        budget.cancel();
        let res = ConformResilience { budget: Some(budget), fault_plan: None };
        let (state, status) = run_campaign(1, 4, &quick_opts(), &res, &mut |_, _| {});
        assert_eq!(
            status,
            RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, frontier: vec![0] }
        );
        assert_eq!(state.ran, 0, "nothing ran");
    }

    #[test]
    fn seeded_campaign_chaos_is_deterministic_and_never_aborts() {
        let opts = quick_opts();
        for seed in 1..=3u64 {
            let res = ConformResilience { budget: None, fault_plan: Some(FaultPlan::seeded(seed)) };
            let (a, sa) = run_campaign(1, 4, &opts, &res, &mut |_, _| {});
            let (b, sb) = run_campaign(1, 4, &opts, &res, &mut |_, _| {});
            assert_eq!(sa, RunStatus::Complete, "chaos seed {seed}");
            assert_eq!(sa, sb, "chaos seed {seed}");
            assert_eq!(a, b, "chaos seed {seed}");
            // Faulted rungs may skip programs, never lose them.
            assert_eq!(a.sound + a.violations.len() as u64 + a.skipped.len() as u64, 4);
        }
    }
}
