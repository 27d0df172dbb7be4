//! The conformance harness: run a compiled litmus kernel across the
//! configuration × schedule matrix and compare the observed outcome
//! set against the axiomatic oracle.
//!
//! ## Soundness vs coverage
//!
//! * **Soundness** (the verdict): `observed ⊆ allowed` per
//!   configuration. A violation means the simulator produced a final
//!   state no SC interleaving of the program can produce — a simulator
//!   bug, since every DRF-family model admits at least the SC
//!   outcomes and the engine's functional semantics are
//!   issue-atomic.
//! * **Coverage** (the diagnostic): `|observed ∩ allowed| / |allowed|`
//!   — the fraction of allowed outcomes some schedule actually
//!   witnessed. Low coverage never fails a test by itself; it flags
//!   that the schedule family is too tame to exercise the program.
//!
//! Everything here is deterministic: jobs are laid out config-major ×
//! schedule-minor, the sweep pool returns reports in job order
//! regardless of worker count, outcome sets are `BTreeSet`s, and the
//! oracle's shard set depends only on the program.

use crate::compile::{compile, CompiledLitmus};
use crate::outcome::{allowed_outcomes, Outcome};
use crate::schedule::schedule_params;
use drfrlx_core::exec::{EnumError, EnumLimits, EnumStats};
use drfrlx_core::program::Program;
use drfrlx_core::resilience::{require_complete, Budget, LostPanic, Resilience, RunStatus};
use drfrlx_core::{MemoryModel, SystemConfig};
use drfrlx_litmus::{all_tests, Category};
use hsim_sys::{run_matrix_map, RunReport, SimJob, SysParams};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Options for one conformance run.
#[derive(Debug, Clone)]
pub struct ConformOptions {
    /// Configurations to simulate (default: all nine).
    pub configs: Vec<SystemConfig>,
    /// Schedules per configuration (index 0 is always the pristine
    /// platform).
    pub schedules: usize,
    /// Root seed of the schedule family.
    pub seed: u64,
    /// Worker threads for both the simulation matrix and the oracle.
    pub threads: usize,
    /// Oracle enumeration limits.
    pub limits: EnumLimits,
}

impl Default for ConformOptions {
    fn default() -> Self {
        ConformOptions {
            configs: SystemConfig::extended().to_vec(),
            schedules: 128,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }
}

/// Observed outcomes and soundness verdict for one configuration.
#[derive(Debug, Clone)]
pub struct ConfigVerdict {
    /// The protocol × model cell.
    pub config: SystemConfig,
    /// Every final state some schedule produced.
    pub observed: BTreeSet<Outcome>,
    /// `observed \ allowed` — non-empty means the simulator is
    /// unsound for this program under this configuration.
    pub violations: Vec<Outcome>,
}

/// The full conformance result for one program.
#[derive(Debug, Clone)]
pub struct ConformReport {
    /// Program name.
    pub name: String,
    /// The oracle's allowed (SC) outcome set.
    pub allowed: BTreeSet<Outcome>,
    /// Oracle enumeration statistics.
    pub oracle_stats: EnumStats,
    /// One verdict per configuration, in option order.
    pub verdicts: Vec<ConfigVerdict>,
}

impl ConformReport {
    /// No configuration observed an outcome outside the allowed set.
    pub fn sound(&self) -> bool {
        self.verdicts.iter().all(|v| v.violations.is_empty())
    }

    /// Union of observed outcomes across every configuration.
    pub fn observed_union(&self) -> BTreeSet<Outcome> {
        let mut u = BTreeSet::new();
        for v in &self.verdicts {
            u.extend(v.observed.iter().cloned());
        }
        u
    }

    /// Allowed outcomes witnessed by at least one configuration,
    /// over the allowed count (1.0 when the allowed set is empty).
    pub fn coverage(&self) -> f64 {
        Self::ratio(&self.observed_union(), &self.allowed)
    }

    /// Coverage restricted to configurations running `model`.
    pub fn coverage_under(&self, model: MemoryModel) -> f64 {
        let mut u = BTreeSet::new();
        for v in self.verdicts.iter().filter(|v| v.config.model == model) {
            u.extend(v.observed.iter().cloned());
        }
        Self::ratio(&u, &self.allowed)
    }

    /// Allowed outcomes witnessed (across all configurations), as a
    /// count — the coverage numerator.
    pub fn witnessed(&self) -> usize {
        self.observed_union().intersection(&self.allowed).count()
    }

    /// The coverage numerator restricted to `model` configurations.
    pub fn witnessed_under(&self, model: MemoryModel) -> usize {
        let mut u = BTreeSet::new();
        for v in self.verdicts.iter().filter(|v| v.config.model == model) {
            u.extend(v.observed.iter().cloned());
        }
        u.intersection(&self.allowed).count()
    }

    fn ratio(observed: &BTreeSet<Outcome>, allowed: &BTreeSet<Outcome>) -> f64 {
        if allowed.is_empty() {
            return 1.0;
        }
        observed.intersection(allowed).count() as f64 / allowed.len() as f64
    }
}

/// The simulation jobs of one conformance run: config-major ×
/// schedule-minor, in `opts.configs` order. [`report_from_runs`]
/// expects reports in exactly this order. Each schedule's platform is
/// derived once and shared by its job in every configuration, and
/// every job shares one label, the program's name.
pub fn conform_jobs(shape: &CompiledLitmus, opts: &ConformOptions) -> Vec<SimJob> {
    let kernel: Arc<dyn hsim_gpu::Kernel> = Arc::new(shape.clone());
    let base = SysParams::integrated();
    let schedules: Vec<Arc<SysParams>> = (0..opts.schedules.max(1))
        .map(|s| Arc::new(schedule_params(&base, opts.seed, s)))
        .collect();
    let name: Arc<str> = shape.program.name().into();
    let mut jobs = Vec::with_capacity(opts.configs.len() * schedules.len());
    for &config in &opts.configs {
        jobs.extend(schedules.iter().map(|params| SimJob {
            workload: Arc::clone(&name),
            kernel: Arc::clone(&kernel),
            config,
            params: Arc::clone(params),
            validate: false,
            trace: None,
        }));
    }
    jobs
}

/// Fold simulation reports (in [`conform_jobs`] order) and the
/// axiomatic oracle into a [`ConformReport`]. Only each report's
/// memory image is read; this adapter serves callers that already hold
/// full reports, such as the bench crate's conformance experiments.
///
/// # Errors
///
/// Returns [`EnumError::Executions`] when the oracle cannot
/// enumerate the program within `opts.limits`.
pub fn report_from_runs(
    shape: &CompiledLitmus,
    opts: &ConformOptions,
    reports: &[RunReport],
) -> Result<ConformReport, EnumError> {
    fold_report(shape, opts, None, &|i| reports.get(i).map(|r| r.memory.as_slice()))
}

/// [`report_from_runs`] over a partial sweep: `None` slots (jobs lost
/// to a panic or never run under a tripped budget) simply contribute
/// no observed outcome. Since the verdict is `observed ⊆ allowed`, a
/// partial observed set can only under-report coverage — it never
/// invents a violation.
///
/// # Errors
///
/// Returns the oracle's [`EnumError`] when it cannot enumerate the
/// program within `opts.limits`.
pub fn report_from_partial_runs(
    shape: &CompiledLitmus,
    opts: &ConformOptions,
    reports: &[Option<RunReport>],
) -> Result<ConformReport, EnumError> {
    let image_at = |i: usize| reports.get(i)?.as_ref().map(|r| r.memory.as_slice());
    fold_report(shape, opts, None, &image_at)
}

/// Shared fold: oracle (polling `budget`) + per-config observed sets,
/// with the final memory image of job `i` — the one field of a report
/// an outcome reads — looked up through `image_at` (absent images are
/// skipped).
fn fold_report<'a>(
    shape: &CompiledLitmus,
    opts: &ConformOptions,
    budget: Option<&Arc<Budget>>,
    image_at: &dyn Fn(usize) -> Option<&'a [u64]>,
) -> Result<ConformReport, EnumError> {
    let (allowed, oracle_stats) = allowed_outcomes(shape, &opts.limits, budget, opts.threads)?;
    let per = opts.schedules.max(1);
    let verdicts = opts
        .configs
        .iter()
        .enumerate()
        .map(|(ci, &config)| {
            // A configuration's schedules mostly end in a handful of
            // memory images, and an outcome is a function of the image,
            // so only the distinct images are normalized.
            let images: BTreeSet<&[u64]> =
                (ci * per..(ci + 1) * per).filter_map(image_at).collect();
            let observed: BTreeSet<Outcome> =
                images.into_iter().map(|m| Outcome::from_sim_memory(shape, m)).collect();
            let violations = observed.difference(&allowed).cloned().collect();
            ConfigVerdict { config, observed, violations }
        })
        .collect();
    Ok(ConformReport { name: shape.program.name().to_string(), allowed, oracle_stats, verdicts })
}

/// Run the full conformance loop for one program:
/// [`check_conformance_resilient`] with no resilience options, for
/// callers that want a report or an error.
///
/// # Errors
///
/// Returns [`EnumError::Executions`] when the oracle cannot
/// enumerate the program within `opts.limits` (the simulation side ran
/// by then, but without an allowed set there is no verdict).
///
/// # Panics
///
/// Panics if the program has no threads, and re-raises the panic of
/// the lowest simulation job that panicked on its try and its retry.
pub fn check_conformance(p: &Program, opts: &ConformOptions) -> Result<ConformReport, EnumError> {
    let (out, lost_panic) = conform(p, opts, &ConformResilience::default());
    require_complete(&out.status, lost_panic)?;
    Ok(out.report.expect("a complete run has an allowed set"))
}

/// Resilience options for a conformance run: the shared
/// [`Resilience`] value. The budget reaches the simulation sweep and
/// the axiomatic oracle's enumerator; the fault plan faults simulation
/// jobs under `EngineId::Sweep` and fuzz-campaign rungs under
/// `EngineId::Conform`, never the oracle.
pub type ConformResilience = Resilience;

/// The outcome of a resilient conformance run.
#[derive(Clone)]
pub struct ConformOutcome {
    /// The report, when the oracle produced an allowed set. `None`
    /// only when the oracle itself was exhausted — without an allowed
    /// set there is no verdict.
    pub report: Option<ConformReport>,
    /// How the run ended. `Degraded`'s `lost` names simulation job
    /// indices (in [`conform_jobs`] order) whose observations are
    /// missing; an oracle failure maps to `Inconclusive` with an
    /// empty frontier.
    pub status: RunStatus,
}

/// [`check_conformance`], resilient: the simulation matrix runs
/// through [`run_matrix_map`] (per-job panic isolation + one retry,
/// budget polled before every job attempt, deterministic fault
/// injection), and an oracle enumeration failure becomes a structured
/// `Inconclusive` status instead of an `Err`. Never panics. It equals
/// [`report_from_partial_runs`] over `run_matrix_resilient` of
/// [`conform_jobs`], with the same status.
///
/// A `Degraded` report is still meaningful: lost jobs only shrink the
/// observed sets, so soundness verdicts on the surviving observations
/// remain valid (prefix-soundness — see [`report_from_partial_runs`]).
///
/// # Panics
///
/// Panics if the program has no threads (same contract as
/// [`check_conformance`]).
pub fn check_conformance_resilient(
    p: &Program,
    opts: &ConformOptions,
    res: &ConformResilience,
) -> ConformOutcome {
    conform(p, opts, res).0
}

/// The one conformance body, plus the lowest lost job's panic for
/// [`check_conformance`] to re-raise. Each job keeps only its final
/// memory image, taken out of the report on the worker that ran it, so
/// the rest of the report is dropped there and never reaches the fold.
fn conform(
    p: &Program,
    opts: &ConformOptions,
    res: &ConformResilience,
) -> (ConformOutcome, Option<LostPanic>) {
    let shape = compile(p);
    let jobs = conform_jobs(&shape, opts);
    let matrix = run_matrix_map(&jobs, opts.threads, res, |r: RunReport| r.memory);
    let image_at = |i: usize| matrix.reports.get(i)?.as_deref();
    let out = match fold_report(&shape, opts, res.budget.as_ref(), &image_at) {
        Ok(report) => ConformOutcome { report: Some(report), status: matrix.status },
        Err(reason) => ConformOutcome {
            report: None,
            status: RunStatus::Inconclusive { reason, frontier: Vec::new() },
        },
    };
    (out, matrix.lost_panic)
}

/// Is `p` *demonstrably* unsound under `opts` — i.e. did some
/// configuration observe a disallowed outcome? Oracle overflow counts
/// as "not demonstrated" (the shrinker predicate must only accept
/// programs whose disagreement reproduces).
pub fn is_unsound(p: &Program, opts: &ConformOptions) -> bool {
    !p.threads().is_empty() && matches!(check_conformance(p, opts), Ok(report) if !report.sound())
}

/// The Table-1 use-case corpus as `(name, program)` pairs.
pub fn table1_corpus() -> Vec<(String, Program)> {
    all_tests()
        .into_iter()
        .filter(|t| t.category == Category::UseCase)
        .map(|t| (t.name.to_string(), (t.build)()))
        .collect()
}

/// Conformance over the whole Table-1 corpus, one report per test.
///
/// # Errors
///
/// Propagates the first oracle enumeration failure.
pub fn run_corpus(opts: &ConformOptions) -> Result<Vec<ConformReport>, EnumError> {
    table1_corpus().iter().map(|(_, p)| check_conformance(p, opts)).collect()
}

/// Conformance over the [template corpus](crate::templates), one
/// report per program.
///
/// # Errors
///
/// Propagates the first oracle enumeration failure.
pub fn run_template_corpus(opts: &ConformOptions) -> Result<Vec<ConformReport>, EnumError> {
    crate::templates::template_corpus().iter().map(|(_, p)| check_conformance(p, opts)).collect()
}

/// One line of the corpus table: a test row or the total row. Both
/// render through the same format string, so the table stays aligned
/// by construction.
struct CorpusRow {
    name: String,
    allowed: usize,
    observed: usize,
    coverage: f64,
    drf0_cov: f64,
    sound: bool,
}

impl CorpusRow {
    fn from_report(r: &ConformReport) -> Self {
        CorpusRow {
            name: r.name.clone(),
            allowed: r.allowed.len(),
            observed: r.observed_union().len(),
            coverage: r.coverage(),
            drf0_cov: r.coverage_under(MemoryModel::Drf0),
            sound: r.sound(),
        }
    }

    fn render(&self) -> String {
        format!(
            "{:<26} {:>7} {:>9} {:>9.3} {:>9.3}  {}\n",
            self.name,
            self.allowed,
            self.observed,
            self.coverage,
            self.drf0_cov,
            if self.sound { "SOUND" } else { "VIOLATION" }
        )
    }
}

/// Render corpus reports as the stable text table committed to
/// `results/conform_matrix.txt`.
pub fn render_corpus(reports: &[ConformReport], opts: &ConformOptions) -> String {
    let mut out = String::new();
    out.push_str("Conformance: litmus corpus vs simulator (observed ⊆ allowed)\n");
    let configs: Vec<&str> = opts.configs.iter().map(|c| c.abbrev()).collect();
    out.push_str(&format!(
        "configs: {}   schedules/config: {}   seed: {}\n\n",
        configs.join(" "),
        opts.schedules,
        opts.seed
    ));
    out.push_str(&format!(
        "{:<26} {:>7} {:>9} {:>9} {:>9}  verdict\n",
        "test", "allowed", "observed", "coverage", "drf0-cov"
    ));
    let (mut tot_allowed, mut tot_wit, mut tot_wit0) = (0usize, 0usize, 0usize);
    let mut all_sound = true;
    for r in reports {
        all_sound &= r.sound();
        tot_allowed += r.allowed.len();
        tot_wit += r.witnessed();
        tot_wit0 += r.witnessed_under(MemoryModel::Drf0);
        out.push_str(&CorpusRow::from_report(r).render());
    }
    let agg = |w: usize| if tot_allowed == 0 { 1.0 } else { w as f64 / tot_allowed as f64 };
    let total = CorpusRow {
        name: "total".to_string(),
        allowed: tot_allowed,
        observed: tot_wit,
        coverage: agg(tot_wit),
        drf0_cov: agg(tot_wit0),
        sound: all_sound,
    };
    out.push_str(&total.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::resilience::FaultPlan;
    use drfrlx_core::OpClass;

    fn quick_opts() -> ConformOptions {
        ConformOptions {
            configs: SystemConfig::all().to_vec(),
            schedules: 4,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }

    #[test]
    fn commutative_counter_conforms() {
        let mut p = Program::new("inc2");
        p.thread().rmw(OpClass::Commutative, "c", drfrlx_core::RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Commutative, "c", drfrlx_core::RmwOp::FetchAdd, 1);
        let p = p.build();
        let r = check_conformance(&p, &quick_opts()).unwrap();
        assert!(r.sound(), "two relaxed increments must stay in the SC set");
        // Final memory is always 2; the old values distinguish orders.
        assert!(r.coverage() > 0.0);
    }

    #[test]
    fn jobs_are_config_major_and_share_each_schedules_params() {
        let opts = ConformOptions { schedules: 6, seed: 9, ..ConformOptions::default() };
        let shape = compile(&crate::fuzz::generate(3));
        let jobs = conform_jobs(&shape, &opts);
        let per = opts.schedules;
        assert_eq!(jobs.len(), opts.configs.len() * per);
        let base = SysParams::integrated();
        for s in 0..per {
            let want = format!("{:?}", schedule_params(&base, opts.seed, s));
            for (c, &config) in opts.configs.iter().enumerate() {
                let job = &jobs[c * per + s];
                assert_eq!(job.config, config, "job {}", c * per + s);
                assert!(!job.validate);
                assert!(job.trace.is_none());
                assert_eq!(&*job.workload, shape.program.name());
                assert!(Arc::ptr_eq(&job.workload, &jobs[0].workload), "one shared label");
                assert_eq!(format!("{:?}", job.params), want, "config {config}, schedule {s}");
                // One allocation per schedule, not one clone per job.
                assert!(Arc::ptr_eq(&job.params, &jobs[s].params), "config {config}, schedule {s}");
            }
        }
    }

    #[test]
    fn corpus_has_the_seven_table1_tests() {
        let names: Vec<String> = table1_corpus().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 7);
        assert!(names.contains(&"work_queue".to_string()));
        assert!(names.contains(&"seqlock".to_string()));
    }

    #[test]
    fn resilient_run_matches_the_plain_harness() {
        let opts = quick_opts();
        let mut p = Program::new("pair");
        p.thread().store(OpClass::Paired, "x", 1);
        p.thread().load(OpClass::Paired, "x");
        let p = p.build();
        let plain = check_conformance(&p, &opts).unwrap();
        let out = check_conformance_resilient(&p, &opts, &ConformResilience::default());
        assert_eq!(out.status, RunStatus::Complete);
        let r = out.report.expect("complete run carries a report");
        assert_eq!(r.allowed, plain.allowed);
        assert_eq!(r.sound(), plain.sound());
        for (a, b) in r.verdicts.iter().zip(&plain.verdicts) {
            assert_eq!(a.observed, b.observed, "{}", a.config);
        }
    }

    #[test]
    fn a_lost_simulation_job_degrades_but_stays_sound() {
        use drfrlx_core::resilience::{EngineId, Fault};
        let opts = quick_opts();
        let mut p = Program::new("one");
        p.thread().store(OpClass::Data, "x", 1);
        let p = p.build();
        let res = ConformResilience {
            budget: None,
            // Job 0 panics on both attempts and is lost.
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 0, 2, Fault::Panic)),
        };
        let out = check_conformance_resilient(&p, &opts, &res);
        assert_eq!(out.status, RunStatus::Degraded { lost: vec![0] });
        let r = out.report.expect("a degraded run still has an oracle and a verdict");
        assert!(r.sound(), "missing observations cannot invent a violation");
    }

    #[test]
    fn an_exhausted_oracle_is_inconclusive_not_an_error() {
        use drfrlx_core::resilience::ExhaustReason;
        let opts = ConformOptions {
            limits: EnumLimits { max_executions: 0, ..EnumLimits::default() },
            ..quick_opts()
        };
        let mut p = Program::new("two");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        let p = p.build();
        let out = check_conformance_resilient(&p, &opts, &ConformResilience::default());
        assert!(out.report.is_none());
        match out.status {
            RunStatus::Inconclusive { reason: ExhaustReason::Executions { .. }, .. } => {}
            s => panic!("expected Inconclusive(Executions), got {s:?}"),
        }
    }

    #[test]
    fn the_oracle_polls_the_run_budget() {
        use drfrlx_core::resilience::ExhaustReason;
        // iriw_stress's 4,825 executions overflow the sharding probe, so
        // the oracle's pool polls the budget before its first shard.
        let p = drfrlx_litmus::stress::iriw_stress();
        let budget = Arc::new(Budget::unlimited());
        budget.cancel();
        let res = ConformResilience { budget: Some(budget), fault_plan: None };
        let out = check_conformance_resilient(&p, &quick_opts(), &res);
        assert!(out.report.is_none(), "a cancelled oracle has no allowed set");
        assert_eq!(
            out.status,
            RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, frontier: Vec::new() }
        );
    }

    #[test]
    fn render_is_stable_shape() {
        let opts = quick_opts();
        let mut p = Program::new("one");
        p.thread().store(OpClass::Data, "x", 1);
        let p = p.build();
        let r = check_conformance(&p, &opts).unwrap();
        let text = render_corpus(&[r], &opts);
        assert!(text.contains("one"));
        assert!(text.contains("SOUND"));
        assert!(text.contains("total"));
    }
}
