//! Output checks: every op's result is judged against an oracle, and a
//! mismatch counts as a failed op.
//!
//! * Simulation jobs must pass `Kernel::validate` and reproduce their
//!   committed row of `results/fig3.json`, `fig4.json` or
//!   `ext_sssp.json` exactly. The simulator has not been validated
//!   against hardware, so no error figure is reported; its statistics
//!   are held bit-identical instead.
//! * Registry litmus programs must reach the registry's verdict under
//!   each model and, under DRFrlx, its race kinds.
//! * Generated programs are held to the retained reference checker,
//!   run outside the timed passes.
//! * Conformance reports must be complete and sound.

use drfrlx_bench::json::{parse_json, Json};
use drfrlx_conform::{ConformOutcome, ConformReport};
use drfrlx_core::checker::{CheckReport, RaceKey};
use drfrlx_core::{MemoryModel, RaceKind, RunStatus};
use hsim_coherence::ProtoStats;
use hsim_gpu::Kernel;
use hsim_sys::RunReport;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// The committed result files the simulation workloads are held to.
const RESULT_FILES: [&str; 3] = ["fig3.json", "fig4.json", "ext_sssp.json"];

const COUNTER_KEYS: [&str; 7] = [
    "core_ops",
    "scratch_accesses",
    "l1_accesses",
    "l1_tag_ops",
    "l2_accesses",
    "dram_accesses",
    "noc_flit_hops",
];

const PROTO_KEYS: [&str; 8] = [
    "l1_hits",
    "l1_misses",
    "invalidation_events",
    "sb_flushes",
    "atomics_at_l1",
    "atomics_at_l2",
    "mshr_coalesced",
    "remote_l1_transfers",
];

/// The statistics of one simulation job that a result row pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Execution time in cycles.
    pub cycles: u64,
    /// Energy event counters, in [`COUNTER_KEYS`] order.
    pub counters: [u64; 7],
    /// Protocol statistics, in [`PROTO_KEYS`] order.
    pub proto: [u64; 8],
    /// Atomics issued.
    pub atomics: u64,
    /// Atomics overlapped.
    pub atomics_overlapped: u64,
}

impl SimStats {
    /// Assemble from engine results, energy counters (in
    /// [`COUNTER_KEYS`] order) and protocol statistics.
    pub fn new(
        cycles: u64,
        counters: [u64; 7],
        p: &ProtoStats,
        atomics: u64,
        atomics_overlapped: u64,
    ) -> SimStats {
        SimStats {
            cycles,
            counters,
            proto: [
                p.l1_hits,
                p.l1_misses,
                p.invalidation_events,
                p.sb_flushes,
                p.atomics_at_l1,
                p.atomics_at_l2,
                p.mshr_coalesced,
                p.remote_l1_transfers,
            ],
            atomics,
            atomics_overlapped,
        }
    }

    /// The pinned statistics of a simulation report.
    pub fn of(r: &RunReport) -> SimStats {
        let c = &r.counters;
        let counters = [
            c.core_ops,
            c.scratch_accesses,
            c.l1_accesses,
            c.l1_tag_ops,
            c.l2_accesses,
            c.dram_accesses,
            c.noc_flit_hops,
        ];
        SimStats::new(r.cycles, counters, &r.proto, r.atomics, r.atomics_overlapped)
    }

    fn from_row(row: &Json) -> Result<SimStats, String> {
        let num = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_num)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result row lacks a count `{key}`"))
        };
        let section = |key: &str| row.get(key).ok_or_else(|| format!("result row lacks `{key}`"));
        let counters = section("counters")?;
        let proto = section("proto")?;
        let mut out = SimStats {
            cycles: num(row, "cycles")?,
            counters: [0; 7],
            proto: [0; 8],
            atomics: num(row, "atomics")?,
            atomics_overlapped: num(row, "atomics_overlapped")?,
        };
        for (slot, key) in out.counters.iter_mut().zip(COUNTER_KEYS) {
            *slot = num(counters, key)?;
        }
        for (slot, key) in out.proto.iter_mut().zip(PROTO_KEYS) {
            *slot = num(proto, key)?;
        }
        Ok(out)
    }

    /// Describe the first field where `self` (observed) differs from
    /// `want`.
    pub fn diff(&self, want: &SimStats) -> Option<String> {
        let named = |s: &SimStats| -> Vec<(&'static str, u64)> {
            let mut v = vec![
                ("cycles", s.cycles),
                ("atomics", s.atomics),
                ("atomics_overlapped", s.atomics_overlapped),
            ];
            v.extend(COUNTER_KEYS.iter().copied().zip(s.counters));
            v.extend(PROTO_KEYS.iter().copied().zip(s.proto));
            v
        };
        named(self)
            .into_iter()
            .zip(named(want))
            .find(|(a, b)| a.1 != b.1)
            .map(|((k, got), (_, want))| format!("{k} = {got}, expected {want}"))
    }
}

/// Expected statistics keyed by `(workload, config)`.
pub type SimExpectations = HashMap<(String, String), SimStats>;

/// Parse the committed result rows under `results_dir`. Read-only.
///
/// # Errors
///
/// Names the file and line of the first unreadable row.
pub fn load_sim_expectations(results_dir: &Path) -> Result<SimExpectations, String> {
    let mut out = HashMap::new();
    for file in RESULT_FILES {
        let path = results_dir.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let at = || format!("{}:{}", path.display(), i + 1);
            let row = parse_json(line).map_err(|e| format!("{}: {e}", at()))?;
            let key = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: no `{k}`", at()))
            };
            let stats = SimStats::from_row(&row).map_err(|e| format!("{}: {e}", at()))?;
            out.insert((key("workload")?, key("config")?), stats);
        }
    }
    Ok(out)
}

/// Judge one simulation job: functional validation, then the pinned
/// statistics.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn judge_sim(kernel: &dyn Kernel, report: &RunReport, want: &SimStats) -> Result<(), String> {
    kernel.validate(&report.memory).map_err(|e| format!("validate: {e}"))?;
    match SimStats::of(report).diff(want) {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

/// What the corpus registry expects of one litmus program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryExpect {
    /// Race-freedom under DRF0, DRF1 and DRFrlx.
    pub race_free: [bool; 3],
    /// Race kinds under DRFrlx, sorted.
    pub drfrlx_kinds: Vec<RaceKind>,
}

/// Judge the three reports (DRF0, DRF1, DRFrlx order) of a registry
/// program.
///
/// # Errors
///
/// Describes the first model whose verdict or kinds differ.
pub fn judge_registry(reports: &[CheckReport], want: &RegistryExpect) -> Result<(), String> {
    if reports.len() != MemoryModel::ALL.len() {
        return Err(format!("{} reports for {} models", reports.len(), MemoryModel::ALL.len()));
    }
    for ((r, model), race_free) in reports.iter().zip(MemoryModel::ALL).zip(want.race_free) {
        if r.is_race_free() != race_free {
            return Err(format!("{model}: race_free = {}, expected {race_free}", r.is_race_free()));
        }
        if model == MemoryModel::Drfrlx && r.race_kinds() != want.drfrlx_kinds {
            return Err(format!(
                "{model}: race kinds {:?}, expected {:?}",
                r.race_kinds(),
                want.drfrlx_kinds
            ));
        }
    }
    Ok(())
}

/// The parts of a check report compared against the reference checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// The verdict.
    pub race_free: bool,
    /// Distinct race kinds, sorted.
    pub kinds: Vec<RaceKind>,
    /// Static race keys.
    pub keys: BTreeSet<RaceKey>,
}

impl CheckSummary {
    /// Summarize a report.
    pub fn of(r: &CheckReport) -> CheckSummary {
        CheckSummary {
            race_free: r.is_race_free(),
            kinds: r.race_kinds(),
            keys: r.races.iter().map(|f| f.key).collect(),
        }
    }
}

/// Judge a streaming check against the reference checker's report of
/// the same program and model. The streaming checker stops once every
/// attainable race kind has a witness, so its keys may be a subset of
/// the reference's; verdict and kinds must be equal.
///
/// # Errors
///
/// Describes the first difference.
pub fn judge_against_reference(got: &CheckSummary, reference: &CheckSummary) -> Result<(), String> {
    if got.race_free != reference.race_free {
        return Err(format!(
            "race_free = {}, reference says {}",
            got.race_free, reference.race_free
        ));
    }
    if got.kinds != reference.kinds {
        return Err(format!("race kinds {:?}, reference {:?}", got.kinds, reference.kinds));
    }
    if let Some(k) = got.keys.difference(&reference.keys).next() {
        return Err(format!("race {k:?} is not a reference race"));
    }
    Ok(())
}

/// Judge a conformance run of fuzz program `seed`: the run must be
/// complete and every observed outcome must be allowed. Soundness is
/// recomputed from the observed and allowed sets, not read from the
/// report's own violation lists.
///
/// # Errors
///
/// Names the seed and the first problem: an oracle overflow, a lost
/// job, or a disallowed outcome.
pub fn judge_conform(seed: u64, out: &ConformOutcome) -> Result<(), String> {
    let Some(report) = &out.report else {
        return Err(format!("fuzz seed {seed}: oracle overflow ({})", out.status));
    };
    if out.status != RunStatus::Complete {
        return Err(format!("fuzz seed {seed}: {}", out.status));
    }
    judge_conform_report(seed, report)
}

/// The soundness half of [`judge_conform`].
///
/// # Errors
///
/// Names the seed, configuration and the first disallowed outcome.
pub fn judge_conform_report(seed: u64, report: &ConformReport) -> Result<(), String> {
    for v in &report.verdicts {
        if let Some(o) = v.observed.difference(&report.allowed).next() {
            return Err(format!(
                "fuzz seed {seed}: {} observed disallowed outcome {}",
                v.config,
                o.render()
            ));
        }
    }
    Ok(())
}
