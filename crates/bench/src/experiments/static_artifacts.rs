//! The model-only artifacts: Figure 2, Tables 1–3, the Listing 7 /
//! §3.8 validation and the stress-corpus checker report. Each is a
//! text renderer behind a [`super::StaticArtifact`] with no simulation
//! jobs. The checker-backed ones run on one worker; their reports do
//! not depend on the worker count.

use drfrlx_core::checker::{check_program_with, try_check_program, CheckOptions};
use drfrlx_core::exec::{enumerate_sc, EnumLimits};
use drfrlx_core::pretty::{format_conflict_graph, format_execution};
use drfrlx_core::races::analyze;
use drfrlx_core::syscentric::compare_with_sc;
use drfrlx_core::{check_program, MemoryModel};
use drfrlx_litmus::classic::{figure2a, figure2b};
use drfrlx_litmus::suite::{all_tests, stress_tests, Category};
use drfrlx_workloads::all_workloads;
use hsim_sys::SysParams;
use std::fmt::Write as _;

/// Figure 2: program/conflict graphs and ordering paths, with and
/// without a non-ordering race (`results/fig2.txt`).
pub(super) fn fig2() -> String {
    let mut out = String::new();
    for (label, p) in [("Figure 2(a)", figure2a()), ("Figure 2(b)", figure2b())] {
        let _ = writeln!(out, "==== {label}: {} ====", p.name());
        let execs = enumerate_sc(&p, &EnumLimits::default()).expect("enumerable");
        // Show the execution with the most events (the interesting path).
        let e = execs.iter().max_by_key(|e| e.len()).expect("has executions");
        let _ = writeln!(out, "one SC execution ({} total):", execs.len());
        out.push_str(&format_execution(&p, e));
        out.push_str(&format_conflict_graph(&p, e));
        let mut kinds: Vec<String> = Vec::new();
        for ex in &execs {
            for r in analyze(ex).races() {
                let s = format!("{}", r.kind);
                if !kinds.contains(&s) {
                    kinds.push(s);
                }
            }
        }
        if kinds.is_empty() {
            let _ = writeln!(out, "verdict: no illegal races in any SC execution\n");
        } else {
            let _ = writeln!(out, "verdict: {}\n", kinds.join(", "));
        }
    }
    out
}

/// Table 1: GPU relaxed atomic use cases, with checker verdicts
/// (`results/table1.txt`).
pub(super) fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: GPU relaxed atomic use cases");
    let _ = writeln!(out, "======================================");
    let _ = writeln!(out, "{:24} {:40} DRFrlx verdict", "use case", "description");
    for t in all_tests().iter().filter(|t| t.category == Category::UseCase) {
        let report = check_program(&(t.build)(), MemoryModel::Drfrlx);
        let _ = writeln!(
            out,
            "{:24} {:40} {}",
            t.name,
            t.description,
            if report.is_race_free() { "race-free (SC-centric)" } else { "RACY" }
        );
    }
    out
}

/// Table 2: simulated heterogeneous system parameters
/// (`results/table2.txt`).
pub(super) fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: simulated heterogeneous system parameters");
    let _ = writeln!(out, "===================================================");
    for (k, v) in SysParams::integrated().table2_rows() {
        let _ = writeln!(out, "{k:24} {v}");
    }
    let _ = writeln!(out, "\n(discrete-GPU variant for Figure 1)");
    for (k, v) in SysParams::discrete_gpu().table2_rows() {
        let _ = writeln!(out, "{k:24} {v}");
    }
    out
}

/// Table 3: benchmarks, input sizes, and relaxed atomics used
/// (`results/table3.txt`).
pub(super) fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: benchmarks, inputs, and relaxed atomic classes");
    let _ = writeln!(out, "========================================================");
    let _ = writeln!(
        out,
        "{:8} {:6} {:22} {:34} atomic classes",
        "name", "kind", "paper input", "scaled input"
    );
    for s in all_workloads() {
        let classes: Vec<String> = s.classes.iter().map(|c| format!("{c:?}")).collect();
        let _ = writeln!(
            out,
            "{:8} {:6} {:22} {:34} {}",
            s.name,
            if s.micro { "micro" } else { "bench" },
            s.paper_input,
            s.scaled_input,
            classes.join(", ")
        );
    }
    out
}

/// Listing 7: the programmer-centric model's verdict on every litmus
/// test, plus the system-centric model's SC comparison — the paper's
/// §3.8 validation as one report (`results/listing7.txt`).
pub(super) fn listing7() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Listing 7: programmer-centric + system-centric verdicts");
    let _ = writeln!(out, "========================================================");
    let _ = writeln!(
        out,
        "{:28} {:>5} {:>5} {:>7} {:24} relaxed machine",
        "litmus", "DRF0", "DRF1", "DRFrlx", "DRFrlx races"
    );
    let limits = EnumLimits::default();
    for t in all_tests() {
        let p = (t.build)();
        // One report per model, in `MemoryModel::ALL` order; the last is
        // DRFrlx's, whose race kinds get their own column.
        let reports: Vec<_> = MemoryModel::ALL
            .iter()
            .map(|&m| try_check_program(&p, m, &limits).expect("enumerable"))
            .collect();
        let verdicts: Vec<&str> =
            reports.iter().map(|r| if r.is_race_free() { "ok" } else { "racy" }).collect();
        let kinds: Vec<String> = reports[2].race_kinds().iter().map(|k| k.to_string()).collect();
        let kinds = if kinds.is_empty() { "-".to_string() } else { kinds.join(",") };
        let sc = match t.sc_only {
            None => "(skipped)".to_string(),
            Some(_) => {
                let cmp = compare_with_sc(&p, MemoryModel::Drfrlx, &limits).expect("explorable");
                if cmp.is_sc_only() {
                    "SC results only".to_string()
                } else {
                    format!("{} non-SC results", cmp.non_sc_results.len())
                }
            }
        };
        let _ = writeln!(
            out,
            "{:28} {:>5} {:>5} {:>7} {:24} {}",
            t.name, verdicts[0], verdicts[1], verdicts[2], kinds, sc
        );
    }
    out
}

/// The 4-thread stress corpus under the streaming checker: per-model
/// verdicts with explored/pruned execution counts
/// (`results/checker_stress.txt`). Each test runs under its
/// registry-declared reduction: sleep sets for most, sleep sets plus
/// duplicate-state memoization for the compound programs that are
/// intractable without it.
pub(super) fn checker_stress() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Stress corpus: streaming checker with sleep-set reduction");
    let _ = writeln!(out, "=========================================================");
    let _ = writeln!(
        out,
        "{:24} {:>7} {:10} {:>9} {:>9}",
        "litmus", "model", "verdict", "explored", "pruned"
    );
    for t in stress_tests() {
        let p = (t.build)();
        for model in MemoryModel::ALL {
            let opts = CheckOptions { reduction: t.reduction, ..CheckOptions::default() };
            let r = check_program_with(&p, model, &opts).expect("enumerable under reduction");
            let verdict = if r.is_race_free() { "race-free" } else { "RACY" };
            let model = model.to_string();
            let _ = writeln!(
                out,
                "{:24} {:>7} {:10} {:>9} {:>9}",
                t.name, model, verdict, r.executions, r.pruned
            );
        }
    }
    out
}
