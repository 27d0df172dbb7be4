//! Every oracle can fail: a perturbed result row, a flipped race-free
//! expectation, a race the reference does not know, and an injected
//! unsound outcome each turn a passing op into a failed one.

use drfrlx_benchmark::oracle::{
    judge_against_reference, judge_conform, judge_registry, judge_sim, load_sim_expectations,
    CheckSummary, RegistryExpect,
};
use drfrlx_benchmark::run::results_dir;
use drfrlx_conform::{check_conformance_resilient, ConformOptions, ConformResilience, Outcome};
use drfrlx_core::checker::{check_program_reference, check_program_with, CheckOptions};
use drfrlx_core::exec::EnumLimits;
use drfrlx_core::{MemoryModel, RaceKind, RunStatus, SystemConfig};
use drfrlx_litmus::all_tests;
use drfrlx_workloads::microbenchmarks;
use hsim_sys::{run_workload, SysParams};

#[test]
fn a_perturbed_result_row_fails_the_sim_op() {
    let expected = load_sim_expectations(&results_dir()).expect("committed results parse");
    assert_eq!(expected.len(), 18 * 6, "fig3 + fig4 + ext_sssp rows");
    let kernel = microbenchmarks()
        .into_iter()
        .find(|s| s.name == "Flags")
        .expect("Flags is registered")
        .kernel();
    let config = SystemConfig::from_abbrev("GD0").expect("known config");
    let report = run_workload(kernel.as_ref(), config, &SysParams::integrated());
    let want = &expected[&("Flags".to_string(), "GD0".to_string())];
    judge_sim(kernel.as_ref(), &report, want).expect("the committed row matches");

    let mut cycles = want.clone();
    cycles.cycles += 1;
    let err = judge_sim(kernel.as_ref(), &report, &cycles).unwrap_err();
    assert!(err.contains("cycles"), "{err}");

    let mut proto = want.clone();
    proto.proto[7] += 1;
    let err = judge_sim(kernel.as_ref(), &report, &proto).unwrap_err();
    assert!(err.contains("remote_l1_transfers"), "{err}");

    let mut memory = report.clone();
    memory.memory.iter_mut().for_each(|w| *w = w.wrapping_add(1));
    let err = judge_sim(kernel.as_ref(), &memory, want).unwrap_err();
    assert!(err.starts_with("validate"), "{err}");
}

#[test]
fn a_flipped_race_free_expectation_fails_the_check_op() {
    let t = all_tests().into_iter().find(|t| t.name == "mp_unpaired").expect("registered");
    let p = (t.build)();
    let reports: Vec<_> = MemoryModel::ALL
        .iter()
        .map(|&m| check_program_with(&p, m, &CheckOptions::default()).expect("fits limits"))
        .collect();
    let mut kinds = t.drfrlx_kinds.to_vec();
    kinds.sort();
    let want = RegistryExpect { race_free: t.race_free, drfrlx_kinds: kinds };
    judge_registry(&reports, &want).expect("the registry expectation holds");

    for model in 0..3 {
        let mut flipped = want.clone();
        flipped.race_free[model] = !flipped.race_free[model];
        assert!(judge_registry(&reports, &flipped).is_err(), "flipped model {model}");
    }
    let mut wrong_kinds = want.clone();
    wrong_kinds.drfrlx_kinds = vec![RaceKind::Quantum];
    assert!(judge_registry(&reports, &wrong_kinds).is_err());
}

#[test]
fn a_race_the_reference_does_not_know_fails_a_generated_check() {
    let p = drfrlx_conform::generate(3);
    let limits = EnumLimits::default();
    for model in MemoryModel::ALL {
        let got = CheckSummary::of(
            &check_program_with(&p, model, &CheckOptions::default()).expect("fits limits"),
        );
        let reference =
            CheckSummary::of(&check_program_reference(&p, model, &limits).expect("fits limits"));
        judge_against_reference(&got, &reference).expect("streaming agrees with the reference");

        let mut extra = got.clone();
        extra.keys.insert((RaceKind::Speculative, (9, 9), (9, 10)));
        assert!(judge_against_reference(&extra, &reference).is_err());
        let mut flipped = got.clone();
        flipped.race_free = !flipped.race_free;
        assert!(judge_against_reference(&flipped, &reference).is_err());
    }
}

#[test]
fn an_injected_unsound_outcome_fails_the_conform_op() {
    let opts = ConformOptions {
        configs: SystemConfig::all().to_vec(),
        schedules: 4,
        ..ConformOptions::default()
    };
    let seed = 11;
    let p = drfrlx_conform::generate(seed);
    let out = check_conformance_resilient(&p, &opts, &ConformResilience::default());
    judge_conform(seed, &out).expect("the simulator conforms");

    let mut unsound = out.clone();
    let report = unsound.report.as_mut().expect("a complete run has a report");
    let shape = &report.allowed.iter().next().expect("an allowed outcome").clone();
    let bogus = Outcome { mem: vec![i64::MIN; shape.mem.len()], regs: shape.regs.clone() };
    report.verdicts[0].observed.insert(bogus);
    let err = judge_conform(seed, &unsound).unwrap_err();
    assert!(err.contains("disallowed"), "{err}");
    assert!(err.contains(&seed.to_string()), "the failure names its seed: {err}");

    let mut overflow = out.clone();
    overflow.report = None;
    assert!(judge_conform(seed, &overflow).unwrap_err().contains("oracle overflow"));

    let mut degraded = out;
    degraded.status = RunStatus::Degraded { lost: vec![0] };
    assert!(judge_conform(seed, &degraded).is_err());
}
