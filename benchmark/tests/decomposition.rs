//! The traced checker decomposition must equal `check_program_with`
//! over the whole `check_corpus` input set: explored count, every
//! enumeration statistic and every reported race with its description,
//! under every model.

use drfrlx_benchmark::checker::{traced_check, RaceClock};
use drfrlx_benchmark::run::CHECK_GENERATED;
use drfrlx_conform::generate;
use drfrlx_core::checker::{check_program_with, CheckOptions};
use drfrlx_core::exec::Reduction;
use drfrlx_core::program::Program;
use drfrlx_core::MemoryModel;
use drfrlx_litmus::{all_tests, stress_tests};

fn corpus() -> Vec<(Program, Reduction)> {
    let registry =
        all_tests().into_iter().chain(stress_tests()).map(|t| ((t.build)(), t.reduction));
    let generated = (0..CHECK_GENERATED as u64).map(|i| (generate(i), Reduction::SleepSet));
    registry.chain(generated).collect()
}

#[test]
fn traced_decomposition_equals_check_program_with_over_the_corpus() {
    let mut analyzed = 0;
    for (p, reduction) in corpus() {
        for model in MemoryModel::ALL {
            let opts = CheckOptions { threads: 2, reduction, ..CheckOptions::default() };
            let want = check_program_with(&p, model, &opts).expect("corpus fits the limits");
            let clock = RaceClock::default();
            let got = traced_check(&p, model, &opts.limits, reduction, 1, &clock)
                .expect("corpus fits the limits");
            let name = format!("{} under {model}", p.name());
            assert_eq!(got.stats.explored, want.executions, "{name}: explored");
            assert_eq!(got.stats.pruned, want.pruned, "{name}: pruned");
            assert_eq!(got.stats.memo_pruned, want.memo_pruned, "{name}: memo_pruned");
            assert_eq!(got.stats.table_peak, want.table_peak, "{name}: table_peak");
            let want_races: Vec<_> =
                want.races.iter().map(|f| (f.key, f.description.clone())).collect();
            assert_eq!(got.races, want_races, "{name}: races");
            // Every merged execution was analyzed; a discarded serial
            // probe may add more.
            assert!(clock.calls() >= want.executions as u64, "{name}: analyze calls");
            analyzed += clock.calls();
        }
    }
    assert!(analyzed > 0);
}
