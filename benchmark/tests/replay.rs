//! Record and replay of a simulation job: the recorded run must equal
//! an unrecorded one, and replaying the tapes must reproduce every
//! returned cycle and every work-item op.

use drfrlx_benchmark::oracle::SimStats;
use drfrlx_benchmark::replay::{fresh_backend, record, replay_backend, replay_items};
use drfrlx_core::SystemConfig;
use drfrlx_workloads::microbenchmarks;
use hsim_sys::{run_workload, SysParams};

fn small_kernel() -> Box<dyn hsim_gpu::Kernel> {
    // Flags: about 1,800 instructions, all three call kinds and both
    // consistency actions under DRF0.
    microbenchmarks().into_iter().find(|s| s.name == "Flags").expect("Flags is registered").kernel()
}

#[test]
fn replay_reproduces_every_returned_cycle_under_gd0_ddr_and_mdr() {
    let kernel = small_kernel();
    let params = SysParams::integrated();
    for abbrev in ["GD0", "DDR", "MDR"] {
        let config = SystemConfig::from_abbrev(abbrev).expect("known config");
        let plain = run_workload(kernel.as_ref(), config, &params);
        let rec = record(kernel.as_ref(), config, &params);
        assert_eq!(rec.stats, SimStats::of(&plain), "{abbrev}: recording perturbed the run");
        assert_eq!(rec.memory, plain.memory, "{abbrev}");
        assert!(!rec.calls.is_empty(), "{abbrev}: no memory calls recorded");

        for time_acqrel in [false, true] {
            let r = replay_backend(&rec.calls, &mut fresh_backend(config, &params), time_acqrel);
            assert_eq!(r.mismatches, 0, "{abbrev}: replay diverged");
            if time_acqrel {
                let acqrel = rec.calls.iter().filter(|c| c.kind.is_acqrel()).count() as u64;
                assert_eq!(r.acqrel_calls, acqrel, "{abbrev}");
            }
        }
        let items = replay_items(kernel.as_ref(), &rec.items);
        assert_eq!(items.mismatches, 0, "{abbrev}: work-item replay diverged");
        let executed: usize = rec.items.iter().map(|t| t.args.len()).sum();
        assert_eq!(items.calls, executed as u64);
        assert_eq!(rec.items.len(), kernel.blocks() * kernel.threads_per_block());
    }
}

#[test]
fn drf0_issues_more_consistency_actions_than_drfrlx() {
    let kernel = small_kernel();
    let params = SysParams::integrated();
    let count = |abbrev: &str| {
        let config = SystemConfig::from_abbrev(abbrev).expect("known config");
        record(kernel.as_ref(), config, &params).calls.iter().filter(|c| c.kind.is_acqrel()).count()
    };
    assert!(count("GD0") > 0);
    assert!(count("GD0") > count("GDR"));
}

#[test]
fn a_perturbed_tape_is_caught() {
    let kernel = small_kernel();
    let params = SysParams::integrated();
    let config = SystemConfig::from_abbrev("GD0").expect("known config");
    let mut rec = record(kernel.as_ref(), config, &params);
    rec.calls[0].ret += 1;
    let r = replay_backend(&rec.calls, &mut fresh_backend(config, &params), false);
    assert_eq!(r.mismatches, 1);

    let mut swapped = rec.items.clone();
    let tape = swapped
        .iter_mut()
        .find(|t| t.ops.len() > 1 && t.ops[0] != t.ops[1])
        .expect("an item whose first two ops differ");
    tape.ops.swap(0, 1);
    assert!(replay_items(kernel.as_ref(), &swapped).mismatches > 0);

    let mut missing = rec.items;
    missing.pop();
    assert_eq!(replay_items(kernel.as_ref(), &missing).mismatches, 1, "a missing item tape");
}
