//! The tracing subsystem, end to end: a traced run never perturbs the
//! simulation, event streams are deterministic, per-kind totals agree
//! with the protocol statistics, the Chrome export is valid JSON, and
//! the GD0-vs-DD0 diff reproduces the paper's Table 4 story.

use drfrlx::bench::json::{parse_json, Json};
use drfrlx::sim::trace::{chrome_trace, Component, EventKind, TraceBuffer};
use drfrlx::sim::{
    run_matrix, run_workload, run_workload_traced, RunReport, SimJob, SysParams, SystemConfig,
};
use drfrlx::workloads::all_workloads;
use std::sync::Arc;

fn spec(name: &str) -> drfrlx::workloads::WorkloadSpec {
    all_workloads().into_iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}"))
}

fn traced(workload: &str, config: &str, capacity: usize) -> RunReport {
    let s = spec(workload);
    let kernel = s.kernel();
    let cfg = SystemConfig::from_abbrev(config).expect("config");
    let r = run_workload_traced(kernel.as_ref(), cfg, &SysParams::integrated(), capacity);
    kernel.validate(&r.memory).expect("functional check");
    r
}

/// Tracing must be an observer: the traced run's timing, statistics
/// and memory image are identical to the untraced run.
#[test]
fn traced_run_equals_untraced_run() {
    for config in ["GD0", "DDR"] {
        let s = spec("HG");
        let kernel = s.kernel();
        let cfg = SystemConfig::from_abbrev(config).unwrap();
        let params = SysParams::integrated();
        let plain = run_workload(kernel.as_ref(), cfg, &params);
        let traced = run_workload_traced(kernel.as_ref(), cfg, &params, 4096);
        assert_eq!(plain.cycles, traced.cycles, "{config}: cycles diverged");
        assert_eq!(plain.counters, traced.counters, "{config}: energy counters diverged");
        assert_eq!(plain.proto, traced.proto, "{config}: protocol stats diverged");
        assert_eq!(plain.memory, traced.memory, "{config}: memory image diverged");
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
    }
}

/// Two traced runs of the same job produce identical event streams.
#[test]
fn traced_runs_are_deterministic() {
    let a = traced("HG", "DD0", 8192);
    let b = traced("HG", "DD0", 8192);
    assert_eq!(a.trace, b.trace, "event streams differ between identical runs");
}

/// Per-kind event totals are exact (ring overflow only drops event
/// *records*), so they must equal the protocol/engine statistics.
#[test]
fn event_totals_match_statistics() {
    for config in ["GD0", "DD0", "DDR"] {
        let r = traced("HG", config, 64); // tiny ring: totals must survive wrap
        let buf = r.trace.as_ref().unwrap();
        let count = |k: EventKind| buf.totals(k).count;
        assert_eq!(count(EventKind::Invalidate), r.proto.invalidation_events, "{config}");
        assert_eq!(
            buf.totals(EventKind::Invalidate).arg_sum,
            r.proto.lines_invalidated,
            "{config}"
        );
        assert_eq!(count(EventKind::SbFlush), r.proto.sb_flushes, "{config}");
        assert_eq!(count(EventKind::L1Hit), r.proto.l1_hits, "{config}");
        assert_eq!(count(EventKind::L1Miss), r.proto.l1_misses, "{config}");
        assert_eq!(count(EventKind::MshrCoalesce), r.proto.mshr_coalesced, "{config}");
        assert_eq!(count(EventKind::AtomicAtL1), r.proto.atomics_at_l1, "{config}");
        assert_eq!(count(EventKind::AtomicAtL2), r.proto.atomics_at_l2, "{config}");
        assert_eq!(count(EventKind::AtomicReuse), r.proto.atomic_l1_reuse, "{config}");
        assert_eq!(count(EventKind::OwnershipTransfer), r.proto.remote_l1_transfers, "{config}");
        assert_eq!(count(EventKind::Writeback), r.proto.writebacks, "{config}");
        assert_eq!(count(EventKind::DramRefill), r.proto.dram_refills, "{config}");
        assert_eq!(r.counters.dram_accesses, r.proto.dram_refills, "{config}");
        assert_eq!(count(EventKind::AtomicOverlap), r.atomics_overlapped, "{config}");
        assert!(buf.len() <= 64);
        assert_eq!(buf.recorded(), buf.len() as u64 + buf.dropped());
    }
}

/// The Chrome export is one valid JSON document with per-component
/// process metadata and one complete ("X") event per retained record.
#[test]
fn chrome_export_is_valid_json() {
    let r = traced("HG", "GD0", 2048);
    let buf = r.trace.as_ref().unwrap();
    let doc = parse_json(&chrome_trace(buf, "HG GD0")).expect("chrome trace parses");

    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(other.get("label").and_then(Json::as_str), Some("HG GD0"));
    assert_eq!(other.get("unit").and_then(Json::as_str), Some("cycles"));
    assert_eq!(other.get("recorded").and_then(Json::as_num), Some(buf.recorded() as f64));

    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    let metadata = events.iter().filter(|e| phase(e) == "M").count();
    let complete = events.iter().filter(|e| phase(e) == "X").count();
    let expected = Component::ALL.len() + usize::from(buf.dropped() > 0);
    assert_eq!(metadata, expected, "process_name per component, plus dropped_events if saturated");
    assert_eq!(complete, buf.len(), "one X event per retained record");
    for e in events.iter().filter(|e| phase(e) == "X") {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_num).is_some());
        assert!(e.get("dur").and_then(Json::as_num).is_some());
        assert!(e.get("pid").and_then(Json::as_num).is_some());
        assert!(e.get("tid").and_then(Json::as_num).is_some());
    }
}

/// Table 4 through the diff lens: on the same workload, GPU coherence
/// under DRF0 performs every atomic at the L2, while DeNovo under DRF0
/// performs them at the L1 (with ownership transfers and MSHR
/// coalescing) and needs fewer L2 round trips — with identical
/// invalidation *event* counts (both are DRF0).
#[test]
fn diff_reproduces_protocol_placement_story() {
    let gd0 = traced("HG", "GD0", 256);
    let dd0 = traced("HG", "DD0", 256);
    let g = gd0.trace.as_ref().unwrap();
    let d = dd0.trace.as_ref().unwrap();

    assert!(g.totals(EventKind::AtomicAtL2).count > 0, "GD0 performs atomics at L2");
    assert_eq!(g.totals(EventKind::AtomicAtL1).count, 0);
    assert!(d.totals(EventKind::AtomicAtL1).count > 0, "DD0 performs atomics at L1");
    assert_eq!(d.totals(EventKind::AtomicAtL2).count, 0);
    assert!(d.totals(EventKind::OwnershipTransfer).count > 0, "DD0 transfers ownership");
    assert!(d.totals(EventKind::MshrCoalesce).count > 0, "DD0 coalesces atomics in MSHRs");
    // Both are DRF0: every paired acquire invalidates.
    assert_eq!(
        g.totals(EventKind::Invalidate).count,
        d.totals(EventKind::Invalidate).count,
        "same model, same invalidation events"
    );
    // Ownership keeps atomics local: fewer L2 accesses and NoC hops.
    let l2 = |b: &TraceBuffer| b.totals(EventKind::L2Access).count;
    let hops = |b: &TraceBuffer| b.totals(EventKind::NocHop).count;
    assert!(l2(d) < l2(g), "DD0 L2 accesses {} !< GD0 {}", l2(d), l2(g));
    assert!(hops(d) < hops(g), "DD0 NoC hops {} !< GD0 {}", hops(d), hops(g));
}

/// Traced jobs ride the sweep engine: `SimJob::traced` produces a
/// buffer per report, and parallel sweeps return the same buffers as
/// serial ones (in job order).
#[test]
fn run_matrix_carries_traces_deterministically() {
    let s = spec("SC");
    let kernel: Arc<dyn drfrlx::sim::gpu::Kernel> = Arc::from(s.kernel());
    let params = SysParams::integrated();
    let jobs: Vec<SimJob> = ["GD0", "DD0"]
        .iter()
        .map(|c| {
            SimJob::new("SC", Arc::clone(&kernel), SystemConfig::from_abbrev(c).unwrap(), &params)
                .traced(1024)
        })
        .collect();
    let serial = run_matrix(&jobs, 1);
    let parallel = run_matrix(&jobs, 2);
    assert_eq!(serial.len(), 2);
    for (a, b) in serial.iter().zip(&parallel) {
        assert!(a.trace.is_some(), "traced job carries a buffer");
        assert_eq!(a.trace, b.trace, "parallel sweep changed the event stream");
        assert_eq!(a.cycles, b.cycles);
    }
}

/// The full Table 4 payload story needs a benchmark with real data
/// reuse: on BC-1, DeNovo's registered lines survive acquires, so DD0
/// drops far fewer lines than GD0. Release-mode only (`--ignored`).
#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn bc1_dd0_invalidates_fewer_lines_than_gd0() {
    let gd0 = traced("BC-1", "GD0", 256);
    let dd0 = traced("BC-1", "DD0", 256);
    let g = gd0.trace.as_ref().unwrap().totals(EventKind::Invalidate);
    let d = dd0.trace.as_ref().unwrap().totals(EventKind::Invalidate);
    assert_eq!(g.count, d.count, "same model, same acquire count");
    assert!(d.arg_sum < g.arg_sum, "DD0 should drop fewer lines: {} !< {}", d.arg_sum, g.arg_sum);
}
