//! Run PageRank on a synthetic contact-network graph under all six
//! protocol x consistency-model configurations and report the paper's
//! headline effect: relaxed atomics pay off most when frequent atomics
//! meet high data reuse.
//!
//! Run with `cargo run --release --example pagerank_showdown`.

use drfrlx::sim::gpu::Kernel;
use drfrlx::sim::{default_threads, run_matrix, six_config_jobs, SysParams};
use drfrlx::workloads::{graphs, pagerank::PageRank};
use std::sync::Arc;

fn main() {
    let graph = graphs::contact_like("demo-contact", 768, 3, 7);
    println!(
        "PageRank on {} ({} vertices, {} edges, max degree {})",
        graph.name,
        graph.verts(),
        graph.num_edges(),
        graph.max_degree()
    );
    let pr = PageRank::new(graph, 2, 15, 16);
    let params = SysParams::integrated();
    let jobs = six_config_jobs("PR", Arc::new(pr.clone()), &params, false);
    let threads = default_threads().unwrap_or_else(|e| panic!("{e}"));
    let reports = run_matrix(&jobs, threads);
    let base = reports[0].cycles as f64;
    println!(
        "{:6} {:>10} {:>8} {:>10} {:>12}",
        "config", "cycles", "norm", "atomics", "overlapped"
    );
    for r in &reports {
        pr.validate(&r.memory).expect("fixed-point ranks match the sequential oracle");
        println!(
            "{:6} {:>10} {:>8.3} {:>10} {:>12}",
            r.config.abbrev(),
            r.cycles,
            r.cycles as f64 / base,
            r.atomics,
            r.atomics_overlapped
        );
    }
    println!("\nAll six runs produced bit-identical PageRank vectors — the");
    println!("commutative labeling relaxes ordering, never atomicity.");
}
