//! # hsim-sys — the full heterogeneous system
//!
//! Assembles the substrate crates into the paper's evaluated platform
//! (§4.1, Table 2): 15 GPU CUs + 1 CPU core on a 4×4 mesh, private
//! 32 KB L1s + scratchpads, a 16-bank 4 MB NUCA L2, and the six
//! {GPU, DeNovo} × {DRF0, DRF1, DRFrlx} configurations (§4.3:
//! GD0, GD1, GDR, DD0, DD1, DDR).
//!
//! ```no_run
//! use hsim_sys::{run_workload, SysParams};
//! use drfrlx_core::SystemConfig;
//! # fn kernel() -> Box<dyn hsim_gpu::Kernel> { unimplemented!() }
//!
//! let params = SysParams::integrated();
//! let report = run_workload(kernel().as_ref(), SystemConfig::from_abbrev("DDR").unwrap(), &params);
//! println!("{} cycles, {}", report.cycles, report.energy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod run;
mod sweep;

pub use backend::CoherenceBackend;
pub use config::SysParams;
pub use run::{run_workload, run_workload_traced, total_ratio, RunReport};
pub use sweep::{
    config_jobs, default_threads, extended_config_jobs, run_matrix, run_matrix_map,
    run_matrix_resilient, six_config_jobs, MatrixOutcome, MatrixResilience, SimJob,
};

pub use drfrlx_core::{MemoryModel, Protocol, SystemConfig};
pub use hsim_trace::{
    chrome_trace, render_diff, render_profile, Component, EventKind, KindTotals, NoTrace,
    SharedTracer, Trace, TraceBuffer, TraceEvent,
};
