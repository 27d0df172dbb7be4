//! Histogram microbenchmarks (Event Counter use case, §3.2 / §4.4).
//!
//! * [`Hist`] — each thread bins its values in the scratchpad first,
//!   then pushes the per-block sub-histogram into the global one with
//!   commutative fetch-adds (Podlozhnyuk's CUDA histogram). Few global
//!   atomics → little for DRFrlx to overlap.
//! * [`HistGlobal`] — every value increments the global bin directly:
//!   an atomic storm with high contention.
//! * [`HistGlobalNonOrder`] — the *read* side of Listing 2's bottom:
//!   threads read the final bin values with non-ordering atomic loads
//!   (the update portion is excluded, §4.4). Under DeNovo, atomic
//!   loads take ownership, so bins ping-pong between L1s — the case
//!   where DD0 loses to GD0 in Figure 3.
//!
//! All three are instantiations of the `hist` templates in
//! [`drfrlx_bridge::templates`] (the scratch/barrier/merge shape, the
//! global-RMW shape, the non-ordering read walk). The per-value bin
//! assignment stays here — the templates take it as a closure — so the
//! kernels share their `expected()` oracle with the emitted programs by
//! construction.
//!
//! Each grid thread is emitted into its own one-thread program and
//! lowered at once by [`GridBuilder`], so no code holds the unrolled
//! grid: the full-size H would be ~500k instructions over 122,880
//! input locations. The tests pin the result to [`ProgramKernel::grid`]
//! on the whole program.

use crate::util::SplitMix64;
use drfrlx_bridge::templates::hist;
use drfrlx_bridge::{GridBuilder, ProgramKernel};
use drfrlx_core::program::Program;
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Value, WorkItem};

/// Memory map: `[0, bins)` = global histogram; `[bins, ...)` = input
/// values.
fn input_base(bins: usize) -> u64 {
    bins as u64
}

/// Generate the deterministic input stream for `(block, thread)`.
fn input_of(seed: u64, block: usize, thread: usize, i: usize, bins: usize) -> Value {
    let mut rng =
        SplitMix64::new(seed ^ ((block as u64) << 32) ^ ((thread as u64) << 16) ^ i as u64);
    rng.below(bins as u64)
}

/// Common histogram shape.
#[derive(Debug, Clone)]
pub struct HistParams {
    /// Number of bins (paper: 256).
    pub bins: usize,
    /// Values binned per thread.
    pub per_thread: usize,
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub tpb: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for HistParams {
    fn default() -> Self {
        HistParams { bins: 256, per_thread: 64, blocks: 15, tpb: 32, seed: 0xD1CE }
    }
}

impl HistParams {
    /// Bin addressing for the templates: global bin `b{n}` at word `n`,
    /// input value `i{k}` at word `bins + k`.
    fn addr_of(&self) -> impl Fn(&str) -> u64 {
        let bins = self.bins;
        move |n: &str| {
            if let Some(b) = n.strip_prefix('b') {
                b.parse().unwrap()
            } else {
                input_base(bins) + n[1..].parse::<u64>().unwrap()
            }
        }
    }

    fn expected(&self) -> Vec<Value> {
        let mut bins = vec![0; self.bins];
        for b in 0..self.blocks {
            for t in 0..self.tpb {
                for i in 0..self.per_thread {
                    bins[input_of(self.seed, b, t, i, self.bins) as usize] += 1;
                }
            }
        }
        bins
    }

    fn validate_bins(&self, mem: &[Value]) -> Result<(), String> {
        let expected = self.expected();
        for (i, &e) in expected.iter().enumerate() {
            if mem[i] != e {
                return Err(format!("bin {i}: expected {e}, got {}", mem[i]));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Hist (H): local scratchpad binning, then global merge.
// ---------------------------------------------------------------------

/// The locally-binned histogram.
#[derive(Debug, Clone)]
pub struct Hist {
    /// Shape parameters.
    pub params: HistParams,
    kernel: ProgramKernel,
}

impl Hist {
    /// Build the kernel: each thread bins into a private scratch region
    /// (as the paper's per-thread local binning does) so scratch updates
    /// never race; after the block barrier, thread `t` merges bins
    /// `t, t + tpb, ...` with one commutative add per non-empty bin.
    pub fn new(params: HistParams) -> Hist {
        let shape = hist::Shape {
            bins: params.bins,
            per_thread: params.per_thread,
            tpb: params.tpb,
            merge_class: OpClass::Commutative,
        };
        let seed = params.seed;
        let bins = params.bins;
        let bin_of = move |b: usize, t: usize, i: usize| input_of(seed, b, t, i, bins) as usize;
        let memory = params.bins + params.blocks * params.tpb * params.per_thread;
        let scratch = params.tpb * params.bins;
        let mut grid = GridBuilder::new("H", params.tpb, memory, scratch, params.addr_of());
        for block in 0..params.blocks {
            for thread in 0..params.tpb {
                grid.thread(|p| {
                    let t = hist::local_thread(p, &shape, block, thread, &bin_of);
                    p.push_thread(t);
                });
            }
        }
        Hist { params, kernel: grid.finish() }
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new(HistParams::default())
    }
}

impl Kernel for Hist {
    fn name(&self) -> String {
        self.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.kernel.threads_per_block()
    }
    fn scratch_words(&self) -> usize {
        self.kernel.scratch_words()
    }
    fn memory_words(&self) -> usize {
        self.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        self.params.validate_bins(mem)
    }
}

// ---------------------------------------------------------------------
// Hist_global (HG): every value goes straight to the global bins.
// ---------------------------------------------------------------------

/// The all-global histogram.
#[derive(Debug, Clone)]
pub struct HistGlobal {
    /// Shape parameters.
    pub params: HistParams,
    /// Class annotation on the updates (Table 3: commutative; the
    /// acquire/release ablation compares `Paired` against `Release` —
    /// an increment has nothing to acquire, so the release-only RMW
    /// keeps the input lines in the L1).
    pub update_class: OpClass,
    kernel: ProgramKernel,
}

impl HistGlobal {
    /// Build the kernel: one `update_class` fetch-add straight to the
    /// global bin per value.
    pub fn new(params: HistParams, update_class: OpClass) -> HistGlobal {
        let shape = hist::Shape {
            bins: params.bins,
            per_thread: params.per_thread,
            tpb: params.tpb,
            merge_class: update_class,
        };
        let seed = params.seed;
        let bins = params.bins;
        let bin_of = move |b: usize, t: usize, i: usize| input_of(seed, b, t, i, bins) as usize;
        let memory = params.bins + params.blocks * params.tpb * params.per_thread;
        let mut grid = GridBuilder::new("HG", params.tpb, memory, 0, params.addr_of());
        for block in 0..params.blocks {
            for thread in 0..params.tpb {
                grid.thread(|p| {
                    let t = hist::global_thread(p, &shape, block, thread, update_class, &bin_of);
                    p.push_thread(t);
                });
            }
        }
        HistGlobal { params, update_class, kernel: grid.finish() }
    }
}

impl Default for HistGlobal {
    fn default() -> Self {
        HistGlobal::new(HistParams::default(), OpClass::Commutative)
    }
}

impl Kernel for HistGlobal {
    fn name(&self) -> String {
        self.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.kernel.threads_per_block()
    }
    fn memory_words(&self) -> usize {
        self.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        self.params.validate_bins(mem)
    }
}

// ---------------------------------------------------------------------
// HG-NO: read the final bins with non-ordering atomic loads.
// ---------------------------------------------------------------------

/// The bin-reading phase with non-ordering atomics.
///
/// Threads read scattered, mostly-disjoint bins (a hashed stride), so
/// an atomic load rarely finds its line already owned by its own CU.
/// Under DeNovo every read drags ownership across the mesh (the §6
/// "overhead of obtaining ownership from a remote core"), while GPU
/// coherence just round-trips to the home L2 bank — this is the
/// microbenchmark where DD0 loses to GD0 in Figure 3.
#[derive(Debug, Clone)]
pub struct HistGlobalNonOrder {
    /// Shape parameters: `bins` is the table size, `per_thread` the
    /// reads issued per thread.
    pub params: HistParams,
    kernel: ProgramKernel,
}

impl HistGlobalNonOrder {
    /// Build the kernel: a pre-populated histogram walked with
    /// non-ordering atomic loads (the update phase is excluded).
    pub fn new(params: HistParams) -> HistGlobalNonOrder {
        let threads = params.blocks * params.tpb;
        let mut grid = GridBuilder::new("HG-NO", params.tpb, params.bins, 0, params.addr_of());
        for gid in 0..threads {
            grid.thread(|p| {
                let t = hist::nonorder_thread(p, params.bins, params.per_thread, gid, threads);
                p.push_thread(t);
                // The first thread's program carries the table's
                // initial values, read or not.
                if gid == 0 {
                    init_table(p, params.bins);
                }
            });
        }
        HistGlobalNonOrder { params, kernel: grid.finish() }
    }
}

/// HG-NO's pre-populated table: bin `j` holds `j % 7 + 1`.
fn init_table(p: &mut Program, bins: usize) {
    for j in 0..bins {
        p.set_init(&format!("b{j}"), (j % 7 + 1) as i64);
    }
}

impl Default for HistGlobalNonOrder {
    fn default() -> Self {
        HistGlobalNonOrder::new(HistParams { bins: 4096, per_thread: 64, ..HistParams::default() })
    }
}

impl Kernel for HistGlobalNonOrder {
    fn name(&self) -> String {
        self.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.kernel.threads_per_block()
    }
    fn memory_words(&self) -> usize {
        self.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        // Read-only: bins must be untouched.
        for (i, &bin) in mem.iter().enumerate().take(self.params.bins) {
            if bin != (i % 7 + 1) as Value {
                return Err(format!("bin {i} was modified"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::SystemConfig;
    use hsim_sys::{run_workload, SysParams};

    fn small() -> HistParams {
        HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 }
    }

    /// The three histograms lowered the other way: every thread into
    /// one whole program, then [`ProgramKernel::grid`].
    fn whole_program(name: &str, params: &HistParams) -> ProgramKernel {
        let (seed, bins) = (params.seed, params.bins);
        let bin_of = move |b: usize, t: usize, i: usize| input_of(seed, b, t, i, bins) as usize;
        let shape = |merge_class| hist::Shape {
            bins,
            per_thread: params.per_thread,
            tpb: params.tpb,
            merge_class,
        };
        let threads = params.blocks * params.tpb;
        let inputs = bins + threads * params.per_thread;
        let mut p = Program::new(name);
        for gid in 0..threads {
            let (block, thread) = (gid / params.tpb, gid % params.tpb);
            let t = match name {
                "H" => {
                    hist::local_thread(&mut p, &shape(OpClass::Commutative), block, thread, &bin_of)
                }
                "HG" => hist::global_thread(
                    &mut p,
                    &shape(OpClass::Commutative),
                    block,
                    thread,
                    OpClass::Commutative,
                    &bin_of,
                ),
                _ => hist::nonorder_thread(&mut p, bins, params.per_thread, gid, threads),
            };
            p.push_thread(t);
        }
        let (memory, scratch) = match name {
            "H" => (inputs, params.tpb * bins),
            "HG" => (inputs, 0),
            _ => {
                init_table(&mut p, bins);
                (bins, 0)
            }
        };
        ProgramKernel::grid(&p.build(), params.tpb, memory, scratch, params.addr_of())
    }

    /// The three kernels as built thread by thread.
    fn thread_by_thread(params: &HistParams) -> [(&'static str, ProgramKernel); 3] {
        [
            ("H", Hist::new(params.clone()).kernel),
            ("HG", HistGlobal::new(params.clone(), OpClass::Commutative).kernel),
            ("HG-NO", HistGlobalNonOrder::new(params.clone()).kernel),
        ]
    }

    /// FNV-1a over `k`'s `Debug` text as it is written, so a full-size
    /// kernel's text is never held whole.
    fn debug_digest(k: &ProgramKernel) -> u64 {
        use std::fmt::Write as _;
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        write!(h, "{k:?}").unwrap();
        h.0
    }

    #[test]
    fn thread_by_thread_lowering_equals_the_whole_program_lowering() {
        let shapes = [
            small(),
            HistParams { bins: 16, per_thread: 5, blocks: 3, tpb: 2, seed: 7 },
            HistParams { bins: 64, per_thread: 3, blocks: 2, tpb: 8, seed: 0xD1CE },
        ];
        for params in shapes {
            for (name, k) in thread_by_thread(&params) {
                let whole = whole_program(name, &params);
                assert_eq!(format!("{k:?}"), format!("{whole:?}"), "{name} {params:?}");
            }
        }
    }

    #[test]
    fn thread_by_thread_kernels_run_like_the_whole_program_ones() {
        let params = SysParams::integrated();
        for (name, k) in thread_by_thread(&small()) {
            let whole = whole_program(name, &small());
            for cfg in SystemConfig::all() {
                let (a, b) = (run_workload(&k, cfg, &params), run_workload(&whole, cfg, &params));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name} under {cfg}");
            }
        }
    }

    #[test]
    #[ignore = "full-size H; run explicitly in release"]
    fn registry_h_lowers_thread_by_thread_like_the_whole_program() {
        let params = HistParams { per_thread: 256, ..HistParams::default() };
        let k = Hist::new(params.clone()).kernel;
        let registry = crate::microbenchmarks().into_iter().find(|s| s.name == "H").unwrap();
        let h = registry.kernel();
        assert_eq!(
            (h.blocks(), h.threads_per_block(), h.memory_words(), h.scratch_words()),
            (k.blocks(), k.threads_per_block(), k.memory_words(), k.scratch_words()),
            "the registry's H has this shape"
        );
        drop(h);
        assert_eq!(debug_digest(&k), debug_digest(&whole_program("H", &params)));
    }

    #[test]
    fn hist_is_functionally_correct_on_every_config() {
        let k = Hist::new(small());
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_is_functionally_correct_on_every_config() {
        let k = HistGlobal::new(small(), OpClass::Commutative);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_no_reads_do_not_modify() {
        let k = HistGlobalNonOrder::new(small());
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_has_many_more_atomics_than_h() {
        // Many values over few bins: H merges each thread's nonzero
        // bins once, HG pays one atomic per value.
        let p = HistParams { bins: 16, per_thread: 64, blocks: 4, tpb: 4, seed: 1 };
        let params = SysParams::integrated();
        let cfg = SystemConfig::from_abbrev("GD0").unwrap();
        let h = run_workload(&Hist::new(p.clone()), cfg, &params);
        let hg = run_workload(&HistGlobal::new(p, OpClass::Commutative), cfg, &params);
        assert!(hg.atomics > 2 * h.atomics, "HG {} vs H {} atomics", hg.atomics, h.atomics);
    }

    #[test]
    fn hist_uses_the_scratchpad() {
        let params = SysParams::integrated();
        let cfg = SystemConfig::from_abbrev("GD0").unwrap();
        let h = run_workload(&Hist::new(small()), cfg, &params);
        assert!(h.counters.scratch_accesses > 0);
        let hg = run_workload(&HistGlobal::new(small(), OpClass::Commutative), cfg, &params);
        assert_eq!(hg.counters.scratch_accesses, 0);
    }
}
