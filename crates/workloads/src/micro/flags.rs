//! Flags microbenchmark (non-ordering use case, §3.3, Listing 3).
//!
//! Worker threads poll `stop` with non-ordering loads and raise `dirty`
//! with commutative stores; the main thread (block 0, thread 0) raises
//! `stop`, joins the workers through a paired exit counter, then reads
//! `dirty` with a non-ordering load.
//!
//! Both thread shapes come from the shared `flags` template in
//! [`drfrlx_bridge::templates`] — the same emitter, at single-poll
//! scale, produces the litmus use-case the axiomatic checkers
//! enumerate. The worker's poll loop and main's join loop are unrolled
//! forward with every exit test jumping to the loop's end, so a stopped
//! worker issues no further memory operations; the program carries one
//! worker body and one main body, replicated over the grid by
//! [`ProgramKernel::grid_with_layout`].

use drfrlx_bridge::templates::flags;
use drfrlx_bridge::ProgramKernel;
use drfrlx_core::program::Program;
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Value, WorkItem};

const STOP: u64 = 0;
const DIRTY: u64 = 1;
const EXITED: u64 = 2;

/// The Flags microbenchmark (paper: 90 thread blocks).
#[derive(Debug, Clone)]
pub struct Flags {
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub tpb: usize,
    /// Poll iterations before the main thread raises `stop`.
    pub main_delay: usize,
    /// Upper bound on worker poll iterations (deterministic exit even
    /// if `stop` propagates late).
    pub max_polls: usize,
    kernel: ProgramKernel,
}

impl Flags {
    /// Build the kernel from the `flags` template: one main thread,
    /// `blocks * tpb - 1` workers sharing a single unrolled body.
    pub fn new(blocks: usize, tpb: usize, main_delay: usize, max_polls: usize) -> Flags {
        let mut p = Program::new("Flags");
        let main = flags::main(
            &mut p,
            &flags::Main {
                delay: Some(main_delay as u32),
                stop_class: OpClass::NonOrdering,
                exited_class: OpClass::Paired,
                // Comfortably above the worst-case worker runtime (each
                // worker iteration spans at least one main join poll);
                // the micro-kernel digest pins the resulting timing to
                // the retired state-machine implementation's.
                join_polls: 4 * max_polls + 64,
                join_target: (blocks * tpb - 1) as drfrlx_core::program::Value,
                tail: flags::Tail::PublishDirty(OpClass::NonOrdering),
            },
        );
        let worker = flags::worker(
            &mut p,
            &flags::Worker {
                stop_class: OpClass::NonOrdering,
                dirty_class: OpClass::Commutative,
                polls: max_polls,
                think: 2,
                dirty_every: 4,
                last_poll_works: false,
                observe_poll: false,
                exit: flags::Exit::Fadd(OpClass::Paired),
            },
        );
        p.push_thread(main);
        p.push_thread(worker);
        let p = p.build();
        let layout: Vec<usize> = (0..blocks * tpb).map(|i| usize::from(i != 0)).collect();
        let kernel = ProgramKernel::grid_with_layout(&p, &layout, tpb, 3, 0, |n| match n {
            "stop" => STOP,
            "dirty" => DIRTY,
            _ => EXITED,
        });
        Flags { blocks, tpb, main_delay, max_polls, kernel }
    }
}

impl Default for Flags {
    fn default() -> Self {
        Flags::new(15, 16, 64, 600)
    }
}

impl Kernel for Flags {
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
        if mem[STOP as usize] != 1 {
            return Err("stop flag not raised".into());
        }
        // Main saw dirty (0 or 1) and published dirty + 10.
        let d = mem[DIRTY as usize];
        if d != 10 && d != 11 {
            return Err(format!("dirty endstate {d} not in {{10, 11}}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::SystemConfig;
    use hsim_sys::{run_workload, SysParams};

    #[test]
    fn flags_valid_on_every_config() {
        let k = Flags::new(4, 4, 8, 200);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn workers_share_one_lowered_body() {
        crate::micro::assert_one_body_beside_thread_zero(&Flags::new(3, 4, 8, 16).kernel);
    }

    #[test]
    fn workers_terminate_via_stop_not_poll_cap() {
        // With a long cap and a short delay, workers should exit from
        // seeing the stop flag well before the cap.
        let k = Flags::new(2, 4, 4, 100_000);
        let params = SysParams::integrated();
        let r = run_workload(&k, SystemConfig::from_abbrev("GD0").unwrap(), &params);
        k.validate(&r.memory).unwrap();
        assert!(r.cycles < 2_000_000, "stop flag must end the polling");
    }
}
