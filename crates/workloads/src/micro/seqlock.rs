//! Seqlocks microbenchmark (speculative use case, §3.5, Listing 6).
//!
//! A handful of writers update a multi-word payload under a sequence
//! lock; many readers speculatively load the payload with speculative
//! atomics, bracketed by a paired load of `seq` and the paired
//! "read-don't-modify-write" (`fetch_add 0`), retrying on mismatch.
//!
//! Writer and reader are the shared `seqlock` template of
//! [`drfrlx_bridge::templates`]; the same emitter, at single-section
//! scale with an observe tail, produces the litmus use-case whose
//! torn-snapshot freedom the axiomatic checkers verify exhaustively
//! (that conformance corpus is where the old in-thread tearing
//! assertion now lives). Here the reader's retry loop is unrolled to
//! its exact worst case (`reads * max_retries` attempts) with the
//! section/retry bookkeeping carried in registers, and every attempt
//! guard jumps to the thread's end once the quota of sections is done.

use drfrlx_bridge::templates::seqlock;
use drfrlx_bridge::ProgramKernel;
use drfrlx_core::program::Program;
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Value, WorkItem};

const SEQ: u64 = 0;
const DATA_BASE: u64 = 1;

/// The Seqlocks microbenchmark (paper: 512 thread blocks).
#[derive(Debug, Clone)]
pub struct Seqlocks {
    /// Use one-sided acquire/release for the `seq` accesses instead of
    /// full paired atomics (paper footnote 7 / §7: the reader's seq
    /// accesses can be relaxed to acquire and release ordering).
    pub acqrel: bool,
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block (thread 0 of block 0 writes, the rest read).
    pub tpb: usize,
    /// Payload words.
    pub payload: usize,
    /// Updates the writer performs.
    pub writes: usize,
    /// Successful read-critical-sections per reader.
    pub reads: usize,
    /// Retry cap per read attempt (keeps worst-case runs bounded).
    pub max_retries: usize,
    kernel: ProgramKernel,
}

impl Seqlocks {
    /// Build the kernel from the `seqlock` template: one writer thread
    /// and a single reader body shared by every other grid thread.
    pub fn new(
        acqrel: bool,
        blocks: usize,
        tpb: usize,
        payload: usize,
        writes: usize,
        reads: usize,
        max_retries: usize,
    ) -> Seqlocks {
        let (acq, rel) = if acqrel {
            (OpClass::Acquire, OpClass::Release)
        } else {
            (OpClass::Paired, OpClass::Paired)
        };
        let payloads: Vec<String> = (0..payload).map(|i| format!("d{i}")).collect();
        let mut p = Program::new("SEQ");
        {
            let mut t = p.thread();
            seqlock::writer(
                &mut t,
                &seqlock::Writer {
                    lock: true,
                    lock_class: acq,
                    unlock_class: rel,
                    payload_class: OpClass::Speculative,
                    payloads: payloads.clone(),
                    writes,
                },
                // Section w publishes the snapshot `seq + i` for the
                // release value seq = 2w + 2.
                |w, i| (2 * w + 2 + i) as drfrlx_core::program::Value,
            );
        }
        let reader = seqlock::reader(
            &mut p,
            &seqlock::Reader {
                seq0_class: acq,
                seq1_class: rel,
                payload_class: OpClass::Speculative,
                payloads,
                reads,
                max_retries,
                tail: seqlock::Tail::None,
            },
        );
        p.push_thread(reader);
        let p = p.build();
        let layout: Vec<usize> = (0..blocks * tpb).map(|i| usize::from(i != 0)).collect();
        let kernel =
            ProgramKernel::grid_with_layout(&p, &layout, tpb, 1 + payload, 0, |n| match n {
                "seq" => SEQ,
                d => DATA_BASE + d[1..].parse::<u64>().unwrap(),
            });
        Seqlocks { acqrel, blocks, tpb, payload, writes, reads, max_retries, kernel }
    }
}

impl Default for Seqlocks {
    fn default() -> Self {
        Seqlocks::new(false, 15, 16, 4, 8, 8, 64)
    }
}

impl Kernel for Seqlocks {
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
        // Writer completed all updates: seq is even and equals 2*writes.
        let seq = mem[SEQ as usize];
        if seq != 2 * self.writes as Value {
            return Err(format!("seq: expected {}, got {seq}", 2 * self.writes));
        }
        // Final payload is the last snapshot.
        for i in 0..self.payload {
            let expect = (2 * (self.writes - 1) + 2 + i) as Value;
            let got = mem[DATA_BASE as usize + i];
            if got != expect {
                return Err(format!("payload {i}: expected {expect}, got {got}"));
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

    #[test]
    fn seqlock_valid_and_untorn_on_every_config() {
        let k = Seqlocks::new(false, 4, 4, 3, 4, 4, 64);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn readers_share_one_lowered_body() {
        let k = Seqlocks::new(true, 3, 4, 3, 4, 4, 16);
        crate::micro::assert_one_body_beside_thread_zero(&k.kernel);
    }

    #[test]
    fn relaxed_speculative_loads_help() {
        let k = Seqlocks::default();
        let params = SysParams::integrated();
        let d1 = run_workload(&k, SystemConfig::from_abbrev("DD1").unwrap(), &params);
        let dr = run_workload(&k, SystemConfig::from_abbrev("DDR").unwrap(), &params);
        assert!(dr.cycles <= d1.cycles, "DDR {} > DD1 {}", dr.cycles, d1.cycles);
    }
}
