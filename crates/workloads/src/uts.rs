//! UTS — Unbalanced Tree Search (§4.4, Table 3: unpaired atomics).
//!
//! Dynamic load balancing over a shared work queue, the paper's Work
//! Queue use case (Listing 1) at benchmark scale: workers poll the
//! queue occupancy with cheap **unpaired** loads (no L1 invalidation,
//! no store-buffer flush under DRF1/DRFrlx) and fall back to paired
//! atomics only to actually claim or publish work.
//!
//! The unbalanced tree is precomputed deterministically (geometric
//! branching from a seed, as in the UTS benchmark); traversal *order*
//! varies with timing, but every node is processed exactly once, which
//! the kernel validates with per-node visit counters.

use crate::util::SplitMix64;
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Op, RmwKind, Value, WorkItem};
use std::sync::Arc;

/// A precomputed unbalanced tree in CSR-like form.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Child-list offsets per node (`nodes + 1`).
    pub offsets: Vec<u32>,
    /// Concatenated child ids.
    pub children: Vec<u32>,
}

impl Tree {
    /// Generate a tree of exactly `nodes` nodes with geometric
    /// branching (up to `max_kids` children, biased to leaves —
    /// unbalanced like UTS' geometric distribution).
    pub fn generate(nodes: usize, max_kids: usize, seed: u64) -> Tree {
        let mut rng = SplitMix64::new(seed);
        let mut kids: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut next = 1u32;
        let mut frontier = vec![0u32];
        while (next as usize) < nodes && !frontier.is_empty() {
            let parent = frontier.remove(0);
            // Geometric-ish: 0 children with p ~ 1/2, else 1..max_kids.
            let n = if rng.below(2) == 0 { 0 } else { 1 + rng.below(max_kids as u64) as usize };
            for _ in 0..n {
                if (next as usize) >= nodes {
                    break;
                }
                kids[parent as usize].push(next);
                frontier.push(next);
                next += 1;
            }
            if frontier.is_empty() && (next as usize) < nodes {
                // Keep growing from the last allocated node.
                frontier.push(next - 1);
            }
        }
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut children = Vec::new();
        offsets.push(0);
        for k in kids {
            children.extend_from_slice(&k);
            offsets.push(children.len() as u32);
        }
        Tree { offsets, children }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The UTS kernel (paper input: 16K nodes; default scaled to 2K).
#[derive(Debug, Clone)]
pub struct Uts {
    tree: Arc<Tree>,
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub tpb: usize,
    /// ALU work per processed node.
    pub work_per_node: u32,
}

/// Memory map: `head(0) | alloc(1) | processed(2) | tasks[n] |
/// ready[n] | visited[n] | child offsets[n+1] | children[...]`.
struct Map {
    n: usize,
}

const HEAD: u64 = 0;
const ALLOC: u64 = 1;
const PROCESSED: u64 = 2;

impl Map {
    fn task(&self, i: u64) -> u64 {
        3 + i
    }
    fn ready(&self, i: u64) -> u64 {
        3 + self.n as u64 + i
    }
    fn visited(&self, v: u64) -> u64 {
        3 + 2 * self.n as u64 + v
    }
    fn offsets(&self, v: u64) -> u64 {
        3 + 3 * self.n as u64 + v
    }
    fn child(&self, e: u64) -> u64 {
        3 + 4 * self.n as u64 + 1 + e
    }
    fn words(&self, edges: usize) -> usize {
        3 + 4 * self.n + 1 + edges
    }
}

impl Uts {
    /// Build over a generated tree.
    pub fn new(tree: Tree, blocks: usize, tpb: usize) -> Uts {
        Uts { tree: Arc::new(tree), blocks, tpb, work_per_node: 8 }
    }

    /// The default paper-shaped instance, scaled.
    pub fn scaled(nodes: usize, blocks: usize, tpb: usize) -> Uts {
        Uts::new(Tree::generate(nodes, 4, 0x075), blocks, tpb)
    }

    /// The tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    fn map(&self) -> Map {
        Map { n: self.tree.nodes() }
    }
}

enum UtsPhase {
    /// Cheap occupancy poll: load head (unpaired).
    PollHead,
    /// `last` = head; load alloc (unpaired).
    GotHead,
    /// `last` = alloc; decide between claiming and idling.
    GotAlloc(Value),
    /// Idle path: check the processed count (unpaired).
    CheckProcessed,
    AfterProcessed,
    /// Claim an index with a paired fetch-add on head.
    Claim,
    /// `last` = claimed index.
    GotClaim,
    /// Wait for the slot to be published (paired acquire).
    WaitReadyCheck(u64),
    WaitReadyRetry(u64),
    /// Read the task (node id) from the slot.
    ReadTask(u64),
    /// `last` = node id: bump its visit counter.
    Visit,
    /// Per-node ALU work, then read the child range.
    Work(u64),
    /// Load offsets[node] (data, from simulated memory).
    ChildOff0(u64),
    /// `last` = offsets[node]; load offsets[node + 1].
    ChildOff1(u64),
    /// `last` = offsets[node + 1]; carries offsets[node].
    GotChildEnd(u64),
    /// Per-child edge cursor (e, end): load children[e].
    ChildLd(u64, u64),
    /// `last` = child id: reserve a queue slot (paired fetch-add).
    PushReserve(u64, u64),
    /// `last` = slot: store the task payload (data).
    PushStore(u64, u64, u64),
    /// Publish the slot (paired release store).
    PushPublish(u64, u64, u64),
    /// Count the node as processed (unpaired).
    Retire,
    Done,
}

struct UtsItem {
    map: Map,
    total: u64,
    work: u32,
    phase: UtsPhase,
}

impl WorkItem for UtsItem {
    fn next(&mut self, last: Option<Value>) -> Op {
        loop {
            match self.phase {
                // -------- the Work Queue pattern (Listing 1) --------
                UtsPhase::PollHead => {
                    self.phase = UtsPhase::GotHead;
                    return Op::Load { addr: HEAD, class: OpClass::Unpaired };
                }
                UtsPhase::GotHead => {
                    let head = last.unwrap_or(0);
                    self.phase = UtsPhase::GotAlloc(head);
                    return Op::Load { addr: ALLOC, class: OpClass::Unpaired };
                }
                UtsPhase::GotAlloc(head) => {
                    let alloc = last.unwrap_or(0);
                    if head < alloc {
                        // Occupancy says there is work: go claim it
                        // with a *paired* atomic (the dequeue).
                        self.phase = UtsPhase::Claim;
                    } else {
                        self.phase = UtsPhase::CheckProcessed;
                    }
                }
                UtsPhase::CheckProcessed => {
                    self.phase = UtsPhase::AfterProcessed;
                    return Op::Load { addr: PROCESSED, class: OpClass::Unpaired };
                }
                UtsPhase::AfterProcessed => {
                    if last.unwrap_or(0) >= self.total {
                        self.phase = UtsPhase::Done;
                        continue;
                    }
                    self.phase = UtsPhase::PollHead;
                    return Op::Think(4);
                }
                UtsPhase::Claim => {
                    self.phase = UtsPhase::GotClaim;
                    return Op::Rmw {
                        addr: HEAD,
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Paired,
                        use_result: true,
                    };
                }
                UtsPhase::GotClaim => {
                    let idx = last.unwrap_or(0);
                    if idx >= self.total {
                        // Overshoot: queue exhausted; wind down.
                        self.phase = UtsPhase::CheckProcessed;
                        continue;
                    }
                    self.phase = UtsPhase::WaitReadyCheck(idx);
                    return Op::Load { addr: self.map.ready(idx), class: OpClass::Paired };
                }
                UtsPhase::WaitReadyCheck(idx) => {
                    if last.unwrap_or(0) == 0 {
                        self.phase = UtsPhase::WaitReadyRetry(idx);
                        return Op::Think(4);
                    }
                    self.phase = UtsPhase::ReadTask(idx);
                }
                UtsPhase::WaitReadyRetry(idx) => {
                    self.phase = UtsPhase::WaitReadyCheck(idx);
                    return Op::Load { addr: self.map.ready(idx), class: OpClass::Paired };
                }
                UtsPhase::ReadTask(idx) => {
                    self.phase = UtsPhase::Visit;
                    return Op::Load { addr: self.map.task(idx), class: OpClass::Data };
                }
                UtsPhase::Visit => {
                    let node = last.unwrap_or(0);
                    self.phase = UtsPhase::Work(node);
                    return Op::Rmw {
                        addr: self.map.visited(node),
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Unpaired,
                        use_result: false,
                    };
                }
                UtsPhase::Work(node) => {
                    self.phase = UtsPhase::ChildOff0(node);
                    return Op::Think(self.work);
                }
                UtsPhase::ChildOff0(node) => {
                    self.phase = UtsPhase::ChildOff1(node);
                    return Op::Load { addr: self.map.offsets(node), class: OpClass::Data };
                }
                UtsPhase::ChildOff1(node) => {
                    let off0 = last.unwrap_or(0);
                    self.phase = UtsPhase::GotChildEnd(off0);
                    return Op::Load { addr: self.map.offsets(node + 1), class: OpClass::Data };
                }
                UtsPhase::GotChildEnd(off0) => {
                    let off1 = last.unwrap_or(0);
                    self.phase = UtsPhase::ChildLd(off0, off1);
                }
                UtsPhase::ChildLd(e, end) => {
                    if e >= end {
                        self.phase = UtsPhase::Retire;
                        continue;
                    }
                    self.phase = UtsPhase::PushReserve(e, end);
                    return Op::Load { addr: self.map.child(e), class: OpClass::Data };
                }
                UtsPhase::PushReserve(e, end) => {
                    let child = last.unwrap_or(0);
                    self.phase = UtsPhase::PushStore(e, end, child);
                    return Op::Rmw {
                        addr: ALLOC,
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Paired,
                        use_result: true,
                    };
                }
                UtsPhase::PushStore(e, end, child) => {
                    let slot = last.unwrap_or(0);
                    self.phase = UtsPhase::PushPublish(e, end, slot);
                    return Op::Store {
                        addr: self.map.task(slot),
                        value: child,
                        class: OpClass::Data,
                    };
                }
                UtsPhase::PushPublish(e, end, slot) => {
                    self.phase = UtsPhase::ChildLd(e + 1, end);
                    return Op::Store {
                        addr: self.map.ready(slot),
                        value: 1,
                        class: OpClass::Paired,
                    };
                }
                UtsPhase::Retire => {
                    self.phase = UtsPhase::PollHead;
                    return Op::Rmw {
                        addr: PROCESSED,
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Unpaired,
                        use_result: false,
                    };
                }
                UtsPhase::Done => return Op::Done,
            }
        }
    }
}

impl Kernel for Uts {
    fn name(&self) -> String {
        format!("UTS[{}]", self.tree.nodes())
    }
    fn blocks(&self) -> usize {
        self.blocks
    }
    fn threads_per_block(&self) -> usize {
        self.tpb
    }
    fn memory_words(&self) -> usize {
        self.map().words(self.tree.children.len())
    }
    fn init_memory(&self, mem: &mut [Value]) {
        let m = self.map();
        // Root pre-published in slot 0.
        mem[m.task(0) as usize] = 0;
        mem[m.ready(0) as usize] = 1;
        mem[ALLOC as usize] = 1;
        for v in 0..=self.tree.nodes() {
            mem[m.offsets(v as u64) as usize] = self.tree.offsets[v] as Value;
        }
        for (e, &c) in self.tree.children.iter().enumerate() {
            mem[m.child(e as u64) as usize] = c as Value;
        }
    }
    fn item(&self, _block: usize, _thread: usize) -> Box<dyn WorkItem> {
        Box::new(UtsItem {
            map: self.map(),
            total: self.tree.nodes() as u64,
            work: self.work_per_node,
            phase: UtsPhase::PollHead,
        })
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        let m = self.map();
        if mem[PROCESSED as usize] != self.tree.nodes() as Value {
            return Err(format!(
                "processed {} != {} nodes",
                mem[PROCESSED as usize],
                self.tree.nodes()
            ));
        }
        for v in 0..self.tree.nodes() {
            let visits = mem[m.visited(v as u64) as usize];
            if visits != 1 {
                return Err(format!("node {v} visited {visits} times"));
            }
        }
        if mem[ALLOC as usize] != self.tree.nodes() as Value {
            return Err(format!("alloc {} != nodes", mem[ALLOC as usize]));
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
    fn tree_generation_is_exact_and_connected() {
        let t = Tree::generate(200, 4, 9);
        assert_eq!(t.nodes(), 200);
        // Every node except the root is someone's child, exactly once.
        let mut seen = vec![0; 200];
        for &c in &t.children {
            seen[c as usize] += 1;
        }
        assert_eq!(seen[0], 0);
        assert!(seen[1..].iter().all(|&s| s == 1));
    }

    #[test]
    fn uts_processes_every_node_once_on_every_config() {
        let k = Uts::scaled(64, 4, 4);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn unpaired_polling_benefits_from_drf1_on_gpu() {
        let k = Uts::scaled(128, 8, 4);
        let params = SysParams::integrated();
        let gd0 = run_workload(&k, SystemConfig::from_abbrev("GD0").unwrap(), &params);
        let gd1 = run_workload(&k, SystemConfig::from_abbrev("GD1").unwrap(), &params);
        assert!(gd1.cycles <= gd0.cycles, "GD1 {} > GD0 {}", gd1.cycles, gd0.cycles);
        // The polls stop invalidating the cache under DRF1.
        assert!(gd1.proto.invalidation_events < gd0.proto.invalidation_events);
    }
}
