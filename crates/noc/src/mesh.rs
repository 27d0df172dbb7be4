//! The mesh itself: link reservation timelines and statistics.
//!
//! Link state lives in flat per-direction tables indexed by
//! `node * 4 + direction`, so the per-hop inner loop of [`Mesh::send`]
//! is two array reads — no ordered-map lookups and no route-vector
//! allocation (the X-Y walk is computed inline).

use crate::route::Coord;
use crate::{Cycle, NodeId};
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};
use std::collections::BTreeMap;

/// Mesh configuration.
#[derive(Debug, Clone)]
pub struct NocParams {
    /// Mesh width (nodes per row).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Router pipeline + link traversal latency per hop, in cycles.
    pub hop_latency: u64,
    /// Cycles a link is occupied per flit (1 / bandwidth).
    pub cycles_per_flit: u64,
    /// Extra latency injected/ejected at the local port.
    pub local_latency: u64,
}

impl Default for NocParams {
    fn default() -> Self {
        // A 4x4 mesh as in the paper's Table 2 platform.
        NocParams { width: 4, height: 4, hop_latency: 3, cycles_per_flit: 1, local_latency: 1 }
    }
}

/// Per-link usage statistics.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Flits carried.
    pub flits: u64,
    /// Messages carried.
    pub messages: u64,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total flit-hops (the energy-relevant quantity).
    pub flit_hops: u64,
    /// Sum of end-to-end latencies (for averages).
    pub total_latency: u64,
    /// Cycles of queueing delay suffered due to contention.
    pub contention_cycles: u64,
}

impl NocStats {
    /// Average end-to-end message latency.
    pub fn avg_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }
}

/// A mesh network with timeline-based link contention.
///
/// ```
/// use hsim_noc::{Mesh, NocParams, NodeId};
///
/// let mut mesh = Mesh::new(NocParams::default());
/// // Two messages crossing the same first link serialize:
/// let first = mesh.send(0, NodeId(0), NodeId(3), 4);
/// let second = mesh.send(0, NodeId(0), NodeId(3), 4);
/// assert!(second > first);
/// assert!(mesh.stats().contention_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Mesh<T: Trace = NoTrace> {
    params: NocParams,
    /// next-free cycle per directed link, indexed by
    /// `node * 4 + direction` ([`Dir`]).
    links_free: Vec<Cycle>,
    /// usage statistics, same indexing as `links_free`.
    link_stats: Vec<LinkStats>,
    stats: NocStats,
    tracer: T,
}

/// Outgoing link direction from a node. The discriminants index the
/// flat link tables.
#[derive(Debug, Clone, Copy)]
enum Dir {
    East = 0,
    West = 1,
    South = 2,
    North = 3,
}

impl Dir {
    /// The neighbor one hop along `self` from `node` (caller guarantees
    /// it stays on the mesh).
    fn step(self, node: u16, width: u16) -> u16 {
        match self {
            Dir::East => node + 1,
            Dir::West => node - 1,
            Dir::South => node + width,
            Dir::North => node - width,
        }
    }
}

impl Mesh {
    /// Create an untraced mesh.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes.
    pub fn new(params: NocParams) -> Mesh {
        Mesh::with_tracer(params, NoTrace)
    }
}

impl<T: Trace> Mesh<T> {
    /// Create a mesh emitting [`EventKind::NocHop`] /
    /// [`EventKind::NocStall`] events into `tracer` (lane = the flat
    /// link index `node * 4 + direction`).
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes.
    pub fn with_tracer(params: NocParams, tracer: T) -> Mesh<T> {
        let mut mesh = Mesh {
            params: params.clone(),
            links_free: Vec::new(),
            link_stats: Vec::new(),
            stats: NocStats::default(),
            tracer,
        };
        mesh.reset(&params);
        mesh
    }

    /// Return to the idle mesh a fresh [`Mesh::with_tracer`] with
    /// `params` builds: every link free at cycle 0, statistics zero.
    /// Re-sizes the link tables to the new geometry and keeps the
    /// tracer.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes.
    pub fn reset(&mut self, params: &NocParams) {
        assert!(params.width > 0 && params.height > 0, "mesh must have nodes");
        let slots = params.width as usize * params.height as usize * 4;
        let Mesh { params: p, links_free, link_stats, stats, tracer: _ } = self;
        p.clone_from(params);
        links_free.clear();
        links_free.resize(slots, 0);
        link_stats.clear();
        link_stats.resize(slots, LinkStats::default());
        *stats = NocStats::default();
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.params.width * self.params.height
    }

    /// Configuration.
    pub fn params(&self) -> &NocParams {
        &self.params
    }

    /// Send a `flits`-flit message from `src` to `dst` departing at
    /// `depart`; returns the arrival cycle. Reserves every link on the
    /// X-Y route, modelling head-of-line contention.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not on the mesh.
    pub fn send(&mut self, depart: Cycle, src: NodeId, dst: NodeId, flits: u64) -> Cycle {
        assert!(src.0 < self.nodes() && dst.0 < self.nodes(), "node off mesh");
        let flits = flits.max(1);
        self.stats.messages += 1;
        if src == dst {
            // Local port loopback: no links, just ejection latency.
            let arrival = depart + self.params.local_latency;
            self.stats.total_latency += arrival - depart;
            return arrival;
        }
        let mut at = depart + self.params.local_latency;
        let occupancy = flits * self.params.cycles_per_flit;
        // Inline X-Y walk (matches `route_xy`): hop east/west until the
        // column matches, then north/south.
        let width = self.params.width;
        let (mut cur, to) = (Coord::of(src, width), Coord::of(dst, width));
        let mut node = src.0;
        let mut hop = |node: &mut u16, dir: Dir, at: &mut Cycle| {
            let li = *node as usize * 4 + dir as usize;
            let free = &mut self.links_free[li];
            let start = (*at).max(*free);
            self.stats.contention_cycles += start - *at;
            if T::ENABLED {
                if start > *at {
                    self.tracer.record(TraceEvent::new(
                        EventKind::NocStall,
                        *at,
                        li as u16,
                        dst.0 as u64,
                        flits,
                        start - *at,
                    ));
                }
                self.tracer.record(TraceEvent::new(
                    EventKind::NocHop,
                    start,
                    li as u16,
                    dst.0 as u64,
                    flits,
                    self.params.hop_latency,
                ));
            }
            *free = start + occupancy;
            *at = start + self.params.hop_latency;
            let ls = &mut self.link_stats[li];
            ls.flits += flits;
            ls.messages += 1;
            self.stats.flit_hops += flits;
            *node = dir.step(*node, width);
        };
        while cur.x != to.x {
            let dir = if to.x > cur.x { Dir::East } else { Dir::West };
            cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            hop(&mut node, dir, &mut at);
        }
        while cur.y != to.y {
            let dir = if to.y > cur.y { Dir::South } else { Dir::North };
            cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            hop(&mut node, dir, &mut at);
        }
        debug_assert_eq!(node, dst.0);
        let arrival = at + self.params.local_latency;
        self.stats.total_latency += arrival - depart;
        arrival
    }

    /// The zero-load latency between two nodes (no contention), useful
    /// for configuring cache access latencies.
    pub fn zero_load_latency(&self, src: NodeId, dst: NodeId, flits: u64) -> u64 {
        let hops = crate::route::manhattan(self.params.width, src, dst) as u64;
        if hops == 0 {
            return self.params.local_latency;
        }
        2 * self.params.local_latency
            + hops * self.params.hop_latency
            + (flits.max(1) - 1) * self.params.cycles_per_flit
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Per-link statistics for links that carried traffic, keyed by
    /// `(from, to)`. Built on demand — a diagnostic accessor, not a hot
    /// path.
    pub fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        let width = self.params.width;
        let dirs = [Dir::East, Dir::West, Dir::South, Dir::North];
        self.link_stats
            .iter()
            .enumerate()
            .filter(|(_, ls)| ls.messages > 0)
            .map(|(li, ls)| {
                let node = (li / 4) as u16;
                let dir = dirs[li % 4];
                ((NodeId(node), NodeId(dir.step(node, width))), ls.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(NocParams::default())
    }

    #[test]
    fn zero_load_latency_scales_with_distance() {
        let m = mesh();
        let near = m.zero_load_latency(NodeId(0), NodeId(1), 1);
        let far = m.zero_load_latency(NodeId(0), NodeId(15), 1);
        assert!(far > near);
        assert_eq!(far - near, 5 * m.params().hop_latency);
    }

    #[test]
    fn uncontended_send_matches_zero_load() {
        let mut m = mesh();
        let a = m.send(100, NodeId(0), NodeId(15), 1);
        assert_eq!(a - 100, m.zero_load_latency(NodeId(0), NodeId(15), 1));
    }

    #[test]
    fn same_link_messages_serialize() {
        let mut m = mesh();
        let a1 = m.send(0, NodeId(0), NodeId(1), 8);
        let a2 = m.send(0, NodeId(0), NodeId(1), 8);
        assert!(a2 > a1, "second message must queue behind the first");
        assert!(m.stats().contention_cycles > 0);
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut m = mesh();
        let a1 = m.send(0, NodeId(0), NodeId(1), 8);
        let a2 = m.send(0, NodeId(14), NodeId(15), 8);
        assert_eq!(a1, a2);
        assert_eq!(m.stats().contention_cycles, 0);
    }

    #[test]
    fn local_delivery_is_cheap() {
        let mut m = mesh();
        let a = m.send(10, NodeId(3), NodeId(3), 4);
        assert_eq!(a, 10 + m.params().local_latency);
        assert_eq!(m.stats().flit_hops, 0);
    }

    #[test]
    fn flit_hops_counted_per_hop() {
        let mut m = mesh();
        m.send(0, NodeId(0), NodeId(3), 2); // 3 hops x 2 flits
        assert_eq!(m.stats().flit_hops, 6);
    }

    #[test]
    fn hotspot_contention_accumulates() {
        let mut m = mesh();
        // Many nodes hammer node 5 simultaneously.
        for n in [NodeId(4), NodeId(6), NodeId(1), NodeId(9), NodeId(7)] {
            m.send(0, n, NodeId(5), 4);
            m.send(0, n, NodeId(5), 4);
        }
        let s = m.stats().clone();
        assert!(s.avg_latency() > m.zero_load_latency(NodeId(4), NodeId(5), 4) as f64);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = mesh();
        m.send(0, NodeId(0), NodeId(1), 1);
        m.reset(&NocParams::default());
        assert_eq!(m.stats().messages, 0);
        assert!(m.link_stats().is_empty());
        let a = m.send(0, NodeId(0), NodeId(1), 1);
        assert_eq!(a, m.zero_load_latency(NodeId(0), NodeId(1), 1));
    }

    #[test]
    fn reset_takes_the_new_geometry() {
        let mut m = mesh();
        m.send(0, NodeId(0), NodeId(15), 4);
        let wide = NocParams { width: 6, height: 2, hop_latency: 10, ..NocParams::default() };
        m.reset(&wide);
        let mut fresh = Mesh::new(wide);
        assert_eq!(m.nodes(), 12);
        for (src, dst) in [(0, 11), (11, 0), (5, 6), (0, 11)] {
            let (src, dst) = (NodeId(src), NodeId(dst));
            assert_eq!(m.send(3, src, dst, 2), fresh.send(3, src, dst, 2));
        }
        assert_eq!(m.stats(), fresh.stats());
        assert_eq!(m.link_stats().len(), fresh.link_stats().len());
    }

    #[test]
    #[should_panic(expected = "node off mesh")]
    fn off_mesh_node_rejected() {
        mesh().send(0, NodeId(0), NodeId(99), 1);
    }
}
