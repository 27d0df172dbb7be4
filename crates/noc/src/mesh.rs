//! The mesh itself: link reservation timelines and statistics.
//!
//! Link state lives in flat per-direction tables indexed by
//! `node * 4 + direction`, so the per-hop inner loop of [`Mesh::send`]
//! is two array reads — no ordered-map lookups and no route-vector
//! allocation. The links of every `(src, dst)` route are looked up in a
//! table built from [`route_xy`] when the mesh takes a new geometry, so
//! a message computes no coordinates and walks no route.

use crate::route::{route_xy, Coord};
use crate::{Cycle, NodeId};
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};
use std::cmp::Ordering;
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
    /// Every X-Y route's links, in hop order: the route from `src` to
    /// `dst` is `route_links[route_start[p]..route_start[p + 1]]` with
    /// `p = src * nodes + dst`.
    route_links: Vec<u32>,
    /// `nodes * nodes + 1` offsets into `route_links`; empty until the
    /// first `reset`.
    route_start: Vec<u32>,
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

    /// The direction of the hop from `from` to its neighbor `to`.
    /// Compares coordinates, not ids: on a one-column mesh `+1` is a
    /// step south.
    fn between(from: NodeId, to: NodeId, width: u16) -> Dir {
        let (a, b) = (Coord::of(from, width), Coord::of(to, width));
        match (b.x.cmp(&a.x), b.y.cmp(&a.y)) {
            (Ordering::Greater, _) => Dir::East,
            (Ordering::Less, _) => Dir::West,
            (_, Ordering::Greater) => Dir::South,
            _ => Dir::North,
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
            route_links: Vec::new(),
            route_start: Vec::new(),
            stats: NocStats::default(),
            tracer,
        };
        mesh.reset(&params);
        mesh
    }

    /// Return to the idle mesh a fresh [`Mesh::with_tracer`] with
    /// `params` builds: every link free at cycle 0, statistics zero.
    /// Re-sizes the link tables to the new geometry and keeps the
    /// tracer. The route table is rebuilt only when the width or height
    /// changes; latencies do not enter it.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes.
    pub fn reset(&mut self, params: &NocParams) {
        assert!(params.width > 0 && params.height > 0, "mesh must have nodes");
        let slots = params.width as usize * params.height as usize * 4;
        let Mesh { params: p, links_free, link_stats, route_links, route_start, stats, tracer: _ } =
            self;
        if route_start.is_empty() || (p.width, p.height) != (params.width, params.height) {
            build_routes(params.width, params.height, route_links, route_start);
        }
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
        let nodes = self.nodes();
        assert!(src.0 < nodes && dst.0 < nodes, "node off mesh");
        let Mesh { params, links_free, link_stats, route_links, route_start, stats, tracer } = self;
        let flits = flits.max(1);
        stats.messages += 1;
        if src == dst {
            // Local port loopback: no links, just ejection latency.
            let arrival = depart + params.local_latency;
            stats.total_latency += arrival - depart;
            return arrival;
        }
        let mut at = depart + params.local_latency;
        let occupancy = flits * params.cycles_per_flit;
        let pair = src.0 as usize * nodes as usize + dst.0 as usize;
        let route = &route_links[route_start[pair] as usize..route_start[pair + 1] as usize];
        for &li in route {
            let li = li as usize;
            let free = &mut links_free[li];
            let start = at.max(*free);
            stats.contention_cycles += start - at;
            if T::ENABLED {
                if start > at {
                    tracer.record(TraceEvent::new(
                        EventKind::NocStall,
                        at,
                        li as u16,
                        dst.0 as u64,
                        flits,
                        start - at,
                    ));
                }
                tracer.record(TraceEvent::new(
                    EventKind::NocHop,
                    start,
                    li as u16,
                    dst.0 as u64,
                    flits,
                    params.hop_latency,
                ));
            }
            *free = start + occupancy;
            at = start + params.hop_latency;
            let ls = &mut link_stats[li];
            ls.flits += flits;
            ls.messages += 1;
        }
        stats.flit_hops += flits * route.len() as u64;
        let arrival = at + params.local_latency;
        stats.total_latency += arrival - depart;
        arrival
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

/// Fill `links`/`start` with the X-Y route of every `(src, dst)` pair
/// of a `width × height` mesh, as flat link indices in hop order (the
/// layout of [`Mesh`]'s `route_links` and `route_start`).
fn build_routes(width: u16, height: u16, links: &mut Vec<u32>, start: &mut Vec<u32>) {
    let nodes = width * height;
    links.clear();
    start.clear();
    start.push(0);
    for src in (0..nodes).map(NodeId) {
        for dst in (0..nodes).map(NodeId) {
            let mut from = src;
            for to in route_xy(width, src, dst) {
                links.push(from.0 as u32 * 4 + Dir::between(from, to, width) as u32);
                from = to;
            }
            start.push(u32::try_from(links.len()).expect("route table fits u32 offsets"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::manhattan;

    fn mesh() -> Mesh {
        Mesh::new(NocParams::default())
    }

    /// What an uncontended message costs on `p`'s mesh: the injection
    /// and ejection ports plus one hop latency per hop, or the local
    /// port alone for a self-send. Its flit count adds nothing: `send`
    /// charges flits only as link occupancy, which delays later
    /// messages.
    fn uncontended(p: &NocParams, src: NodeId, dst: NodeId) -> u64 {
        match manhattan(p.width, src, dst) as u64 {
            0 => p.local_latency,
            hops => 2 * p.local_latency + hops * p.hop_latency,
        }
    }

    #[test]
    fn uncontended_latency_scales_with_distance() {
        let mut m = mesh();
        let near = m.send(0, NodeId(0), NodeId(1), 1);
        m.reset(&NocParams::default());
        let far = m.send(0, NodeId(0), NodeId(15), 1);
        assert_eq!(far - near, 5 * m.params().hop_latency);
    }

    #[test]
    fn uncontended_send_pays_the_ports_and_every_hop() {
        let mut m = mesh();
        let a = m.send(100, NodeId(0), NodeId(15), 1);
        assert_eq!(a - 100, uncontended(m.params(), NodeId(0), NodeId(15)));
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
        assert!(s.avg_latency() > uncontended(m.params(), NodeId(4), NodeId(5)) as f64);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = mesh();
        m.send(0, NodeId(0), NodeId(1), 1);
        m.reset(&NocParams::default());
        assert_eq!(m.stats().messages, 0);
        assert!(m.link_stats().is_empty());
        let a = m.send(0, NodeId(0), NodeId(1), 1);
        assert_eq!(a, uncontended(m.params(), NodeId(0), NodeId(1)));
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

    /// Meshes with one node, one row, one column, and both
    /// dimensions above one, square and not.
    const GEOMETRIES: [(u16, u16); 7] = [(1, 1), (1, 5), (5, 1), (3, 2), (4, 4), (5, 3), (6, 4)];

    fn geometry(width: u16, height: u16) -> NocParams {
        NocParams { width, height, ..NocParams::default() }
    }

    #[test]
    fn route_table_holds_the_links_of_every_xy_route() {
        // What each direction slot of a link index means, as a column
        // and row step: East, West, South, North.
        const STEP: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
        for (w, h) in GEOMETRIES {
            let m = Mesh::new(geometry(w, h));
            let n = m.nodes();
            assert_eq!(m.route_start.len(), n as usize * n as usize + 1);
            let xy = |node: NodeId| {
                let c = Coord::of(node, w);
                (i32::from(c.x), i32::from(c.y))
            };
            for (src, dst) in (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d)))) {
                let p = src.0 as usize * n as usize + dst.0 as usize;
                let table: Vec<_> = m.route_links
                    [m.route_start[p] as usize..m.route_start[p + 1] as usize]
                    .iter()
                    .map(|&li| {
                        let (x, y) = xy(NodeId((li / 4) as u16));
                        let (dx, dy) = STEP[li as usize % 4];
                        ((x, y), (x + dx, y + dy))
                    })
                    .collect();
                let hops = route_xy(w, src, dst);
                let walked: Vec<_> = std::iter::once(src)
                    .chain(hops.iter().copied())
                    .zip(&hops)
                    .map(|(from, &to)| (xy(from), xy(to)))
                    .collect();
                assert_eq!(table, walked, "{w}x{h} mesh, {src:?} -> {dst:?}");
            }
        }
    }

    #[test]
    fn uncontended_sends_pay_the_ports_and_every_hop_on_every_geometry() {
        for (w, h) in GEOMETRIES {
            let params = geometry(w, h);
            let mut m = Mesh::new(params.clone());
            for (src, dst) in (0..m.nodes()).flat_map(|s| (0..w * h).map(move |d| (s, d))) {
                let (src, dst) = (NodeId(src), NodeId(dst));
                for flits in [1, 2] {
                    m.reset(&params);
                    let arrival = m.send(7, src, dst, flits);
                    assert_eq!(
                        arrival - 7,
                        uncontended(&params, src, dst),
                        "{w}x{h} mesh, {src:?} -> {dst:?}, {flits} flits"
                    );
                    assert_eq!(m.stats().contention_cycles, 0);
                    assert_eq!(m.stats().flit_hops, flits * manhattan(w, src, dst) as u64);
                }
            }
        }
    }

    #[test]
    fn a_mesh_reset_through_other_geometries_matches_a_fresh_one() {
        let square = geometry(4, 4);
        let summary = |mesh: &Mesh| -> Vec<_> {
            mesh.link_stats().into_iter().map(|(k, s)| (k, s.flits, s.messages)).collect()
        };
        // The second path's last step changes only the height.
        for via in [&[(6, 2)][..], &[(6, 2), (4, 2)]] {
            let mut m = Mesh::new(square.clone());
            m.send(0, NodeId(0), NodeId(15), 4);
            for &(w, h) in via {
                m.reset(&geometry(w, h));
                m.send(0, NodeId(0), NodeId(w * h - 1), 4);
            }
            m.reset(&square);
            let mut fresh = Mesh::new(square.clone());
            assert_eq!(
                (&m.route_links, &m.route_start),
                (&fresh.route_links, &fresh.route_start),
                "via {via:?}"
            );
            // Every pair, all departing together, so routes contend.
            for (src, dst) in (0..16).flat_map(|s| (0..16).map(move |d| (NodeId(s), NodeId(d)))) {
                assert_eq!(
                    m.send(5, src, dst, 3),
                    fresh.send(5, src, dst, 3),
                    "{src:?} -> {dst:?}"
                );
            }
            assert!(m.stats().contention_cycles > 0);
            assert_eq!(m.stats(), fresh.stats());
            assert_eq!(summary(&m), summary(&fresh));
        }
    }

    #[test]
    #[should_panic(expected = "node off mesh")]
    fn off_mesh_node_rejected() {
        mesh().send(0, NodeId(0), NodeId(99), 1);
    }
}
