//! The six GAP kernels (Table IV), executed for real over the CSR graph
//! while emitting the loads/stores/branches each step performs.
//!
//! Every kernel returns its algorithmic result so tests can verify that we
//! run the genuine algorithm (Shiloach–Vishkin, Brandes, Δ-stepping, ...)
//! and not just an access-pattern sketch. Emission follows the data:
//! offset/target loads are sequential, property-array accesses are indexed
//! by the loaded edge target (a true load→load dependency), and queue
//! operations stream.

use std::sync::Arc;

use crate::emit::{regs, Emitter, Suite, Workload};
use crate::gap::graph::{Graph, GraphKind, GraphScale};
use crate::gap::layout;
use crate::sink::TraceSink;

const INF: u32 = u32::MAX;

/// The six GAP kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Breadth-first search (direction-optimizing push/pull).
    Bfs,
    /// PageRank (pull, damping 0.85).
    Pr,
    /// Connected components (Shiloach–Vishkin hook + compress).
    Cc,
    /// Betweenness centrality (Brandes, sampled sources).
    Bc,
    /// Triangle counting (sorted adjacency intersection).
    Tc,
    /// Single-source shortest paths (Δ-stepping).
    Sssp,
}

impl Kernel {
    /// All kernels in Table IV order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Bc,
        Kernel::Bfs,
        Kernel::Cc,
        Kernel::Pr,
        Kernel::Tc,
        Kernel::Sssp,
    ];

    /// Short lowercase name used in workload ids (e.g. `bfs.kron`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Bfs => "bfs",
            Kernel::Pr => "pr",
            Kernel::Cc => "cc",
            Kernel::Bc => "bc",
            Kernel::Tc => "tc",
            Kernel::Sssp => "sssp",
        }
    }

    /// Parses a short name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    fn code_base(self) -> u64 {
        let id = match self {
            Kernel::Bfs => 1,
            Kernel::Pr => 2,
            Kernel::Cc => 3,
            Kernel::Bc => 4,
            Kernel::Tc => 5,
            Kernel::Sssp => 6,
        };
        layout::CODE + id * 0x1_0000
    }
}

/// A (kernel, graph) pair as a restartable [`Workload`].
///
/// Each `generate` pass derives its root (for BFS/BC/SSSP) from the pass
/// index, so that successive passes explore different parts of the graph,
/// like consecutive SimPoint phases would.
pub struct GapWorkload {
    kernel: Kernel,
    graph: Arc<Graph>,
    name: String,
}

impl GapWorkload {
    /// Builds the workload `kernel.kind` at `scale` (graph construction is
    /// deterministic in `seed`).
    #[must_use]
    pub fn new(kernel: Kernel, kind: GraphKind, scale: GraphScale, seed: u64) -> Self {
        let graph = Arc::new(Graph::build(kind, scale, seed));
        Self::with_graph(kernel, kind, graph)
    }

    /// Builds the workload around a pre-built (possibly shared) graph.
    #[must_use]
    pub fn with_graph(kernel: Kernel, kind: GraphKind, graph: Arc<Graph>) -> Self {
        Self {
            name: format!("{}.{}", kernel.name(), kind.name()),
            kernel,
            graph,
        }
    }

    /// The kernel this workload runs.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

impl std::fmt::Debug for GapWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GapWorkload")
            .field("name", &self.name)
            .field("vertices", &self.graph.num_vertices())
            .field("edges", &self.graph.num_edges())
            .finish()
    }
}

impl Workload for GapWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn suite(&self) -> Suite {
        Suite::Gap
    }

    fn generate(&self, pass: u64, sink: &mut dyn TraceSink) {
        let mut e = Emitter::new(sink, self.kernel.code_base());
        let g = &*self.graph;
        let root = g.root_near(pass.wrapping_mul(0x9e37_79b9) + 13);
        match self.kernel {
            Kernel::Bfs => {
                bfs(g, root, &mut e);
            }
            Kernel::Pr => {
                pagerank(g, 2, &mut e);
            }
            Kernel::Cc => {
                connected_components(g, &mut e);
            }
            Kernel::Bc => {
                betweenness(g, &[root], &mut e);
            }
            Kernel::Tc => {
                triangle_count(g, &mut e);
            }
            Kernel::Sssp => {
                sssp(g, root, 16, &mut e);
            }
        }
    }
}

#[inline]
fn prop_a(v: u32) -> u64 {
    layout::PROP_A + u64::from(v) * 4
}
#[inline]
fn prop_b(v: u32) -> u64 {
    layout::PROP_B + u64::from(v) * 4
}
#[inline]
fn prop_c(v: u32) -> u64 {
    layout::PROP_C + u64::from(v) * 4
}
#[inline]
fn offsets_addr(v: u32) -> u64 {
    layout::OFFSETS + u64::from(v) * 4
}
#[inline]
fn targets_addr(e: u32) -> u64 {
    layout::TARGETS + u64::from(e) * 4
}
#[inline]
fn weights_addr(e: u32) -> u64 {
    layout::WEIGHTS + u64::from(e) * 4
}
#[inline]
fn queue_addr(i: u64) -> u64 {
    layout::QUEUE + i * 4
}

/// Emits the CSR bounds loads for vertex `v` (offsets[v], offsets[v+1]),
/// plus the index arithmetic around them.
fn emit_bounds(e: &mut Emitter<'_>, site: u32, v: u32) {
    e.alu(site, Some(regs::IDX), [Some(regs::IDX), None]);
    e.load_sized(site, offsets_addr(v), 4, regs::BEG, [Some(regs::IDX), None]);
    e.load_sized(
        site + 1,
        offsets_addr(v + 1),
        4,
        regs::END,
        [Some(regs::IDX), None],
    );
    e.alu(
        site + 1,
        Some(regs::END),
        [Some(regs::END), Some(regs::BEG)],
    );
}

/// Emits the edge-target load at CSR position `ei` (sequential stream),
/// plus the surrounding index/address arithmetic the compiled kernels
/// perform per edge (bounds math, shifts, accumulator updates).
fn emit_target(e: &mut Emitter<'_>, site: u32, ei: u32) {
    e.load_sized(
        site,
        targets_addr(ei),
        4,
        regs::NBR,
        [Some(regs::BEG), None],
    );
    e.alu(site, Some(regs::ADDR), [Some(regs::NBR), None]);
    e.alu(site, Some(regs::ADDR), [Some(regs::ADDR), None]);
    e.alu(site, Some(regs::ACC), [Some(regs::ACC), None]);
    e.alu(site, Some(regs::VAL2), [Some(regs::ADDR), Some(regs::ACC)]);
    e.alu(site, Some(regs::FLAG), [Some(regs::VAL2), None]);
    e.alu_burst(site, 2);
}

/// Direction-optimizing BFS from `root`; returns the parent array
/// (`u32::MAX` = unreached, `parent[root] == root`).
pub fn bfs(g: &Graph, root: u32, e: &mut Emitter<'_>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent = vec![INF; n as usize];
    let mut in_frontier = vec![false; n as usize];
    parent[root as usize] = root;
    let mut frontier = vec![root];
    while !frontier.is_empty() && e.live() {
        // GAP's direction-optimizing heuristic: pull when the frontier is a
        // sizable fraction of the graph.
        let next = if frontier.len() as u64 * 14 > u64::from(n) {
            bfs_pull(g, &mut parent, &frontier, &mut in_frontier, e)
        } else {
            bfs_push(g, &mut parent, &frontier, e)
        };
        frontier = next;
    }
    parent
}

fn bfs_push(g: &Graph, parent: &mut [u32], frontier: &[u32], e: &mut Emitter<'_>) -> Vec<u32> {
    let mut next = Vec::new();
    for (qi, &u) in frontier.iter().enumerate() {
        if !e.live() {
            break;
        }
        // Pop u from the frontier queue (streaming load).
        e.load_sized(0, queue_addr(qi as u64), 4, regs::IDX, [None, None]);
        emit_bounds(e, 1, u);
        let r = g.edge_range(u);
        for ei in r {
            let v = g.target(ei);
            emit_target(e, 3, ei);
            // parent[v]: random access dependent on the target load.
            e.load_sized(4, prop_a(v), 4, regs::VAL, [Some(regs::NBR), None]);
            let unvisited = parent[v as usize] == INF;
            e.alu(5, Some(regs::FLAG), [Some(regs::VAL), None]);
            e.branch(6, !unvisited, 9, Some(regs::FLAG));
            if unvisited {
                parent[v as usize] = u;
                e.store_sized(7, prop_a(v), 4, Some(regs::IDX), Some(regs::NBR));
                e.store_sized(
                    8,
                    queue_addr(0x1_0000 + next.len() as u64),
                    4,
                    Some(regs::NBR),
                    None,
                );
                next.push(v);
            }
            e.loop_branch(9, ei + 1 < g.edge_range(u).end, 3);
        }
    }
    next
}

fn bfs_pull(
    g: &Graph,
    parent: &mut [u32],
    frontier: &[u32],
    in_frontier: &mut [bool],
    e: &mut Emitter<'_>,
) -> Vec<u32> {
    for f in in_frontier.iter_mut() {
        *f = false;
    }
    for &u in frontier {
        in_frontier[u as usize] = true;
        // Building the frontier bitmap: streaming store.
        e.store_sized(10, prop_c(u), 4, Some(regs::IDX), None);
    }
    let mut next = Vec::new();
    let n = g.num_vertices();
    for v in 0..n {
        if !e.live() {
            break;
        }
        // parent[v]: sequential scan.
        e.load_sized(11, prop_a(v), 4, regs::VAL, [None, None]);
        let unvisited = parent[v as usize] == INF;
        e.branch(12, !unvisited, 18, Some(regs::VAL));
        if !unvisited {
            continue;
        }
        emit_bounds(e, 13, v);
        for ei in g.edge_range(v) {
            let u = g.target(ei);
            emit_target(e, 15, ei);
            // in_frontier[u]: random, dependent on target load.
            e.load_sized(16, prop_c(u), 4, regs::VAL2, [Some(regs::NBR), None]);
            let hit = in_frontier[u as usize];
            e.branch(17, hit, 18, Some(regs::VAL2));
            if hit {
                parent[v as usize] = u;
                e.store_sized(18, prop_a(v), 4, Some(regs::NBR), None);
                next.push(v);
                break;
            }
        }
    }
    next
}

/// PageRank, pull direction, `iters` iterations; returns the final scores.
pub fn pagerank(g: &Graph, iters: u32, e: &mut Emitter<'_>) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let damp = 0.85;
    let base = (1.0 - damp) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..iters {
        if !e.live() {
            break;
        }
        // Phase 1: contrib[u] = rank[u] / deg(u)  (streaming).
        for u in 0..n as u32 {
            e.load_sized(0, prop_a(u), 4, regs::VAL, [None, None]);
            e.fp(1, Some(regs::VAL2), [Some(regs::VAL), None]);
            e.store_sized(2, prop_b(u), 4, Some(regs::VAL2), None);
            let d = g.degree(u);
            contrib[u as usize] = if d > 0 {
                rank[u as usize] / f64::from(d)
            } else {
                0.0
            };
            if !e.live() {
                break;
            }
        }
        // Phase 2: rank[v] = base + damp * sum contrib[u]  (pull: random
        // reads of contrib[], indexed by the loaded edge target).
        for v in 0..n as u32 {
            if !e.live() {
                break;
            }
            emit_bounds(e, 3, v);
            let mut sum = 0.0;
            for ei in g.edge_range(v) {
                let u = g.target(ei);
                emit_target(e, 5, ei);
                e.load_sized(6, prop_b(u), 4, regs::VAL, [Some(regs::NBR), None]);
                e.fp(7, Some(regs::ACC), [Some(regs::VAL), Some(regs::ACC)]);
                sum += contrib[u as usize];
                e.loop_branch(8, ei + 1 < g.edge_range(v).end, 5);
            }
            rank[v as usize] = base + damp * sum;
            e.fp(9, Some(regs::VAL), [Some(regs::ACC), None]);
            e.store_sized(10, prop_a(v), 4, Some(regs::VAL), None);
        }
    }
    rank
}

/// Shiloach–Vishkin connected components; returns the component label of
/// every vertex (labels are component-minimum vertex ids after compression).
pub fn connected_components(g: &Graph, e: &mut Emitter<'_>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut comp: Vec<u32> = (0..n).collect();
    for v in 0..n {
        e.store_sized(0, prop_a(v), 4, Some(regs::IDX), None);
        if !e.live() {
            break;
        }
    }
    let mut changed = true;
    while changed && e.live() {
        changed = false;
        // Hook phase: for every edge (u, v), link the higher root under the
        // lower one.
        for u in 0..n {
            if !e.live() {
                break;
            }
            e.load_sized(1, prop_a(u), 4, regs::VAL, [None, None]);
            emit_bounds(e, 2, u);
            for ei in g.edge_range(u) {
                let v = g.target(ei);
                emit_target(e, 4, ei);
                e.load_sized(5, prop_a(v), 4, regs::VAL2, [Some(regs::NBR), None]);
                let (cu, cv) = (comp[u as usize], comp[v as usize]);
                e.branch(6, cu == cv, 9, Some(regs::FLAG));
                if cu < cv && cv == comp[cv as usize] {
                    // comp[comp[v]] — dependent pointer chase.
                    e.load_sized(7, prop_a(cv), 4, regs::PTR, [Some(regs::VAL2), None]);
                    e.store_sized(8, prop_a(cv), 4, Some(regs::VAL), Some(regs::PTR));
                    comp[cv as usize] = cu;
                    changed = true;
                } else if cv < cu && cu == comp[cu as usize] {
                    e.load_sized(7, prop_a(cu), 4, regs::PTR, [Some(regs::VAL), None]);
                    e.store_sized(8, prop_a(cu), 4, Some(regs::VAL2), Some(regs::PTR));
                    comp[cu as usize] = cv;
                    changed = true;
                }
                e.loop_branch(9, ei + 1 < g.edge_range(u).end, 4);
            }
        }
        // Compress phase: pointer-jump every vertex to its root.
        for v in 0..n {
            if !e.live() {
                break;
            }
            e.load_sized(10, prop_a(v), 4, regs::PTR, [None, None]);
            while comp[v as usize] != comp[comp[v as usize] as usize] {
                // comp[comp[v]]: the classic dependent-load chain.
                e.load_sized(
                    11,
                    prop_a(comp[v as usize]),
                    4,
                    regs::PTR,
                    [Some(regs::PTR), None],
                );
                comp[v as usize] = comp[comp[v as usize] as usize];
                e.store_sized(12, prop_a(v), 4, Some(regs::PTR), None);
                if !e.live() {
                    break;
                }
            }
        }
    }
    comp
}

/// Brandes betweenness centrality from `sources` (unweighted); returns the
/// accumulated centrality scores.
pub fn betweenness(g: &Graph, sources: &[u32], e: &mut Emitter<'_>) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let mut centrality = vec![0.0f64; n];
    for &s in sources {
        if !e.live() {
            break;
        }
        let mut sigma = vec![0u64; n];
        let mut depth = vec![i32::MAX; n];
        let mut delta = vec![0.0f64; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        sigma[s as usize] = 1;
        depth[s as usize] = 0;
        queue.push_back(s);
        // Forward BFS accumulating shortest-path counts.
        while let Some(u) = queue.pop_front() {
            if !e.live() {
                return centrality;
            }
            stack.push(u);
            e.load_sized(
                0,
                queue_addr(stack.len() as u64),
                4,
                regs::IDX,
                [None, None],
            );
            emit_bounds(e, 1, u);
            for ei in g.edge_range(u) {
                let v = g.target(ei);
                emit_target(e, 3, ei);
                e.load_sized(4, prop_c(v), 4, regs::VAL, [Some(regs::NBR), None]);
                if depth[v as usize] == i32::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    e.store_sized(5, prop_c(v), 4, Some(regs::VAL), None);
                    queue.push_back(v);
                    e.store_sized(
                        6,
                        queue_addr(0x2_0000 + u64::from(v)),
                        4,
                        Some(regs::NBR),
                        None,
                    );
                }
                e.branch(
                    7,
                    depth[v as usize] == depth[u as usize] + 1,
                    8,
                    Some(regs::FLAG),
                );
                if depth[v as usize] == depth[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                    e.load_sized(8, prop_b(v), 4, regs::VAL2, [Some(regs::NBR), None]);
                    e.store_sized(9, prop_b(v), 4, Some(regs::VAL2), None);
                }
                e.loop_branch(10, ei + 1 < g.edge_range(u).end, 3);
            }
        }
        // Backward dependency accumulation.
        while let Some(w) = stack.pop() {
            if !e.live() {
                return centrality;
            }
            emit_bounds(e, 11, w);
            for ei in g.edge_range(w) {
                let v = g.target(ei);
                emit_target(e, 13, ei);
                e.load_sized(14, prop_c(v), 4, regs::VAL, [Some(regs::NBR), None]);
                e.branch(
                    15,
                    depth[v as usize] + 1 == depth[w as usize],
                    19,
                    Some(regs::VAL),
                );
                if depth[v as usize] + 1 == depth[w as usize] {
                    e.load_sized(16, prop_b(v), 4, regs::VAL2, [Some(regs::NBR), None]);
                    let share = sigma[v as usize] as f64 / sigma[w as usize] as f64
                        * (1.0 + delta[w as usize]);
                    delta[v as usize] += share;
                    e.fp(17, Some(regs::ACC), [Some(regs::VAL2), Some(regs::ACC)]);
                    e.store_sized(18, prop_b(v), 4, Some(regs::ACC), None);
                }
                e.loop_branch(19, ei + 1 < g.edge_range(w).end, 13);
            }
            if w != s {
                centrality[w as usize] += delta[w as usize];
                e.store_sized(20, prop_a(w), 4, Some(regs::ACC), None);
            }
        }
    }
    centrality
}

/// Triangle counting via sorted-adjacency intersection; returns the count.
pub fn triangle_count(g: &Graph, e: &mut Emitter<'_>) -> u64 {
    let n = g.num_vertices();
    let mut triangles = 0u64;
    for u in 0..n {
        if !e.live() {
            break;
        }
        emit_bounds(e, 0, u);
        for ei in g.edge_range(u) {
            let v = g.target(ei);
            emit_target(e, 2, ei);
            // GAP's OrderedCount convention: count each triangle once with
            // w < v < u. Adjacency is sorted, so v >= u ends the useful part.
            e.branch(3, v >= u, 4, Some(regs::NBR));
            if v >= u {
                break;
            }
            // Two-pointer intersection of adj(u) and adj(v): streaming loads
            // from both ranges, compare-and-advance branches; stop once a
            // common candidate reaches v.
            let (mut i, mut j) = (g.edge_range(u).start, g.edge_range(v).start);
            let (iend, jend) = (g.edge_range(u).end, g.edge_range(v).end);
            while i < iend && j < jend {
                let (a, b) = (g.target(i), g.target(j));
                if a >= v || b >= v {
                    break;
                }
                e.load_sized(4, targets_addr(i), 4, regs::VAL, [Some(regs::BEG), None]);
                e.load_sized(5, targets_addr(j), 4, regs::VAL2, [Some(regs::END), None]);
                e.alu(6, Some(regs::FLAG), [Some(regs::VAL), Some(regs::VAL2)]);
                e.branch(7, a == b, 4, Some(regs::FLAG));
                match a.cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
                if !e.live() {
                    return triangles;
                }
            }
        }
    }
    triangles
}

/// Δ-stepping SSSP from `root` with bucket width `delta`; returns distances
/// (`u32::MAX` = unreachable). Edge weights come from [`Graph::weight`].
pub fn sssp(g: &Graph, root: u32, delta: u32, e: &mut Emitter<'_>) -> Vec<u32> {
    assert!(delta > 0, "delta must be positive");
    let n = g.num_vertices() as usize;
    let mut dist = vec![INF; n];
    dist[root as usize] = 0;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new()];
    buckets[0].push(root);
    let mut bi = 0usize;
    while bi < buckets.len() {
        if !e.live() {
            break;
        }
        while let Some(u) = buckets[bi].pop() {
            if !e.live() {
                break;
            }
            // Bucket pop: streaming load.
            e.load_sized(
                0,
                queue_addr(u64::from(u) & 0xffff),
                4,
                regs::IDX,
                [None, None],
            );
            e.load_sized(1, prop_a(u), 4, regs::VAL, [Some(regs::IDX), None]);
            let du = dist[u as usize];
            // Stale-entry check.
            e.branch(2, (du / delta) as usize != bi, 3, Some(regs::VAL));
            if (du / delta) as usize != bi {
                continue;
            }
            emit_bounds(e, 3, u);
            for ei in g.edge_range(u) {
                let v = g.target(ei);
                let w = g.weight(ei);
                emit_target(e, 5, ei);
                e.load_sized(6, weights_addr(ei), 4, regs::VAL2, [Some(regs::BEG), None]);
                e.load_sized(7, prop_a(v), 4, regs::ACC, [Some(regs::NBR), None]);
                let nd = du.saturating_add(w);
                let improves = nd < dist[v as usize];
                e.branch(8, !improves, 11, Some(regs::ACC));
                if improves {
                    dist[v as usize] = nd;
                    e.store_sized(9, prop_a(v), 4, Some(regs::VAL2), Some(regs::NBR));
                    let nb = (nd / delta) as usize;
                    if nb >= buckets.len() {
                        buckets.resize(nb + 1, Vec::new());
                    }
                    buckets[nb].push(v);
                    e.store_sized(
                        10,
                        queue_addr(0x3_0000 + u64::from(v)),
                        4,
                        Some(regs::NBR),
                        None,
                    );
                }
                e.loop_branch(11, ei + 1 < g.edge_range(u).end, 5);
            }
        }
        bi += 1;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, RecorderSink};

    fn tiny(kind: GraphKind) -> Graph {
        Graph::build(kind, GraphScale::Tiny, 42)
    }

    fn big_emitter(sink: &mut RecorderSink) -> Emitter<'_> {
        Emitter::new(sink, 0x1000)
    }

    #[test]
    fn bfs_builds_valid_parent_tree() {
        let g = tiny(GraphKind::Kron);
        let root = g.root_near(1);
        let mut sink = RecorderSink::new(50_000_000);
        let parent = bfs(&g, root, &mut big_emitter(&mut sink));
        assert_eq!(parent[root as usize], root);
        let mut reached = 0;
        for v in 0..g.num_vertices() {
            let p = parent[v as usize];
            if p == INF {
                continue;
            }
            reached += 1;
            if v != root {
                assert!(
                    g.neighbors(p).binary_search(&v).is_ok(),
                    "parent {p} of {v} is not a neighbor"
                );
            }
        }
        assert!(reached > 1, "BFS reached nothing");
    }

    #[test]
    fn bfs_matches_reference_reachability() {
        let g = tiny(GraphKind::Road);
        let root = g.root_near(5);
        let mut sink = RecorderSink::new(100_000_000);
        let parent = bfs(&g, root, &mut big_emitter(&mut sink));
        // Reference reachability via simple BFS.
        let mut seen = vec![false; g.num_vertices() as usize];
        let mut q = std::collections::VecDeque::from([root]);
        seen[root as usize] = true;
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    q.push_back(v);
                }
            }
        }
        for v in 0..g.num_vertices() {
            assert_eq!(
                parent[v as usize] != INF,
                seen[v as usize],
                "reachability mismatch at {v}"
            );
        }
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = tiny(GraphKind::Urand);
        let mut sink = RecorderSink::new(100_000_000);
        let ranks = pagerank(&g, 3, &mut big_emitter(&mut sink));
        let sum: f64 = ranks.iter().sum();
        // Dangling mass leaks, but the sum stays near 1 for connected graphs.
        assert!((0.5..=1.05).contains(&sum), "rank sum {sum} out of range");
        assert!(ranks.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn cc_matches_union_find() {
        let g = tiny(GraphKind::Road);
        let mut sink = RecorderSink::new(200_000_000);
        let comp = connected_components(&g, &mut big_emitter(&mut sink));
        // Union-find reference.
        let n = g.num_vertices() as usize;
        let mut uf: Vec<u32> = (0..n as u32).collect();
        fn find(uf: &mut Vec<u32>, x: u32) -> u32 {
            if uf[x as usize] != x {
                let r = find(uf, uf[x as usize]);
                uf[x as usize] = r;
            }
            uf[x as usize]
        }
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
                if ru != rv {
                    uf[ru.max(rv) as usize] = ru.min(rv);
                }
            }
        }
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                assert_eq!(comp[u as usize], comp[v as usize], "edge {u}-{v} split");
            }
        }
        let sv_comps: std::collections::HashSet<u32> = comp.iter().copied().collect();
        let uf_comps: std::collections::HashSet<u32> =
            (0..n as u32).map(|v| find(&mut uf, v)).collect();
        assert_eq!(sv_comps.len(), uf_comps.len(), "component count differs");
    }

    #[test]
    fn tc_matches_bruteforce_on_small_graph() {
        // Two triangles sharing an edge: (0,1,2) and (1,2,3).
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let mut sink = RecorderSink::new(1_000_000);
        let t = triangle_count(&g, &mut big_emitter(&mut sink));
        assert_eq!(t, 2);
    }

    #[test]
    fn tc_counts_kron_triangles() {
        let g = tiny(GraphKind::Kron);
        let mut sink = RecorderSink::new(500_000_000);
        let t = triangle_count(&g, &mut big_emitter(&mut sink));
        assert!(t > 0, "power-law graph should contain triangles");
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = tiny(GraphKind::Road);
        let root = g.root_near(3);
        let mut sink = RecorderSink::new(500_000_000);
        let dist = sssp(&g, root, 16, &mut big_emitter(&mut sink));
        // Dijkstra reference with identical weights.
        let n = g.num_vertices() as usize;
        let mut ref_dist = vec![u64::MAX; n];
        ref_dist[root as usize] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, root)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > ref_dist[u as usize] {
                continue;
            }
            for ei in g.edge_range(u) {
                let v = g.target(ei);
                let nd = d + u64::from(g.weight(ei));
                if nd < ref_dist[v as usize] {
                    ref_dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        for v in 0..n {
            let expect = if ref_dist[v] == u64::MAX {
                INF
            } else {
                u32::try_from(ref_dist[v]).unwrap()
            };
            assert_eq!(dist[v], expect, "distance mismatch at {v}");
        }
    }

    #[test]
    fn bc_assigns_positive_centrality_on_path() {
        // Path 0-1-2: vertex 1 is on every shortest path between 0 and 2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut sink = RecorderSink::new(1_000_000);
        let c = betweenness(&g, &[0, 1, 2], &mut big_emitter(&mut sink));
        assert!(
            c[1] > c[0] && c[1] > c[2],
            "middle vertex must dominate: {c:?}"
        );
    }

    #[test]
    fn workloads_emit_reasonable_mix() {
        for kernel in Kernel::ALL {
            let w = GapWorkload::new(kernel, GraphKind::Kron, GraphScale::Tiny, 9);
            let mut sink = CountingSink::with_budget(20_000);
            let mut pass = 0;
            while !sink.is_closed() {
                w.generate(pass, &mut sink);
                pass += 1;
            }
            let loads = sink.loads() as f64 / sink.total() as f64;
            let branches = sink.branches() as f64 / sink.total() as f64;
            assert!(
                (0.15..=0.75).contains(&loads),
                "{} load fraction {loads:.2} out of range",
                w.name()
            );
            assert!(branches > 0.02, "{} emits almost no branches", w.name());
        }
    }

    #[test]
    fn workload_passes_vary_roots() {
        let w = GapWorkload::new(Kernel::Bfs, GraphKind::Kron, GraphScale::Tiny, 9);
        let pass = |p| {
            let mut sink = RecorderSink::new(5_000);
            w.generate(p, &mut sink);
            sink.into_records()
        };
        assert_ne!(pass(0), pass(1), "passes 0 and 1 start from one root");
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("nope"), None);
    }
}
