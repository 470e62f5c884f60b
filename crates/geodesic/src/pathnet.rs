//! Pathnets: Steiner-point graphs that approximate surface distances.
//!
//! "A so-called pathnet, which is created by inserting Steiner points into
//! the original surface model" (paper §2.3, after Kanai–Suzuki). Each mesh
//! edge is subdivided by `m` Steiner points; within every facet all boundary
//! nodes (corners + Steiner points of its three edges) are pairwise
//! connected by straight segments, which lie in the facet plane and are
//! therefore valid surface paths. Dijkstra over this graph converges to the
//! true surface distance from above as `m` grows.
//!
//! The DMTM's ">100 % resolution" levels are pathnets over the original
//! mesh (paper §3.2), and the Kanai–Suzuki engine refines pathnets locally.
//! [`Pathnet`] builds the graph; [`RegionNet`] searches the net of a
//! region where it lies, generating each node's links as the run reaches
//! it, and is what ranking runs.

use crate::graph::{
    potential_sq, run_scratch, Adjacency, Dijkstra, DijkstraScratch, Graph, QueueCounters,
};
use crate::mesh_net::MeshPoint;
use sknn_geom::{Point3, Rect2};
use sknn_terrain::mesh::{TerrainMesh, TriId, VertexId};

/// The subdivided mesh edges of a pathnet, ascending by `(lo, hi)` mesh
/// vertex ids: the `i`-th edge's Steiner nodes are `base + i·m ..
/// base + (i + 1)·m`, ordered from `lo` to `hi`. The sorted keys pin the
/// Steiner numbering; an embedding finds a facet's edges by binary search.
#[derive(Debug, Clone, Default)]
struct EdgeSteinerMap {
    keys: Vec<(VertexId, VertexId)>,
    base: u32,
    m: u32,
}

impl EdgeSteinerMap {
    /// First Steiner node of the `i`-th edge.
    #[inline]
    fn first(&self, i: usize) -> u32 {
        self.base + i as u32 * self.m
    }

    #[inline]
    fn get(&self, key: (VertexId, VertexId)) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|i| self.first(i))
    }
}

/// A Steiner-point graph over (the admitted facets of) a mesh. Node `v <
/// mesh.num_vertices()` is mesh vertex `v` (isolated when no admitted
/// facet touches it); Steiner nodes follow.
#[derive(Debug, Clone)]
pub struct Pathnet {
    graph: Graph,
    /// Positions of all nodes: the mesh vertices first, Steiner nodes
    /// after them.
    node_pos: Vec<Point3>,
    /// The subdivided mesh edges and their Steiner nodes.
    edge_steiner: EdgeSteinerMap,
    steiner_per_edge: usize,
    /// The facets a filter admitted; `None` admits all.
    included: Option<Vec<bool>>,
}

/// Distances from one source to a destination list (see
/// [`Pathnet::distances`] and [`RegionNet::distances`]).
#[derive(Debug, Clone)]
pub struct Distances {
    /// Approximate surface distance to each destination, in list order;
    /// `f64::INFINITY` for one the net does not connect to the source.
    pub dist: Vec<f64>,
    /// Nodes settled by the run.
    pub settled: usize,
    /// Queue-operation counters of the run.
    pub queue: QueueCounters,
}

/// How a destination is read off a run: the straight segment when it
/// shares the source's facet, else the least `dist(node) + exit cost` over
/// its embedding.
enum Exit {
    Straight(f64),
    Embedded(Vec<(u32, f64)>),
}

impl Exit {
    /// `b`'s exit from a run out of `a`; `embed` embeds `b`.
    fn of(a: MeshPoint, b: MeshPoint, embed: impl FnOnce(MeshPoint) -> Vec<(u32, f64)>) -> Self {
        match (a, b) {
            (
                MeshPoint::Interior { tri: ta, pos: pa },
                MeshPoint::Interior { tri: tb, pos: pb },
            ) if ta == tb => Exit::Straight(pa.dist(pb)),
            _ => Exit::Embedded(embed(b)),
        }
    }

    /// The nodes a run must settle before this exit reads as after the
    /// run to exhaustion.
    fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        let on: &[(u32, f64)] = match self {
            Exit::Straight(_) => &[],
            Exit::Embedded(on) => on,
        };
        on.iter().map(|&(v, _)| v)
    }

    fn read(&self, dist: impl Fn(u32) -> f64) -> f64 {
        match self {
            Exit::Straight(d) => *d,
            Exit::Embedded(on) => {
                on.iter().map(|&(v, exit)| dist(v) + exit).fold(f64::INFINITY, f64::min)
            }
        }
    }
}

impl Pathnet {
    /// Build a pathnet with `steiner_per_edge` Steiner points per mesh edge
    /// whose nodes `0..mesh.num_vertices()` are the mesh vertices. When
    /// `tri_filter` is given, only facets accepted by it contribute; edges
    /// bordering no included facet get no Steiner nodes. Costs O(mesh)
    /// whatever the filter admits — [`RegionNet`] searches a region's net
    /// without building it. Every node pair is linked once: each collinear
    /// pair by its mesh edge, each other pair by the one facet whose two
    /// sides it spans.
    pub fn build(
        mesh: &TerrainMesh,
        steiner_per_edge: usize,
        tri_filter: Option<&dyn Fn(TriId) -> bool>,
    ) -> Self {
        let included: Option<Vec<bool>> =
            tri_filter.map(|f| (0..mesh.num_triangles() as TriId).map(f).collect());
        let facets: Vec<TriId> = (0..mesh.num_triangles() as TriId)
            .filter(|&t| included.as_ref().is_none_or(|v| v[t as usize]))
            .collect();
        let (node_pos, edge_steiner, edges) = assemble(mesh, steiner_per_edge, &facets);
        Self {
            graph: Graph::from_undirected(node_pos.len(), &edges),
            node_pos,
            edge_steiner,
            steiner_per_edge,
            included,
        }
    }

    /// Graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Num nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_pos.len()
    }

    /// Steiner per edge.
    pub fn steiner_per_edge(&self) -> usize {
        self.steiner_per_edge
    }

    fn tri_included(&self, t: TriId) -> bool {
        self.included.as_ref().is_none_or(|v| v[t as usize])
    }

    /// Pathnet embedding of a surface point: `(node, entry cost)` pairs
    /// connecting it to every boundary node of its facet (straight in-facet
    /// segments), or to its facet's corners when the net does not hold
    /// the facet.
    pub fn embedding(&self, mesh: &TerrainMesh, p: MeshPoint) -> Vec<(u32, f64)> {
        match p {
            MeshPoint::Vertex(v) => vec![(v, 0.0)],
            MeshPoint::Interior { tri, pos } if !self.tri_included(tri) => {
                mesh.triangle_ids(tri).iter().map(|&v| (v, mesh.vertex(v).dist(pos))).collect()
            }
            MeshPoint::Interior { tri, pos } => {
                let mut sides: [Vec<u32>; 3] = Default::default();
                facet_sides_into(mesh, &self.edge_steiner, self.steiner_per_edge, tri, &mut sides);
                let mut out: Vec<(u32, f64)> = sides
                    .iter()
                    .flatten()
                    .map(|&n| (n, self.node_pos[n as usize].dist(pos)))
                    .collect();
                out.sort_unstable_by_key(|a| a.0);
                out.dedup_by_key(|e| e.0);
                out
            }
        }
    }

    /// Approximate surface distance between two surface points.
    pub fn distance(&self, mesh: &TerrainMesh, a: MeshPoint, b: MeshPoint) -> f64 {
        self.distances(mesh, a, &[b], &mut DijkstraScratch::new()).dist[0]
    }

    /// Approximate surface distances from `a` to each of `dests`, from one
    /// Dijkstra run that stops once every node of every listed
    /// destination's embedding is settled.
    ///
    /// A destination in `a`'s own facet reads the straight segment and
    /// lists no node; any other reads the least `dist(v) + exit` over its
    /// embedding. Only listed nodes are read, and a settled label is final,
    /// so every distance is bit-identical to the one the run to exhaustion
    /// gives; only `settled` and the queue counters are smaller.
    pub fn distances(
        &self,
        mesh: &TerrainMesh,
        a: MeshPoint,
        dests: &[MeshPoint],
        scratch: &mut DijkstraScratch,
    ) -> Distances {
        let src = self.embedding(mesh, a);
        let exits: Vec<Exit> =
            dests.iter().map(|&b| Exit::of(a, b, |b| self.embedding(mesh, b))).collect();
        let targets: Vec<u32> = exits.iter().flat_map(Exit::nodes).collect();
        let run = Dijkstra::run_multi_scratch(&self.graph, &src, Some(&targets), scratch);
        let dist = exits.iter().map(|e| e.read(|v| run.dist(v))).collect();
        Distances { dist, settled: run.settled, queue: run.queue }
    }

    /// Node path between two embedded points (positions), for corridor
    /// construction in Kanai–Suzuki refinement.
    pub fn path_positions(&self, mesh: &TerrainMesh, a: MeshPoint, b: MeshPoint) -> Vec<Point3> {
        let src = self.embedding(mesh, a);
        let dst = self.embedding(mesh, b);
        let d = Dijkstra::run_multi(&self.graph, &src, None);
        let (mut best_v, mut best_d) = (None, f64::INFINITY);
        for &(v, exit) in &dst {
            let total = d.dist[v as usize] + exit;
            if total < best_d {
                best_d = total;
                best_v = Some(v);
            }
        }
        let mut out = vec![a.position(mesh)];
        if let Some(v) = best_v {
            out.extend(d.path_to(v).into_iter().map(|n| self.node_pos[n as usize]));
        }
        out.push(b.position(mesh));
        out
    }
}

/// The positions of all nodes, the Steiner map and the undirected edge list
/// of a pathnet over `facets`, every node pair listed once. Vertex nodes
/// are the mesh vertices, Steiner nodes follow them.
///
/// The net links every two nodes on different sides of a facet, and each
/// edge's chain `lo – s₁ – … – sₘ – hi`, at [`Point3::dist`] of the ends. Such
/// a pair either lies on one mesh edge or spans two sides of exactly one
/// facet, so the list is emitted without repeats and without lookups. One
/// sort of the facet sides by their `(lo, hi)` key numbers the mesh edges
/// (and so the Steiner nodes) ascending and names each side's edge; each
/// edge then links its collinear pairs once — the chain, every Steiner
/// point to the corner it is not chained to, and the corner pair: `3m`
/// pairs, or the corner pair alone for `m = 0`. Each facet links only the
/// pairs that share no mesh edge — Steiner points of two different sides,
/// and a side's Steiner points to the opposite corner: `3m(m + 1)` pairs.
fn assemble(
    mesh: &TerrainMesh,
    m: usize,
    facets: &[TriId],
) -> (Vec<Point3>, EdgeSteinerMap, Vec<(u32, u32, f64)>) {
    // One row per facet side, `(lo << 32 | hi, 3f + s)`.
    let mut sides: Vec<(u64, u32)> = Vec::with_capacity(3 * facets.len());
    for (f, &t) in facets.iter().enumerate() {
        let c = mesh.triangle_ids(t);
        for s in 0..3 {
            let (u, v) = (c[s], c[(s + 1) % 3]);
            sides.push(((u.min(v) as u64) << 32 | u.max(v) as u64, (3 * f + s) as u32));
        }
    }
    sides.sort_unstable_by_key(|&(key, _)| key);
    let num_edges = sides.chunk_by(|x, y| x.0 == y.0).count();

    let mut node_pos = mesh.vertices().to_vec();
    node_pos.reserve(num_edges * m);
    let mut steiner = EdgeSteinerMap {
        keys: Vec::with_capacity(num_edges),
        base: node_pos.len() as u32,
        m: m as u32,
    };
    let mut side_edge = vec![0u32; sides.len()];
    let mut edges: Vec<(u32, u32, f64)> =
        Vec::with_capacity(num_edges * (3 * m).max(1) + facets.len() * 3 * m * (m + 1));
    let link = |edges: &mut Vec<(u32, u32, f64)>, pos: &[Point3], u: u32, v: u32| {
        edges.push((u, v, pos[u as usize].dist(pos[v as usize])));
    };
    let m32 = m as u32;

    for (e, group) in sides.chunk_by(|x, y| x.0 == y.0).enumerate() {
        let (na, nb) = ((group[0].0 >> 32) as VertexId, group[0].0 as VertexId);
        for &(_, slot) in group {
            side_edge[slot as usize] = e as u32;
        }
        steiner.keys.push((na, nb));
        let first = node_pos.len() as u32;
        let (pa, pb) = (mesh.vertex(na), mesh.vertex(nb));
        node_pos.extend((1..=m).map(|i| pa.lerp(pb, i as f64 / (m + 1) as f64)));
        let mut prev = na;
        for s in first..first + m32 {
            link(&mut edges, &node_pos, prev, s);
            prev = s;
        }
        link(&mut edges, &node_pos, prev, nb);
        if m > 0 {
            for s in first + 1..first + m32 {
                link(&mut edges, &node_pos, na, s);
            }
            for s in first..first + m32 - 1 {
                link(&mut edges, &node_pos, s, nb);
            }
            link(&mut edges, &node_pos, na, nb);
        }
    }

    for (f, &t) in facets.iter().enumerate() {
        let c = mesh.triangle_ids(t);
        let run = |s: usize| {
            let first = steiner.first(side_edge[3 * f + s] as usize);
            first..first + m32
        };
        for s in 0..3 {
            let opposite = c[(s + 2) % 3];
            for u in run(s) {
                link(&mut edges, &node_pos, opposite, u);
                for v in run((s + 1) % 3) {
                    link(&mut edges, &node_pos, u, v);
                }
            }
        }
    }
    (node_pos, steiner, edges)
}

/// Fill `out` with the node lists of a facet's three sides
/// (corner, steiner..., corner), reusing the caller's buffers.
fn facet_sides_into(
    mesh: &TerrainMesh,
    edge_steiner: &EdgeSteinerMap,
    m: usize,
    t: TriId,
    out: &mut [Vec<u32>; 3],
) {
    let [a, b, c] = mesh.triangle_ids(t);
    for (s, (u, v)) in out.iter_mut().zip([(a, b), (b, c), (c, a)]) {
        s.clear();
        s.push(u);
        if m > 0 {
            if let Some(first) = edge_steiner.get((u.min(v), u.max(v))) {
                if u < v {
                    s.extend(first..first + m as u32);
                } else {
                    s.extend((first..first + m as u32).rev());
                }
            }
        }
        s.push(v);
    }
}

/// The pathnet of the facets whose MBR meets a region — the net
/// [`Pathnet::build`] gives under that filter — searched in place: no
/// graph is built, and a run generates the links of each node it settles
/// from the node's admitted facets, by the rule the built net links by.
///
/// Node `v < mesh.num_vertices()` is mesh vertex `v`, as in the built net.
/// The `i`-th Steiner point (from the lower vertex id) of the edge on side
/// `s` of facet `t` — `t` the lower of the edge's facets, through
/// [`TerrainMesh::tri_neighbor`] — is node `num_vertices + (3t + s)·m + i`,
/// at [`Point3::lerp`] of the edge's ends as the built net places it. The
/// numbering differs from the built net's; distances do not (DESIGN §5).
#[derive(Debug, Clone, Copy)]
pub struct RegionNet<'m> {
    mesh: &'m TerrainMesh,
    m: u32,
    region: Rect2,
}

impl<'m> RegionNet<'m> {
    /// The net of the facets of `mesh` whose projected MBR meets `region`,
    /// with `steiner_per_edge` Steiner points per mesh edge.
    pub fn new(mesh: &'m TerrainMesh, steiner_per_edge: usize, region: Rect2) -> Self {
        Self { mesh, m: steiner_per_edge as u32, region }
    }

    #[inline]
    fn included(&self, t: TriId) -> bool {
        self.mesh.triangle(t).mbr_xy().intersects(&self.region)
    }

    /// The edge on side `s` of facet `t` as `3t' + s'`, `t'` the lower of
    /// its facets and `s'` its side there.
    #[inline]
    fn edge_key(&self, t: TriId, s: usize) -> u32 {
        match self.mesh.tri_neighbor(t, s) {
            Some(nb) if nb < t => {
                let back = (0..3)
                    .find(|&i| self.mesh.tri_neighbor(nb, i) == Some(t))
                    .expect("facet adjacency is symmetric");
                3 * nb + back as u32
            }
            _ => 3 * t + s as u32,
        }
    }

    /// First Steiner node of the edge on side `s` of facet `t`.
    #[inline]
    fn steiner(&self, t: TriId, s: usize) -> u32 {
        self.mesh.num_vertices() as u32 + self.edge_key(t, s) * self.m
    }

    /// A Steiner node's edge key and index along its edge.
    #[inline]
    fn steiner_of(&self, node: u32) -> (u32, u32) {
        let k = node - self.mesh.num_vertices() as u32;
        (k / self.m, k % self.m)
    }

    /// The ends of the edge `key`, lower vertex id first.
    #[inline]
    fn edge_ends(&self, key: u32) -> (VertexId, VertexId) {
        let (t, s) = (key / 3, key as usize % 3);
        let c = self.mesh.triangle_ids(t);
        let (u, v) = (c[s], c[(s + 1) % 3]);
        (u.min(v), u.max(v))
    }

    /// Approximate surface distances from `a` to each of `dests` — bit for
    /// bit those [`Pathnet::distances`] reads over the net built under the
    /// same facet filter — from one run aimed at the destinations (A*,
    /// potential `(1 − ε)·` the straight line to the nearest one) that
    /// stops once every node of every listed destination's embedding is
    /// settled. Its state is sized by the nodes it reaches.
    pub fn distances(
        &self,
        a: MeshPoint,
        dests: &[MeshPoint],
        scratch: &mut PathnetScratch,
    ) -> Distances {
        let PathnetScratch { dijkstra, table } = scratch;
        table.clear();
        let src = table.embed(self, a);
        let exits: Vec<Exit> =
            dests.iter().map(|&b| Exit::of(a, b, |b| table.embed(self, b))).collect();
        let targets: Vec<u32> = exits.iter().flat_map(Exit::nodes).collect();
        for (&b, exit) in dests.iter().zip(&exits) {
            if matches!(exit, Exit::Embedded(_)) {
                table.goals.push(b.position(self.mesh));
            }
        }
        let mut adj = InPlace { net: self, table };
        let (settled, queue) =
            run_scratch::<_, false>(&mut adj, &src, Some(&targets), &[], |_| true, dijkstra);
        let dist = exits.iter().map(|e| e.read(|v| dijkstra.dist(v))).collect();
        Distances { dist, settled, queue }
    }
}

/// Reusable state of [`RegionNet`] runs: the Dijkstra state and the table
/// of the nodes and facets a run reaches, both sized by what the runs
/// reach and never by the mesh.
#[derive(Debug, Default)]
pub struct PathnetScratch {
    dijkstra: DijkstraScratch,
    table: NodeTable,
}

impl PathnetScratch {
    /// An empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A facet a [`RegionNet`] run has read: whether the region admits it
/// and, when it does, the slots of its corners and the first slot of each
/// side's Steiner run (each edge's run is `m` consecutive slots, from its
/// lower vertex id).
#[derive(Debug, Clone, Copy, Default)]
struct Facet {
    admitted: bool,
    corners: [u32; 3],
    steiner: [u32; 3],
}

/// An open-addressed `u32 → u32` map, at most half full; [`EMPTY`] keys
/// are free.
#[derive(Debug, Default)]
struct IdMap {
    entries: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl IdMap {
    fn clear(&mut self) {
        if self.entries.is_empty() {
            self.entries.resize(1024, (EMPTY, 0));
        } else if self.len > 0 {
            self.entries.fill((EMPTY, 0));
        }
        self.len = 0;
    }

    /// Where `key`'s probe starts: the middle bits of a Fibonacci hash.
    #[inline]
    fn home(key: u32, mask: usize) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// `key`'s value, or the free entry a new one goes to.
    #[inline]
    fn find(&self, key: u32) -> Result<u32, usize> {
        let mask = self.entries.len() - 1;
        let mut i = Self::home(key, mask);
        loop {
            match self.entries[i] {
                (k, v) if k == key => return Ok(v),
                (EMPTY, _) => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Put `key → value` at the free entry [`find`](Self::find) named.
    fn insert_at(&mut self, at: usize, key: u32, value: u32) {
        self.entries[at] = (key, value);
        self.len += 1;
        if 2 * self.len > self.entries.len() {
            let old = std::mem::take(&mut self.entries);
            self.entries.resize(2 * old.len(), (EMPTY, 0));
            let mask = self.entries.len() - 1;
            for (k, v) in old.into_iter().filter(|e| e.0 != EMPTY) {
                let mut i = Self::home(k, mask);
                while self.entries[i].0 != EMPTY {
                    i = (i + 1) & mask;
                }
                self.entries[i] = (k, v);
            }
        }
    }
}

/// The nodes and facets one [`RegionNet`] run has reached. Nodes are
/// numbered ("slots") in the order the run reached them, and the slots
/// index the Dijkstra state.
#[derive(Debug, Default)]
struct NodeTable {
    /// Slot of each reached vertex, and first slot of each reached edge's
    /// Steiner run, by node.
    slots: IdMap,
    /// Index into `facets` of each facet read, by facet.
    facet_index: IdMap,
    facets: Vec<Facet>,
    /// Node and position of each slot.
    nodes: Vec<u32>,
    pos: Vec<Point3>,
    /// The links of the node the run loaded last, as `(slot, weight)`.
    links: Vec<(u32, f64)>,
    /// The admitted facets around the vertex being loaded.
    around: Vec<(TriId, Facet)>,
    /// Positions of the destinations the run is aimed at.
    goals: Vec<Point3>,
}

impl NodeTable {
    fn clear(&mut self) {
        self.slots.clear();
        self.facet_index.clear();
        self.facets.clear();
        self.nodes.clear();
        self.pos.clear();
        self.goals.clear();
    }

    /// A new slot for `node` at `pos`.
    fn push(&mut self, node: u32, pos: Point3) -> u32 {
        self.nodes.push(node);
        self.pos.push(pos);
        self.nodes.len() as u32 - 1
    }

    /// The slot of `node`; a Steiner node's whole edge run is numbered
    /// when the run reaches the edge first.
    fn slot(&mut self, net: &RegionNet, node: u32) -> u32 {
        if (node as usize) < net.mesh.num_vertices() {
            return match self.slots.find(node) {
                Ok(slot) => slot,
                Err(at) => {
                    let slot = self.push(node, net.mesh.vertex(node));
                    self.slots.insert_at(at, node, slot);
                    slot
                }
            };
        }
        let (key, i) = net.steiner_of(node);
        let first = node - i;
        let run = match self.slots.find(first) {
            Ok(run) => run,
            Err(at) => {
                let (lo, hi) = net.edge_ends(key);
                let (pa, pb) = (net.mesh.vertex(lo), net.mesh.vertex(hi));
                let m = net.m as usize;
                let run = self.nodes.len() as u32;
                for j in 0..net.m {
                    self.push(first + j, pa.lerp(pb, (j as usize + 1) as f64 / (m + 1) as f64));
                }
                self.slots.insert_at(at, first, run);
                run
            }
        };
        run + i
    }

    /// Facet `t` as the run reads it, numbering its nodes when the region
    /// admits it.
    fn facet(&mut self, net: &RegionNet, t: TriId) -> Facet {
        match self.facet_index.find(t) {
            Ok(i) => self.facets[i as usize],
            Err(at) => {
                let mut f = Facet { admitted: net.included(t), ..Facet::default() };
                if f.admitted {
                    f.corners = net.mesh.triangle_ids(t).map(|v| self.slot(net, v));
                    if net.m > 0 {
                        f.steiner = [0, 1, 2].map(|s| self.slot(net, net.steiner(t, s)));
                    }
                }
                self.facets.push(f);
                // `slot` never touches the facet index, so `at` is free.
                self.facet_index.insert_at(at, t, self.facets.len() as u32 - 1);
                f
            }
        }
    }

    /// `(slot, entry cost)` pairs connecting a surface point to the net:
    /// every boundary node of its facet, or its facet's corners when the
    /// region does not admit the facet — as [`Pathnet::embedding`]
    /// connects it.
    fn embed(&mut self, net: &RegionNet, p: MeshPoint) -> Vec<(u32, f64)> {
        let slots: Vec<u32> = match p {
            MeshPoint::Vertex(v) => return vec![(self.slot(net, v), 0.0)],
            MeshPoint::Interior { tri, .. } => match self.facet(net, tri) {
                f if f.admitted => {
                    let steiner = f.steiner.iter().flat_map(|&run| run..run + net.m);
                    f.corners.into_iter().chain(steiner).collect()
                }
                _ => net.mesh.triangle_ids(tri).map(|v| self.slot(net, v)).to_vec(),
            },
        };
        let at = p.position(net.mesh);
        slots.into_iter().map(|s| (s, self.pos[s as usize].dist(at))).collect()
    }
}

/// A [`RegionNet`] run's [`Adjacency`]: slots, links generated on load.
struct InPlace<'a, 'm> {
    net: &'a RegionNet<'m>,
    table: &'a mut NodeTable,
}

impl InPlace<'_, '_> {
    /// The slots `u` links to, each once, into `table.links` (weights
    /// unset).
    ///
    /// A vertex links, in each admitted facet around it, the Steiner
    /// points of the opposite side and the nodes of its two sides there —
    /// a side two admitted facets share is listed by the one it leaves the
    /// vertex in (facets are counter-clockwise, so a shared side leaves
    /// the vertex in exactly one of them). A Steiner point links its
    /// edge's two corners and chain neighbours, and in each admitted facet
    /// of its edge the opposite corner and the Steiner points of the two
    /// other sides.
    fn neighbours(&mut self, u: u32) {
        let (net, table) = (self.net, &mut *self.table);
        let (mesh, m) = (net.mesh, net.m);
        let mut links = std::mem::take(&mut table.links);
        links.clear();
        let mut push = |slot: u32| links.push((slot, 0.0));
        let node = table.nodes[u as usize];
        if (node as usize) < mesh.num_vertices() {
            let mut around = std::mem::take(&mut table.around);
            around.clear();
            for &t in mesh.vertex_triangles(node) {
                let f = table.facet(net, t);
                if f.admitted {
                    around.push((t, f));
                }
            }
            for &(t, f) in &around {
                let k = (0..3).find(|&k| f.corners[k] == u).expect("a vertex's facet holds it");
                let (out, opp, back) = (k, (k + 1) % 3, (k + 2) % 3);
                push(f.corners[opp]);
                (f.steiner[out]..f.steiner[out] + m).for_each(&mut push);
                if !mesh.tri_neighbor(t, back).is_some_and(|a| around.iter().any(|e| e.0 == a)) {
                    push(f.corners[back]);
                    (f.steiner[back]..f.steiner[back] + m).for_each(&mut push);
                }
                (f.steiner[opp]..f.steiner[opp] + m).for_each(&mut push);
            }
            table.around = around;
        } else {
            let (key, i) = net.steiner_of(node);
            let (t0, s0) = (key / 3, key as usize % 3);
            if i > 0 {
                push(u - 1);
            }
            if i + 1 < m {
                push(u + 1);
            }
            let across = mesh.tri_neighbor(t0, s0).map(|t1| {
                let s1 = (0..3).find(|&s| mesh.tri_neighbor(t1, s) == Some(t0));
                (t1, s1.expect("facet adjacency is symmetric"))
            });
            let mut ends = false;
            for (t, s) in std::iter::once((t0, s0)).chain(across) {
                let f = table.facet(net, t);
                if !f.admitted {
                    continue;
                }
                if !ends {
                    push(f.corners[s]);
                    push(f.corners[(s + 1) % 3]);
                    ends = true;
                }
                push(f.corners[(s + 2) % 3]);
                for side in [(s + 1) % 3, (s + 2) % 3] {
                    (f.steiner[side]..f.steiner[side] + m).for_each(&mut push);
                }
            }
        }
        table.links = links;
    }
}

impl Adjacency for InPlace<'_, '_> {
    const GROWS: bool = true;
    const GOAL: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.table.nodes.len()
    }

    fn bucket_width(&self) -> f64 {
        self.net.mesh.mean_edge_length() / (self.net.m + 1) as f64
    }

    fn load(&mut self, u: u32) {
        self.neighbours(u);
        let table = &mut *self.table;
        let pu = table.pos[u as usize];
        for (v, w) in &mut table.links {
            *w = pu.dist(table.pos[*v as usize]);
        }
    }

    #[inline]
    fn edges(&self) -> &[(u32, f64)] {
        &self.table.links
    }

    fn potential(&self, v: u32) -> f64 {
        let p = self.table.pos[v as usize];
        potential_sq(self.table.goals.iter().map(|&g| p.dist_sq(g)).fold(f64::INFINITY, f64::min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;

    fn flat(n: usize) -> TerrainMesh {
        TerrainConfig { relief_m: 0.0, ..TerrainConfig::bh().with_grid(n) }.build_mesh(0)
    }

    #[test]
    fn flat_mesh_pathnet_approaches_euclidean() {
        let mesh = flat(9);
        let a = MeshPoint::Vertex(0);
        let b = MeshPoint::Vertex((mesh.num_vertices() - 1) as u32);
        let euclid = mesh.vertex(0).dist(mesh.vertex(mesh.num_vertices() as u32 - 1));
        let mut prev = f64::INFINITY;
        for m in [0usize, 1, 3] {
            let net = Pathnet::build(&mesh, m, None);
            let d = net.distance(&mesh, a, b);
            // Monotone improvement, always an upper bound of the true
            // (here: straight-line) distance.
            assert!(d >= euclid - 1e-9, "m={m}: {d} < {euclid}");
            assert!(d <= prev + 1e-9, "m={m} not improving: {d} > {prev}");
            prev = d;
        }
        // With 3 Steiner points the error on a flat diagonal is small.
        assert!(prev <= euclid * 1.03, "{prev} vs {euclid}");
    }

    #[test]
    fn steiner_counts() {
        let mesh = flat(5);
        let net = Pathnet::build(&mesh, 1, None);
        assert_eq!(net.num_nodes(), mesh.num_vertices() + mesh.num_edges());
        let net3 = Pathnet::build(&mesh, 3, None);
        assert_eq!(net3.num_nodes(), mesh.num_vertices() + 3 * mesh.num_edges());
    }

    #[test]
    fn interior_points_same_facet_shortcut() {
        let mesh = flat(5);
        let loc = TriangleLocator::build(&mesh);
        let p2 = Point2::new(3.0, 2.0);
        let q2 = Point2::new(4.0, 3.0);
        let t = loc.locate(&mesh, p2).unwrap();
        let net = Pathnet::build(&mesh, 1, None);
        let p = MeshPoint::Interior { tri: t, pos: loc.lift(&mesh, p2).unwrap() };
        let tq = loc.locate(&mesh, q2).unwrap();
        if tq == t {
            let q = MeshPoint::Interior { tri: t, pos: loc.lift(&mesh, q2).unwrap() };
            let d = net.distance(&mesh, p, q);
            assert!((d - 2f64.sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn region_restricted_pathnet_still_connects_inside() {
        let mesh = flat(9);
        // Include only the lower-left quadrant of facets.
        let filter = |t: TriId| {
            let c = mesh.triangle(t).mbr_xy().center();
            c.x < 45.0 && c.y < 45.0
        };
        let net = Pathnet::build(&mesh, 1, Some(&filter));
        let d = net.distance(&mesh, MeshPoint::Vertex(0), MeshPoint::Vertex(2 * 9 + 2));
        assert!(d.is_finite());
        // A vertex far outside the region is unreachable through the net's
        // facet links (no steiner / facet edges there).
        let far = (mesh.num_vertices() - 1) as u32;
        let dfar = net.distance(&mesh, MeshPoint::Vertex(0), MeshPoint::Vertex(far));
        assert!(dfar.is_infinite());
    }

    #[test]
    fn path_positions_connects_endpoints() {
        let mesh = flat(9);
        let net = Pathnet::build(&mesh, 1, None);
        let a = MeshPoint::Vertex(0);
        let b = MeshPoint::Vertex(80);
        let path = net.path_positions(&mesh, a, b);
        assert!(path.len() >= 2);
        assert_eq!(path[0], mesh.vertex(0));
        assert_eq!(*path.last().unwrap(), mesh.vertex(80));
    }

    #[test]
    fn shared_run_matches_per_pair_distance() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(3);
        let net = Pathnet::build(&mesh, 1, None);
        let a = MeshPoint::Vertex(0);
        let dests: Vec<MeshPoint> = [5u32, 17, 40, 80].map(MeshPoint::Vertex).to_vec();
        let shared = net.distances(&mesh, a, &dests, &mut DijkstraScratch::new());
        for (&b, d) in dests.iter().zip(&shared.dist) {
            let pair = net.distance(&mesh, a, b);
            assert_eq!(d.to_bits(), pair.to_bits(), "{b:?}");
        }
    }

    /// The facets whose MBR meets `rect`, by a scan of every facet.
    fn mbr_scan(mesh: &TerrainMesh, rect: &Rect2) -> Vec<TriId> {
        (0..mesh.num_triangles() as TriId)
            .filter(|&t| mesh.triangle(t).mbr_xy().intersects(rect))
            .collect()
    }

    /// The net [`RegionNet`] searches, built: the whole-mesh net under
    /// the filter admitting the facets whose MBR meets `rect`.
    fn oracle(mesh: &TerrainMesh, m: usize, rect: &Rect2) -> Pathnet {
        let filter = |t: TriId| mesh.triangle(t).mbr_xy().intersects(rect);
        Pathnet::build(mesh, m, Some(&filter))
    }

    /// The nodes of `net` — the corners of `facets` and the Steiner points
    /// of their edges — ascending.
    fn region_nodes(net: &RegionNet, facets: &[TriId]) -> Vec<u32> {
        let mut nodes: Vec<u32> = facets
            .iter()
            .flat_map(|&t| {
                let corners = net.mesh.triangle_ids(t);
                let steiner = (0..3).flat_map(move |s| {
                    let first = net.steiner(t, s);
                    first..first + net.m
                });
                corners.into_iter().chain(steiner)
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// `node` of `net` as the built net `built` numbers it.
    fn built_node(net: &RegionNet, built: &Pathnet, node: u32) -> u32 {
        if (node as usize) < net.mesh.num_vertices() {
            return node;
        }
        let (key, i) = net.steiner_of(node);
        built.edge_steiner.get(net.edge_ends(key)).expect("an edge of the built net") + i
    }

    /// The nodes a run from `a` to exhaustion reaches, in slot order, and
    /// the number it settles.
    fn reach(net: &RegionNet, a: MeshPoint, scratch: &mut PathnetScratch) -> (usize, Vec<u32>) {
        let PathnetScratch { dijkstra, table } = scratch;
        table.clear();
        let src = table.embed(net, a);
        table.goals.push(a.position(net.mesh));
        let mut adj = InPlace { net, table };
        let (settled, _) = run_scratch::<_, false>(&mut adj, &src, None, &[], |_| true, dijkstra);
        (settled, table.nodes.clone())
    }

    /// The links the in-place run generates for `node`, as `(node, weight
    /// bits)`, and `node`'s position.
    fn listed(net: &RegionNet, table: &mut NodeTable, node: u32) -> (Vec<(u32, u64)>, Point3) {
        let u = table.slot(net, node);
        let mut adj = InPlace { net, table };
        adj.load(u);
        let t = &*adj.table;
        (
            t.links.iter().map(|&(v, w)| (t.nodes[v as usize], w.to_bits())).collect(),
            t.pos[u as usize],
        )
    }

    /// Distinct mesh edges of `facets`.
    fn mesh_edges(mesh: &TerrainMesh, facets: &[TriId]) -> usize {
        let mut edges: Vec<(VertexId, VertexId)> = facets
            .iter()
            .flat_map(|&t| {
                let [a, b, c] = mesh.triangle_ids(t);
                [(a, b), (b, c), (c, a)].map(|(u, v)| (u.min(v), u.max(v)))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges.len()
    }

    #[test]
    fn region_net_size_follows_the_region_not_the_terrain() {
        // The same 8 × 8-cell rectangle (cells are 10 m on every grid).
        let rect = Rect2::new(Point2::new(101.0, 101.0), Point2::new(179.0, 179.0));
        for m in 0..=3 {
            let mut sizes = Vec::new();
            for grid in [33usize, 129] {
                let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(4);
                let net = RegionNet::new(&mesh, m, rect);
                let facets = mbr_scan(&mesh, &rect);
                let (f, e) = (facets.len(), mesh_edges(&mesh, &facets));
                assert_eq!(f, 2 * 8 * 8);
                // A run to exhaustion from a corner reaches the corners,
                // then m Steiner points per mesh edge, and nothing else.
                let corner = mesh.triangle_ids(facets[0])[0];
                let mut scratch = PathnetScratch::new();
                let (settled, reached) = reach(&net, MeshPoint::Vertex(corner), &mut scratch);
                assert_eq!(reached.len(), 9 * 9 + m * e, "{grid}, m = {m}");
                assert_eq!(settled, reached.len(), "{grid}, m = {m}");
                let mut sorted = reached.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, region_nodes(&net, &facets));
                // 3m collinear pairs per mesh edge (the corner pair alone
                // for m = 0) and 3m(m + 1) pairs across sides per facet,
                // nothing per mesh vertex; the filtered whole-mesh net
                // links exactly the same pairs.
                let ends: usize =
                    reached.iter().map(|&n| listed(&net, &mut scratch.table, n).0.len()).sum();
                let links = if m == 0 { e } else { 3 * m * e + 3 * m * (m + 1) * f };
                assert_eq!(ends, 2 * links, "{grid}, m = {m}");
                let built = oracle(&mesh, m, &rect);
                assert_eq!(built.graph().num_edges(), links, "{grid}, m = {m}");
                assert!(built.num_nodes() >= mesh.num_vertices());
                // The scratch holds what the run reached, not the mesh.
                let bound = 4 * reached.len().max(256);
                assert!(scratch.table.slots.entries.len() <= bound);
                assert!(scratch.table.facet_index.entries.len() <= bound);
                sizes.push((reached.len(), ends));
            }
            assert_eq!(sizes[0], sizes[1]);
        }
    }

    #[test]
    fn region_facets_equal_the_mbr_scan() {
        // The facets a run to exhaustion reads — the admitted ones around
        // the vertices it reaches — are those an MBR scan selects.
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(7);
        let e = mesh.extent();
        let at = |fx: f64, fy: f64| Point2::new(e.lo.x + e.width() * fx, e.lo.y + e.height() * fy);
        let rects = [
            Rect2::new(at(0.2, 0.3), at(0.45, 0.5)),
            // A degenerate rectangle on a grid line, the terrain corner,
            // one hanging over the edge, the whole terrain, and a miss.
            Rect2::new(at(0.5, 0.1), at(0.5, 0.9)),
            Rect2::new(at(0.0, 0.0), at(0.0, 0.0)),
            Rect2::new(at(0.9, 0.9), at(1.5, 1.5)),
            Rect2::new(at(-1.0, -1.0), at(2.0, 2.0)),
            Rect2::new(at(1.5, 1.5), at(2.0, 2.0)),
        ];
        let mut scratch = PathnetScratch::new();
        for rect in &rects {
            let scan = mbr_scan(&mesh, rect);
            let net = RegionNet::new(&mesh, 1, *rect);
            let start = scan.first().map_or(0, |&t| mesh.triangle_ids(t)[0]);
            let (_, reached) = reach(&net, MeshPoint::Vertex(start), &mut scratch);
            let mut read: Vec<TriId> = reached
                .iter()
                .filter(|&&n| (n as usize) < mesh.num_vertices())
                .flat_map(|&v| mesh.vertex_triangles(v).iter().copied())
                .filter(|&t| net.included(t))
                .collect();
            read.sort_unstable();
            read.dedup();
            assert_eq!(read, scan, "{rect:?}");
        }
        assert!(mbr_scan(&mesh, &rects[5]).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn random_point(
            rng: &mut StdRng,
            mesh: &TerrainMesh,
            loc: &TriangleLocator,
            within: &Rect2,
        ) -> MeshPoint {
            if rng.gen_range(0..10) < 3 {
                return MeshPoint::Vertex(rng.gen_range(0..mesh.num_vertices()) as u32);
            }
            loop {
                let p = Point2::new(
                    rng.gen_range(within.lo.x..within.hi.x),
                    rng.gen_range(within.lo.y..within.hi.y),
                );
                if let Some(tri) = loc.locate(mesh, p) {
                    let pos = mesh.triangle(tri).lift_xy(p).expect("located facet lifts");
                    return MeshPoint::Interior { tri, pos };
                }
            }
        }

        /// A 17² terrain, a rectangle on it (hanging over the west edge
        /// when `over_edge`), the facets meeting it, the in-place net and
        /// the filtered whole-mesh net over them, and endpoints: over the
        /// rectangle and a margin around it, so a good share sits in facets
        /// the region does not hold; a vertex certainly outside the region
        /// and a point in one of its facets (source and exit share an
        /// off-region corner, an isolated node); a second point in the
        /// facet of every interior endpoint; and the first endpoint again.
        struct Case {
            mesh: TerrainMesh,
            rect: Rect2,
            facets: Vec<TriId>,
            whole: Pathnet,
            ends: Vec<MeshPoint>,
        }

        fn case(seed: u64, m: usize, over_edge: bool) -> Case {
            let mesh = TerrainConfig::bh().with_grid(17).build_mesh(seed % 5);
            let loc = TriangleLocator::build(&mesh);
            let e = mesh.extent();
            let mut rng = StdRng::seed_from_u64(seed);
            let (w, h) = (rng.gen_range(5.0..90.0), rng.gen_range(5.0..90.0));
            let lo = if over_edge {
                Point2::new(e.lo.x - w / 2.0, rng.gen_range(e.lo.y..e.hi.y - h))
            } else {
                Point2::new(rng.gen_range(e.lo.x..e.hi.x - w), rng.gen_range(e.lo.y..e.hi.y - h))
            };
            let rect = Rect2::new(lo, Point2::new(lo.x + w, lo.y + h));
            let facets = mbr_scan(&mesh, &rect);
            let whole = oracle(&mesh, m, &rect);

            let around = rect.expanded(25.0).intersection(&e);
            let mut ends: Vec<MeshPoint> =
                (0..6).map(|_| random_point(&mut rng, &mesh, &loc, &around)).collect();
            let outside = (0..mesh.num_vertices() as u32)
                .find(|&v| {
                    mesh.vertex_triangles(v).iter().all(|t| facets.binary_search(t).is_err())
                })
                .expect("a 17² terrain is larger than any 90 m rectangle");
            let tri = mesh.vertex_triangles(outside)[0];
            ends.push(MeshPoint::Vertex(outside));
            let [a, b, c] = mesh.triangle(tri).vertices();
            ends.push(MeshPoint::Interior { tri, pos: a.lerp(b, 0.3).lerp(c, 0.3) });
            for i in 0..ends.len() {
                if let MeshPoint::Interior { tri, .. } = ends[i] {
                    let [a, b, c] = mesh.triangle(tri).vertices();
                    ends.push(MeshPoint::Interior { tri, pos: a.lerp(b, 0.6).lerp(c, 0.2) });
                }
            }
            ends.push(ends[0]);
            Case { mesh, rect, facets, whole, ends }
        }

        /// The pair rule before each pair was linked once, kept as the
        /// oracle of `assemble`: the node lists of every facet's three
        /// sides (each side's chain with them), every pair of nodes on two
        /// different sides, then sort + dedup, as `(min, max, weight bits)`.
        fn pair_rule(mesh: &TerrainMesh, net: &Pathnet, facets: &[TriId]) -> Vec<(u32, u32, u64)> {
            let pos = |n: u32| net.node_pos[n as usize];
            let link = |u: u32, v: u32| (u.min(v), u.max(v), pos(u).dist(pos(v)).to_bits());
            let mut edges = Vec::new();
            let mut sides: [Vec<u32>; 3] = Default::default();
            for &t in facets {
                facet_sides_into(mesh, &net.edge_steiner, net.steiner_per_edge, t, &mut sides);
                for side in &sides {
                    edges.extend(side.windows(2).map(|w| link(w[0], w[1])));
                }
                for i in 0..3 {
                    for j in i + 1..3 {
                        for &u in &sides[i] {
                            for &v in &sides[j] {
                                if u != v {
                                    edges.push(link(u, v));
                                }
                            }
                        }
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            edges
        }

        /// The net's links as `(min, max, weight bits)`, each undirected
        /// link once, sorted.
        fn links(net: &Pathnet) -> Vec<(u32, u32, u64)> {
            let g = net.graph();
            let mut out: Vec<(u32, u32, u64)> = (0..g.num_nodes() as u32)
                .flat_map(|u| {
                    g.neighbors(u)
                        .iter()
                        .filter(move |&&(v, _)| u < v)
                        .map(move |&(v, w)| (u, v, w.to_bits()))
                })
                .collect();
            out.sort_unstable();
            out
        }

        /// What the run to exhaustion over the built net reads for each
        /// destination (the read-off before the member stop): the straight
        /// segment within the source's facet, else the least `dist(v) +
        /// exit` over the destination's embedding. Also its settled count.
        fn exhaustive(
            net: &Pathnet,
            mesh: &TerrainMesh,
            a: MeshPoint,
            dests: &[MeshPoint],
        ) -> (Vec<u64>, usize) {
            let src = net.embedding(mesh, a);
            let mut scratch = DijkstraScratch::new();
            let run = Dijkstra::run_multi_scratch(&net.graph, &src, None, &mut scratch);
            let dist = dests
                .iter()
                .map(|&b| {
                    Exit::of(a, b, |b| net.embedding(mesh, b)).read(|v| run.dist(v)).to_bits()
                })
                .collect();
            (dist, run.settled)
        }

        fn bits(d: &Distances) -> Vec<u64> {
            d.dist.iter().map(|x| x.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The in-place net reads the same distances, bit for bit, as
            /// the whole-mesh net under the filter admitting the same
            /// facets, settling no more — for endpoints inside the region,
            /// on its rim, and in facets outside it (which embed at corners
            /// the region may not hold), and for regions hanging over the
            /// terrain edge.
            #[test]
            fn region_net_matches_filtered_whole_mesh_net(
                seed in any::<u64>(),
                m in 0usize..3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, rect, facets, whole, ends } = case(seed, m, over_edge);
                prop_assert!(!facets.is_empty());
                let net = RegionNet::new(&mesh, m, rect);
                let (mut s1, mut s2) = (PathnetScratch::new(), DijkstraScratch::new());
                for &a in &ends {
                    let got = net.distances(a, &ends, &mut s1);
                    let want = whole.distances(&mesh, a, &ends, &mut s2);
                    prop_assert_eq!(bits(&got), bits(&want));
                    prop_assert!(got.settled <= want.settled);
                    prop_assert!(s1.table.nodes.len() < whole.num_nodes());
                }
            }

            /// The built net links every node pair once, and exactly the
            /// pairs — at the same weight bits — of the rule it replaced;
            /// the in-place net lists each node's neighbours once, and
            /// they are the built net's, at the same weight bits.
            #[test]
            fn each_pair_is_linked_once_and_the_pair_rule_holds(
                seed in any::<u64>(),
                m in 0usize..=3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, rect, facets, whole, .. } = case(seed, m, over_edge);
                let got = links(&whole);
                prop_assert!(got.windows(2).all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)));
                prop_assert_eq!(got, pair_rule(&mesh, &whole, &facets));

                let net = RegionNet::new(&mesh, m, rect);
                let mut table = NodeTable::default();
                table.clear();
                for node in region_nodes(&net, &facets) {
                    let u = built_node(&net, &whole, node);
                    let (links, pos) = listed(&net, &mut table, node);
                    prop_assert_eq!(pos, whole.node_pos[u as usize]);
                    let mut got: Vec<(u32, u64)> =
                        links.into_iter().map(|(v, w)| (built_node(&net, &whole, v), w)).collect();
                    got.sort_unstable();
                    prop_assert!(got.windows(2).all(|w| w[0].0 != w[1].0));
                    let mut want: Vec<(u32, u64)> =
                        whole.graph().neighbors(u).iter().map(|&(v, w)| (v, w.to_bits())).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }

            /// Stopping once the listed destinations' nodes are settled
            /// reads every distance the run to exhaustion reads, bit for
            /// bit, and settles no more — for destinations in the source's
            /// facet, outside the region (off-net corners), isolated and
            /// so unreachable, repeated, and for an empty list, which
            /// settles nothing — over the built net (plain Dijkstra) and
            /// the in-place one (A*).
            #[test]
            fn member_stop_matches_the_exhaustive_run(
                seed in any::<u64>(),
                m in 0usize..3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, rect, whole, ends, .. } = case(seed, m, over_edge);
                let net = RegionNet::new(&mesh, m, rect);
                let (mut scratch, mut in_place) = (DijkstraScratch::new(), PathnetScratch::new());
                for &a in &ends {
                    let (want, full) = exhaustive(&whole, &mesh, a, &ends);
                    let got = whole.distances(&mesh, a, &ends, &mut scratch);
                    prop_assert_eq!(bits(&got), want.clone());
                    prop_assert!(got.settled <= full);
                    let one = whole.distances(&mesh, a, &ends[..1], &mut scratch);
                    prop_assert_eq!(bits(&one)[0], bits(&got)[0]);
                    prop_assert!(one.settled <= got.settled);
                    let none = whole.distances(&mesh, a, &[], &mut scratch);
                    prop_assert!(none.dist.is_empty());
                    prop_assert_eq!(none.settled, 0);

                    let (reached, _) = reach(&net, a, &mut in_place);
                    let got = net.distances(a, &ends, &mut in_place);
                    prop_assert_eq!(bits(&got), want);
                    prop_assert!(got.settled <= reached);
                    let one = net.distances(a, &ends[..1], &mut in_place);
                    prop_assert_eq!(bits(&one)[0], bits(&got)[0]);
                    prop_assert!(one.settled <= got.settled);
                    let none = net.distances(a, &[], &mut in_place);
                    prop_assert!(none.dist.is_empty());
                    prop_assert_eq!(none.settled, 0);
                }
            }
        }
    }
}
