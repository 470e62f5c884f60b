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

use crate::graph::{Dijkstra, DijkstraScratch, Graph, QueueCounters};
use crate::mesh_net::MeshPoint;
use sknn_geom::Point3;
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

/// Which mesh vertices and facets a [`Pathnet`] covers.
#[derive(Debug, Clone)]
enum Scope {
    /// Every mesh vertex is the node of its own id (isolated when no
    /// admitted facet touches it); `Some` marks the facets a filter
    /// admitted, `None` admits all.
    Whole(Option<Vec<bool>>),
    /// Nodes `0..verts.len()` are the ascending corner ids of the
    /// ascending facet list; nothing outside the region is stored.
    Region { verts: Vec<VertexId>, facets: Vec<TriId> },
}

/// A Steiner-point graph over (a region of) a mesh.
#[derive(Debug, Clone)]
pub struct Pathnet {
    graph: Graph,
    /// Positions of all nodes: the scope's vertex nodes first, Steiner
    /// nodes after them.
    node_pos: Vec<Point3>,
    /// The subdivided mesh edges and their Steiner nodes.
    edge_steiner: EdgeSteinerMap,
    steiner_per_edge: usize,
    scope: Scope,
}

/// Distances from one source to a destination list (see
/// [`Pathnet::distances`]).
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
/// shares the source's facet, else through its embedding.
enum Exit {
    Straight(f64),
    /// On-net `(node, exit cost)` pairs and off-net `(mesh vertex, exit
    /// cost)` corners.
    Embedded(Vec<(u32, f64)>, Vec<(VertexId, f64)>),
}

impl Pathnet {
    /// Build a pathnet with `steiner_per_edge` Steiner points per mesh edge
    /// whose nodes `0..mesh.num_vertices()` are the mesh vertices. When
    /// `tri_filter` is given, only facets accepted by it contribute; edges
    /// bordering no included facet get no Steiner nodes. Costs O(mesh)
    /// whatever the filter admits — [`build_region`](Self::build_region)
    /// is the constructor for a region. Every node pair is linked once:
    /// each collinear pair by its mesh edge, each other pair by the one
    /// facet whose two sides it spans.
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
        let corner_node: Vec<u32> = facets.iter().flat_map(|&t| mesh.triangle_ids(t)).collect();
        let (node_pos, edge_steiner, edges) =
            assemble(mesh, steiner_per_edge, mesh.vertices().to_vec(), &facets, &corner_node);
        Self {
            graph: Graph::from_undirected(node_pos.len(), &edges),
            node_pos,
            edge_steiner,
            steiner_per_edge,
            scope: Scope::Whole(included),
        }
    }

    /// Build a pathnet over the ascending facet list `facets` alone, at a
    /// cost set by the list and not by the mesh: nodes are numbered
    /// locally — the facets' corners ascending, then Steiner points — by
    /// one sort of the facets' corners, and every node pair is linked once,
    /// as in [`build`](Self::build).
    ///
    /// Distances equal those of [`build`](Self::build) under a filter
    /// admitting the same facets, bit for bit. Both link the same pairs at
    /// the same weights, and Dijkstra's final distance is the minimum over
    /// paths of the left-to-right float sum, which depends on neither node
    /// numbering nor adjacency order. A corner of a facet outside the
    /// region is not a node here where `build` keeps it as an isolated one;
    /// [`distances`](Self::distances) matches such source and destination
    /// corners beside the run, so they read the same.
    pub fn build_region(mesh: &TerrainMesh, steiner_per_edge: usize, facets: Vec<TriId>) -> Self {
        debug_assert!(facets.windows(2).all(|w| w[0] < w[1]), "facet list must ascend");
        // One row per facet corner, `vertex << 32 | 3f + c`: sorted, the
        // rows number the region's vertices ascending and name each
        // corner's node.
        let mut corners: Vec<u64> = facets
            .iter()
            .enumerate()
            .flat_map(|(f, &t)| {
                let ids = mesh.triangle_ids(t);
                (0..3).map(move |c| (ids[c] as u64) << 32 | (3 * f + c) as u64)
            })
            .collect();
        corners.sort_unstable();
        let mut verts: Vec<VertexId> = Vec::new();
        let mut corner_node = vec![0u32; corners.len()];
        for row in corners {
            let v = (row >> 32) as VertexId;
            if verts.last() != Some(&v) {
                verts.push(v);
            }
            corner_node[row as u32 as usize] = verts.len() as u32 - 1;
        }
        let vertex_pos = verts.iter().map(|&v| mesh.vertex(v)).collect();
        let (node_pos, edge_steiner, edges) =
            assemble(mesh, steiner_per_edge, vertex_pos, &facets, &corner_node);
        Self {
            graph: Graph::from_undirected(node_pos.len(), &edges),
            node_pos,
            edge_steiner,
            steiner_per_edge,
            scope: Scope::Region { verts, facets },
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
        match &self.scope {
            Scope::Whole(included) => included.as_ref().is_none_or(|v| v[t as usize]),
            Scope::Region { facets, .. } => facets.binary_search(&t).is_ok(),
        }
    }

    /// Node of mesh vertex `v`; `None` for a vertex outside a region net.
    fn vertex_node(&self, v: VertexId) -> Option<u32> {
        match &self.scope {
            Scope::Whole(_) => Some(v),
            Scope::Region { verts, .. } => verts.binary_search(&v).ok().map(|i| i as u32),
        }
    }

    /// Pathnet embedding of a surface point: `(node, entry cost)` pairs
    /// connecting it to every boundary node of its facet (straight in-facet
    /// segments). A point outside the net's facets connects to its facet's
    /// corners, of which a region net holds only those it shares.
    pub fn embedding(&self, mesh: &TerrainMesh, p: MeshPoint) -> Vec<(u32, f64)> {
        self.embed(mesh, p, &mut Vec::new())
    }

    /// [`embedding`](Self::embedding), with the `(mesh vertex, entry cost)`
    /// connections to corners that are not nodes of this net pushed onto
    /// `off_net`.
    fn embed(
        &self,
        mesh: &TerrainMesh,
        p: MeshPoint,
        off_net: &mut Vec<(VertexId, f64)>,
    ) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        let mut corner = |v: VertexId, cost: f64| match self.vertex_node(v) {
            Some(n) => out.push((n, cost)),
            None => off_net.push((v, cost)),
        };
        match p {
            MeshPoint::Vertex(v) => corner(v, 0.0),
            MeshPoint::Interior { tri, pos } if !self.tri_included(tri) => {
                for v in mesh.triangle_ids(tri) {
                    corner(v, mesh.vertex(v).dist(pos));
                }
            }
            MeshPoint::Interior { tri, pos } => {
                let mut sides: [Vec<u32>; 3] = Default::default();
                let node = |v| self.vertex_node(v).expect("corner of an included facet");
                facet_sides_into(
                    mesh,
                    &self.edge_steiner,
                    self.steiner_per_edge,
                    tri,
                    node,
                    &mut sides,
                );
                for side in &sides {
                    for &n in side {
                        out.push((n, self.node_pos[n as usize].dist(pos)));
                    }
                }
                out.sort_unstable_by_key(|a| a.0);
                out.dedup_by_key(|e| e.0);
            }
        }
        out
    }

    /// Approximate surface distance between two surface points.
    pub fn distance(&self, mesh: &TerrainMesh, a: MeshPoint, b: MeshPoint) -> f64 {
        self.distances(mesh, a, &[b], &mut DijkstraScratch::new()).dist[0]
    }

    /// Approximate surface distances from `a` to each of `dests`, from one
    /// Dijkstra run that stops once every on-net node of every listed
    /// destination's embedding is settled: the ranking engine runs one per
    /// candidate *group*, listing the group's members.
    ///
    /// A destination in `a`'s own facet reads the straight segment and
    /// lists no node. Any other reads the least `dist(v) + exit` over its
    /// embedding and, where `a` and it both connect to a corner that is not
    /// a node of this net, the sum of their two entry costs (in the
    /// whole-mesh net that corner is an isolated node, reached from the
    /// source at its entry cost and from nowhere else). Only listed nodes
    /// are read, and a settled label is final, so every distance is
    /// bit-identical to the one the run to exhaustion gives; only
    /// `settled` and the queue counters are smaller.
    pub fn distances(
        &self,
        mesh: &TerrainMesh,
        a: MeshPoint,
        dests: &[MeshPoint],
        scratch: &mut DijkstraScratch,
    ) -> Distances {
        let mut src_off = Vec::new();
        let src = self.embed(mesh, a, &mut src_off);
        let exits: Vec<Exit> = dests
            .iter()
            .map(|&b| match (a, b) {
                (
                    MeshPoint::Interior { tri: ta, pos: pa },
                    MeshPoint::Interior { tri: tb, pos: pb },
                ) if ta == tb => Exit::Straight(pa.dist(pb)),
                _ => {
                    let mut off = Vec::new();
                    Exit::Embedded(self.embed(mesh, b, &mut off), off)
                }
            })
            .collect();
        let targets: Vec<u32> = exits
            .iter()
            .flat_map(|e| match e {
                Exit::Straight(_) => &[][..],
                Exit::Embedded(on, _) => &on[..],
            })
            .map(|&(v, _)| v)
            .collect();
        let run = Dijkstra::run_multi_scratch(&self.graph, &src, Some(&targets), scratch);
        let dist = exits
            .iter()
            .map(|e| match e {
                Exit::Straight(d) => *d,
                Exit::Embedded(on, off) => {
                    let on_net = on
                        .iter()
                        .map(|&(v, exit)| run.dist(v) + exit)
                        .fold(f64::INFINITY, f64::min);
                    off.iter()
                        .flat_map(|&(v, exit)| {
                            src_off.iter().filter(move |s| s.0 == v).map(move |s| s.1 + exit)
                        })
                        .fold(on_net, f64::min)
                }
            })
            .collect();
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
/// of a pathnet over `facets`, every node pair listed once. Vertex nodes sit
/// at `vertex_pos` and ascend with their mesh ids; `corner_node[3f + c]` is
/// the node of corner `c` of `facets[f]`.
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
    vertex_pos: Vec<Point3>,
    facets: &[TriId],
    corner_node: &[u32],
) -> (Vec<Point3>, EdgeSteinerMap, Vec<(u32, u32, f64)>) {
    // One row per facet side, `(lo << 32 | hi, 3f + s)`.
    let mut sides: Vec<(u64, u32)> = Vec::with_capacity(corner_node.len());
    for (f, &t) in facets.iter().enumerate() {
        let c = mesh.triangle_ids(t);
        for s in 0..3 {
            let (u, v) = (c[s], c[(s + 1) % 3]);
            sides.push(((u.min(v) as u64) << 32 | u.max(v) as u64, (3 * f + s) as u32));
        }
    }
    sides.sort_unstable_by_key(|&(key, _)| key);
    let num_edges = sides.chunk_by(|x, y| x.0 == y.0).count();

    let mut node_pos = vertex_pos;
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
        let (a, b) = ((group[0].0 >> 32) as VertexId, group[0].0 as VertexId);
        for &(_, slot) in group {
            side_edge[slot as usize] = e as u32;
        }
        steiner.keys.push((a, b));
        // The nodes of the side's two corners; vertex nodes ascend with
        // mesh ids, so the smaller is `a`'s.
        let (f, side) = (group[0].1 as usize / 3, group[0].1 as usize % 3);
        let (x, y) = (corner_node[3 * f + side], corner_node[3 * f + (side + 1) % 3]);
        let (na, nb) = (x.min(y), x.max(y));
        let first = node_pos.len() as u32;
        let (pa, pb) = (mesh.vertex(a), mesh.vertex(b));
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

    for f in 0..facets.len() {
        let run = |s: usize| {
            let first = steiner.first(side_edge[3 * f + s] as usize);
            first..first + m32
        };
        for s in 0..3 {
            let opposite = corner_node[3 * f + (s + 2) % 3];
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
    node_of: impl Fn(VertexId) -> u32,
    out: &mut [Vec<u32>; 3],
) {
    let [a, b, c] = mesh.triangle_ids(t);
    for (s, (u, v)) in out.iter_mut().zip([(a, b), (b, c), (c, a)]) {
        s.clear();
        s.push(node_of(u));
        if m > 0 {
            if let Some(first) = edge_steiner.get((u.min(v), u.max(v))) {
                if u < v {
                    s.extend(first..first + m as u32);
                } else {
                    s.extend((first..first + m as u32).rev());
                }
            }
        }
        s.push(node_of(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_geom::{Point2, Rect2};
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

    /// Facets meeting `rect`, the region net over them, and the whole-mesh
    /// net under the filter that admits the same facets.
    fn region_and_oracle(
        mesh: &TerrainMesh,
        loc: &TriangleLocator,
        m: usize,
        rect: &Rect2,
    ) -> (Vec<TriId>, Pathnet, Pathnet) {
        let facets = loc.triangles_meeting(mesh, rect);
        let filter = |t: TriId| mesh.triangle(t).mbr_xy().intersects(rect);
        let region = Pathnet::build_region(mesh, m, facets.clone());
        (facets, region, Pathnet::build(mesh, m, Some(&filter)))
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
                let loc = TriangleLocator::build(&mesh);
                let (facets, region, oracle) = region_and_oracle(&mesh, &loc, m, &rect);
                let (f, e) = (facets.len(), mesh_edges(&mesh, &facets));
                assert_eq!(f, 2 * 8 * 8);
                // Corners, then m Steiner points per mesh edge.
                assert_eq!(region.num_nodes(), 9 * 9 + m * e, "{grid}, m = {m}");
                // 3m collinear pairs per mesh edge (the corner pair alone
                // for m = 0) and 3m(m + 1) pairs across sides per facet,
                // nothing per mesh vertex; the filtered whole-mesh net links
                // exactly the same pairs.
                let links = if m == 0 { e } else { 3 * m * e + 3 * m * (m + 1) * f };
                assert_eq!(region.graph().num_edges(), links, "{grid}, m = {m}");
                assert_eq!(oracle.graph().num_edges(), links, "{grid}, m = {m}");
                assert!(oracle.num_nodes() >= mesh.num_vertices());
                sizes.push((region.num_nodes(), region.graph().num_edges()));
            }
            assert_eq!(sizes[0], sizes[1]);
        }
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
        /// when `over_edge`), the facets meeting it, the region net and the
        /// filtered whole-mesh net over them, and endpoints: over the
        /// rectangle and a margin around it, so a good share sits in facets
        /// the region does not hold; a vertex certainly outside the region
        /// and a point in one of its facets (source and exit share an
        /// off-region corner, and in the whole-mesh net the vertex is an
        /// isolated node); a second point in the facet of every interior
        /// endpoint; and the first endpoint again.
        struct Case {
            mesh: TerrainMesh,
            facets: Vec<TriId>,
            region: Pathnet,
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
            let (facets, region, whole) = region_and_oracle(&mesh, &loc, m, &rect);

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
            Case { mesh, facets, region, whole, ends }
        }

        /// The pair rule before each pair was linked once, kept as the
        /// oracle of `assemble`: the node lists of every facet's three
        /// sides (each side's chain with them), every pair of nodes on two
        /// different sides, then sort + dedup, as `(min, max, weight bits)`.
        fn pair_rule(mesh: &TerrainMesh, net: &Pathnet, facets: &[TriId]) -> Vec<(u32, u32, u64)> {
            let pos = |n: u32| net.node_pos[n as usize];
            let link = |u: u32, v: u32| (u.min(v), u.max(v), pos(u).dist(pos(v)).to_bits());
            let node = |v| net.vertex_node(v).expect("corner of a net facet");
            let mut edges = Vec::new();
            let mut sides: [Vec<u32>; 3] = Default::default();
            for &t in facets {
                facet_sides_into(
                    mesh,
                    &net.edge_steiner,
                    net.steiner_per_edge,
                    t,
                    node,
                    &mut sides,
                );
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

        /// What the run to exhaustion reads for each destination (the
        /// read-off before the member stop): the straight segment within
        /// the source's facet, else the least `dist(v) + exit` over the
        /// destination's embedding and the least sum of entry costs at an
        /// off-net corner both connect to. Also its settled count.
        fn exhaustive(
            net: &Pathnet,
            mesh: &TerrainMesh,
            a: MeshPoint,
            dests: &[MeshPoint],
        ) -> (Vec<u64>, usize) {
            let mut a_off = Vec::new();
            let src = net.embed(mesh, a, &mut a_off);
            let mut scratch = DijkstraScratch::new();
            let run = Dijkstra::run_multi_scratch(&net.graph, &src, None, &mut scratch);
            let dist = dests
                .iter()
                .map(|&b| {
                    if let (
                        MeshPoint::Interior { tri: ta, pos: pa },
                        MeshPoint::Interior { tri: tb, pos: pb },
                    ) = (a, b)
                    {
                        if ta == tb {
                            return pa.dist(pb).to_bits();
                        }
                    }
                    let mut b_off = Vec::new();
                    let on = net
                        .embed(mesh, b, &mut b_off)
                        .iter()
                        .map(|&(v, exit)| run.dist(v) + exit)
                        .fold(f64::INFINITY, f64::min);
                    b_off
                        .iter()
                        .flat_map(|&(v, exit)| {
                            a_off.iter().filter(move |s| s.0 == v).map(move |s| s.1 + exit)
                        })
                        .fold(on, f64::min)
                        .to_bits()
                })
                .collect();
            (dist, run.settled)
        }

        fn bits(d: &Distances) -> Vec<u64> {
            d.dist.iter().map(|x| x.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The region net reads the same distances, bit for bit, as the
            /// whole-mesh net under the filter admitting the same facets —
            /// for endpoints inside the region, on its rim, and in facets
            /// outside it (which embed at corners the region may not hold),
            /// and for regions hanging over the terrain edge.
            #[test]
            fn region_net_matches_filtered_whole_mesh_net(
                seed in any::<u64>(),
                m in 0usize..3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, facets, region, whole, ends } = case(seed, m, over_edge);
                prop_assert!(!facets.is_empty());
                prop_assert!(region.num_nodes() < whole.num_nodes());
                let (mut s1, mut s2) = (DijkstraScratch::new(), DijkstraScratch::new());
                for &a in &ends {
                    let got = region.distances(&mesh, a, &ends, &mut s1);
                    let want = whole.distances(&mesh, a, &ends, &mut s2);
                    prop_assert_eq!(bits(&got), bits(&want));
                    prop_assert!(got.settled <= want.settled);
                }
            }

            /// Both constructors link every node pair once, and exactly the
            /// pairs — at the same weight bits — of the rule they replace.
            #[test]
            fn each_pair_is_linked_once_and_the_pair_rule_holds(
                seed in any::<u64>(),
                m in 0usize..=3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, facets, region, whole, .. } = case(seed, m, over_edge);
                for net in [&region, &whole] {
                    let got = links(net);
                    prop_assert!(got.windows(2).all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)));
                    prop_assert_eq!(got, pair_rule(&mesh, net, &facets));
                }
            }

            /// Stopping once the listed destinations' nodes are settled
            /// reads every distance the run to exhaustion reads, bit for
            /// bit, and settles no more — for destinations in the source's
            /// facet, outside the region (off-net corners), isolated and
            /// so unreachable (in the whole-mesh net), repeated, and for an
            /// empty list, which settles nothing.
            #[test]
            fn member_stop_matches_the_exhaustive_run(
                seed in any::<u64>(),
                m in 0usize..3,
                over_edge in any::<bool>(),
            ) {
                let Case { mesh, region, whole, ends, .. } = case(seed, m, over_edge);
                let mut scratch = DijkstraScratch::new();
                for net in [&region, &whole] {
                    for &a in &ends {
                        let (want, full) = exhaustive(net, &mesh, a, &ends);
                        let got = net.distances(&mesh, a, &ends, &mut scratch);
                        prop_assert_eq!(bits(&got), want);
                        prop_assert!(got.settled <= full);
                        let one = net.distances(&mesh, a, &ends[..1], &mut scratch);
                        prop_assert_eq!(bits(&one)[0], bits(&got)[0]);
                        prop_assert!(one.settled <= got.settled);
                        let none = net.distances(&mesh, a, &[], &mut scratch);
                        prop_assert!(none.dist.is_empty());
                        prop_assert_eq!(none.settled, 0);
                    }
                }
            }
        }
    }
}
