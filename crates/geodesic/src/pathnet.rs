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

use crate::graph::{Dijkstra, DijkstraScratch, Graph, QueueCounters, ScratchRun};
use crate::mesh_net::MeshPoint;
use sknn_geom::Point3;
use sknn_terrain::mesh::{TerrainMesh, TriId, VertexId};

/// Sorted-vector map from a subdivided mesh edge `(lo, hi)` to its first
/// Steiner node id. The build path is the ranking hot loop (one pathnet
/// per candidate group at the >100 % level), so lookups are binary
/// searches over two dense arrays instead of hashing — and iteration
/// order is deterministic, which also pins the Steiner node numbering.
#[derive(Debug, Clone, Default)]
struct EdgeSteinerMap {
    keys: Vec<(u32, u32)>,
    first: Vec<u32>,
}

impl EdgeSteinerMap {
    #[inline]
    fn get(&self, key: (u32, u32)) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|i| self.first[i])
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
    /// `edge -> first steiner node id` for each subdivided mesh edge,
    /// keyed by mesh vertex ids.
    edge_steiner: EdgeSteinerMap,
    steiner_per_edge: usize,
    scope: Scope,
}

impl Pathnet {
    /// Build a pathnet with `steiner_per_edge` Steiner points per mesh edge
    /// whose nodes `0..mesh.num_vertices()` are the mesh vertices. When
    /// `tri_filter` is given, only facets accepted by it contribute; edges
    /// bordering no included facet get no Steiner nodes. Costs O(mesh)
    /// whatever the filter admits — [`build_region`](Self::build_region)
    /// is the constructor for a region.
    pub fn build(
        mesh: &TerrainMesh,
        steiner_per_edge: usize,
        tri_filter: Option<&dyn Fn(TriId) -> bool>,
    ) -> Self {
        let included: Option<Vec<bool>> =
            tri_filter.map(|f| (0..mesh.num_triangles() as TriId).map(f).collect());
        let facets = (0..mesh.num_triangles() as TriId)
            .filter(|&t| included.as_ref().is_none_or(|v| v[t as usize]));
        let (node_pos, edge_steiner, mut edges) =
            assemble(mesh, steiner_per_edge, mesh.vertices().to_vec(), facets, |v| v);
        edges.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
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
    /// locally (the facets' corners ascending, then Steiner points) and
    /// the edge list goes to the graph as generated.
    ///
    /// Distances equal those of [`build`](Self::build) under a filter
    /// admitting the same facets, bit for bit. Dijkstra's final distance
    /// is the minimum over paths of the left-to-right float sum, which
    /// depends on neither node numbering nor adjacency order, and every
    /// duplicate the unsorted list keeps (a corner–Steiner or
    /// corner–corner pair seen from both facets of an edge, or beside the
    /// edge's own chain) carries a bit-equal weight because
    /// [`Point3::dist`] is symmetric in bits. A corner of a facet outside
    /// the region is not a node here where `build` keeps it as an isolated
    /// one; [`run_from`](Self::run_from) carries such source corners
    /// beside the run so they read the same.
    pub fn build_region(mesh: &TerrainMesh, steiner_per_edge: usize, facets: Vec<TriId>) -> Self {
        debug_assert!(facets.windows(2).all(|w| w[0] < w[1]), "facet list must ascend");
        let mut verts: Vec<VertexId> = facets.iter().flat_map(|&t| mesh.triangle_ids(t)).collect();
        verts.sort_unstable();
        verts.dedup();
        let vertex_pos = verts.iter().map(|&v| mesh.vertex(v)).collect();
        let (node_pos, edge_steiner, edges) =
            assemble(mesh, steiner_per_edge, vertex_pos, facets.iter().copied(), |v| {
                verts.binary_search(&v).expect("corner of a region facet") as u32
            });
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
        let mut scratch = DijkstraScratch::new();
        self.run_from(mesh, a, &mut scratch).distance_to(mesh, b)
    }

    /// Materialize one single-source Dijkstra from `a` over the pathnet,
    /// reusable across many destinations: the ranking engine runs one per
    /// candidate *group* instead of one per candidate, and each
    /// [`PathnetRun::distance_to`] is then a cheap embedding read-off.
    /// Distances are bit-identical to per-pair [`distance`](Self::distance)
    /// calls (same source embedding, same run).
    pub fn run_from<'n, 's>(
        &'n self,
        mesh: &TerrainMesh,
        a: MeshPoint,
        scratch: &'s mut DijkstraScratch,
    ) -> PathnetRun<'n, 's> {
        let mut off_net = Vec::new();
        let src = self.embed(mesh, a, &mut off_net);
        let run = Dijkstra::run_multi_scratch(&self.graph, &src, None, scratch);
        PathnetRun { net: self, a, run, off_net }
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

/// A shared single-source pathnet run (see [`Pathnet::run_from`]).
#[derive(Debug)]
pub struct PathnetRun<'n, 's> {
    net: &'n Pathnet,
    a: MeshPoint,
    run: ScratchRun<'s>,
    /// Source connections to corners outside a region net. In the
    /// whole-mesh net such a corner is an isolated node, reached at its
    /// entry cost and from nowhere else.
    off_net: Vec<(VertexId, f64)>,
}

impl PathnetRun<'_, '_> {
    /// Approximate surface distance from the run's source to `b`.
    pub fn distance_to(&self, mesh: &TerrainMesh, b: MeshPoint) -> f64 {
        if let (
            MeshPoint::Interior { tri: ta, pos: pa },
            MeshPoint::Interior { tri: tb, pos: pb },
        ) = (self.a, b)
        {
            if ta == tb {
                return pa.dist(pb);
            }
        }
        let mut off_net = Vec::new();
        let dst = self.net.embed(mesh, b, &mut off_net);
        let on_net =
            dst.iter().map(|&(v, exit)| self.run.dist(v) + exit).fold(f64::INFINITY, f64::min);
        off_net
            .iter()
            .flat_map(|&(v, exit)| {
                self.off_net.iter().filter(move |s| s.0 == v).map(move |s| s.1 + exit)
            })
            .fold(on_net, f64::min)
    }

    /// Queue-operation counters of the underlying Dijkstra run.
    pub fn queue_counters(&self) -> QueueCounters {
        self.run.queue
    }

    /// Nodes settled by the underlying Dijkstra run.
    pub fn settled(&self) -> usize {
        self.run.settled
    }
}

/// The positions of all nodes, the Steiner map and the undirected edge list
/// of a pathnet over `facets`: vertex nodes sit at `vertex_pos` and
/// `node_of` maps a facet corner to its node. The edge list is unsorted and
/// repeats a pair seen from two facets.
fn assemble(
    mesh: &TerrainMesh,
    m: usize,
    vertex_pos: Vec<Point3>,
    facets: impl Iterator<Item = TriId> + Clone,
    node_of: impl Fn(VertexId) -> u32 + Copy,
) -> (Vec<Point3>, EdgeSteinerMap, Vec<(u32, u32, f64)>) {
    let mut node_pos = vertex_pos;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();

    // Subdivide each edge that borders an included facet. Sorted-dedup
    // (rather than a hash set) keeps the Steiner numbering deterministic
    // and the per-build cost branch-light.
    let mut edge_in: Vec<(u32, u32)> = Vec::new();
    for t in facets.clone() {
        let [a, b, c] = mesh.triangle_ids(t);
        for (u, v) in [(a, b), (b, c), (c, a)] {
            edge_in.push((u.min(v), u.max(v)));
        }
    }
    edge_in.sort_unstable();
    edge_in.dedup();
    let mut edge_steiner =
        EdgeSteinerMap { keys: Vec::new(), first: Vec::with_capacity(edge_in.len()) };
    for &(a, b) in &edge_in {
        let pa = mesh.vertex(a);
        let pb = mesh.vertex(b);
        let (na, nb) = (node_of(a), node_of(b));
        if m > 0 {
            let first = node_pos.len() as u32;
            for i in 1..=m {
                let t = i as f64 / (m + 1) as f64;
                node_pos.push(pa.lerp(pb, t));
            }
            edge_steiner.first.push(first);
            // Chain along the original edge: a - s1 - ... - sm - b.
            let mut prev = na;
            for i in 0..m {
                let s = first + i as u32;
                edges.push((prev, s, node_pos[prev as usize].dist(node_pos[s as usize])));
                prev = s;
            }
            edges.push((prev, nb, node_pos[prev as usize].dist(pb)));
        } else {
            edges.push((na, nb, pa.dist(pb)));
        }
    }
    if m > 0 {
        edge_steiner.keys = edge_in;
    }

    // Within each included facet, connect boundary nodes across edges.
    let mut sides: [Vec<u32>; 3] = Default::default();
    for t in facets {
        facet_sides_into(mesh, &edge_steiner, m, t, node_of, &mut sides);
        // Pairwise links between nodes on different sides. Corner nodes
        // appear on two sides; dedupe with an ordered guard.
        for i in 0..3 {
            for j in i + 1..3 {
                for &u in &sides[i] {
                    for &v in &sides[j] {
                        if u == v {
                            continue;
                        }
                        let w = node_pos[u as usize].dist(node_pos[v as usize]);
                        edges.push((u.min(v), u.max(v), w));
                    }
                }
            }
        }
    }
    (node_pos, edge_steiner, edges)
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
        let mut scratch = DijkstraScratch::new();
        let run = net.run_from(&mesh, a, &mut scratch);
        for v in [5u32, 17, 40, 80] {
            let shared = run.distance_to(&mesh, MeshPoint::Vertex(v));
            let pair = net.distance(&mesh, a, MeshPoint::Vertex(v));
            assert_eq!(shared.to_bits(), pair.to_bits(), "v{v}");
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

    #[test]
    fn region_net_size_follows_the_region_not_the_terrain() {
        // The same 8 × 8-cell rectangle (cells are 10 m on every grid).
        let rect = Rect2::new(Point2::new(101.0, 101.0), Point2::new(179.0, 179.0));
        let m = 1;
        let mut sizes = Vec::new();
        for grid in [33usize, 129] {
            let mesh = TerrainConfig::bh().with_grid(grid).build_mesh(4);
            let loc = TriangleLocator::build(&mesh);
            let (facets, region, oracle) = region_and_oracle(&mesh, &loc, m, &rect);
            let f = facets.len();
            assert_eq!(f, 2 * 8 * 8);
            // Corners + one Steiner point per edge: at most 3 + 3 per facet.
            assert!(region.num_nodes() <= 4 * f + 64, "{grid}: {} nodes", region.num_nodes());
            // Per facet 3(m+2)² − 3 links between sides and 3(m+1) chain
            // segments, nothing per mesh vertex.
            let per_facet = 3 * (m + 2) * (m + 2) - 3 + 3 * (m + 1);
            assert!(region.graph().num_edges() <= per_facet * f);
            assert!(oracle.num_nodes() >= mesh.num_vertices());
            sizes.push((region.num_nodes(), region.graph().num_edges()));
        }
        assert_eq!(sizes[0], sizes[1]);
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
                let (facets, region, oracle) = region_and_oracle(&mesh, &loc, m, &rect);
                prop_assert!(!facets.is_empty());
                prop_assert!(region.num_nodes() < oracle.num_nodes());

                // Endpoints over the region and a margin around it, so a
                // good share sits in facets the region does not hold.
                let around = rect.expanded(25.0).intersection(&e);
                let mut ends: Vec<MeshPoint> =
                    (0..6).map(|_| random_point(&mut rng, &mesh, &loc, &around)).collect();
                // A vertex certainly outside the region, and a point in one
                // of its facets: source and exit share an off-region corner.
                let outside = (0..mesh.num_vertices() as u32)
                    .find(|&v| mesh.vertex_triangles(v).iter().all(|t| facets.binary_search(t).is_err()))
                    .expect("a 17² terrain is larger than any 90 m rectangle");
                let tri = mesh.vertex_triangles(outside)[0];
                ends.push(MeshPoint::Vertex(outside));
                let [a, b, c] = mesh.triangle(tri).vertices();
                let pos = a.lerp(b, 0.3).lerp(c, 0.3);
                ends.push(MeshPoint::Interior { tri, pos });

                let (mut s1, mut s2) = (DijkstraScratch::new(), DijkstraScratch::new());
                for &a in &ends {
                    let got = region.run_from(&mesh, a, &mut s1);
                    let want = oracle.run_from(&mesh, a, &mut s2);
                    for &b in &ends {
                        prop_assert_eq!(
                            got.distance_to(&mesh, b).to_bits(),
                            want.distance_to(&mesh, b).to_bits()
                        );
                    }
                    prop_assert!(got.settled() <= want.settled());
                }
            }
        }
    }
}
