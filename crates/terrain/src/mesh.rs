//! Indexed triangle meshes with full adjacency.
//!
//! [`TerrainMesh`] is the "original surface model" of the paper: the leaf
//! level of the DMTM, the graph Dijkstra upper bounds run on, the surface
//! the MSDN sweep planes cut, and the domain of the exact geodesic engine.

use sknn_geom::{Point3, Rect2, Triangle3};

/// Index of a vertex in a [`TerrainMesh`].
pub type VertexId = u32;
/// Index of a triangle in a [`TerrainMesh`].
pub type TriId = u32;

/// An indexed triangle mesh with vertex and facet adjacency.
///
/// Invariants (checked by [`TerrainMesh::validate`]):
/// * every triangle is counter-clockwise in (x, y) projection,
/// * every edge is shared by at most two triangles,
/// * adjacency lists are consistent with the triangle list.
#[derive(Debug, Clone)]
pub struct TerrainMesh {
    vertices: Vec<Point3>,
    triangles: Vec<[VertexId; 3]>,
    /// Sorted neighbour vertex ids, per vertex.
    vertex_neighbors: Vec<Vec<VertexId>>,
    /// Incident triangle ids, per vertex.
    vertex_triangles: Vec<Vec<TriId>>,
    /// For triangle `t`, `tri_neighbors[t][i]` is the triangle across edge
    /// `(v[i], v[(i+1)%3])`, if any.
    tri_neighbors: Vec<[Option<TriId>; 3]>,
    extent: Rect2,
    /// Average 3-D edge length, summed once at construction.
    mean_edge_length: f64,
}

impl TerrainMesh {
    /// Build a mesh from raw vertices and triangles, computing adjacency.
    ///
    /// # Panics
    /// Panics when a triangle references a missing vertex or an edge is
    /// shared by more than two triangles (non-manifold input).
    pub fn new(vertices: Vec<Point3>, triangles: Vec<[VertexId; 3]>) -> Self {
        let nv = vertices.len();
        let mut vertex_neighbors: Vec<Vec<VertexId>> = vec![Vec::new(); nv];
        let mut vertex_triangles: Vec<Vec<TriId>> = vec![Vec::new(); nv];
        let mut tri_neighbors: Vec<[Option<TriId>; 3]> = vec![[None; 3]; triangles.len()];

        // Edge map: (lo, hi) -> (tri, local edge index).
        let mut edge_map: std::collections::HashMap<(VertexId, VertexId), (TriId, usize)> =
            std::collections::HashMap::with_capacity(triangles.len() * 2);

        for (t, tri) in triangles.iter().enumerate() {
            for &v in tri {
                assert!((v as usize) < nv, "triangle {t} references missing vertex {v}");
            }
            for i in 0..3 {
                let a = tri[i];
                let b = tri[(i + 1) % 3];
                assert_ne!(a, b, "degenerate triangle {t}");
                vertex_triangles[a as usize].push(t as TriId);
                let key = (a.min(b), a.max(b));
                match edge_map.get(&key) {
                    None => {
                        edge_map.insert(key, (t as TriId, i));
                    }
                    Some(&(other, oi)) => {
                        assert!(
                            tri_neighbors[other as usize][oi].is_none(),
                            "edge {key:?} shared by more than two triangles"
                        );
                        tri_neighbors[t][i] = Some(other);
                        tri_neighbors[other as usize][oi] = Some(t as TriId);
                    }
                }
            }
        }
        for ((a, b), _) in edge_map {
            vertex_neighbors[a as usize].push(b);
            vertex_neighbors[b as usize].push(a);
        }
        for nb in &mut vertex_neighbors {
            nb.sort_unstable();
            nb.dedup();
        }
        let extent = Rect2::from_points(vertices.iter().map(|p| p.xy()));
        let mean_edge_length = scan_mean_edge_length(&vertices, &vertex_neighbors);
        Self {
            vertices,
            triangles,
            vertex_neighbors,
            vertex_triangles,
            tri_neighbors,
            extent,
            mean_edge_length,
        }
    }

    /// Num vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Num triangles.
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.vertex_neighbors.iter().map(|n| n.len()).sum::<usize>() / 2
    }

    /// Vertex.
    pub fn vertex(&self, v: VertexId) -> Point3 {
        self.vertices[v as usize]
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Point3] {
        &self.vertices
    }

    /// Triangle ids.
    pub fn triangle_ids(&self, t: TriId) -> [VertexId; 3] {
        self.triangles[t as usize]
    }

    /// Triangles.
    pub fn triangles(&self) -> &[[VertexId; 3]] {
        &self.triangles
    }

    /// Triangle.
    pub fn triangle(&self, t: TriId) -> Triangle3 {
        let [a, b, c] = self.triangles[t as usize];
        Triangle3::new(self.vertex(a), self.vertex(b), self.vertex(c))
    }

    /// Neighbors.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.vertex_neighbors[v as usize]
    }

    /// Vertex triangles.
    pub fn vertex_triangles(&self, v: VertexId) -> &[TriId] {
        &self.vertex_triangles[v as usize]
    }

    /// Triangle across edge `i` of triangle `t` (edge `i` joins local
    /// vertices `i` and `(i+1) % 3`).
    pub fn tri_neighbor(&self, t: TriId, i: usize) -> Option<TriId> {
        self.tri_neighbors[t as usize][i]
    }

    /// 3-D length of the edge between adjacent vertices.
    pub fn edge_length(&self, a: VertexId, b: VertexId) -> f64 {
        self.vertex(a).dist(self.vertex(b))
    }

    /// Bounding rectangle of the (x, y) projection.
    pub fn extent(&self) -> Rect2 {
        self.extent
    }

    /// Average 3-D edge length. The paper places the densest MSDN planes at
    /// this spacing (§3.3). Ranking reads it per candidate per round, so it
    /// is a field, not a scan.
    pub fn mean_edge_length(&self) -> f64 {
        self.mean_edge_length
    }

    /// Exhaustive structural validation; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for (t, tri) in self.triangles.iter().enumerate() {
            let tr = self.triangle(t as TriId);
            if tr.signed_area_xy() <= 0.0 {
                return Err(format!("triangle {t} not CCW in projection"));
            }
            for i in 0..3 {
                if let Some(nb) = self.tri_neighbors[t][i] {
                    let back = &self.tri_neighbors[nb as usize];
                    if !back.contains(&Some(t as TriId)) {
                        return Err(format!("asymmetric adjacency {t} <-> {nb}"));
                    }
                    // The shared edge must consist of the same two vertices.
                    let a = tri[i];
                    let b = tri[(i + 1) % 3];
                    let other = self.triangles[nb as usize];
                    if !(other.contains(&a) && other.contains(&b)) {
                        return Err(format!("edge mismatch between {t} and {nb}"));
                    }
                }
            }
        }
        for (v, nbs) in self.vertex_neighbors.iter().enumerate() {
            for &w in nbs {
                if !self.vertex_neighbors[w as usize].contains(&(v as VertexId)) {
                    return Err(format!("asymmetric vertex adjacency {v} <-> {w}"));
                }
            }
        }
        Ok(())
    }

    /// Iterate all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertex_neighbors.iter().enumerate().flat_map(|(v, nbs)| {
            let v = v as VertexId;
            nbs.iter().copied().filter_map(move |w| (v < w).then_some((v, w)))
        })
    }

    /// Total surface area (sum of facet areas).
    pub fn surface_area(&self) -> f64 {
        (0..self.num_triangles() as TriId).map(|t| self.triangle(t).area()).sum()
    }

    /// Planar (projected) area.
    pub fn planar_area(&self) -> f64 {
        (0..self.num_triangles() as TriId).map(|t| self.triangle(t).signed_area_xy()).sum()
    }
}

/// Mean length over the undirected edges, each visited once from its
/// smaller endpoint in ascending `(v, w)` order (the summation order is
/// part of the value's bits).
fn scan_mean_edge_length(vertices: &[Point3], vertex_neighbors: &[Vec<VertexId>]) -> f64 {
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for (v, nbs) in vertex_neighbors.iter().enumerate() {
        for &w in nbs {
            if (v as VertexId) < w {
                sum += vertices[v].dist(vertices[w as usize]);
                cnt += 1;
            }
        }
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles forming a unit square split along the main diagonal.
    fn square() -> TerrainMesh {
        let vs = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(1.0, 1.0, 1.0),
            Point3::new(0.0, 1.0, 0.0),
        ];
        let ts = vec![[0, 1, 2], [0, 2, 3]];
        TerrainMesh::new(vs, ts)
    }

    #[test]
    fn adjacency_of_square() {
        let m = square();
        assert_eq!(m.num_vertices(), 4);
        assert_eq!(m.num_triangles(), 2);
        assert_eq!(m.num_edges(), 5);
        assert_eq!(m.neighbors(0), &[1, 2, 3]);
        assert_eq!(m.neighbors(1), &[0, 2]);
        // Triangle 0 and 1 share the diagonal (0, 2).
        assert_eq!(m.tri_neighbor(0, 2), Some(1)); // edge (2,0) of tri 0
        assert_eq!(m.tri_neighbor(1, 0), Some(0)); // edge (0,2) of tri 1
        assert_eq!(m.tri_neighbor(0, 0), None);
        m.validate().unwrap();
    }

    #[test]
    fn vertex_triangle_incidence() {
        let m = square();
        assert_eq!(m.vertex_triangles(0), &[0, 1]);
        assert_eq!(m.vertex_triangles(1), &[0]);
        assert_eq!(m.vertex_triangles(3), &[1]);
    }

    #[test]
    fn edge_length_3d() {
        let m = square();
        assert!((m.edge_length(0, 2) - 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.edge_length(0, 1), 1.0);
    }

    #[test]
    fn mean_edge_length_equals_the_scan_bit_for_bit() {
        let scan = |m: &TerrainMesh| {
            let (mut sum, mut cnt) = (0.0, 0usize);
            for (a, b) in m.edges() {
                sum += m.edge_length(a, b);
                cnt += 1;
            }
            if cnt == 0 {
                0.0
            } else {
                sum / cnt as f64
            }
        };
        let grid = crate::dem::TerrainConfig::bh().with_grid(17).build_mesh(5);
        for m in [square(), grid, TerrainMesh::new(Vec::new(), Vec::new())] {
            assert_eq!(m.mean_edge_length().to_bits(), scan(&m).to_bits());
        }
    }

    #[test]
    fn areas() {
        let m = square();
        assert!((m.planar_area() - 1.0).abs() < 1e-12);
        assert!(m.surface_area() > m.planar_area());
    }

    #[test]
    fn edges_iterator_matches_count() {
        let m = square();
        let edges: Vec<_> = m.edges().collect();
        assert_eq!(edges.len(), m.num_edges());
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    #[should_panic(expected = "missing vertex")]
    fn rejects_out_of_range_index() {
        TerrainMesh::new(vec![Point3::new(0.0, 0.0, 0.0)], vec![[0, 1, 2]]);
    }

    #[test]
    #[should_panic(expected = "more than two triangles")]
    fn rejects_non_manifold_edge() {
        let vs = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(-1.0, 1.0, 0.0),
        ];
        // Edge (0,1) used by three triangles.
        TerrainMesh::new(vs, vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]]);
    }

    #[test]
    fn validate_catches_cw_triangle() {
        let vs = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
        ];
        let m = TerrainMesh::new(vs, vec![[0, 2, 1]]); // clockwise
        assert!(m.validate().is_err());
    }
}
