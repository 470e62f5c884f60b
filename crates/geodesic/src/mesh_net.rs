//! The mesh edge graph and point embedding.
//!
//! "A surface mesh is a network, thus Dijkstra's shortest path algorithm can
//! be used" (paper §3.2). Off-vertex points (query points, objects) are
//! *embedded* by connecting them to the vertices of their containing facet
//! with straight segments — those segments lie in the facet plane, hence on
//! the surface, so the embedded network distance is still a valid surface
//! path length (an upper bound of `dS`).

use crate::graph::{Dijkstra, Graph};
use sknn_geom::Point3;
use sknn_terrain::mesh::{TerrainMesh, TriId, VertexId};

/// A point on the mesh surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeshPoint {
    /// Exactly at a mesh vertex.
    Vertex(VertexId),
    /// In the interior (or on an edge) of a facet.
    Interior {
        /// The containing facet.
        tri: TriId,
        /// The 3-D position on that facet.
        pos: Point3,
    },
}

impl MeshPoint {
    /// The 3-D position of the point.
    pub fn position(&self, mesh: &TerrainMesh) -> Point3 {
        match *self {
            MeshPoint::Vertex(v) => mesh.vertex(v),
            MeshPoint::Interior { pos, .. } => pos,
        }
    }

    /// Graph-embedding of the point: `(vertex, entry cost)` pairs.
    pub fn embedding(&self, mesh: &TerrainMesh) -> Vec<(u32, f64)> {
        match *self {
            MeshPoint::Vertex(v) => vec![(v, 0.0)],
            MeshPoint::Interior { tri, pos } => {
                mesh.triangle_ids(tri).iter().map(|&v| (v, mesh.vertex(v).dist(pos))).collect()
            }
        }
    }
}

/// The mesh's edge graph with 3-D edge lengths.
#[derive(Debug, Clone)]
pub struct MeshNetwork {
    graph: Graph,
}

impl MeshNetwork {
    /// Build the edge graph of a mesh (3-D edge lengths as weights).
    pub fn build(mesh: &TerrainMesh) -> Self {
        let edges: Vec<(u32, u32, f64)> =
            mesh.edges().map(|(a, b)| (a, b, mesh.edge_length(a, b))).collect();
        Self { graph: Graph::from_undirected(mesh.num_vertices(), &edges) }
    }

    /// Graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Network distance `dN` between two surface points (embedded). Returns
    /// `f64::INFINITY` when disconnected.
    pub fn distance(&self, mesh: &TerrainMesh, a: MeshPoint, b: MeshPoint) -> f64 {
        // Same-facet fast path: the straight segment is on the surface.
        if let (
            MeshPoint::Interior { tri: ta, pos: pa },
            MeshPoint::Interior { tri: tb, pos: pb },
        ) = (a, b)
        {
            if ta == tb {
                return pa.dist(pb);
            }
        }
        let src = a.embedding(mesh);
        let dst = b.embedding(mesh);
        let d = Dijkstra::run_multi(&self.graph, &src, None);
        let through_net =
            dst.iter().map(|&(v, exit)| d.dist[v as usize] + exit).fold(f64::INFINITY, f64::min);
        through_net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;

    fn flat_mesh(n: usize) -> TerrainMesh {
        // A flat plane: network distance == Manhattan-ish grid path length.
        let cfg = TerrainConfig {
            relief_m: 0.0,
            smoothing_passes: 0,
            ..TerrainConfig::bh().with_grid(n)
        };
        cfg.build_mesh(0)
    }

    #[test]
    fn vertex_to_vertex_on_flat_grid() {
        let mesh = flat_mesh(5);
        let net = MeshNetwork::build(&mesh);
        let n = 5;
        // Corner to corner along a row: 4 edges of 10 m.
        let d = net.distance(&mesh, MeshPoint::Vertex(0), MeshPoint::Vertex(n - 1));
        assert!((d - 40.0).abs() < 1e-9);
    }

    #[test]
    fn diagonal_uses_cell_diagonals() {
        let mesh = flat_mesh(5);
        let net = MeshNetwork::build(&mesh);
        // 0 -> opposite corner: alternating diagonals exist; the best
        // network path can't beat the straight diagonal (length 40*sqrt(2))
        // and can't be worse than the L-path (80).
        let d = net.distance(&mesh, MeshPoint::Vertex(0), MeshPoint::Vertex(24));
        assert!(d >= 40.0 * 2f64.sqrt() - 1e-9);
        assert!(d <= 80.0 + 1e-9);
    }

    #[test]
    fn interior_embedding_same_facet() {
        let mesh = flat_mesh(5);
        let loc = TriangleLocator::build(&mesh);
        let a = loc.lift(&mesh, Point2::new(1.0, 1.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(2.0, 2.0)).unwrap();
        let ta = loc.locate(&mesh, a.xy()).unwrap();
        let net = MeshNetwork::build(&mesh);
        let d = net.distance(
            &mesh,
            MeshPoint::Interior { tri: ta, pos: a },
            MeshPoint::Interior { tri: ta, pos: b },
        );
        assert!((d - a.dist(b)).abs() < 1e-12);
    }

    #[test]
    fn network_distance_upper_bounds_euclidean() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(3);
        let net = MeshNetwork::build(&mesh);
        for (s, t) in [(0u32, 288u32), (5, 200), (100, 17)] {
            let d = net.distance(&mesh, MeshPoint::Vertex(s), MeshPoint::Vertex(t));
            let e = mesh.vertex(s).dist(mesh.vertex(t));
            assert!(d >= e - 1e-9, "network {d} < euclid {e}");
        }
    }

    #[test]
    fn embedded_interior_distance_is_finite_and_sane() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(4);
        let loc = TriangleLocator::build(&mesh);
        let net = MeshNetwork::build(&mesh);
        let a2 = Point2::new(11.0, 23.0);
        let b2 = Point2::new(140.0, 130.0);
        let a = loc.lift(&mesh, a2).unwrap();
        let b = loc.lift(&mesh, b2).unwrap();
        let pa = MeshPoint::Interior { tri: loc.locate(&mesh, a2).unwrap(), pos: a };
        let pb = MeshPoint::Interior { tri: loc.locate(&mesh, b2).unwrap(), pos: b };
        let d = net.distance(&mesh, pa, pb);
        assert!(d.is_finite());
        assert!(d >= a.dist(b) - 1e-9);
    }
}
