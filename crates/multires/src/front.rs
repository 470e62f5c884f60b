//! Front (cut) extraction and query-point embedding.
//!
//! "A surface approximation for a given LOD r and ROI can be derived from
//! DDM, just as in DM. A surface mesh is a network, thus Dijkstra's
//! shortest path algorithm can be used to compute the upper bound between a
//! pair of object points" (paper §3.2). A [`FrontGraph`] is that network:
//! the set of tree nodes alive after `m` collapses (optionally restricted
//! to a region of interest), with the recorded representative-to-
//! representative distances as edge weights.

use crate::tree::DmtmTree;
use sknn_geom::{Point3, Rect2};
use sknn_terrain::mesh::{TerrainMesh, TriId};
use std::collections::HashMap;

/// An extracted resolution front: a weighted graph whose nodes are DMTM
/// tree nodes and whose edge weights are original-surface path lengths
/// between node representatives.
#[derive(Debug, Clone)]
pub struct FrontGraph {
    /// Tree node ids, ascending — a node's local index is its position
    /// here ([`FrontGraph::local_of`] binary-searches it).
    pub ids: Vec<u32>,
    /// Edges in local indices, `a < b`.
    pub edges: Vec<(u32, u32, f64)>,
    /// Representative positions, per local node.
    pub rep_pos: Vec<Point3>,
    /// The collapse step this front corresponds to.
    pub step: u32,
}

/// One residency unit of the shared cut cache: the front at one collapse
/// step as seen from one lattice tile. Units of different tiles overlap in
/// ids (a coarse node's MBR meets many tiles) but never in space, and any
/// ROI-restricted front is derivable from the units of the ROI's tiles
/// alone — see `PagedDmtm::derive_front`.
#[derive(Debug, Clone, Default)]
pub struct FrontUnit {
    /// Node ids live at the step whose MBR meets the tile, ascending.
    pub ids: Vec<u32>,
    /// CSR offsets into `nbr`/`dist`: id `ids[i]` owns entries
    /// `offsets[i]..offsets[i + 1]` (`ids.len() + 1` offsets).
    pub offsets: Vec<u32>,
    /// Per id, its recorded neighbours that are live at the step and have
    /// a larger id (the only direction extraction emits an edge from),
    /// ascending by neighbour id, duplicates collapsed to the tighter
    /// record.
    pub nbr: Vec<u32>,
    /// Recorded distance of each `nbr` entry.
    pub dist: Vec<f64>,
}

impl FrontUnit {
    /// Approximate resident bytes (cache weight).
    pub fn weight(&self) -> usize {
        48 + (self.ids.len() + self.offsets.len() + self.nbr.len()) * 4 + self.dist.len() * 8
    }
}

impl FrontGraph {
    /// Local index of tree node `id`, if it is part of this front.
    pub fn local_of(&self, id: u32) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// Extract the front after `m` collapses; when `roi` is given, only
    /// nodes whose descendant MBR intersects it are included (the paper's
    /// ROI-restricted retrieval).
    pub fn extract(tree: &DmtmTree, m: u32, roi: Option<&Rect2>) -> Self {
        let mut ids = Vec::new();
        for id in 0..tree.nodes().len() as u32 {
            if !tree.live_at(id, m) {
                continue;
            }
            if let Some(r) = roi {
                if !r.intersects(&tree.node(id).mbr) {
                    continue;
                }
            }
            ids.push(id);
        }
        Self::from_ids(tree, m, ids)
    }

    /// Build the graph over an explicit live node set, ascending by id.
    pub fn from_ids(tree: &DmtmTree, m: u32, ids: Vec<u32>) -> Self {
        let index: HashMap<u32, u32> =
            ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let mut edges = Vec::new();
        for (&id, &local) in &index {
            for &(w, d) in &tree.node(id).neighbors {
                if let Some(&wl) = index.get(&w) {
                    if tree.live_at(w, m) && local < wl {
                        edges.push((local, wl, d));
                    }
                }
            }
        }
        // Entries exist on both endpoints, so each edge may appear twice
        // (once from each side); keep the tighter record.
        edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let rep_pos = ids.iter().map(|&id| tree.node(id).rep_pos).collect();
        Self { ids, edges, rep_pos, step: m }
    }

    /// Num nodes.
    pub fn num_nodes(&self) -> usize {
        self.ids.len()
    }

    /// Embed a surface point into the front: connect it to the live
    /// ancestors of its original facet's corners. Each entry's cost is a
    /// valid surface path length (in-facet segment + leaf-to-representative
    /// offset bound), so Dijkstra from these entries yields a true upper
    /// bound of the surface distance at any resolution.
    pub fn embed(
        &self,
        tree: &DmtmTree,
        mesh: &TerrainMesh,
        tri: TriId,
        pos: Point3,
    ) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(3);
        for &corner in &mesh.triangle_ids(tri) {
            let (anc, off) = tree.lift_to_front(corner, self.step);
            if let Some(local) = self.local_of(anc) {
                let w = pos.dist(mesh.vertex(corner)) + off;
                match out.iter_mut().find(|(l, _)| *l == local) {
                    Some(entry) => entry.1 = entry.1.min(w),
                    None => out.push((local, w)),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::build_dmtm;
    use sknn_geodesic::exact::ExactGeodesic;
    use sknn_geodesic::graph::{Dijkstra, Graph};
    use sknn_geodesic::mesh_net::{MeshNetwork, MeshPoint};
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;

    fn ub_between(
        tree: &DmtmTree,
        mesh: &TerrainMesh,
        fg: &FrontGraph,
        a: (TriId, Point3),
        b: (TriId, Point3),
    ) -> f64 {
        let g = Graph::from_undirected(fg.num_nodes(), &fg.edges);
        let src = fg.embed(tree, mesh, a.0, a.1);
        let dst = fg.embed(tree, mesh, b.0, b.1);
        let d = Dijkstra::run_multi(&g, &src, None);
        dst.iter().map(|&(v, exit)| d.dist[v as usize] + exit).fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn full_front_matches_mesh_network() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(3);
        let tree = build_dmtm(&mesh);
        let fg = FrontGraph::extract(&tree, 0, None);
        assert_eq!(fg.num_nodes(), mesh.num_vertices());
        assert_eq!(fg.edges.len(), mesh.num_edges());
        // Distances equal plain network distances at full resolution.
        let g = Graph::from_undirected(fg.num_nodes(), &fg.edges);
        let net = MeshNetwork::build(&mesh);
        let d_fg = Dijkstra::run(&g, fg.local_of(0).unwrap());
        let d_net = Dijkstra::run(net.graph(), 0);
        for v in [5usize, 40, 80] {
            let local = fg.local_of(v as u32).unwrap() as usize;
            assert!((d_fg.dist[local] - d_net.dist[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn coarse_fronts_shrink_but_stay_connected() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(1);
        let tree = build_dmtm(&mesh);
        for frac in [0.5, 0.25, 0.05] {
            let m = tree.step_for_fraction(frac);
            let fg = FrontGraph::extract(&tree, m, None);
            assert_eq!(fg.num_nodes(), tree.front_size(m));
            // Connectivity: Dijkstra reaches every node.
            let g = Graph::from_undirected(fg.num_nodes(), &fg.edges);
            let d = Dijkstra::run(&g, 0);
            assert!(d.dist.iter().all(|x| x.is_finite()), "front at {frac} disconnected");
        }
    }

    #[test]
    fn upper_bound_dominates_exact_distance() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(6);
        let tree = build_dmtm(&mesh);
        let loc = TriangleLocator::build(&mesh);
        let geo = ExactGeodesic::new(&mesh);
        let pts = [
            sknn_geom::Point2::new(8.0, 12.0),
            sknn_geom::Point2::new(71.0, 66.0),
            sknn_geom::Point2::new(15.0, 70.0),
        ];
        let lifted: Vec<(TriId, Point3)> = pts
            .iter()
            .map(|&p| (loc.locate(&mesh, p).unwrap(), loc.lift(&mesh, p).unwrap()))
            .collect();
        for i in 0..lifted.len() {
            for j in i + 1..lifted.len() {
                let exact = geo.distance(
                    MeshPoint::Interior { tri: lifted[i].0, pos: lifted[i].1 },
                    MeshPoint::Interior { tri: lifted[j].0, pos: lifted[j].1 },
                );
                for frac in [0.05, 0.25, 0.5, 1.0] {
                    let m = tree.step_for_fraction(frac);
                    let fg = FrontGraph::extract(&tree, m, None);
                    let ub = ub_between(&tree, &mesh, &fg, lifted[i], lifted[j]);
                    assert!(ub >= exact - 1e-6, "frac {frac}: ub {ub} below exact {exact}");
                }
            }
        }
    }

    #[test]
    fn upper_bound_tightens_with_resolution_on_average() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(9);
        let tree = build_dmtm(&mesh);
        let loc = TriangleLocator::build(&mesh);
        let pairs = [
            (sknn_geom::Point2::new(11.0, 17.0), sknn_geom::Point2::new(140.0, 150.0)),
            (sknn_geom::Point2::new(30.0, 140.0), sknn_geom::Point2::new(150.0, 20.0)),
            (sknn_geom::Point2::new(60.0, 60.0), sknn_geom::Point2::new(100.0, 120.0)),
        ];
        let mut coarse_sum = 0.0;
        let mut fine_sum = 0.0;
        for (pa, pb) in pairs {
            let a = (loc.locate(&mesh, pa).unwrap(), loc.lift(&mesh, pa).unwrap());
            let b = (loc.locate(&mesh, pb).unwrap(), loc.lift(&mesh, pb).unwrap());
            let coarse = ub_between(
                &tree,
                &mesh,
                &FrontGraph::extract(&tree, tree.step_for_fraction(0.05), None),
                a,
                b,
            );
            let fine = ub_between(
                &tree,
                &mesh,
                &FrontGraph::extract(&tree, tree.step_for_fraction(1.0), None),
                a,
                b,
            );
            coarse_sum += coarse;
            fine_sum += fine;
            // Per-pair: fine should not be substantially worse than coarse.
            assert!(fine <= coarse * 1.05, "fine {fine} >> coarse {coarse}");
        }
        assert!(fine_sum <= coarse_sum + 1e-9);
    }

    #[test]
    fn roi_extraction_filters_nodes() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(2);
        let tree = build_dmtm(&mesh);
        let m = tree.step_for_fraction(0.5);
        let full = FrontGraph::extract(&tree, m, None);
        let roi = Rect2::new(sknn_geom::Point2::new(0.0, 0.0), sknn_geom::Point2::new(50.0, 50.0));
        let part = FrontGraph::extract(&tree, m, Some(&roi));
        assert!(part.num_nodes() < full.num_nodes());
        assert!(part.num_nodes() > 0);
        // Every included node's MBR intersects the ROI.
        for &id in &part.ids {
            assert!(tree.node(id).mbr.intersects(&roi));
        }
    }

    #[test]
    fn embedding_entries_reference_live_locals() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(5);
        let tree = build_dmtm(&mesh);
        let loc = TriangleLocator::build(&mesh);
        let m = tree.step_for_fraction(0.1);
        let fg = FrontGraph::extract(&tree, m, None);
        let p = sknn_geom::Point2::new(33.0, 47.0);
        let tri = loc.locate(&mesh, p).unwrap();
        let pos = loc.lift(&mesh, p).unwrap();
        let emb = fg.embed(&tree, &mesh, tri, pos);
        assert!(!emb.is_empty());
        for (local, w) in emb {
            assert!((local as usize) < fg.num_nodes());
            assert!(w >= 0.0 && w.is_finite());
        }
    }
}
