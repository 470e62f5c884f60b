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

    /// Variable-LOD extraction: the terrain at `fine_step` resolution
    /// inside `roi` and `coarse_step` resolution outside — one *mixed cut*
    /// through the collapse tree, the fullest form of the paper's
    /// "just-enough LOD from a just-enough ROI".
    ///
    /// The cut is built by taking the coarse front and re-expanding every
    /// node whose MBR touches the ROI down to the fine front. Edges
    /// between nodes of different levels are recovered from the recorded
    /// adjacency: an entry `(w, d)` of a cut node `u` whose partner `w`
    /// lies *below* the cut is lifted to `w`'s cut ancestor `W` with
    /// weight `d + offset(w -> W)` — still the length of a real
    /// original-surface path between representatives, so Dijkstra over a
    /// mixed cut remains a valid upper bound.
    pub fn extract_variable(
        tree: &DmtmTree,
        fine_step: u32,
        coarse_step: u32,
        roi: &Rect2,
    ) -> Self {
        let (fine, coarse) = (fine_step.min(coarse_step), fine_step.max(coarse_step));
        // Cut membership: fine-live nodes inside the ROI; coarse-live nodes
        // outside; plus fine-live descendants of coarse nodes that touch
        // the ROI.
        let mut ids: Vec<u32> = Vec::new();
        for id in 0..tree.nodes().len() as u32 {
            let node = tree.node(id);
            let in_roi = roi.intersects(&node.mbr);
            let cut_here = if in_roi {
                tree.live_at(id, fine)
            } else {
                // Outside the ROI: a node belongs to the cut if it is
                // coarse-live, or if it is fine-live under a coarse
                // ancestor that straddles the ROI (that ancestor was
                // expanded, so its non-ROI descendants must appear at the
                // fine level to keep the cut a partition).
                if tree.live_at(id, coarse) {
                    true
                } else if tree.live_at(id, fine) {
                    // Does the coarse ancestor touch the ROI?
                    let (anc, _) = {
                        let mut cur = id;
                        let mut off = 0.0;
                        while !tree.live_at(cur, coarse) {
                            off += tree.node(cur).rep_offset;
                            cur = tree.node(cur).parent.expect("below coarse front");
                        }
                        (cur, off)
                    };
                    roi.intersects(&tree.node(anc).mbr)
                } else {
                    false
                }
            };
            // Exclude coarse nodes that were expanded (they touch the ROI
            // and are not fine-live themselves).
            if cut_here {
                let expanded = roi.intersects(&node.mbr)
                    && tree.live_at(id, coarse)
                    && !tree.live_at(id, fine);
                if !expanded {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();

        let index: HashMap<u32, u32> =
            ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        // Lift a node to its cut member (itself, or the nearest ancestor in
        // the cut), accumulating representative offsets.
        let lift = |mut id: u32| -> Option<(u32, f64)> {
            let mut off = 0.0;
            loop {
                if index.contains_key(&id) {
                    return Some((id, off));
                }
                off += tree.node(id).rep_offset;
                id = tree.node(id).parent?;
            }
        };
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        let push_edge = |edges: &mut Vec<(u32, u32, f64)>, a: u32, b: u32, w: f64| {
            if a != b {
                let (a, b) = if a < b { (a, b) } else { (b, a) };
                edges.push((a, b, w));
            }
        };
        for (&id, &local) in &index {
            for &(w, d) in &tree.node(id).neighbors {
                if let Some((cw, off)) = lift(w) {
                    if cw == id {
                        continue;
                    }
                    push_edge(&mut edges, local, index[&cw], d + off);
                } else {
                    // The partner sits *above* the cut (a fine/coarse
                    // boundary): fan out to every cut descendant, charging
                    // each its representative-offset path up to `w`.
                    let mut stack: Vec<(u32, f64)> = vec![(w, 0.0)];
                    while let Some((n, acc)) = stack.pop() {
                        if let Some(&wl) = index.get(&n) {
                            push_edge(&mut edges, local, wl, d + acc);
                            continue;
                        }
                        if let Some((a, b)) = tree.node(n).children {
                            stack.push((a, acc + tree.node(a).rep_offset));
                            stack.push((b, acc + tree.node(b).rep_offset));
                        }
                    }
                }
            }
        }
        edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let rep_pos = ids.iter().map(|&id| tree.node(id).rep_pos).collect();
        // `step` is the fine step: embedding lifts leaves until they hit a
        // cut member, which `embed_cut` below handles explicitly.
        Self { ids, edges, rep_pos, step: fine }
    }

    /// Embed a surface point into a *mixed* cut (see
    /// [`FrontGraph::extract_variable`]): lift each facet corner until it
    /// reaches a cut member.
    pub fn embed_cut(
        &self,
        tree: &DmtmTree,
        mesh: &TerrainMesh,
        tri: TriId,
        pos: Point3,
    ) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(3);
        for &corner in &mesh.triangle_ids(tri) {
            let mut id = corner;
            let mut off = 0.0;
            let found = loop {
                if let Some(local) = self.local_of(id) {
                    break Some((local, off));
                }
                off += tree.node(id).rep_offset;
                match tree.node(id).parent {
                    Some(p) => id = p,
                    None => break None,
                }
            };
            if let Some((local, lift_off)) = found {
                let w = pos.dist(mesh.vertex(corner)) + lift_off;
                match out.iter_mut().find(|(l, _)| *l == local) {
                    Some(entry) => entry.1 = entry.1.min(w),
                    None => out.push((local, w)),
                }
            }
        }
        out
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
    fn variable_cut_partitions_leaves_and_mixes_levels() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(12);
        let tree = build_dmtm(&mesh);
        let fine = tree.step_for_fraction(1.0);
        let coarse = tree.step_for_fraction(0.1);
        let e = mesh.extent();
        let roi = Rect2::new(
            e.lo,
            sknn_geom::Point2::new(e.lo.x + e.width() * 0.4, e.lo.y + e.height() * 0.4),
        );
        let cut = FrontGraph::extract_variable(&tree, fine, coarse, &roi);
        // The cut partitions every original vertex exactly once.
        let mut covered = vec![0u32; tree.num_leaves()];
        for &id in &cut.ids {
            for leaf in tree.descendant_leaves(id) {
                covered[leaf as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "not a partition");
        // Size sits strictly between pure-coarse and pure-fine.
        let n_coarse = tree.front_size(coarse);
        let n_fine = tree.front_size(fine);
        assert!(cut.num_nodes() > n_coarse, "{} <= {n_coarse}", cut.num_nodes());
        assert!(cut.num_nodes() < n_fine, "{} >= {n_fine}", cut.num_nodes());
        // Connected: Dijkstra reaches every node across the level boundary.
        let g = Graph::from_undirected(cut.num_nodes(), &cut.edges);
        let d = Dijkstra::run(&g, 0);
        assert!(d.dist.iter().all(|x| x.is_finite()), "mixed cut disconnected");
    }

    #[test]
    fn variable_cut_upper_bound_is_valid_and_between_levels() {
        let mesh = TerrainConfig::ep().with_grid(17).build_mesh(31);
        let tree = build_dmtm(&mesh);
        let loc = TriangleLocator::build(&mesh);
        let geo = ExactGeodesic::new(&mesh);
        let pa = sknn_geom::Point2::new(20.0, 25.0);
        let pb = sknn_geom::Point2::new(60.0, 70.0);
        let a = (loc.locate(&mesh, pa).unwrap(), loc.lift(&mesh, pa).unwrap());
        let b = (loc.locate(&mesh, pb).unwrap(), loc.lift(&mesh, pb).unwrap());
        let exact = geo.distance(
            MeshPoint::Interior { tri: a.0, pos: a.1 },
            MeshPoint::Interior { tri: b.0, pos: b.1 },
        );
        let fine = tree.step_for_fraction(1.0);
        let coarse = tree.step_for_fraction(0.05);
        // ROI covering both endpoints generously.
        let roi = Rect2::new(sknn_geom::Point2::new(0.0, 0.0), sknn_geom::Point2::new(90.0, 100.0));
        let cut = FrontGraph::extract_variable(&tree, fine, coarse, &roi);
        let g = Graph::from_undirected(cut.num_nodes(), &cut.edges);
        let src = cut.embed_cut(&tree, &mesh, a.0, a.1);
        let dst = cut.embed_cut(&tree, &mesh, b.0, b.1);
        assert!(!src.is_empty() && !dst.is_empty());
        let dd = Dijkstra::run_multi(&g, &src, None);
        let ub_mixed =
            dst.iter().map(|&(v, exit)| dd.dist[v as usize] + exit).fold(f64::INFINITY, f64::min);
        assert!(ub_mixed >= exact - 1e-6, "mixed ub {ub_mixed} below exact {exact}");
        // It should be at least as good as the pure coarse front's bound
        // (both endpoints sit inside the fine region).
        let coarse_fg = FrontGraph::extract(&tree, coarse, None);
        let ub_coarse = ub_between(&tree, &mesh, &coarse_fg, a, b);
        assert!(ub_mixed <= ub_coarse + 1e-6, "mixed {ub_mixed} worse than coarse {ub_coarse}");
    }

    #[test]
    fn variable_cut_degenerates_to_pure_fronts() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(3);
        let tree = build_dmtm(&mesh);
        let fine = tree.step_for_fraction(1.0);
        let coarse = tree.step_for_fraction(0.2);
        let e = mesh.extent();
        // ROI covering everything -> the fine front.
        let all = FrontGraph::extract_variable(&tree, fine, coarse, &e);
        assert_eq!(all.num_nodes(), tree.front_size(fine));
        // Empty ROI -> the coarse front.
        let nowhere = Rect2::new(
            sknn_geom::Point2::new(-100.0, -100.0),
            sknn_geom::Point2::new(-50.0, -50.0),
        );
        let none = FrontGraph::extract_variable(&tree, fine, coarse, &nowhere);
        assert_eq!(none.num_nodes(), tree.front_size(coarse));
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
