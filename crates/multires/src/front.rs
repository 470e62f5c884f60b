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
use std::sync::Arc;

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
/// alone — see [`FrontGraph::derive`].
///
/// A unit is its stored words, one buffer: `[n, e, ids, offsets, nbr,
/// dist]` with `n` ids, `n + 1` offsets, `e` neighbours and `e` distances
/// as low/high word pairs — the [`UnitStore`](crate::UnitStore) encoding
/// read as `u32`s, so a read is one allocation and one word copy per unit
/// and the accessors read the fields in place.
#[derive(Debug, Clone)]
pub struct FrontUnit {
    words: Vec<u32>,
}

impl FrontUnit {
    /// A unit from the words the unit store wrote.
    pub(crate) fn from_words(words: Vec<u32>) -> Self {
        Self { words }
    }

    /// A unit from its fields, as the unit store would store them.
    #[cfg(test)]
    pub(crate) fn from_fields(ids: &[u32], offsets: &[u32], nbr: &[u32], dist: &[f64]) -> Self {
        let mut words = vec![ids.len() as u32, nbr.len() as u32];
        words.extend_from_slice(ids);
        words.extend_from_slice(offsets);
        words.extend_from_slice(nbr);
        words.extend(dist.iter().flat_map(|d| [d.to_bits() as u32, (d.to_bits() >> 32) as u32]));
        Self { words }
    }

    fn n(&self) -> usize {
        self.words[0] as usize
    }

    fn e(&self) -> usize {
        self.words[1] as usize
    }

    /// Node ids live at the step whose MBR meets the tile, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.words[2..2 + self.n()]
    }

    /// CSR offsets into [`nbr`](Self::nbr) and [`dist`](Self::dist): id
    /// `ids()[i]` owns entries `offsets()[i]..offsets()[i + 1]`.
    pub fn offsets(&self) -> &[u32] {
        let n = self.n();
        &self.words[2 + n..3 + 2 * n]
    }

    /// Per id, its recorded neighbours that are live at the step and have
    /// a larger id (the only direction extraction emits an edge from),
    /// ascending by neighbour id, duplicates collapsed to the tighter
    /// record.
    pub fn nbr(&self) -> &[u32] {
        let at = 3 + 2 * self.n();
        &self.words[at..at + self.e()]
    }

    /// Recorded distance of entry `k` of [`nbr`](Self::nbr).
    pub fn dist(&self, k: usize) -> f64 {
        let at = 3 + 2 * self.n() + self.e() + 2 * k;
        f64::from_bits(u64::from(self.words[at]) | u64::from(self.words[at + 1]) << 32)
    }

    /// The entries of id `ids()[pos]`: its `(neighbour, distance)` pairs,
    /// read in place.
    pub fn entries(&self, pos: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (n, e) = (self.n(), self.e());
        let (a, b) = (self.words[2 + n + pos] as usize, self.words[3 + n + pos] as usize);
        let nbr = &self.words[3 + 2 * n..][a..b];
        let dist = &self.words[3 + 2 * n + e..][2 * a..2 * b];
        nbr.iter()
            .zip(dist.chunks_exact(2))
            .map(|(&w, d)| (w, f64::from_bits(u64::from(d[0]) | u64::from(d[1]) << 32)))
    }

    /// Approximate resident bytes (cache weight): `48 + 4·(2n + 1 + e) +
    /// 8·e`, a four-array layout's figure, so which unit the cache evicts
    /// does not depend on how a unit is held.
    pub fn weight(&self) -> usize {
        let (n, e) = (self.n(), self.e());
        48 + 4 * (2 * n + 1 + e) + 8 * e
    }
}

/// Reusable buffers for [`FrontGraph::derive`] (and the paged oracle's
/// fetch), mirroring the `RankScratch` pattern: a caller that derives
/// fronts in a loop keeps one of these around and the per-front
/// allocations (the dense node map, edge and position buffers) disappear
/// after warm-up. [`FetchScratch::recycle`] harvests the buffers of a
/// [`FrontGraph`] that is being replaced.
#[derive(Debug, Default)]
pub struct FetchScratch {
    /// Recycled `FrontGraph` buffers.
    pub(crate) edges: Vec<(u32, u32, f64)>,
    pub(crate) rep_pos: Vec<Point3>,
    pub(crate) ids: Vec<u32>,
    /// Dense per-tree-node map of the derivation, valid where
    /// `slot.stamp == stamp` — stamping makes "clear" free.
    slots: Vec<Slot>,
    stamp: u32,
    /// One bit per tree node: dedups the units' ids and yields them back
    /// in ascending order. All zero between derivations.
    bits: Vec<u64>,
}

/// Where the derivation found a node (which unit, at which position) and
/// the local index it assigned to it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    local: u32,
    unit: u32,
    pos: u32,
}

impl FetchScratch {
    /// Take back the buffers of a front that is no longer needed so the
    /// next fetch reuses them instead of allocating, keeping the larger of
    /// each pair of buffers.
    pub fn recycle(&mut self, fg: FrontGraph) {
        let FrontGraph { ids, edges, rep_pos, .. } = fg;
        keep_larger(&mut self.ids, ids);
        keep_larger(&mut self.edges, edges);
        keep_larger(&mut self.rep_pos, rep_pos);
    }

    /// Take back `fg`'s edge list alone, once its CSR adjacency is built
    /// and nothing reads the list again, keeping the larger buffer.
    pub fn recycle_edges(&mut self, fg: &mut FrontGraph) {
        keep_larger(&mut self.edges, std::mem::take(&mut fg.edges));
    }

    /// Per node of `fg` — the front the last [`FrontGraph::derive`] with
    /// this scratch made from `units`, the unit of every tile of a lattice
    /// `side` tiles a side in row-major order — the tiles whose units
    /// hold it, as `[x0, x1, y0, y1]` half-open. The unit store puts a
    /// node in exactly the tiles
    /// [`CutGrid::tiles_meeting`](crate::CutGrid::tiles_meeting) its MBR,
    /// a rectangle of tiles, so these are those ranges, read off the units
    /// rather than recomputed from each MBR.
    ///
    /// Panics unless `units` holds `side²` units and `side < 65 535`.
    pub fn tile_ranges(
        &self,
        fg: &FrontGraph,
        units: &[Arc<FrontUnit>],
        side: usize,
    ) -> Vec<[u16; 4]> {
        assert_eq!(units.len(), side * side, "the unit of every tile");
        assert!(side < usize::from(u16::MAX), "at most 65 534 tiles a side");
        let mut ranges = vec![[u16::MAX, 0, u16::MAX, 0]; fg.num_nodes()];
        for (tile, unit) in units.iter().enumerate() {
            let (x, y) = ((tile % side) as u16, (tile / side) as u16);
            for &id in unit.ids() {
                let slot = self.slots[id as usize];
                debug_assert_eq!(slot.stamp, self.stamp, "a node of the last derivation");
                let r = &mut ranges[slot.local as usize];
                *r = [r[0].min(x), r[1].max(x + 1), r[2].min(y), r[3].max(y + 1)];
            }
        }
        ranges
    }
}

/// Keep the larger-capacity of `buf` and `other`, emptied.
fn keep_larger<T>(buf: &mut Vec<T>, other: Vec<T>) {
    if other.capacity() > buf.capacity() {
        *buf = other;
    }
    buf.clear();
}

impl FrontGraph {
    /// Derive the front at step `m` over the region whose tiles `units`
    /// hold (every tile of the region, any order) — equal to
    /// [`PagedDmtm::fetch_front`](crate::PagedDmtm::fetch_front) of that
    /// region bit for bit, without a hash lookup or a sort:
    ///
    /// * ids: the union of the units' ids, deduplicated and ordered
    ///   through a bitmap (a node whose MBR spans several tiles is in
    ///   several units);
    /// * edges: extraction emits an edge only from its lower endpoint
    ///   (`local < wl`, and locals ascend with ids), keeping the tightest
    ///   of duplicate records. Units store exactly those entries per id,
    ///   sorted by neighbour, so walking ids in order and each id's
    ///   entries in order emits the edge list already in `(a, b)` order.
    pub fn derive(
        tree: &DmtmTree,
        m: u32,
        units: &[Arc<FrontUnit>],
        scratch: &mut FetchScratch,
    ) -> Self {
        let n = tree.nodes().len();
        if scratch.slots.len() != n {
            scratch.slots = vec![Slot::default(); n];
            scratch.bits = vec![0; n.div_ceil(64)];
            scratch.stamp = 0;
        }
        scratch.stamp = scratch.stamp.wrapping_add(1);
        if scratch.stamp == 0 {
            scratch.slots.fill(Slot::default());
            scratch.stamp = 1;
        }
        let FetchScratch { slots, stamp, bits, .. } = scratch;
        let stamp = *stamp;
        for (u, unit) in units.iter().enumerate() {
            for (pos, &id) in unit.ids().iter().enumerate() {
                let slot = &mut slots[id as usize];
                if slot.stamp != stamp {
                    *slot = Slot { stamp, local: 0, unit: u as u32, pos: pos as u32 };
                    bits[id as usize / 64] |= 1 << (id % 64);
                }
            }
        }
        let mut ids = std::mem::take(&mut scratch.ids);
        ids.clear();
        for (w, word) in bits.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                let id = (w * 64) as u32 + rest.trailing_zeros();
                slots[id as usize].local = ids.len() as u32;
                ids.push(id);
                rest &= rest - 1;
            }
        }
        let mut edges = std::mem::take(&mut scratch.edges);
        edges.clear();
        for (local, &id) in ids.iter().enumerate() {
            let slot = slots[id as usize];
            for (w, d) in units[slot.unit as usize].entries(slot.pos as usize) {
                let w = slots[w as usize];
                if w.stamp == stamp {
                    edges.push((local as u32, w.local, d));
                }
            }
        }
        let mut rep_pos = std::mem::take(&mut scratch.rep_pos);
        rep_pos.clear();
        rep_pos.extend(ids.iter().map(|&id| tree.node(id).rep_pos));
        Self { ids, edges, rep_pos, step: m }
    }

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
