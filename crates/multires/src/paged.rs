//! Storage layout of the DMTM over the simulated disk.
//!
//! The paper stores DMTM nodes in the database under a clustering B+-tree
//! (§5.1) and measures query cost in *disk pages accessed*. We reproduce
//! that: each node's **payload** — its adjacency entries with distances,
//! the bulk of the structure — is serialised into a [`BPlusTree`] record,
//! clustered by the Morton (Z-order) code of the node's representative so
//! that spatially coherent retrieval (an ROI at some LOD) touches few
//! pages and overlapping candidate regions share pages (the basis of the
//! integrated-I/O-region optimisation). The light per-node **metadata**
//! (birth/death steps, MBR, parent links, offsets) stays in memory and
//! plays the role of DM's resident directory, together with the B+-tree's
//! own leaf index (`(min key, leaf page)` per leaf, no inner pages):
//! deciding *which* records and leaves to fetch is free, fetching them is
//! charged. For the cut cache's unit loads the decision reads a
//! [`CutDirectory`], built once from the tree and the tile lattice: 24
//! bytes per node holding its `(birth, death)` steps and the tile ranges
//! its MBR meets, so a load neither walks the tree's nodes nor compares a
//! float.

use crate::cache::CutDirectory;
#[cfg(test)]
use crate::cache::CutGrid;
use crate::front::{FrontGraph, FrontUnit};
use crate::tree::DmtmTree;
use sknn_geom::{Point3, Rect2};
use sknn_store::{BPlusTree, Pager, StoreResult};
use sknn_terrain::mesh::{TerrainMesh, TriId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Reusable buffers for [`PagedDmtm::fetch_front_with`] and
/// [`PagedDmtm::derive_front`], mirroring the `RankScratch` pattern: a
/// caller that fetches fronts in a loop keeps one of these around and the
/// per-fetch allocations (key ordering, the id→local map, edge and
/// position buffers) disappear after warm-up. [`FetchScratch::recycle`]
/// harvests the buffers of a [`FrontGraph`] that is being replaced.
#[derive(Debug, Default)]
pub struct FetchScratch {
    /// (storage key, node id), sorted by key for the batched lookup.
    order: Vec<(u64, u32)>,
    /// The sorted keys handed to `BPlusTree::get_many`.
    sorted_keys: Vec<u64>,
    /// id→local index of the paged extraction.
    index: HashMap<u32, u32>,
    /// Recycled `FrontGraph` buffers.
    edges: Vec<(u32, u32, f64)>,
    rep_pos: Vec<Point3>,
    ids: Vec<u32>,
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
    /// next fetch reuses them instead of allocating.
    pub fn recycle(&mut self, fg: FrontGraph) {
        let FrontGraph { ids, edges, rep_pos, .. } = fg;
        if ids.capacity() > self.ids.capacity() {
            self.ids = ids;
            self.ids.clear();
        }
        self.edges = edges;
        self.edges.clear();
        self.rep_pos = rep_pos;
        self.rep_pos.clear();
    }
}

/// DMTM with payloads resident on the simulated disk.
pub struct PagedDmtm {
    tree: DmtmTree,
    btree: BPlusTree,
    /// Node id -> storage key.
    keys: Vec<u64>,
}

impl PagedDmtm {
    /// Serialise a tree's node payloads into `pager` pages.
    pub fn build(pager: &Pager, tree: DmtmTree) -> Self {
        let extent = tree
            .nodes()
            .iter()
            .fold(Rect2::EMPTY, |r, n| r.union(&Rect2::from_point(n.rep_pos.xy())));
        let mut keyed: Vec<(u64, u32)> = tree
            .nodes()
            .iter()
            .enumerate()
            .map(|(id, n)| {
                let code = morton(&extent, n.rep_pos);
                ((code << 24) | id as u64, id as u32)
            })
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let mut keys = vec![0u64; tree.nodes().len()];
        let mut records = Vec::with_capacity(keyed.len());
        for (k, id) in keyed {
            keys[id as usize] = k;
            records.push((k, serialize_payload(&tree, id)));
        }
        let btree = BPlusTree::bulk_build(pager, &records);
        Self { tree, btree, keys }
    }

    /// The resident metadata (no payload access is charged through this).
    pub fn tree(&self) -> &DmtmTree {
        &self.tree
    }

    /// Fetch the front after `m` collapses within `roi`, charging one page
    /// read per B+-tree page touched. Fetches happen in storage-key order
    /// to exploit the Morton clustering. Read failures surface as
    /// [`StoreError`](sknn_store::StoreError) so the engine can degrade
    /// to a coarser, already-materialized resolution.
    pub fn fetch_front(
        &self,
        pager: &Pager,
        m: u32,
        roi: Option<&Rect2>,
    ) -> StoreResult<FrontGraph> {
        self.fetch_front_with(pager, m, roi, &mut FetchScratch::default())
    }

    /// [`PagedDmtm::fetch_front`] with caller-provided scratch buffers.
    pub fn fetch_front_with(
        &self,
        pager: &Pager,
        m: u32,
        roi: Option<&Rect2>,
        scratch: &mut FetchScratch,
    ) -> StoreResult<FrontGraph> {
        let mut ids = std::mem::take(&mut scratch.ids);
        ids.clear();
        self.live_ids_into(m, roi, &mut ids);
        self.fetch_ids_with(pager, m, ids, scratch)
    }

    /// Live node ids at step `m` intersecting `roi` (metadata only).
    pub fn live_ids(&self, m: u32, roi: Option<&Rect2>) -> Vec<u32> {
        let mut ids = Vec::new();
        self.live_ids_into(m, roi, &mut ids);
        ids
    }

    /// [`PagedDmtm::live_ids`] into a reused buffer.
    pub fn live_ids_into(&self, m: u32, roi: Option<&Rect2>, out: &mut Vec<u32>) {
        out.extend((0..self.tree.nodes().len() as u32).filter(|&id| {
            self.tree.live_at(id, m) && roi.is_none_or(|r| r.intersects(&self.tree.node(id).mbr))
        }));
    }

    /// Fetch the payloads of an ascending id set and assemble the front:
    /// the id set is taken by value (no defensive clone), the id→local
    /// index and edge/position buffers are recycled from previous fronts,
    /// and the payload lookups go through [`BPlusTree::get_many`] — one
    /// leaf read per run of Morton-adjacent keys instead of one per node,
    /// which can only lower the page-access count.
    fn fetch_ids_with(
        &self,
        pager: &Pager,
        m: u32,
        ids: Vec<u32>,
        scratch: &mut FetchScratch,
    ) -> StoreResult<FrontGraph> {
        let FetchScratch { order, sorted_keys, index, .. } = scratch;
        order.clear();
        order.extend(ids.iter().map(|&id| (self.keys[id as usize], id)));
        order.sort_unstable_by_key(|&(k, _)| k);
        sorted_keys.clear();
        sorted_keys.extend(order.iter().map(|&(k, _)| k));
        index.clear();
        index.extend(ids.iter().enumerate().map(|(i, &id)| (id, i as u32)));
        let mut edges = std::mem::take(&mut scratch.edges);
        edges.clear();
        let mut cursor = 0usize;
        let fetched = self.btree.get_many(pager, sorted_keys, |_, payload| {
            let id = order[cursor].1;
            cursor += 1;
            let local = index[&id];
            for (w, d) in payload_neighbors(&payload) {
                if let Some(&wl) = index.get(&w) {
                    if self.tree.live_at(w, m) && local < wl {
                        edges.push((local, wl, d));
                    }
                }
            }
        });
        match fetched {
            // Every known id has a payload record: a clean lookup that
            // finds fewer is a build-time programmer error, not an I/O
            // fault.
            Ok(found) => assert_eq!(found, order.len(), "node payload missing"),
            Err(e) => {
                // Return the partially-filled buffers to the scratch so a
                // degraded caller's next fetch still reuses them.
                edges.clear();
                scratch.edges = edges;
                scratch.ids = ids;
                scratch.ids.clear();
                return Err(e);
            }
        }
        edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let mut rep_pos = std::mem::take(&mut scratch.rep_pos);
        rep_pos.clear();
        rep_pos.extend(ids.iter().map(|&id| self.tree.node(id).rep_pos));
        Ok(FrontGraph { ids, edges, rep_pos, step: m })
    }

    /// Load the residency units of lattice `tiles` (`row * side + column`
    /// indices into `dir`'s grid) at step `m`: the packed directory alone
    /// assigns every live node to the requested tiles its MBR meets, and
    /// the payloads of the union of those nodes are read in a single
    /// [`BPlusTree::get_many`] batch — a subset of what
    /// [`fetch_front`](Self::fetch_front) reads for any region containing
    /// the tiles. Units come back in `tiles` order.
    pub fn fetch_units(
        &self,
        pager: &Pager,
        m: u32,
        dir: &CutDirectory,
        tiles: &[u32],
    ) -> StoreResult<Vec<FrontUnit>> {
        self.load_units(pager, dir.grid().tiles(), tiles, dir.live_nodes(m), |w| dir.live_at(w, m))
    }

    /// [`fetch_units`](Self::fetch_units) deciding from the tree itself:
    /// every node's liveness and one [`CutGrid::tiles_meeting`] per live
    /// node on every load. The oracle the directory is tested against.
    #[cfg(test)]
    fn fetch_units_by_scan(
        &self,
        pager: &Pager,
        m: u32,
        grid: &CutGrid,
        tiles: &[u32],
    ) -> StoreResult<Vec<FrontUnit>> {
        let placed =
            (0..self.tree.nodes().len() as u32).filter(|&id| self.tree.live_at(id, m)).map(|id| {
                let (xs, ys) = grid.tiles_meeting(&self.tree.node(id).mbr);
                (id, xs, ys)
            });
        self.load_units(pager, grid.tiles(), tiles, placed, |w| self.tree.live_at(w, m))
    }

    /// The units of `tiles` on a lattice of `side` tiles per axis, given
    /// every node live at the units' step, ascending, with the tile
    /// columns and rows it meets (`placed`), and a neighbour's liveness at
    /// that step (`live`).
    fn load_units(
        &self,
        pager: &Pager,
        side: usize,
        tiles: &[u32],
        placed: impl Iterator<Item = (u32, Range<usize>, Range<usize>)>,
        live: impl Fn(u32) -> bool,
    ) -> StoreResult<Vec<FrontUnit>> {
        let mut unit_of_tile = vec![u32::MAX; side * side];
        // The claimed tiles' bounding box: most nodes miss it outright.
        let (mut bx, mut by) = (side..0, side..0);
        for (u, &t) in tiles.iter().enumerate() {
            unit_of_tile[t as usize] = u as u32;
            let (x, y) = (t as usize % side, t as usize / side);
            bx = bx.start.min(x)..bx.end.max(x + 1);
            by = by.start.min(y)..by.end.max(y + 1);
        }
        let mut units = vec![FrontUnit::default(); tiles.len()];
        // (storage key, node id) of every node some requested tile holds.
        let mut order: Vec<(u64, u32)> = Vec::new();
        for (id, xs, ys) in placed {
            let xs = xs.start.max(bx.start)..xs.end.min(bx.end);
            let ys = ys.start.max(by.start)..ys.end.min(by.end);
            let mut wanted = false;
            for y in ys {
                for x in xs.clone() {
                    let u = unit_of_tile[y * side + x];
                    if u != u32::MAX {
                        units[u as usize].ids.push(id);
                        wanted = true;
                    }
                }
            }
            if wanted {
                order.push((self.keys[id as usize], id));
            }
        }
        order.sort_unstable_by_key(|&(k, _)| k);
        let sorted_keys: Vec<u64> = order.iter().map(|&(k, _)| k).collect();

        // Per fetched node `(id, start, end)` into `adj`: its neighbours
        // in the form the units store them.
        let mut runs: Vec<(u32, u32, u32)> = Vec::with_capacity(order.len());
        let mut adj: Vec<(u32, f64)> = Vec::new();
        let mut one: Vec<(u32, f64)> = Vec::new();
        let mut cursor = 0usize;
        let found = self.btree.get_many(pager, &sorted_keys, |_, payload| {
            let id = order[cursor].1;
            cursor += 1;
            one.clear();
            one.extend(payload_neighbors(&payload).filter(|&(w, _)| w > id && live(w)));
            one.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            one.dedup_by_key(|e| e.0);
            runs.push((id, adj.len() as u32, (adj.len() + one.len()) as u32));
            adj.extend_from_slice(&one);
        })?;
        assert_eq!(found, order.len(), "node payload missing");
        runs.sort_unstable_by_key(|r| r.0);

        // Unit ids and `runs` are both ascending by id: a merge walk.
        for unit in &mut units {
            let mut r = 0usize;
            unit.offsets.push(0);
            for &id in &unit.ids {
                while runs[r].0 < id {
                    r += 1;
                }
                for &(w, d) in &adj[runs[r].1 as usize..runs[r].2 as usize] {
                    unit.nbr.push(w);
                    unit.dist.push(d);
                }
                unit.offsets.push(unit.nbr.len() as u32);
            }
        }
        Ok(units)
    }

    /// Derive the front at step `m` over the region whose tiles `units`
    /// hold (every tile of the region, any order) — equal to
    /// [`fetch_front`](Self::fetch_front) of that region bit for bit,
    /// without a hash lookup or a sort:
    ///
    /// * ids: the union of the units' ids, deduplicated and ordered
    ///   through a bitmap (a node whose MBR spans several tiles is in
    ///   several units);
    /// * edges: extraction emits an edge only from its lower endpoint
    ///   (`local < wl`, and locals ascend with ids), keeping the tightest
    ///   of duplicate records. Units store exactly those entries per id,
    ///   sorted by neighbour, so walking ids in order and each id's
    ///   entries in order emits the edge list already in `(a, b)` order.
    pub fn derive_front(
        &self,
        m: u32,
        units: &[Arc<FrontUnit>],
        scratch: &mut FetchScratch,
    ) -> FrontGraph {
        let n = self.tree.nodes().len();
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
            for (pos, &id) in unit.ids.iter().enumerate() {
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
            let unit = &units[slot.unit as usize];
            let (a, b) = (unit.offsets[slot.pos as usize], unit.offsets[slot.pos as usize + 1]);
            for k in a as usize..b as usize {
                let w = slots[unit.nbr[k] as usize];
                if w.stamp == stamp {
                    edges.push((local as u32, w.local, unit.dist[k]));
                }
            }
        }
        let mut rep_pos = std::mem::take(&mut scratch.rep_pos);
        rep_pos.clear();
        rep_pos.extend(ids.iter().map(|&id| self.tree.node(id).rep_pos));
        FrontGraph { ids, edges, rep_pos, step: m }
    }

    /// Embed a surface point into a fetched front (metadata only; the
    /// entry costs come from facet geometry and resident offsets).
    pub fn embed(
        &self,
        fg: &FrontGraph,
        mesh: &TerrainMesh,
        tri: TriId,
        pos: Point3,
    ) -> Vec<(u32, f64)> {
        fg.embed(&self.tree, mesh, tri, pos)
    }
}

fn serialize_payload(tree: &DmtmTree, id: u32) -> Vec<u8> {
    let node = tree.node(id);
    let mut out = Vec::with_capacity(4 + node.neighbors.len() * 12);
    out.extend_from_slice(&(node.neighbors.len() as u32).to_le_bytes());
    for &(w, d) in &node.neighbors {
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
    out
}

/// Iterate a payload's `(neighbor, distance)` entries without allocating.
fn payload_neighbors(bytes: &[u8]) -> impl Iterator<Item = (u32, f64)> + '_ {
    let deg = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    (0..deg).map(move |i| {
        let off = 4 + i * 12;
        let w = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let d = f64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap());
        (w, d)
    })
}

/// 2-D Morton code over the extent, 16 bits per axis.
fn morton(extent: &Rect2, p: Point3) -> u64 {
    let nx = ((p.x - extent.lo.x) / extent.width().max(1e-12)).clamp(0.0, 1.0);
    let ny = ((p.y - extent.lo.y) / extent.height().max(1e-12)).clamp(0.0, 1.0);
    let xi = (nx * 65535.0) as u64;
    let yi = (ny * 65535.0) as u64;
    interleave(xi) | (interleave(yi) << 1)
}

fn interleave(mut v: u64) -> u64 {
    v &= 0xFFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TileSpan;
    use crate::simplify::build_dmtm;
    use proptest::prelude::*;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;

    fn setup() -> (Pager, PagedDmtm) {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(4);
        let tree = build_dmtm(&mesh);
        let pager = Pager::new(256);
        let paged = PagedDmtm::build(&pager, tree);
        (pager, paged)
    }

    #[test]
    fn fetched_front_matches_in_memory_extraction() {
        let (pager, paged) = setup();
        let m = paged.tree().step_for_fraction(0.3);
        let mem = FrontGraph::extract(paged.tree(), m, None);
        let disk = paged.fetch_front(&pager, m, None).unwrap();
        assert_eq!(mem.ids, disk.ids);
        let norm = |mut e: Vec<(u32, u32, f64)>| {
            e.sort_by_key(|&(a, b, _)| (a, b));
            e
        };
        assert_eq!(norm(mem.edges), norm(disk.edges));
    }

    #[test]
    fn roi_fetch_reads_fewer_pages() {
        let (pager, paged) = setup();
        let m = paged.tree().step_for_fraction(1.0);
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let full_pages = pager.stats().physical_reads;
        let roi = Rect2::new(Point2::new(0.0, 0.0), Point2::new(40.0, 40.0));
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, Some(&roi)).unwrap();
        let roi_pages = pager.stats().physical_reads;
        assert!(roi_pages * 2 < full_pages, "roi {roi_pages} vs full {full_pages}");
        assert!(roi_pages > 0);
    }

    #[test]
    fn warm_pool_fetches_are_cheaper() {
        let (pager, paged) = setup();
        let m = paged.tree().step_for_fraction(0.2);
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let cold = pager.stats().physical_reads;
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let warm = pager.stats().physical_reads;
        assert!(warm < cold / 2, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn coarser_levels_read_fewer_pages() {
        let (pager, paged) = setup();
        let fine = paged.tree().step_for_fraction(1.0);
        let coarse = paged.tree().step_for_fraction(0.05);
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, fine, None).unwrap();
        let fine_pages = pager.stats().physical_reads;
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, coarse, None).unwrap();
        let coarse_pages = pager.stats().physical_reads;
        assert!(coarse_pages < fine_pages, "coarse {coarse_pages} vs fine {fine_pages}");
    }

    #[test]
    fn scratch_fetches_match_fresh_fetches() {
        let (pager, paged) = setup();
        let mut scratch = FetchScratch::default();
        let mut prev: Option<FrontGraph> = None;
        for frac in [0.1, 0.3, 0.3, 0.6] {
            let m = paged.tree().step_for_fraction(frac);
            let fresh = paged.fetch_front(&pager, m, None).unwrap();
            if let Some(old) = prev.take() {
                scratch.recycle(old);
            }
            let reused = paged.fetch_front_with(&pager, m, None, &mut scratch).unwrap();
            assert_eq!(fresh.ids, reused.ids);
            assert_eq!(fresh.edges, reused.edges);
            assert_eq!(fresh.step, reused.step);
            prev = Some(reused);
        }
    }

    #[test]
    fn derived_front_equals_paged_fetch() {
        let (pager, paged) = setup();
        let extent = paged.tree().nodes().iter().fold(Rect2::EMPTY, |r, n| r.union(&n.mbr));
        let dir = CutDirectory::build(paged.tree(), CutGrid::new(extent, 4, 0.5));
        let grid = dir.grid();
        let mut scratch = FetchScratch::default();
        let spans = [
            grid.full_span(),
            TileSpan { x0: 1, x1: 2, y0: 2, y1: 3 },
            TileSpan { x0: 0, x1: 3, y0: 1, y1: 4 },
        ];
        for frac in [0.02, 0.3, 1.0] {
            let m = paged.tree().step_for_fraction(frac);
            for span in spans {
                let tiles: Vec<u32> = span.tiles(4).collect();
                let units: Vec<Arc<FrontUnit>> = paged
                    .fetch_units(&pager, m, &dir, &tiles)
                    .unwrap()
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                let derived = paged.derive_front(m, &units, &mut scratch);
                let oracle = paged.fetch_front(&pager, m, Some(&grid.span_rect(span))).unwrap();
                assert_eq!(derived.ids, oracle.ids, "frac {frac} span {span:?}");
                assert_eq!(derived.rep_pos, oracle.rep_pos);
                let bits = |e: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
                    e.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
                };
                assert_eq!(bits(&derived.edges), bits(&oracle.edges), "frac {frac} span {span:?}");
                scratch.recycle(derived);
            }
        }
    }

    /// The tree of a 17² terrain and the terrain's extent, built once.
    fn shared_tree() -> &'static (DmtmTree, Rect2) {
        static TREE: std::sync::OnceLock<(DmtmTree, Rect2)> = std::sync::OnceLock::new();
        TREE.get_or_init(|| {
            let mesh = TerrainConfig::bh().with_grid(17).build_mesh(4);
            (build_dmtm(&mesh), mesh.extent())
        })
    }

    /// A `FrontUnit`'s fields, `dist` by bit pattern.
    type UnitBits = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>);

    fn unit_bits(units: &[FrontUnit]) -> Vec<UnitBits> {
        units
            .iter()
            .map(|u| {
                let dist = u.dist.iter().map(|d| d.to_bits()).collect();
                (u.ids.clone(), u.offsets.clone(), u.nbr.clone(), dist)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Units loaded through the packed directory equal the whole-tree
        /// scan's field for field, and each load charges its pager exactly
        /// what the scan's load charges its twin — at the finest, a random
        /// and the coarsest step, on lattices of 1, 16 and 37 tiles per
        /// side over the terrain's own extent (where the 16-tile lattice
        /// lines run through vertices, so leaf MBRs lie exactly on them)
        /// and over a skewed extent whose lines are not representable.
        #[test]
        fn directory_loads_equal_the_whole_tree_scan(
            step_kind in 0usize..3,
            random_step in any::<u32>(),
            tiles_pick in 0usize..3,
            skewed in any::<bool>(),
            loads in proptest::collection::vec((any::<u64>(), 1u64..=100), 1..4),
        ) {
            let (tree, extent) = shared_tree();
            let side = [1, 16, 37][tiles_pick];
            let extent = if skewed {
                Rect2::new(
                    Point2::new(extent.lo.x - 0.1, extent.lo.y - 0.3),
                    Point2::new(extent.hi.x + 0.7, extent.hi.y + 0.2),
                )
            } else {
                *extent
            };
            let grid = CutGrid::new(extent, side, 0.5);
            if side == 16 && !skewed {
                let line = grid.span_rect(TileSpan { x0: 1, x1: 2, y0: 1, y1: 2 }).lo.x;
                prop_assert!(tree.nodes().iter().any(|n| n.mbr.lo.x == line));
            }
            let m = match step_kind {
                0 => 0,
                1 => random_step % (tree.num_steps() + 1),
                _ => tree.num_steps(),
            };
            let dir = CutDirectory::build(tree, grid);
            let (pager, oracle_pager) = (Pager::new(16), Pager::new(16));
            let paged = PagedDmtm::build(&pager, tree.clone());
            let oracle = PagedDmtm::build(&oracle_pager, tree.clone());
            let n = (side * side) as u64;
            for (seed, percent) in loads {
                // A seeded subset of the lattice, never empty, ascending.
                let mix = |t: u64| (seed ^ t).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                let mut tiles: Vec<u32> =
                    (0..n).filter(|&t| mix(t) % 100 < percent).map(|t| t as u32).collect();
                if tiles.is_empty() {
                    tiles.push((seed % n) as u32);
                }
                let got = paged.fetch_units(&pager, m, &dir, &tiles).unwrap();
                let want = oracle.fetch_units_by_scan(&oracle_pager, m, &grid, &tiles).unwrap();
                prop_assert_eq!(unit_bits(&got), unit_bits(&want));
                prop_assert_eq!(pager.stats(), oracle_pager.stats());
            }
        }
    }

    #[test]
    fn morton_interleave_is_monotone_in_locality() {
        // Nearby points share high-order bits more often than far points;
        // spot-check the codec itself.
        assert_eq!(interleave(0), 0);
        assert_eq!(interleave(1), 1);
        assert_eq!(interleave(0b11), 0b101);
        assert_eq!(interleave(0xFFFF), 0x5555_5555);
    }
}
