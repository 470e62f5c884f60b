//! Storage layout of the DMTM over the simulated disk: the paper's
//! clustering B+-tree.
//!
//! The paper stores DMTM nodes in the database under a clustering B+-tree
//! (§5.1) and measures query cost in *disk pages accessed*. We reproduce
//! that for the EA baseline and the constrained engine: each node's
//! **payload** — its adjacency entries with distances, the bulk of the
//! structure — is serialised into a [`BPlusTree`] record, clustered by the
//! Morton (Z-order) code of the node's representative so that spatially
//! coherent retrieval (an ROI at some LOD) touches few pages. The light
//! per-node **metadata** (birth/death steps, MBR, parent links, offsets)
//! stays in memory and plays the role of DM's resident directory, together
//! with the B+-tree's own leaf index (`(min key, leaf page)` per leaf, no
//! inner pages): deciding *which* records and leaves to fetch is free,
//! fetching them is charged.
//!
//! MR3 does not read this layout: its cut cache asks for one unit per
//! `(schedule step, lattice tile)`, and [`UnitStore`](crate::UnitStore)
//! stores exactly those. The tree's unit assembly survives here only as
//! the test oracle the unit store is checked against.

#[cfg(test)]
use crate::cache::CutGrid;
#[cfg(test)]
use crate::front::FrontUnit;
use crate::front::{FetchScratch, FrontGraph};
use crate::tree::DmtmTree;
use sknn_geom::{Point3, Rect2};
use sknn_store::{BPlusTree, Pager, StoreResult};

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
    fn fetch_front_with(
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

    /// Live node ids at step `m` intersecting `roi` (metadata only), into
    /// a reused buffer.
    fn live_ids_into(&self, m: u32, roi: Option<&Rect2>, out: &mut Vec<u32>) {
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

    /// The residency units of lattice `tiles` (`row * side + column`
    /// indices into `grid`) at step `m`, assembled from the tree's
    /// payloads: every node live at `m` goes to the requested tiles its
    /// MBR meets ([`CutGrid::tiles_meeting`]), and the payloads of the
    /// union of those nodes are read in a single [`BPlusTree::get_many`]
    /// batch. Units come back in `tiles` order. The oracle
    /// [`UnitStore`](crate::UnitStore) reads are tested against.
    #[cfg(test)]
    pub(crate) fn load_units(
        &self,
        pager: &Pager,
        grid: &CutGrid,
        m: u32,
        tiles: &[u32],
    ) -> StoreResult<Vec<FrontUnit>> {
        let side = grid.tiles();
        let mut unit_of_tile = vec![u32::MAX; side * side];
        for (u, &t) in tiles.iter().enumerate() {
            unit_of_tile[t as usize] = u as u32;
        }
        let mut unit_ids: Vec<Vec<u32>> = vec![Vec::new(); tiles.len()];
        // (storage key, node id) of every node some requested tile holds.
        let mut order: Vec<(u64, u32)> = Vec::new();
        for id in (0..self.tree.nodes().len() as u32).filter(|&id| self.tree.live_at(id, m)) {
            let (xs, ys) = grid.tiles_meeting(&self.tree.node(id).mbr);
            let mut wanted = false;
            for y in ys {
                for x in xs.clone() {
                    let u = unit_of_tile[y * side + x];
                    if u != u32::MAX {
                        unit_ids[u as usize].push(id);
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

        // Per fetched node, its neighbours in the form the units store
        // them.
        let mut adj: std::collections::HashMap<u32, Vec<(u32, f64)>> = Default::default();
        let mut cursor = 0usize;
        let found = self.btree.get_many(pager, &sorted_keys, |_, payload| {
            let id = order[cursor].1;
            cursor += 1;
            let mut one: Vec<(u32, f64)> = payload_neighbors(&payload)
                .filter(|&(w, _)| w > id && self.tree.live_at(w, m))
                .collect();
            one.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            one.dedup_by_key(|e| e.0);
            adj.insert(id, one);
        })?;
        assert_eq!(found, order.len(), "node payload missing");
        let units = unit_ids
            .iter()
            .map(|ids| {
                let (mut offsets, mut nbr, mut dist) = (vec![0], Vec::new(), Vec::new());
                for &id in ids {
                    for &(w, d) in &adj[&id] {
                        nbr.push(w);
                        dist.push(d);
                    }
                    offsets.push(nbr.len() as u32);
                }
                FrontUnit::from_fields(ids, &offsets, &nbr, &dist)
            })
            .collect();
        Ok(units)
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
    use crate::simplify::build_dmtm;
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
    fn morton_interleave_is_monotone_in_locality() {
        // Nearby points share high-order bits more often than far points;
        // spot-check the codec itself.
        assert_eq!(interleave(0), 0);
        assert_eq!(interleave(1), 1);
        assert_eq!(interleave(0b11), 0b101);
        assert_eq!(interleave(0xFFFF), 0x5555_5555);
    }
}
