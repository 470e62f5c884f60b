//! The DMTM's node payloads on the simulated disk, in Morton order.
//!
//! The paper stores DMTM nodes in the database under a clustering B+-tree
//! (§5.1). Here each node's **payload** — its adjacency entries with
//! distances, the bulk of the structure — is one [`HeapFile`] record,
//! written in the Morton (Z-order) order of the node's representative, so
//! spatially coherent retrieval (an ROI at some LOD) touches few pages.
//! The light per-node **metadata** (birth/death steps, MBR, parent links)
//! stays in memory and plays the role of DM's resident directory, with
//! one [`RecordId`] per node: deciding *which* records and pages to fetch
//! is free, fetching them is charged. DESIGN §4 says why this is a heap
//! file and not the paper's B+-tree.
//!
//! No engine reads this layout: MR3, EA and the constrained engine read
//! the unit store ([`UnitStore`](crate::UnitStore)), one unit per
//! `(schedule step, lattice tile)`. `PagedDmtm` is the oracle derived
//! fronts and stored units are tested against, and the benchmark's
//! per-layer probe of a paged front fetch.

#[cfg(test)]
use crate::cache::CutGrid;
#[cfg(test)]
use crate::front::FrontUnit;
use crate::front::{FetchScratch, FrontGraph};
use crate::tree::DmtmTree;
use sknn_geom::{Point3, Rect2};
use sknn_store::{HeapFile, PageId, Pager, RecordId, StoreResult};
use std::collections::HashMap;

/// DMTM with payloads resident on the simulated disk.
pub struct PagedDmtm {
    tree: DmtmTree,
    /// Node id -> its payload record. Records were written in Morton
    /// order, so sorting by record id sorts by Morton code.
    records: Vec<RecordId>,
}

impl PagedDmtm {
    /// Serialise a tree's node payloads into `pager` pages, one heap-file
    /// record per node in Morton order.
    ///
    /// # Panics
    /// Panics when a node's payload (4 bytes plus 12 per adjacency entry)
    /// does not fit in one page. On BH and EP terrains of 129² and 257²
    /// points (seed 5) the largest is 4 564 bytes, against 8 192-byte
    /// pages.
    pub fn build(pager: &Pager, tree: DmtmTree) -> Self {
        let extent = tree
            .nodes()
            .iter()
            .fold(Rect2::EMPTY, |r, n| r.union(&Rect2::from_point(n.rep_pos.xy())));
        let mut order: Vec<(u64, u32)> = (0..tree.nodes().len() as u32)
            .map(|id| (morton(&extent, tree.node(id).rep_pos), id))
            .collect();
        order.sort_unstable();
        let (_, rids) =
            HeapFile::build(pager, order.iter().map(|&(_, id)| serialize_payload(&tree, id)));
        let mut records = vec![RecordId { page: PageId(0), slot: 0 }; order.len()];
        for (&(_, id), rid) in order.iter().zip(rids) {
            records[id as usize] = rid;
        }
        Self { tree, records }
    }

    /// The resident metadata (no payload access is charged through this).
    pub fn tree(&self) -> &DmtmTree {
        &self.tree
    }

    /// Fetch the front after `m` collapses within `roi`: one batched read
    /// of the distinct pages holding the wanted nodes' records, so a cold
    /// fetch pays one stall. Read failures surface as
    /// [`StoreError`](sknn_store::StoreError), with no front.
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
        ids.extend((0..self.tree.nodes().len() as u32).filter(|&id| {
            self.tree.live_at(id, m) && roi.is_none_or(|r| r.intersects(&self.tree.node(id).mbr))
        }));
        let index: HashMap<u32, u32> =
            ids.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect();
        let mut edges = std::mem::take(&mut scratch.edges);
        edges.clear();
        let read = self.read_payloads(pager, &ids, |id, payload| {
            let local = index[&id];
            for (w, d) in payload_neighbors(payload) {
                if let Some(&wl) = index.get(&w) {
                    if self.tree.live_at(w, m) && local < wl {
                        edges.push((local, wl, d));
                    }
                }
            }
        });
        if let Err(e) = read {
            // Hand the buffers back so a degraded caller's next fetch
            // still reuses them.
            edges.clear();
            ids.clear();
            (scratch.edges, scratch.ids) = (edges, ids);
            return Err(e);
        }
        edges.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let mut rep_pos = std::mem::take(&mut scratch.rep_pos);
        rep_pos.clear();
        rep_pos.extend(ids.iter().map(|&id| self.tree.node(id).rep_pos));
        Ok(FrontGraph { ids, edges, rep_pos, step: m })
    }

    /// Hand each node of `ids` its payload, in record (Morton) order,
    /// after one [`Pager::with_pages`] batch over the distinct pages of
    /// their records. On a read failure nothing is handed out.
    fn read_payloads(
        &self,
        pager: &Pager,
        ids: &[u32],
        mut visit: impl FnMut(u32, &[u8]),
    ) -> StoreResult<()> {
        let mut order: Vec<(RecordId, u32)> =
            ids.iter().map(|&id| (self.records[id as usize], id)).collect();
        order.sort_unstable();
        let mut pages: Vec<PageId> = order.iter().map(|&(rid, _)| rid.page).collect();
        pages.dedup();
        let mut next = order.iter().peekable();
        pager.with_pages(&pages, |page, buf| {
            HeapFile::records(page, buf, |rid, payload| {
                if let Some((_, id)) = next.next_if(|&&(want, _)| want == rid) {
                    visit(*id, payload);
                }
            })
        })?;
        assert!(next.next().is_none(), "node payload missing");
        Ok(())
    }

    /// The residency units of lattice `tiles` (`row * side + column`
    /// indices into `grid`) at step `m`, assembled from the payloads:
    /// every node live at `m` goes to the requested tiles its MBR meets
    /// ([`CutGrid::tiles_meeting`]), and the payloads of the union of
    /// those nodes are read in one batch. Units come back in `tiles`
    /// order. The oracle [`UnitStore`](crate::UnitStore) reads are tested
    /// against.
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
        // Every node some requested tile holds.
        let mut wanted: Vec<u32> = Vec::new();
        for id in (0..self.tree.nodes().len() as u32).filter(|&id| self.tree.live_at(id, m)) {
            let (xs, ys) = grid.tiles_meeting(&self.tree.node(id).mbr);
            let mut held = false;
            for y in ys {
                for x in xs.clone() {
                    let u = unit_of_tile[y * side + x];
                    if u != u32::MAX {
                        unit_ids[u as usize].push(id);
                        held = true;
                    }
                }
            }
            if held {
                wanted.push(id);
            }
        }

        // Per fetched node, its neighbours in the form the units store
        // them.
        let mut adj: HashMap<u32, Vec<(u32, f64)>> = Default::default();
        self.read_payloads(pager, &wanted, |id, payload| {
            let mut one: Vec<(u32, f64)> = payload_neighbors(payload)
                .filter(|&(w, _)| w > id && self.tree.live_at(w, m))
                .collect();
            one.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            one.dedup_by_key(|e| e.0);
            adj.insert(id, one);
        })?;
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
    use sknn_store::{FaultInjector, FaultKind, StoreError};
    use sknn_terrain::dem::TerrainConfig;
    use std::time::Duration;

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
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let full_pages = pager.stats().physical_reads;
        let roi = Rect2::new(Point2::new(0.0, 0.0), Point2::new(40.0, 40.0));
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, Some(&roi)).unwrap();
        let roi_pages = pager.stats().physical_reads;
        assert!(roi_pages * 2 < full_pages, "roi {roi_pages} vs full {full_pages}");
        assert!(roi_pages > 0);
    }

    /// A window charges each page once: fetching the same front again in
    /// it reads nothing physically, and a new window reads it all again.
    #[test]
    fn a_window_reads_each_page_once() {
        let (pager, paged) = setup();
        let m = paged.tree().step_for_fraction(0.2);
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let cold = pager.stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        let again = pager.stats();
        assert!(cold.physical_reads > 0);
        assert_eq!(again.physical_reads, cold.physical_reads, "the second fetch only hits");
        assert_eq!(again.logical_reads, 2 * cold.logical_reads);
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, m, None).unwrap();
        assert_eq!(pager.stats(), cold, "a new window reads cold");
    }

    #[test]
    fn coarser_levels_read_fewer_pages() {
        let (pager, paged) = setup();
        let fine = paged.tree().step_for_fraction(1.0);
        let coarse = paged.tree().step_for_fraction(0.05);
        pager.reset_stats();
        let _ = paged.fetch_front(&pager, fine, None).unwrap();
        let fine_pages = pager.stats().physical_reads;
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

    /// The distinct heap pages holding the records of the nodes live at
    /// `m` within `roi`.
    fn wanted_pages(paged: &PagedDmtm, m: u32, roi: Option<&Rect2>) -> Vec<PageId> {
        let mut pages: Vec<PageId> = FrontGraph::extract(paged.tree(), m, roi)
            .ids
            .iter()
            .map(|&id| paged.records[id as usize].page)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    #[test]
    fn a_cold_fetch_reads_the_distinct_pages_of_its_records_in_one_stall() {
        const STALL: Duration = Duration::from_millis(1);
        let (pager, paged) = setup();
        let roi = Rect2::new(Point2::new(0.0, 0.0), Point2::new(40.0, 40.0));
        for (frac, roi) in [(1.0, Some(&roi)), (0.3, None), (1.0, None)] {
            let m = paged.tree().step_for_fraction(frac);
            let pages = wanted_pages(&paged, m, roi);
            pager.reset_stats();
            pager.set_read_stall(STALL);
            let before = pager.stall_ns();
            paged.fetch_front(&pager, m, roi).unwrap();
            let stalled = pager.stall_ns() - before;
            pager.set_read_stall(Duration::ZERO);
            let io = pager.stats();
            assert_eq!(io.physical_reads, pages.len() as u64, "fraction {frac}");
            assert_eq!(io.logical_reads, pages.len() as u64, "fraction {frac}");
            assert_eq!(stalled, STALL.as_nanos() as u64, "one stall for the whole fetch");
        }
    }

    /// A per-node loop reads each node's page on its own call; in one
    /// window it still reads each distinct page once, as the batched fetch
    /// does, so the batch never reads more pages, only in fewer stalls.
    #[test]
    fn a_batched_fetch_never_reads_more_pages_than_a_per_node_loop() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(4);
        let pager = Pager::new(256);
        let paged = PagedDmtm::build(&pager, build_dmtm(&mesh));
        let m = paged.tree().step_for_fraction(0.6);
        pager.reset_stats();
        for &id in &FrontGraph::extract(paged.tree(), m, None).ids {
            pager.with_page(paged.records[id as usize].page, |_| ()).unwrap();
        }
        let (looped, loop_batches) = (pager.stats().physical_reads, pager.stalled_batches());
        pager.reset_stats();
        let front = paged.fetch_front(&pager, m, None).unwrap();
        let batched = pager.stats().physical_reads;
        assert_eq!(front.ids, FrontGraph::extract(paged.tree(), m, None).ids);
        assert_eq!(batched, looped);
        assert_eq!(batched, wanted_pages(&paged, m, None).len() as u64);
        assert_eq!((pager.stalled_batches(), loop_batches), (1, looped));
    }

    #[test]
    fn a_permanent_fault_on_one_page_returns_the_error_and_no_front() {
        let (pager, paged) = setup();
        let m = paged.tree().step_for_fraction(1.0);
        let pages = wanted_pages(&paged, m, None);
        let bad = pages[pages.len() / 2];
        pager.reset_stats();
        pager.set_fault_injector(Some(FaultInjector::script().fail_page(
            bad.0,
            FaultKind::Permanent,
            None,
        )));
        let mut scratch = FetchScratch::default();
        let err = paged.fetch_front_with(&pager, m, None, &mut scratch).unwrap_err();
        assert_eq!(err, StoreError::PermanentRead { page: bad.0 });
        assert!(scratch.ids.is_empty() && scratch.edges.is_empty(), "no partial front kept");
        pager.set_fault_injector(None);
        let front = paged.fetch_front_with(&pager, m, None, &mut scratch).unwrap();
        assert_eq!(front.ids, FrontGraph::extract(paged.tree(), m, None).ids);
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
