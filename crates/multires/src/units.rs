//! The cut cache's unit store: each `(schedule step, lattice tile)`
//! [`FrontUnit`] persisted as the cache will ask for it.
//!
//! MR3's ranking reads the DMTM only through the [`CutCache`](crate::CutCache),
//! one unit per `(resolution step, lattice tile)`, and the steps come from
//! the engine's schedule, known at build time. So the units are assembled
//! once, at build, and each step's units are written back to back, tiles
//! row-major, into **one contiguous page run** — the paper's Direct-Mesh
//! idea of storing a LOD's data where that LOD is read, at the granularity
//! the cache keys by. The resident directory is, per step, the run's
//! first page and each tile's byte range (2 KB at 16² tiles). A load of any
//! set of tiles is then one batched read of the pages of their byte ranges
//! (`UnitRead`), each unit's words copied straight out of its pages: no
//! per-node record walk, no liveness filter, no sort, no dedup and no tile
//! placement on the query path.
//!
//! ## Encoding
//!
//! A unit is `[n_ids u32, n_entries u32, ids, offsets, nbr, dist]`,
//! little-endian: `n_ids` ids, `n_ids + 1` offsets and `n_entries`
//! neighbours as `u32`, then `n_entries` distances as `f64`. Units may
//! straddle page boundaries; every page is written once.

use crate::cache::CutGrid;
use crate::front::FrontUnit;
use crate::tree::DmtmTree;
use sknn_store::{PageId, PageSink, Pager, StoreResult, PAGE_SIZE};

/// One step's run: its first page and, per tile in row-major order, where
/// the tile's unit starts (`tiles + 1` byte offsets, so tile `t` is
/// `offsets[t]..offsets[t + 1]`).
#[derive(Debug)]
struct StepRun {
    step: u32,
    first: PageId,
    offsets: Vec<usize>,
}

impl StepRun {
    /// Pages of the run holding tile `t`'s unit, as run positions.
    fn pages_of(&self, t: u32) -> std::ops::RangeInclusive<u64> {
        let (a, b) = (self.offsets[t as usize], self.offsets[t as usize + 1]);
        (a / PAGE_SIZE) as u64..=((b - 1) / PAGE_SIZE) as u64
    }
}

/// Every unit of a set of collapse steps over one tile lattice, on pages.
#[derive(Debug)]
pub struct UnitStore {
    grid: CutGrid,
    runs: Vec<StepRun>,
}

impl UnitStore {
    /// Assemble the units of every tile of `grid` at each of `steps`
    /// (duplicates ignored) from `tree`, and write each step's units as
    /// one page run on `pager`, under the caller's tag scope.
    pub fn build(pager: &Pager, tree: &DmtmTree, grid: CutGrid, steps: &[u32]) -> Self {
        let mut steps = steps.to_vec();
        steps.sort_unstable();
        steps.dedup();
        let runs = steps
            .into_iter()
            .map(|step| {
                let (bytes, offsets) = encode_step(tree, &grid, step);
                let first = pager.alloc_run(bytes.len().div_ceil(PAGE_SIZE));
                for (p, page) in bytes.chunks(PAGE_SIZE).enumerate() {
                    pager.write(PageId(first.0 + p as u64), 0, page);
                }
                StepRun { step, first, offsets }
            })
            .collect();
        Self { grid, runs }
    }

    /// The lattice the units are tiles of.
    pub fn grid(&self) -> &CutGrid {
        &self.grid
    }

    fn run(&self, m: u32) -> &StepRun {
        self.runs
            .iter()
            .find(|r| r.step == m)
            .unwrap_or_else(|| panic!("step {m} has no unit run: steps come from the schedule"))
    }

    /// The pages a [`read`](Self::read) of `tiles` at step `m` visits:
    /// every page of every tile's byte range, ascending, each once.
    pub fn pages(&self, m: u32, tiles: &[u32]) -> Vec<PageId> {
        let run = self.run(m);
        let mut pages: Vec<PageId> =
            tiles.iter().flat_map(|&t| run.pages_of(t).map(|p| PageId(run.first.0 + p))).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The units of lattice `tiles` (`row * side + column`) at stored
    /// step `m`, in `tiles` order, read in **one** page batch: one
    /// logical read per page of their byte ranges, and the batch's misses
    /// share one stall. A failed read returns its error and no unit.
    ///
    /// Panics when `m` is not a stored step.
    pub fn read(&self, pager: &Pager, m: u32, tiles: &[u32]) -> StoreResult<Vec<FrontUnit>> {
        let mut read = self.read_units(m, tiles);
        pager.read_into(&mut [&mut read])?;
        Ok(read.finish())
    }

    /// A planned [`read`](Self::read) of `tiles` at step `m`, for the
    /// caller to batch: its [`pages`](PageSink::pages) are
    /// [`pages`](Self::pages) of `tiles`.
    pub(crate) fn read_units(&self, m: u32, tiles: &[u32]) -> UnitRead {
        if tiles.is_empty() {
            return UnitRead::default();
        }
        let run = self.run(m);
        let ranges: Vec<(usize, usize)> =
            tiles.iter().map(|&t| (run.offsets[t as usize], run.offsets[t as usize + 1])).collect();
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by_key(|&u| ranges[u].0);
        let words = vec![Vec::new(); ranges.len()];
        UnitRead { first: run.first.0, pages: self.pages(m, tiles), ranges, order, next: 0, words }
    }
}

/// A planned read of one step's units ([`UnitStore::read_units`]): fed
/// its pages in ascending order, it copies each unit's words straight out
/// of them, and [`finish`](Self::finish) hands the units out in the order
/// asked.
#[derive(Debug, Default)]
pub(crate) struct UnitRead {
    /// The step run's first page.
    first: u64,
    pages: Vec<PageId>,
    /// Per unit asked for, its byte range in the run.
    ranges: Vec<(usize, usize)>,
    /// The positions of `ranges`, by range start.
    order: Vec<usize>,
    /// The first position of `order` whose unit may still have bytes to
    /// come.
    next: usize,
    words: Vec<Vec<u32>>,
}

impl PageSink for UnitRead {
    fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// A unit's bytes are contiguous in the run and all its pages are
    /// read, and every stored word is 4-aligned in the run (a unit's size
    /// is a multiple of 4), so the page's share of each unit it holds is
    /// whole words, appended in page order.
    fn feed(&mut self, page: PageId, bytes: &[u8]) {
        let from = (page.0 - self.first) as usize * PAGE_SIZE;
        let to = from + PAGE_SIZE;
        for &u in &self.order[self.next..] {
            let (a, b) = self.ranges[u];
            if a >= to {
                break;
            }
            let share = &bytes[a.max(from) - from..b.min(to) - from];
            let words = &mut self.words[u];
            // The unit's one allocation, at its first page.
            words.reserve_exact((b - a) / 4 - words.len());
            words.extend(
                share.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes"))),
            );
        }
        while self.order.get(self.next).is_some_and(|&u| self.ranges[u].1 <= to) {
            self.next += 1;
        }
    }
}

impl UnitRead {
    /// The units asked for, in the order asked, once every page was fed.
    pub(crate) fn finish(&mut self) -> Vec<FrontUnit> {
        std::mem::take(&mut self.words).into_iter().map(FrontUnit::from_words).collect()
    }
}

/// Every tile's unit at step `m`, encoded back to back in row-major tile
/// order, and the tiles' start offsets (plus the end).
///
/// A unit holds the nodes live at `m` whose MBR meets its tile
/// ([`CutGrid::tiles_meeting`]), ascending, and per node its recorded
/// neighbours that are live at `m` and have a larger id, ascending by
/// neighbour, duplicates collapsed to the tighter record.
fn encode_step(tree: &DmtmTree, grid: &CutGrid, m: u32) -> (Vec<u8>, Vec<usize>) {
    let side = grid.tiles();
    let mut tile_ids: Vec<Vec<u32>> = vec![Vec::new(); side * side];
    // Per live node, its entries' range in `entries`.
    let mut span: Vec<(usize, usize)> = vec![(0, 0); tree.nodes().len()];
    let mut entries: Vec<(u32, f64)> = Vec::new();
    let mut one: Vec<(u32, f64)> = Vec::new();
    for id in (0..tree.nodes().len() as u32).filter(|&id| tree.live_at(id, m)) {
        let (xs, ys) = grid.tiles_meeting(&tree.node(id).mbr);
        for y in ys {
            for x in xs.clone() {
                tile_ids[y * side + x].push(id);
            }
        }
        one.clear();
        one.extend(tree.node(id).neighbors.iter().filter(|&&(w, _)| w > id && tree.live_at(w, m)));
        one.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        one.dedup_by_key(|e| e.0);
        span[id as usize] = (entries.len(), entries.len() + one.len());
        entries.extend_from_slice(&one);
    }

    let own = |id: u32| &entries[span[id as usize].0..span[id as usize].1];
    let put = |bytes: &mut Vec<u8>, v: u32| bytes.extend_from_slice(&v.to_le_bytes());
    let mut bytes: Vec<u8> = Vec::new();
    let mut offsets = Vec::with_capacity(side * side + 1);
    offsets.push(0);
    for ids in &tile_ids {
        let n_entries: usize = ids.iter().map(|&id| own(id).len()).sum();
        put(&mut bytes, ids.len() as u32);
        put(&mut bytes, n_entries as u32);
        ids.iter().for_each(|&id| put(&mut bytes, id));
        put(&mut bytes, 0);
        let mut end = 0;
        for &id in ids {
            end += own(id).len() as u32;
            put(&mut bytes, end);
        }
        ids.iter().flat_map(|&id| own(id)).for_each(|&(w, _)| put(&mut bytes, w));
        for &(_, d) in ids.iter().flat_map(|&id| own(id)) {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        offsets.push(bytes.len());
    }
    (bytes, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TileSpan;
    use crate::front::{FetchScratch, FrontGraph};
    use crate::paged::PagedDmtm;
    use crate::simplify::build_dmtm;
    use proptest::prelude::*;
    use sknn_geom::{Point2, Rect2};
    use sknn_terrain::dem::TerrainConfig;
    use std::sync::Arc;
    use std::time::Duration;

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
                let dist = (0..u.nbr().len()).map(|k| u.dist(k).to_bits()).collect();
                (u.ids().to_vec(), u.offsets().to_vec(), u.nbr().to_vec(), dist)
            })
            .collect()
    }

    #[test]
    fn build_writes_one_run_per_step_and_each_page_once() {
        let (tree, extent) = shared_tree();
        let grid = CutGrid::new(*extent, 16, 0.5);
        let pager = Pager::new(16);
        let quarter = tree.step_for_fraction(0.25);
        let store = UnitStore::build(&pager, tree, grid, &[quarter, 0, quarter]);
        let writes = pager.lifetime_stats().writes;
        assert_eq!(writes, pager.num_pages() as u64, "every page written once");
        let all: Vec<u32> = grid.full_span().tiles(16).collect();
        let (fine, coarse) = (store.pages(0, &all), store.pages(quarter, &all));
        assert_eq!(fine.len() + coarse.len(), pager.num_pages(), "the two runs are all the pages");
        assert!(coarse.len() < fine.len(), "a coarser step stores fewer bytes");
        assert!(fine.windows(2).all(|w| w[1].0 == w[0].0 + 1), "a step's run is contiguous");
    }

    /// A unit weighs what four separate arrays of its fields would —
    /// `48 + 4·(2n + 1 + e) + 8·e` for `n` ids and `e` entries — so no
    /// eviction depends on how a resident unit is held; and its fields
    /// are exactly its stored bytes.
    #[test]
    fn unit_weight_is_unchanged() {
        let (tree, extent) = shared_tree();
        let grid = CutGrid::new(*extent, 16, 0.5);
        let pager = Pager::new(64);
        let steps =
            [0, tree.step_for_fraction(0.25), tree.step_for_fraction(0.5), tree.num_steps()];
        let store = UnitStore::build(&pager, tree, grid, &steps);
        let all: Vec<u32> = grid.full_span().tiles(16).collect();
        for run in &store.runs {
            for (&t, unit) in all.iter().zip(store.read(&pager, run.step, &all).unwrap()) {
                let (n, e) = (unit.ids().len(), unit.nbr().len());
                assert_eq!(unit.offsets().len(), n + 1);
                let stored = run.offsets[t as usize + 1] - run.offsets[t as usize];
                assert_eq!(stored, 8 + 4 * (2 * n + 1) + 12 * e, "step {} tile {t}", run.step);
                assert_eq!(unit.weight(), 48 + 4 * (2 * n + 1 + e) + 8 * e);
            }
        }
    }

    #[test]
    fn a_cold_unit_read_pays_one_stall() {
        const STALL: Duration = Duration::from_millis(1);
        let (tree, extent) = shared_tree();
        let grid = CutGrid::new(*extent, 16, 0.5);
        let pager = Pager::new(256);
        let m = tree.step_for_fraction(0.5);
        let store = UnitStore::build(&pager, tree, grid, &[m]);
        // Two disjoint blocks, so the claimed ranges leave a gap.
        let tiles: Vec<u32> = TileSpan { x0: 0, x1: 3, y0: 0, y1: 2 }
            .tiles(16)
            .chain(TileSpan { x0: 5, x1: 16, y0: 9, y1: 16 }.tiles(16))
            .collect();
        let pages = store.pages(m, &tiles);
        let all = store.pages(m, &grid.full_span().tiles(16).collect::<Vec<_>>());
        assert!(pages.len() > 1 && pages.len() < all.len(), "{} of {}", pages.len(), all.len());
        pager.reset_stats();
        pager.set_read_stall(STALL);
        let before = pager.stall_ns();
        let units = store.read(&pager, m, &tiles).unwrap();
        let stalled = pager.stall_ns() - before;
        pager.set_read_stall(Duration::ZERO);
        assert_eq!(stalled, STALL.as_nanos() as u64, "one stall for the whole load");
        assert_eq!(pager.stats().physical_reads, pages.len() as u64);
        assert_eq!(pager.stats().logical_reads, pages.len() as u64);
        assert_eq!(units.len(), tiles.len());
    }

    #[test]
    fn derived_front_equals_paged_fetch() {
        let (tree, extent) = shared_tree();
        let pager = Pager::new(256);
        let paged = PagedDmtm::build(&pager, tree.clone());
        let grid = CutGrid::new(*extent, 4, 0.5);
        let fracs = [0.02, 0.3, 1.0];
        let steps: Vec<u32> = fracs.iter().map(|&f| tree.step_for_fraction(f)).collect();
        let store = UnitStore::build(&pager, tree, grid, &steps);
        let mut scratch = FetchScratch::default();
        let spans = [
            grid.full_span(),
            TileSpan { x0: 1, x1: 2, y0: 2, y1: 3 },
            TileSpan { x0: 0, x1: 3, y0: 1, y1: 4 },
        ];
        for m in steps {
            for span in spans {
                let tiles: Vec<u32> = span.tiles(4).collect();
                let units: Vec<Arc<FrontUnit>> =
                    store.read(&pager, m, &tiles).unwrap().into_iter().map(Arc::new).collect();
                let derived = FrontGraph::derive(tree, m, &units, &mut scratch);
                let oracle = paged.fetch_front(&pager, m, Some(&grid.span_rect(span))).unwrap();
                assert_eq!(derived.ids, oracle.ids, "step {m} span {span:?}");
                assert_eq!(derived.rep_pos, oracle.rep_pos);
                let bits = |e: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
                    e.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
                };
                assert_eq!(bits(&derived.edges), bits(&oracle.edges), "step {m} span {span:?}");
                scratch.recycle(derived);
            }
        }
    }

    /// A tree whose adjacency records repeat a neighbour (a bundle read
    /// from disk may; the collapse driver never writes one) stores the
    /// tighter record once, as the paged assembly and extraction do.
    #[test]
    fn duplicate_entries_collapse_to_the_tighter_record() {
        let (tree, extent) = shared_tree();
        let mut tree = tree.clone();
        let m = tree.step_for_fraction(0.5);
        let (id, w, d) = (0..tree.nodes.len() as u32)
            .filter(|&id| tree.live_at(id, m))
            .find_map(|id| {
                let n = &tree.nodes[id as usize];
                n.neighbors
                    .iter()
                    .find(|&&(w, _)| w > id && tree.live_at(w, m))
                    .map(|&(w, d)| (id, w, d))
            })
            .expect("a live edge");
        tree.nodes[id as usize].neighbors.extend([(w, d * 2.0), (w, d / 2.0)]);
        let grid = CutGrid::new(*extent, 16, 0.5);
        let (pager, oracle_pager) = (Pager::new(16), Pager::new(16));
        let store = UnitStore::build(&pager, &tree, grid, &[m]);
        let oracle = PagedDmtm::build(&oracle_pager, tree.clone());
        let all: Vec<u32> = grid.full_span().tiles(16).collect();
        let got = store.read(&pager, m, &all).unwrap();
        assert_eq!(
            unit_bits(&got),
            unit_bits(&oracle.load_units(&oracle_pager, &grid, m, &all).unwrap())
        );
        let holder = got.iter().find(|u| u.ids().contains(&id)).expect("a tile holds the node");
        let pos = holder.ids().iter().position(|&i| i == id).unwrap();
        let own = holder.offsets()[pos] as usize..holder.offsets()[pos + 1] as usize;
        let entries: Vec<(u32, f64)> =
            own.map(|k| (holder.nbr()[k], holder.dist(k))).filter(|e| e.0 == w).collect();
        assert_eq!(entries, vec![(w, d / 2.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The unit store's reads equal the Morton payload file's unit assembly
        /// field for field, for every stored step — the finest, a random
        /// and the coarsest — and reads of 1, 16 or all tiles, on lattices
        /// of 1, 16 and 37 tiles per side over the terrain's own extent
        /// (where the 16-tile lattice lines run through vertices, so leaf
        /// MBRs lie exactly on them) and over a skewed extent whose lines
        /// are not representable.
        #[test]
        fn unit_reads_equal_the_paged_loads(
            random_step in any::<u32>(),
            tiles_pick in 0usize..3,
            skewed in any::<bool>(),
            seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
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
            let steps = [0, random_step % (tree.num_steps() + 1), tree.num_steps()];
            let (pager, oracle_pager) = (Pager::new(16), Pager::new(16));
            let store = UnitStore::build(&pager, tree, grid, &steps);
            let oracle = PagedDmtm::build(&oracle_pager, tree.clone());
            let n = (side * side) as u64;
            for m in steps {
                for (seed, count) in [(seeds.0, 1), (seeds.1, 16), (seeds.2, n)] {
                    // A seeded subset of `count` tiles, ascending.
                    let mix = |t: u64| (seed ^ t).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut all: Vec<u64> = (0..n).collect();
                    all.sort_by_key(|&t| mix(t));
                    let mut tiles: Vec<u32> =
                        all[..count.min(n) as usize].iter().map(|&t| t as u32).collect();
                    tiles.sort_unstable();
                    let got = store.read(&pager, m, &tiles).unwrap();
                    let want = oracle.load_units(&oracle_pager, &grid, m, &tiles).unwrap();
                    prop_assert_eq!(unit_bits(&got), unit_bits(&want));
                }
            }
        }
    }
}
