//! Storage layout of the MSDN over the simulated disk.
//!
//! "MSDN data can be stored in a spatial database (as line segments with
//! extra information to record their resolution level and to which plane
//! they belong to). To retrieve a set of MSDN data for a given region at a
//! given resolution can be efficiently supported" (paper §3.3). Each
//! (axis, level) gets a heap file with one record per simplified segment,
//! written line by line so a line occupies a contiguous run of pages. The
//! resident directory holds only line-level metadata (plane value, whole-
//! line MBR, record index range); segment geometry is read from pages — and
//! charged — when a query touches the line.

use crate::msdn::Msdn;
use crate::network::{lower_bound, LowerBound};
use crate::simplify::{SimplifiedLine, SimplifiedSegment};
use sknn_geom::{Aabb3, Axis, AxisPlane, Point3, Rect2, Segment3};
use sknn_store::{HeapFile, PageId, PageSink, Pager, StoreResult};
use std::ops::Range;

struct PagedLine {
    plane: AxisPlane,
    mbr_xy: Rect2,
    /// The line's segments: a run of its level's record indices.
    rids: Range<usize>,
}

struct PagedLevel {
    file: HeapFile,
    /// Per page of `file`, in order, the index of its first record: the
    /// file holds the level's segments in line order, so record `i` sits
    /// on the last page whose first index is `≤ i`, at slot `i - first`.
    page_first: Vec<usize>,
    lines: Vec<PagedLine>,
}

impl PagedLevel {
    /// Position in `file.pages()` of the page holding record `i`.
    fn page_of(&self, i: usize) -> usize {
        self.page_first.partition_point(|&first| first <= i) - 1
    }
}

/// MSDN with segment payloads resident on the simulated disk.
pub struct PagedMsdn {
    levels: Vec<f64>,
    x_levels: Vec<PagedLevel>,
    y_levels: Vec<PagedLevel>,
}

impl PagedMsdn {
    /// Serialise an in-memory MSDN into pages: one heap file per (axis,
    /// level), bulk-built from the level's segments in line order, so
    /// each page is written once.
    pub fn build(pager: &Pager, msdn: &Msdn) -> Self {
        let write_axis = |axis: Axis| -> Vec<PagedLevel> {
            (0..msdn.num_levels())
                .map(|lvl| {
                    let level = msdn.level_lines(axis, lvl);
                    let (file, rids) = HeapFile::build(
                        pager,
                        level.iter().flat_map(|line| line.segments.iter().map(encode_segment)),
                    );
                    let mut start = 0;
                    let lines = level
                        .iter()
                        .map(|line| {
                            let rids = start..start + line.segments.len();
                            start = rids.end;
                            PagedLine {
                                plane: line.plane,
                                mbr_xy: line
                                    .segments
                                    .iter()
                                    .fold(Rect2::EMPTY, |mbr, seg| mbr.union(&seg.mbr.xy())),
                                rids,
                            }
                        })
                        .collect();
                    let page_first = rids
                        .iter()
                        .enumerate()
                        .filter(|(_, rid)| rid.slot == 0)
                        .map(|(i, _)| i)
                        .collect();
                    PagedLevel { file, page_first, lines }
                })
                .collect()
        };
        Self {
            levels: msdn.levels.clone(),
            x_levels: write_axis(Axis::X),
            y_levels: write_axis(Axis::Y),
        }
    }

    /// Num levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    fn level(&self, axis: Axis, idx: usize) -> &PagedLevel {
        match axis {
            Axis::X => &self.x_levels[idx],
            Axis::Y => &self.y_levels[idx],
        }
    }

    /// Fetch the lines of `level_idx` separating `a` and `b`, restricted to
    /// `roi`, charging one page read per distinct heap page. Lines whose
    /// directory MBR misses the ROI are skipped without I/O. Read failures
    /// surface as [`StoreError`](sknn_store::StoreError).
    pub fn fetch_lines_between(
        &self,
        pager: &Pager,
        level_idx: usize,
        a: Point3,
        b: Point3,
        roi: Option<&Rect2>,
    ) -> StoreResult<Vec<SimplifiedLine>> {
        let axis = Msdn::axis_for(a, b);
        let (ca, cb) = (axis.coord(a), axis.coord(b));
        let mut wanted = self.select_lines(level_idx, axis, ca.min(cb), ca.max(cb), roi);
        if ca > cb {
            wanted.reverse();
        }
        self.fetch_lines(pager, level_idx, &on_axis(axis, wanted))
    }

    /// The lines of one axis with plane value in the open band `(lo, hi)`
    /// whose whole-line MBR meets `roi` (every line of the band when
    /// `None`), as indices into the level's directory, ascending by plane
    /// value. No I/O: [`fetch_lines`](Self::fetch_lines) reads them, or a
    /// [`LineCutCache::claim`](crate::LineCutCache::claim) over the band.
    pub fn select_lines(
        &self,
        level_idx: usize,
        axis: Axis,
        lo: f64,
        hi: f64,
        roi: Option<&Rect2>,
    ) -> Vec<u32> {
        let lines = &self.level(axis, level_idx).lines;
        let mut wanted: Vec<u32> = (0..lines.len() as u32)
            .filter(|&i| {
                let l = &lines[i as usize];
                l.plane.value > lo
                    && l.plane.value < hi
                    && roi.is_none_or(|r| r.intersects(&l.mbr_xy))
            })
            .collect();
        wanted.sort_by(|&p, &q| {
            lines[p as usize].plane.value.total_cmp(&lines[q as usize].plane.value)
        });
        wanted
    }

    /// The storage half, and its one entry point: read the segments of the
    /// given `(axis, directory line)`s of one level — both axes mixed — in
    /// **one** batched heap read, charging one page read per distinct page,
    /// and return the lines in `wanted`'s order: a
    /// [`read_lines`](Self::read_lines) read alone.
    pub fn fetch_lines(
        &self,
        pager: &Pager,
        level_idx: usize,
        wanted: &[(Axis, u32)],
    ) -> StoreResult<Vec<SimplifiedLine>> {
        let mut read = self.read_lines(level_idx, wanted);
        pager.read_into(&mut [&mut read])?;
        Ok(read.finish())
    }

    /// Plan the read of the given `(axis, directory line)`s of one level:
    /// the returned [`LineRead`]'s [`pages`](PageSink::pages) are the
    /// distinct heap pages of their records, both axis files' page runs
    /// merged into one sorted set, so however many bands and axes a
    /// lower-bound round asks for — and whatever else the caller batches
    /// with them — its misses pay a single stall.
    pub fn read_lines(&self, level_idx: usize, wanted: &[(Axis, u32)]) -> LineRead<'_> {
        let levels = [self.level(Axis::X, level_idx), self.level(Axis::Y, level_idx)];
        let line = |k: usize| &levels[side(wanted[k].0)].lines[wanted[k].1 as usize];
        // Per axis, the positions of `wanted` in level order.
        let mut by_record: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (k, &(axis, _)) in wanted.iter().enumerate() {
            by_record[side(axis)].push(k);
        }
        // Each line's records fill a run of its file's pages, and in level
        // order the runs ascend: each adds the pages past the last one.
        // The batch holds `(page, axis side, page's position in its file)`.
        let mut batch: Vec<(PageId, usize, usize)> = Vec::new();
        for (s, level) in levels.iter().enumerate() {
            by_record[s].sort_by_key(|&k| wanted[k].1);
            let mut last: Option<usize> = None;
            for &k in &by_record[s] {
                let rids = &line(k).rids;
                if !rids.is_empty() {
                    let from = last.map_or(0, |j| j + 1).max(level.page_of(rids.start));
                    let to = level.page_of(rids.end - 1);
                    batch.extend((from..=to).map(|j| (level.file.pages()[j], s, j)));
                    last = last.max(Some(to));
                }
            }
        }
        batch.sort_unstable_by_key(|&(page, ..)| page);
        let pages = batch.iter().map(|&(page, ..)| page).collect();
        let out = (0..wanted.len())
            .map(|k| SimplifiedLine {
                plane: line(k).plane,
                segments: Vec::with_capacity(line(k).rids.len()),
            })
            .collect();
        LineRead {
            levels,
            wanted: wanted.to_vec(),
            by_record,
            batch,
            pages,
            out,
            at: 0,
            next: [0; 2],
        }
    }

    /// Page-charged lower bound (fetch + Dijkstra).
    pub fn lower_bound(
        &self,
        pager: &Pager,
        level_idx: usize,
        a: Point3,
        b: Point3,
        roi: Option<&Rect2>,
    ) -> StoreResult<LowerBound> {
        let owned = self.fetch_lines_between(pager, level_idx, a, b, roi)?;
        let refs: Vec<&SimplifiedLine> = owned.iter().collect();
        Ok(lower_bound(&refs, a, b, roi, None))
    }
}

/// Index of an axis's level in [`LineRead::levels`].
fn side(axis: Axis) -> usize {
    usize::from(axis == Axis::Y)
}

/// A planned read of MSDN lines ([`PagedMsdn::read_lines`]): fed its
/// pages in ascending order, it walks their records into the wanted lines,
/// and [`finish`](Self::finish) hands the lines out in the order asked.
pub struct LineRead<'a> {
    levels: [&'a PagedLevel; 2],
    wanted: Vec<(Axis, u32)>,
    /// Per axis side, the positions of `wanted` in level order.
    by_record: [Vec<usize>; 2],
    /// Per page to read, `(page, axis side, page's position in its file)`.
    batch: Vec<(PageId, usize, usize)>,
    pages: Vec<PageId>,
    out: Vec<SimplifiedLine>,
    /// Position in `batch` of the page fed last.
    at: usize,
    /// Per axis side, the first position of `by_record` whose line may
    /// still hold a record to come.
    next: [usize; 2],
}

impl PageSink for LineRead<'_> {
    fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Pages come in ascending order and, within a file, their records in
    /// slot order, which is line order, so each record goes straight to
    /// the end of its wanted lines' segment lists: a merge walk per axis
    /// over the wanted lines in level order, with no hashing.
    fn feed(&mut self, page: PageId, bytes: &[u8]) {
        let LineRead { levels, wanted, by_record, batch, out, at, next, .. } = self;
        while batch[*at].0 != page {
            *at += 1;
        }
        let (_, s, j) = batch[*at];
        let line = |k: usize| &levels[side(wanted[k].0)].lines[wanted[k].1 as usize];
        let (order, next) = (&by_record[s], &mut next[s]);
        HeapFile::records(page, bytes, |rid, rec| {
            let i = levels[s].page_first[j] + rid.slot as usize;
            while *next < order.len() && line(order[*next]).rids.end <= i {
                *next += 1;
            }
            let holders = order[*next..].iter().take_while(|&&k| line(k).rids.start <= i);
            let mut seg = None;
            for &k in holders {
                out[k].segments.push(*seg.get_or_insert_with(|| decode_segment(rec)));
            }
        });
    }
}

impl LineRead<'_> {
    /// The wanted lines, in the order asked, once every page was fed.
    pub fn finish(&mut self) -> Vec<SimplifiedLine> {
        std::mem::take(&mut self.out)
    }
}

/// Directory lines of one axis as [`PagedMsdn::fetch_lines`] keys.
fn on_axis(axis: Axis, lines: Vec<u32>) -> Vec<(Axis, u32)> {
    lines.into_iter().map(|line| (axis, line)).collect()
}

/// Bytes of one encoded segment record: twelve little-endian `f64`s.
const SEGMENT_BYTES: usize = 96;

fn encode_segment(seg: &SimplifiedSegment) -> [u8; SEGMENT_BYTES] {
    let mut out = [0u8; SEGMENT_BYTES];
    for (slot, v) in out.chunks_exact_mut(8).zip([
        seg.seg.a.x,
        seg.seg.a.y,
        seg.seg.a.z,
        seg.seg.b.x,
        seg.seg.b.y,
        seg.seg.b.z,
        seg.mbr.lo.x,
        seg.mbr.lo.y,
        seg.mbr.lo.z,
        seg.mbr.hi.x,
        seg.mbr.hi.y,
        seg.mbr.hi.z,
    ]) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_segment(bytes: &[u8]) -> SimplifiedSegment {
    let f = |i: usize| f64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
    SimplifiedSegment {
        seg: Segment3::new(Point3::new(f(0), f(1), f(2)), Point3::new(f(3), f(4), f(5))),
        mbr: Aabb3::new(Point3::new(f(6), f(7), f(8)), Point3::new(f(9), f(10), f(11))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{LineBand, LineCutCache};
    use crate::msdn::MsdnConfig;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;
    use std::time::Duration;

    fn setup() -> (Pager, Msdn, PagedMsdn, sknn_terrain::mesh::TerrainMesh) {
        let mesh = TerrainConfig::bh().with_grid(33).build_mesh(31);
        // Explicit dense plane spacing so each level spans several pages
        // (the BH preset at this small grid has long 3-D edges, which the
        // auto spacing would follow).
        let msdn =
            Msdn::build(&mesh, &MsdnConfig { plane_spacing: Some(8.0), ..MsdnConfig::default() });
        let pager = Pager::new(128);
        let paged = PagedMsdn::build(&pager, &msdn);
        (pager, msdn, paged, mesh)
    }

    /// The build writes each page it allocates exactly once: its checksum
    /// is computed once, not once per record.
    #[test]
    fn build_writes_each_page_once() {
        let (pager, msdn, _, _) = setup();
        let (writes, pages) = (pager.lifetime_stats().writes, pager.num_pages());
        let paged = PagedMsdn::build(&pager, &msdn);
        let allocated = (pager.num_pages() - pages) as u64;
        assert!(allocated > 2 * paged.num_levels() as u64, "levels span several pages");
        assert_eq!(pager.lifetime_stats().writes - writes, allocated);
    }

    #[test]
    fn roundtrip_segment_codec() {
        let seg = SimplifiedSegment {
            seg: Segment3::new(Point3::new(1.0, 2.0, 3.0), Point3::new(-4.0, 5.5, 6.25)),
            mbr: Aabb3::new(Point3::new(-4.0, 2.0, 3.0), Point3::new(1.0, 5.5, 6.25)),
        };
        assert_eq!(decode_segment(&encode_segment(&seg)), seg);
    }

    #[test]
    fn paged_bound_matches_in_memory_bound() {
        let (pager, msdn, paged, mesh) = setup();
        let loc = TriangleLocator::build(&mesh);
        let a = loc.lift(&mesh, Point2::new(20.0, 25.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(290.0, 260.0)).unwrap();
        for lvl in [0, 2, 4] {
            let mem = msdn.lower_bound(lvl, a, b, None);
            let disk = paged.lower_bound(&pager, lvl, a, b, None).unwrap();
            assert!(
                (mem.value - disk.value).abs() < 1e-9,
                "level {lvl}: {} vs {}",
                mem.value,
                disk.value
            );
        }
    }

    #[test]
    fn roi_fetch_reads_fewer_pages() {
        let (pager, _msdn, paged, mesh) = setup();
        let loc = TriangleLocator::build(&mesh);
        let a = loc.lift(&mesh, Point2::new(15.0, 75.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(300.0, 170.0)).unwrap();
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_lines_between(&pager, 4, a, b, None).unwrap();
        let full = pager.stats().physical_reads;
        let roi = Rect2::new(Point2::new(0.0, 40.0), Point2::new(320.0, 200.0));
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_lines_between(&pager, 4, a, b, Some(&roi)).unwrap();
        let restricted = pager.stats().physical_reads;
        assert!(restricted <= full);
        assert!(restricted > 0);
    }

    #[test]
    fn lower_levels_read_fewer_pages() {
        let (pager, _msdn, paged, mesh) = setup();
        let loc = TriangleLocator::build(&mesh);
        let a = loc.lift(&mesh, Point2::new(12.0, 20.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(300.0, 280.0)).unwrap();
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_lines_between(&pager, 0, a, b, None).unwrap();
        let coarse = pager.stats().physical_reads;
        pager.clear_pool();
        pager.reset_stats();
        let _ = paged.fetch_lines_between(&pager, 4, a, b, None).unwrap();
        let fine = pager.stats().physical_reads;
        assert!(coarse < fine, "coarse {coarse} vs fine {fine}");
    }

    /// The heap pages holding the records of `msdn`'s `wanted` lines, the
    /// oracle for page charges: each axis level is laid out again on a
    /// scratch pager and its records addressed one by one. Pages of the two
    /// axes are told apart by axis, as they live in different files.
    fn record_pages(msdn: &Msdn, level: usize, wanted: &[(Axis, u32)]) -> Vec<(Axis, PageId)> {
        let mut pages: Vec<(Axis, PageId)> = Vec::new();
        for axis in [Axis::X, Axis::Y] {
            let lines = msdn.level_lines(axis, level);
            let (_, rids) = HeapFile::build(
                &Pager::new(4),
                lines.iter().flat_map(|l| l.segments.iter().map(encode_segment)),
            );
            let mut start = vec![0];
            start.extend(lines.iter().scan(0, |end, l| {
                *end += l.segments.len();
                Some(*end)
            }));
            pages.extend(
                wanted
                    .iter()
                    .filter(|&&(a, _)| a == axis)
                    .flat_map(|&(_, w)| &rids[start[w as usize]..start[w as usize + 1]])
                    .map(|rid| (axis, rid.page)),
            );
        }
        pages.sort_unstable_by_key(|&(axis, page)| (axis == Axis::Y, page));
        pages.dedup();
        pages
    }

    /// A batch of lines of both axes in any order, duplicates included,
    /// holds each line's in-memory segments and reads each distinct page of
    /// their records once — the pages a record-by-record address lookup
    /// names.
    #[test]
    fn batched_lines_equal_in_memory_lines_and_read_each_page_once() {
        let (pager, msdn, paged, _) = setup();
        let level = 4;
        let (nx, ny) = (
            msdn.level_lines(Axis::X, level).len() as u32,
            msdn.level_lines(Axis::Y, level).len() as u32,
        );
        let wanted = [
            (Axis::X, nx - 1),
            (Axis::Y, ny / 2),
            (Axis::X, 0),
            (Axis::X, nx / 2),
            (Axis::Y, 0),
            (Axis::X, 0),
            (Axis::Y, ny - 1),
            (Axis::X, nx / 3),
            (Axis::Y, ny / 2),
            (Axis::X, nx / 2 + 1),
            (Axis::X, nx / 2),
        ];
        for batch in [&wanted[..], &wanted[..1], &wanted[1..2]] {
            pager.clear_pool();
            pager.reset_stats();
            let got = paged.fetch_lines(&pager, level, batch).unwrap();
            assert_eq!(pager.stats().logical_reads, record_pages(&msdn, level, batch).len() as u64);
            assert_eq!(got.len(), batch.len());
            for (&(axis, w), line) in batch.iter().zip(&got) {
                let expect = &msdn.level_lines(axis, level)[w as usize];
                assert_eq!(line.plane, expect.plane);
                assert_eq!(line.segments, expect.segments);
            }
        }
    }

    /// A lower-bound round's load — two bands per axis over both axes at
    /// one level, through the line cache — pays exactly one stall on a
    /// cold pool, and its physical reads are the distinct pages of the
    /// lines' records.
    #[test]
    fn a_cold_lower_bound_round_pays_one_stall() {
        const STALL: Duration = Duration::from_millis(1);
        let (pager, msdn, paged, mesh) = setup();
        let level = 3;
        let e = mesh.extent();
        let roi = Rect2::new(e.lo, Point2::new(e.lo.x + 0.7 * e.width(), e.hi.y));
        let band = |axis: Axis, from: f64, to: f64| {
            let (origin, width) =
                if axis == Axis::X { (e.lo.x, e.width()) } else { (e.lo.y, e.height()) };
            LineBand { axis, lo: origin + from * width, hi: origin + to * width, roi: Some(&roi) }
        };
        let bands = [
            band(Axis::X, 0.1, 0.4),
            band(Axis::X, 0.3, 0.8),
            band(Axis::Y, 0.0, 0.35),
            band(Axis::Y, 0.6, 0.9),
        ];
        let cache = LineCutCache::new(16 << 20);
        pager.clear_pool();
        pager.reset_stats();
        pager.set_read_stall(STALL);
        let before = pager.stall_ns();
        let mut load = cache.claim(&paged, level, &bands);
        pager.read_into(&mut [&mut load]).unwrap();
        load.publish();
        let got = load.finish(&pager).unwrap();
        let stalled = pager.stall_ns() - before;
        pager.set_read_stall(Duration::ZERO);
        assert_eq!(stalled, STALL.as_nanos() as u64, "one stall for the whole round");

        let mut wanted: Vec<(Axis, u32)> = Vec::new();
        for (b, (lines, hit)) in bands.iter().zip(&got) {
            let selected = on_axis(b.axis, paged.select_lines(level, b.axis, b.lo, b.hi, b.roi));
            let oracle = paged.fetch_lines(&pager, level, &selected).unwrap();
            assert!(!lines.is_empty() && !hit, "every band is non-empty and cold");
            assert_eq!(lines.len(), oracle.len());
            for (l, o) in lines.iter().zip(&oracle) {
                assert_eq!((l.plane, &l.segments), (o.plane, &o.segments));
            }
            wanted.extend(selected);
        }
        let pages = record_pages(&msdn, level, &wanted);
        assert!(pages.iter().any(|p| p.0 == Axis::X) && pages.iter().any(|p| p.0 == Axis::Y));
        assert_eq!(pager.stats().physical_reads, pages.len() as u64);
    }

    #[test]
    fn fetched_lines_match_in_memory_lines() {
        let (pager, msdn, paged, mesh) = setup();
        let loc = TriangleLocator::build(&mesh);
        let a = loc.lift(&mesh, Point2::new(30.0, 10.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(45.0, 300.0)).unwrap();
        let mem = msdn.lines_between(3, a, b);
        let disk = paged.fetch_lines_between(&pager, 3, a, b, None).unwrap();
        assert_eq!(mem.len(), disk.len());
        for (m, d) in mem.iter().zip(&disk) {
            assert_eq!(m.plane, d.plane);
            assert_eq!(m.segments, d.segments);
        }
    }
}
