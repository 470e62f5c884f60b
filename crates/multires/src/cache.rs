//! Process-wide cache of DMTM front data, resident by lattice tile.
//!
//! Reading a front's data from pages dominates MR3's CPU-bound cost, and
//! concurrent queries over hot terrain ask for overlapping regions of the
//! same few resolution steps. [`CutCache`] keeps that data resident in
//! **non-overlapping units**, one [`FrontUnit`] per `(resolution step,
//! lattice tile)` — read, as stored, from a [`UnitStore`] — and *derives*
//! each requested front from the units of its region, so overlapping
//! requests share every byte they have in common instead of each holding
//! a private copy of it. Single-flight loading, CLOCK eviction and the
//! claim rule — the spans' union in first-span order, each span's units
//! and its hit flag — come from [`SingleFlightCache`] in `sknn-store`;
//! this module only maps spans to `(step, tile)` keys and reads pages
//! (`UnitRead`). A read is a [`claim`](CutCache::claim), one
//! [`Pager::read_into`] of the claimed units' pages (batched with
//! whatever else the caller reads), then [`UnitLoad::publish`] and
//! [`UnitLoad::finish`]; the caller derives each span's front from the
//! units `finish` hands it.
//!
//! ## Region canonicalization and bit-identity
//!
//! [`CutGrid`] canonicalizes fetch regions *before* they reach the store
//! layer — padding them by a loading-radius fraction of a tile
//! (hysteresis: repeat traffic in a hot neighbourhood lands inside
//! already-resident tiles) and snapping the result outward to a fixed
//! tile lattice over the terrain extent. Every canonical region is
//! therefore a union of whole tiles, and because node MBRs and regions
//! are compared as closed rectangles, a node's MBR meets the region iff
//! it meets one of the region's tiles: the ids of a region are exactly
//! the union of its tiles' ids. A derived front equals
//! [`PagedDmtm::fetch_front`] of the same region bit for bit (see
//! [`FrontGraph::derive`]), so query results do not depend on what is
//! resident — the cache can only change *when* work happens, never *what*
//! it produces.
//!
//! [`PagedDmtm::fetch_front`]: crate::PagedDmtm::fetch_front
//! [`FrontGraph::derive`]: crate::FrontGraph::derive

use crate::front::FrontUnit;
use crate::units::{UnitRead, UnitStore};
use sknn_geom::{Point2, Rect2};
use sknn_store::{Claim, PageId, PageSink, Pager, SingleFlightCache, StoreResult};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A canonical fetch region as half-open ranges of lattice tile indices.
/// Never empty: [`CutGrid::span`] always covers at least one tile per
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpan {
    /// First tile column.
    pub x0: usize,
    /// One past the last tile column.
    pub x1: usize,
    /// First tile row.
    pub y0: usize,
    /// One past the last tile row.
    pub y1: usize,
}

impl TileSpan {
    /// The span's tiles as `row * side + column` indices into a lattice
    /// of `side` tiles per axis, row-major.
    pub fn tiles(self, side: usize) -> impl Iterator<Item = u32> {
        (self.y0..self.y1).flat_map(move |y| (self.x0..self.x1).map(move |x| (y * side + x) as u32))
    }
}

/// Fixed tile lattice over the terrain extent used to canonicalize fetch
/// regions (see module docs). Copy-cheap; the engine builds one and hands
/// it to every query context.
#[derive(Debug, Clone, Copy)]
pub struct CutGrid {
    extent: Rect2,
    tiles: usize,
    tile_w: f64,
    tile_h: f64,
    /// Loading-radius padding in tiles, applied before snapping.
    pad_tiles: f64,
}

impl CutGrid {
    /// A lattice of `tiles × tiles` cells over `extent`, padding regions
    /// by `pad_tiles` tiles before snapping them outward.
    pub fn new(extent: Rect2, tiles: usize, pad_tiles: f64) -> Self {
        let tiles = tiles.max(1);
        Self {
            extent,
            tiles,
            tile_w: extent.width() / tiles as f64,
            tile_h: extent.height() / tiles as f64,
            pad_tiles: pad_tiles.max(0.0),
        }
    }

    /// Canonicalize a fetch region: pad by the loading radius, snap
    /// outward to tile boundaries, clamp to the extent. Returns the full
    /// span for regions that cover the extent (the common first-iteration
    /// case, where the candidate upper bound is still infinite). Apply
    /// exactly once per raw region — with a nonzero pad, re-snapping a
    /// snapped region grows it by another tile (the pad always extends).
    pub fn span(&self, r: &Rect2) -> TileSpan {
        if r.contains_rect(&self.extent) {
            return self.full_span();
        }
        let (x0, x1) = self.snap_axis(r.lo.x, r.hi.x, self.extent.lo.x, self.tile_w);
        let (y0, y1) = self.snap_axis(r.lo.y, r.hi.y, self.extent.lo.y, self.tile_h);
        TileSpan { x0, x1, y0, y1 }
    }

    /// The span covering the whole extent.
    pub fn full_span(&self) -> TileSpan {
        TileSpan { x0: 0, x1: self.tiles, y0: 0, y1: self.tiles }
    }

    /// The rectangle a span covers. Bounds are computed from integer tile
    /// indices so equal spans produce bit-equal rectangles on any machine.
    pub fn span_rect(&self, s: TileSpan) -> Rect2 {
        Rect2::new(
            Point2::new(self.edge_x(s.x0), self.edge_y(s.y0)),
            Point2::new(self.edge_x(s.x1), self.edge_y(s.y1)),
        )
    }

    /// [`span`](Self::span) as a rectangle.
    pub fn snap(&self, r: &Rect2) -> Rect2 {
        self.span_rect(self.span(r))
    }

    /// Canonicalize a 1-D band (an MSDN plane-coordinate interval) along
    /// `axis` (0 = x, 1 = y) with the same pad-and-snap rule.
    pub fn snap_band(&self, axis: usize, lo: f64, hi: f64) -> (f64, f64) {
        if axis == 0 {
            let (i0, i1) = self.snap_axis(lo, hi, self.extent.lo.x, self.tile_w);
            (self.edge_x(i0), self.edge_x(i1))
        } else {
            let (i0, i1) = self.snap_axis(lo, hi, self.extent.lo.y, self.tile_h);
            (self.edge_y(i0), self.edge_y(i1))
        }
    }

    /// Tile index range `[i0, i1)` covering the padded interval, at least
    /// one tile wide.
    fn snap_axis(&self, lo: f64, hi: f64, origin: f64, tile: f64) -> (usize, usize) {
        if tile <= 0.0 || !lo.is_finite() || !hi.is_finite() {
            // Degenerate extent or unbounded band: the whole axis range.
            return (0, self.tiles);
        }
        let pad = self.pad_tiles * tile;
        let i0 = ((((lo - pad) - origin) / tile).floor().max(0.0) as usize).min(self.tiles - 1);
        let i1 =
            ((((hi + pad) - origin) / tile).ceil().max(0.0) as usize).min(self.tiles).max(i0 + 1);
        (i0, i1)
    }

    /// Coordinate of lattice line `i` along an axis. Indices 0 and `tiles`
    /// resolve to the exact extent bounds so clamped regions share bit
    /// patterns with the full extent.
    fn edge(&self, i: usize, origin: f64, end: f64, tile: f64) -> f64 {
        if i == 0 {
            origin
        } else if i >= self.tiles {
            end
        } else {
            origin + i as f64 * tile
        }
    }

    fn edge_x(&self, i: usize) -> f64 {
        self.edge(i, self.extent.lo.x, self.extent.hi.x, self.tile_w)
    }

    fn edge_y(&self, i: usize) -> f64 {
        self.edge(i, self.extent.lo.y, self.extent.hi.y, self.tile_h)
    }

    /// Tile columns and rows whose closed rectangle intersects `mbr`, with
    /// exactly [`Rect2::intersects`]'s comparisons against the same edge
    /// coordinates [`span_rect`](Self::span_rect) produces — so a node
    /// assigned to tiles here is in a region's id set iff the region
    /// contains one of those tiles.
    pub fn tiles_meeting(&self, mbr: &Rect2) -> (Range<usize>, Range<usize>) {
        (
            self.axis_meeting(mbr.lo.x, mbr.hi.x, self.tile_w, |i| self.edge_x(i)),
            self.axis_meeting(mbr.lo.y, mbr.hi.y, self.tile_h, |i| self.edge_y(i)),
        )
    }

    /// Tiles `i` with `lo <= edge(i + 1) && edge(i) <= hi`: an index
    /// estimate by division, corrected against the exact edge values.
    fn axis_meeting(
        &self,
        lo: f64,
        hi: f64,
        tile: f64,
        edge: impl Fn(usize) -> f64,
    ) -> Range<usize> {
        if tile <= 0.0 {
            // Degenerate extent: every tile is the same (closed) segment.
            return if lo <= edge(self.tiles) && edge(0) <= hi { 0..self.tiles } else { 0..0 };
        }
        let last = self.tiles - 1;
        let estimate = |v: f64| (((v - edge(0)) / tile).floor().max(0.0) as usize).min(last);
        let mut a = estimate(lo);
        while a > 0 && edge(a) >= lo {
            a -= 1;
        }
        while a < last && edge(a + 1) < lo {
            a += 1;
        }
        let mut b = estimate(hi);
        while b < last && edge(b + 1) <= hi {
            b += 1;
        }
        while b > 0 && edge(b) > hi {
            b -= 1;
        }
        if lo <= edge(a + 1) && edge(b) <= hi && a <= b {
            a..b + 1
        } else {
            0..0
        }
    }

    /// Tiles per side.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// The terrain extent the lattice covers.
    pub fn extent(&self) -> Rect2 {
        self.extent
    }
}

/// Identity of a residency unit: resolution step plus lattice tile
/// (`row * tiles + column`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitKey {
    step: u32,
    tile: u32,
}

/// The shared DMTM cut cache. See the module docs for semantics. A cache
/// serves the units of one [`UnitStore`], and so one tree and one lattice.
/// Its counters, gauges and `clear` are the inner [`SingleFlightCache`]'s.
pub struct CutCache {
    inner: SingleFlightCache<UnitKey, FrontUnit>,
    store: UnitStore,
}

impl Deref for CutCache {
    type Target = SingleFlightCache<UnitKey, FrontUnit>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl CutCache {
    /// A cache of `store`'s units, bounded by `capacity_bytes`.
    pub fn new(capacity_bytes: usize, store: UnitStore) -> Self {
        Self { inner: SingleFlightCache::new(capacity_bytes, FrontUnit::weight), store }
    }

    /// Claim the units of every span at step `m` — each span one ask of
    /// the [`SingleFlightCache::claim`], its tiles row-major — for a read
    /// the caller batches: the returned load's [`pages`](PageSink::pages)
    /// are those of the units nobody holds yet, to be read (together with
    /// other structures' pages, in one [`Pager::read_into`]) and then
    /// [`publish`](UnitLoad::publish)ed and [`finish`](UnitLoad::finish)ed.
    pub fn claim(&self, m: u32, spans: &[TileSpan]) -> UnitLoad<'_> {
        let side = self.store.grid().tiles();
        let claim = self
            .inner
            .claim(spans.iter().map(|s| s.tiles(side).map(|tile| UnitKey { step: m, tile })));
        let tiles: Vec<u32> = claim.keys().filter_map(|(k, c)| c.then_some(k.tile)).collect();
        let read = self.store.read_units(m, &tiles);
        UnitLoad { cache: self, m, claim, read }
    }

    /// Whether every unit of `span` at step `m` is resident: a lookup
    /// that latches, warms and counts nothing
    /// ([`SingleFlightCache::all_resident`]), stopping at the first unit
    /// that is not. A [`claim`](Self::claim) of the span would then read
    /// no page.
    pub fn all_resident(&self, m: u32, span: TileSpan) -> bool {
        let side = self.store.grid().tiles();
        self.inner.all_resident(span.tiles(side).map(|tile| UnitKey { step: m, tile }))
    }
}

/// A [`CutCache::claim`] of one step's units for a list of spans: the
/// units it latched are read through its [`PageSink`] side, decoded and
/// published by [`publish`](Self::publish), and every span's units are
/// handed out by [`finish`](Self::finish). Dropped before the publish — a
/// failed read — it unlatches every unit and publishes none.
pub struct UnitLoad<'c> {
    cache: &'c CutCache,
    m: u32,
    claim: Claim<'c, UnitKey, FrontUnit>,
    /// The read of the claimed units.
    read: UnitRead,
}

impl PageSink for UnitLoad<'_> {
    fn pages(&self) -> &[PageId] {
        self.read.pages()
    }

    fn feed(&mut self, page: PageId, bytes: &[u8]) {
        self.read.feed(page, bytes);
    }
}

impl UnitLoad<'_> {
    /// Publish the claimed units the read assembled, waking their
    /// waiters.
    pub fn publish(&mut self) {
        self.claim.publish(self.read.finish());
    }

    /// Per span, its units in row-major tile order, and whether this load
    /// read none of the units the span was first to ask for (see
    /// [`Claim::hand_out`]). Units another thread was loading are waited
    /// for now, and read here if their leader failed, so call this only
    /// once every claim of the batch, in every cache, is published.
    pub fn finish(self, pager: &Pager) -> StoreResult<Vec<(Vec<Arc<FrontUnit>>, bool)>> {
        let UnitLoad { cache, m, claim, .. } = self;
        claim.hand_out(|keys| {
            let tiles: Vec<u32> = keys.iter().map(|k| k.tile).collect();
            cache.store.read(pager, m, &tiles)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CutGrid {
        CutGrid::new(Rect2::new(Point2::new(0.0, 0.0), Point2::new(1600.0, 800.0)), 16, 0.5)
    }

    #[test]
    fn snap_is_idempotent_and_containing() {
        let g = grid();
        let r = Rect2::new(Point2::new(123.4, 77.7), Point2::new(456.7, 301.0));
        let s = g.snap(&r);
        assert!(s.contains_rect(&r), "{s:?} must contain {r:?}");
        // Snapped bounds sit on lattice lines (tile 100 × 50 here).
        assert_eq!(s.lo.x % 100.0, 0.0);
        assert_eq!(s.hi.x % 100.0, 0.0);
        assert_eq!(s.lo.y % 50.0, 0.0);
        assert_eq!(s.hi.y % 50.0, 0.0);
        // Determinism: equal inputs give bit-equal outputs.
        assert_eq!(g.snap(&r), s);
    }

    #[test]
    fn snap_clamps_to_extent() {
        let g = grid();
        let r = Rect2::new(Point2::new(-500.0, -500.0), Point2::new(5000.0, 5000.0));
        assert_eq!(g.snap(&r), g.extent());
        // Near-edge regions clamp to the exact extent corner bits.
        let r = Rect2::new(Point2::new(1.0, 1.0), Point2::new(2.0, 2.0));
        let s = g.snap(&r);
        assert_eq!(s.lo.x.to_bits(), 0f64.to_bits());
        assert_eq!(s.lo.y.to_bits(), 0f64.to_bits());
    }

    #[test]
    fn snap_band_matches_axis_snapping() {
        let g = grid();
        let (lo, hi) = g.snap_band(0, 123.4, 456.7);
        let s = g.snap(&Rect2::new(Point2::new(123.4, 0.0), Point2::new(456.7, 1.0)));
        assert_eq!((lo.to_bits(), hi.to_bits()), (s.lo.x.to_bits(), s.hi.x.to_bits()));
        let (lo, hi) = g.snap_band(1, 10.0, 20.0);
        assert!(lo <= 10.0 && hi >= 20.0);
        assert!(lo >= 0.0 && hi <= 800.0);
    }

    #[test]
    fn spans_are_never_empty_and_match_their_rect() {
        let g = grid();
        // Two regions snapping to the same tiles share a span: that is the
        // whole point of canonicalization.
        let a = g.span(&Rect2::new(Point2::new(100.0, 100.0), Point2::new(200.0, 200.0)));
        let a2 = g.span(&Rect2::new(Point2::new(101.0, 101.0), Point2::new(199.0, 199.0)));
        assert_eq!(a, a2);
        assert_eq!(a, TileSpan { x0: 0, x1: 3, y0: 1, y1: 5 });
        // A region beyond the extent still names the nearest tile.
        let out = g.span(&Rect2::new(Point2::new(9000.0, -90.0), Point2::new(9001.0, -80.0)));
        assert_eq!(out, TileSpan { x0: 15, x1: 16, y0: 0, y1: 1 });
        assert_eq!(g.span_rect(g.full_span()), g.extent());
    }

    #[test]
    fn tiles_meeting_agrees_with_rect_intersection() {
        // Odd extent so lattice lines are not exactly representable.
        let g =
            CutGrid::new(Rect2::new(Point2::new(0.1, -3.3), Point2::new(1000.7, 777.7)), 16, 0.5);
        let tile =
            |x: usize, y: usize| g.span_rect(TileSpan { x0: x, x1: x + 1, y0: y, y1: y + 1 });
        let edge = tile(5, 7).hi; // a lattice corner, bit-exact
        let probes = [
            Rect2::new(Point2::new(10.0, 10.0), Point2::new(10.0, 10.0)),
            Rect2::new(edge, edge),
            Rect2::new(Point2::new(edge.x, 0.0), Point2::new(edge.x + 200.0, edge.y)),
            Rect2::new(Point2::new(0.1, -3.3), Point2::new(1000.7, 777.7)),
            Rect2::new(Point2::new(1000.7, 777.7), Point2::new(1000.7, 777.7)),
            Rect2::new(Point2::new(-50.0, -50.0), Point2::new(-40.0, -40.0)),
        ];
        for mbr in &probes {
            let (xs, ys) = g.tiles_meeting(mbr);
            for y in 0..16 {
                for x in 0..16 {
                    let want = tile(x, y).intersects(mbr);
                    let got = xs.contains(&x) && ys.contains(&y);
                    assert_eq!(got, want, "tile ({x},{y}) vs {mbr:?}");
                }
            }
        }
    }
}
