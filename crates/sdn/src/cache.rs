//! Process-wide cache of MSDN crossing lines, resident by line.
//!
//! The lower-bound phase repeatedly fetches the simplified crossing lines
//! of a plane-coordinate band at some resolution level — decoded from heap
//! files and filtered per region — and concurrent queries over the same
//! hot band redo that work. This mirrors the DMTM `CutCache`
//! (`sknn-multires`): the residency unit is one crossing line, keyed
//! `(level, axis, line)`, held as an `Arc<SimplifiedLine>`. A
//! [`LineCutCache::claim`] takes every band a lower-bound round needs at
//! one level — each group's X and Y bands — and selects their lines from
//! the resident directory; the caller reads the missing ones in one
//! [`Pager::read_into`] (batched with whatever else it reads), then
//! [`LineLoad::publish`]es them and [`LineLoad::finish`] hands out `Arc`s,
//! so overlapping bands and regions share every line they have in common.
//! Single-flight loading, CLOCK eviction and the claim rule (the bands'
//! union in first-band order, each band's lines and its hit flag) come
//! from `sknn-store`; this module maps bands to keys and reads pages
//! ([`LineRead`]).
//!
//! Bands and regions must be canonicalized (padded + tile-snapped) by the
//! caller — see the bit-identity discussion in `sknn-multires::cache`.
//! The ranking layer then slices each candidate's exact interval out of
//! the (superset) cached band, so widening is transparent to the
//! lower-bound math.

use crate::paged::{LineRead, PagedMsdn};
use crate::simplify::SimplifiedLine;
use sknn_geom::{Axis, Rect2};
use sknn_store::{Claim, PageId, PageSink, Pager, SingleFlightCache, StoreResult};
use std::ops::Deref;
use std::sync::Arc;

/// Identity of a residency unit: resolution level, sweep axis, and the
/// line's index in that level's directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineKey {
    level: u32,
    axis: Axis,
    line: u32,
}

/// Approximate resident bytes of a line (cache weight).
fn line_weight(line: &SimplifiedLine) -> usize {
    64 + line.segments.len() * 96
}

/// One band of a [`LineCutCache::claim`]: the lines of `axis`
/// with plane coordinate in the open (canonical) band `(lo, hi)` whose
/// extent meets the (canonical) `roi`.
#[derive(Debug, Clone, Copy)]
pub struct LineBand<'r> {
    /// Sweep axis of the band's planes.
    pub axis: Axis,
    /// Open lower end of the plane-coordinate band.
    pub lo: f64,
    /// Open upper end of the plane-coordinate band.
    pub hi: f64,
    /// Region the lines must meet; `None` takes every line of the band.
    pub roi: Option<&'r Rect2>,
}

/// The shared MSDN line cache; pass canonical bands/regions only. Its
/// counters, gauges and `clear` are the inner [`SingleFlightCache`]'s.
pub struct LineCutCache {
    inner: SingleFlightCache<LineKey, SimplifiedLine>,
}

impl Deref for LineCutCache {
    type Target = SingleFlightCache<LineKey, SimplifiedLine>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl LineCutCache {
    /// A cache bounded by `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        Self { inner: SingleFlightCache::new(capacity_bytes, line_weight) }
    }

    /// Claim the lines of every band at one level for a read the caller
    /// batches: each band one ask of the [`SingleFlightCache::claim`], its
    /// directory lines in `select_lines` order. The returned load's
    /// [`pages`](PageSink::pages) are the heap pages of the lines nobody
    /// holds yet, to be read (together with other structures' pages, in
    /// one [`Pager::read_into`]) and then [`publish`](LineLoad::publish)ed
    /// and [`finish`](LineLoad::finish)ed.
    pub fn claim<'c>(
        &'c self,
        msdn: &'c PagedMsdn,
        level_idx: usize,
        bands: &[LineBand<'_>],
    ) -> LineLoad<'c> {
        let level = level_idx as u32;
        let claim = self.inner.claim(bands.iter().map(|b| {
            let lines = msdn.select_lines(level_idx, b.axis, b.lo, b.hi, b.roi);
            lines.into_iter().map(move |line| LineKey { level, axis: b.axis, line })
        }));
        let wanted: Vec<(Axis, u32)> =
            claim.keys().filter_map(|(k, c)| c.then_some((k.axis, k.line))).collect();
        let read = msdn.read_lines(level_idx, &wanted);
        LineLoad { msdn, level_idx, claim, read }
    }
}

/// A [`LineCutCache::claim`] of one level's lines for a list of bands:
/// the lines it latched are read through its [`PageSink`] side,
/// published by [`publish`](Self::publish), and every band's lines are
/// handed out by [`finish`](Self::finish). Dropped before the publish — a
/// failed read — it unlatches every line and publishes none.
pub struct LineLoad<'c> {
    msdn: &'c PagedMsdn,
    level_idx: usize,
    claim: Claim<'c, LineKey, SimplifiedLine>,
    /// The record walk of the claimed lines.
    read: LineRead<'c>,
}

impl PageSink for LineLoad<'_> {
    fn pages(&self) -> &[PageId] {
        self.read.pages()
    }

    fn feed(&mut self, page: PageId, bytes: &[u8]) {
        self.read.feed(page, bytes);
    }
}

impl LineLoad<'_> {
    /// Publish the claimed lines the read assembled, waking their
    /// waiters.
    pub fn publish(&mut self) {
        self.claim.publish(self.read.finish());
    }

    /// Per band, its lines in band order, and whether this load read none
    /// of the lines the band was first to ask for (see
    /// [`Claim::hand_out`]). Lines another thread was loading are waited
    /// for now, and read here if their leader failed, so call this only
    /// once every claim of the batch, in every cache, is published.
    pub fn finish(self, pager: &Pager) -> StoreResult<Vec<(Vec<Arc<SimplifiedLine>>, bool)>> {
        let LineLoad { msdn, level_idx, claim, .. } = self;
        claim.hand_out(|keys| {
            let wanted: Vec<(Axis, u32)> = keys.iter().map(|k| (k.axis, k.line)).collect();
            msdn.fetch_lines(pager, level_idx, &wanted)
        })
    }
}
