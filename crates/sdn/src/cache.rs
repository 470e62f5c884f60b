//! Process-wide cache of MSDN crossing lines, resident by line.
//!
//! The lower-bound phase repeatedly fetches the simplified crossing lines
//! of a plane-coordinate band at some resolution level — decoded from heap
//! files and filtered per region — and concurrent queries over the same
//! hot band redo that work. This mirrors the DMTM `CutCache`
//! (`sknn-multires`): the residency unit is one crossing line, keyed
//! `(level, axis, line)`, held as an `Arc<SimplifiedLine>`. A band fetch
//! selects its lines from the resident directory and hands out `Arc`s, so
//! overlapping bands and regions share every line they have in common;
//! single-flight loading and CLOCK eviction come from `sknn-store`.
//!
//! Bands and regions must be canonicalized (padded + tile-snapped) by the
//! caller — see the bit-identity discussion in `sknn-multires::cache`.
//! The ranking layer then slices each candidate's exact interval out of
//! the (superset) cached band, so widening is transparent to the
//! lower-bound math.

use crate::paged::PagedMsdn;
use crate::simplify::SimplifiedLine;
use sknn_geom::{Axis, Rect2};
use sknn_store::{CacheGauges, CacheStats, Pager, SingleFlightCache, StoreResult};
use std::sync::Arc;

/// Identity of a residency unit: resolution level, sweep axis, and the
/// line's index in that level's directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LineKey {
    level: u32,
    axis: Axis,
    line: u32,
}

/// Approximate resident bytes of a line (cache weight).
fn line_weight(line: &SimplifiedLine) -> usize {
    64 + line.segments.len() * 96
}

/// The shared MSDN line cache; pass canonical bands/regions only.
pub struct LineCutCache {
    inner: SingleFlightCache<LineKey, SimplifiedLine>,
}

impl LineCutCache {
    /// A cache bounded by `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        Self { inner: SingleFlightCache::new(capacity_bytes) }
    }

    /// The simplified lines of `axis` with plane coordinate in the open
    /// (canonical) band `(lo, hi)` intersecting (canonical) `roi` — the
    /// lines and order of `msdn.fetch_lines_axis`. Lines nobody holds yet
    /// are read through `msdn`/`pager` in one batched heap read. The flag
    /// is `true` when no line had to be loaded.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_fetch(
        &self,
        msdn: &PagedMsdn,
        pager: &Pager,
        level_idx: usize,
        axis: Axis,
        lo: f64,
        hi: f64,
        roi: Option<&Rect2>,
    ) -> StoreResult<(Vec<Arc<SimplifiedLine>>, bool)> {
        let keys: Vec<LineKey> = msdn
            .select_lines(level_idx, axis, lo, hi, roi)
            .into_iter()
            .map(|line| LineKey { level: level_idx as u32, axis, line })
            .collect();
        let out = self.inner.get_many(&keys, |claimed| {
            let wanted: Vec<u32> = claimed.iter().map(|&i| keys[i].line).collect();
            let lines = msdn.fetch_lines(pager, level_idx, axis, &wanted)?;
            Ok(lines
                .into_iter()
                .map(|l| {
                    let weight = line_weight(&l);
                    (l, weight)
                })
                .collect())
        })?;
        Ok((out.values, out.hit))
    }

    /// Counter snapshot (per line, not per fetch).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Occupancy snapshot.
    pub fn gauges(&self) -> CacheGauges {
        self.inner.gauges()
    }

    /// Line loads currently running.
    pub fn loads_in_flight(&self) -> u64 {
        self.inner.loads_in_flight()
    }

    /// Drop every resident line (cold-cache mode between queries).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Resident lines.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no line is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}
