//! The shard map: which tile of the terrain each engine shard owns, plus
//! what the router routes with — home lookup, the open tile a home query
//! must stay inside (and the interior test over it), and the
//! range-overlap test for fan-out.
//!
//! Ownership is a *partition*: tiles are rectangles covering the terrain
//! extent, and a plan point belongs to exactly one shard under a
//! half-open rule (`lo <= x < hi`, with edges that coincide with the
//! global extent closed). Both the router and the deployment partitioner
//! go through [`ShardMap::home`], so an object can never be owned by two
//! shards or by none — which is what makes the union of per-shard range
//! results equal the single-engine range result, object for object.
//!
//! The predicates are deliberately conservative in the same direction as
//! the engine's own spatial kernels:
//!
//! * [`interior`](ShardMap::interior) uses *strict* inequalities against
//!   tile edges (except edges on the global extent, where nothing can
//!   live outside: the [open tile](ShardMap::open_tile) puts them at
//!   `±∞`), so a query circle touching a boundary always takes the
//!   straddle path — which is correct for any query;
//! * [`overlapping`](ShardMap::overlapping) uses the same squared
//!   min-distance predicate (`d² ≤ r²`) as the R-tree's
//!   `within_distance`, so a shard owning any in-range object is always
//!   fanned out to (componentwise clamp distances of a tile are ≤ those
//!   of any point inside it, and square/add/compare are monotone under
//!   IEEE rounding).

use sknn_geom::{Point2, Rect2};

/// One shard: the tile it owns and the address its engine serves on.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The owned tile (typically a vertical slab of the terrain extent).
    pub tile: Rect2,
    /// The shard engine's query endpoint, e.g. `"127.0.0.1:7001"`.
    pub addr: String,
}

/// The routing table: tile rectangles → endpoints, plus the global
/// extent (the bounding box of the tiles).
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: Vec<ShardSpec>,
    extent: Rect2,
}

impl ShardMap {
    /// Builds a map from shard specs. Panics on an empty list — a
    /// router with no shards cannot answer anything.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        assert!(!shards.is_empty(), "a shard map needs at least one shard");
        let mut extent = shards[0].tile;
        for s in &shards[1..] {
            extent.lo.x = extent.lo.x.min(s.tile.lo.x);
            extent.lo.y = extent.lo.y.min(s.tile.lo.y);
            extent.hi.x = extent.hi.x.max(s.tile.hi.x);
            extent.hi.y = extent.hi.y.max(s.tile.hi.y);
        }
        Self { shards, extent }
    }

    /// Cuts `extent` into `n` equal-width vertical slabs (full y range).
    /// Interior cut lines are exact `f64` expressions of the linear
    /// interpolation, so the partitioner and the router agree bit-for-bit
    /// on every boundary.
    pub fn vertical_slabs(extent: Rect2, n: usize) -> Vec<Rect2> {
        let n = n.max(1);
        let cut = |i: usize| {
            if i == 0 {
                extent.lo.x
            } else if i == n {
                extent.hi.x
            } else {
                extent.lo.x + (extent.hi.x - extent.lo.x) * (i as f64 / n as f64)
            }
        };
        (0..n)
            .map(|i| {
                Rect2::new(Point2::new(cut(i), extent.lo.y), Point2::new(cut(i + 1), extent.hi.y))
            })
            .collect()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map is empty (never true — construction forbids it —
    /// but clippy insists `len` has a companion).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard specs, in shard-index order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The global extent (bounding box of all tiles).
    pub fn extent(&self) -> Rect2 {
        self.extent
    }

    /// The unique shard owning plan point `xy`, or `None` when the point
    /// lies outside every tile. Tile membership is half-open on each
    /// axis (`lo <= v < hi`) except along the global extent, where the
    /// closing edge is included — so the partition is total over the
    /// extent and disjoint everywhere.
    pub fn home(&self, xy: Point2) -> Option<usize> {
        if !(xy.x.is_finite() && xy.y.is_finite()) {
            return None;
        }
        self.shards.iter().position(|s| {
            let t = &s.tile;
            let x_ok =
                xy.x >= t.lo.x && (xy.x < t.hi.x || (t.hi.x >= self.extent.hi.x && xy.x <= t.hi.x));
            let y_ok =
                xy.y >= t.lo.y && (xy.y < t.hi.y || (t.hi.y >= self.extent.hi.y && xy.y <= t.hi.y));
            x_ok && y_ok
        })
    }

    /// Shard `idx`'s tile with every edge that lies on the global extent
    /// opened to `±∞` — no object exists beyond those edges, so a query
    /// circle may poke past them. This is the tile a home `QUERY`
    /// carries: the shard stops after step 2 unless its circle stays
    /// strictly inside it.
    pub fn open_tile(&self, idx: usize) -> Rect2 {
        let (t, e) = (&self.shards[idx].tile, &self.extent);
        let lo = |edge: f64, extent: f64| if edge <= extent { f64::NEG_INFINITY } else { edge };
        let hi = |edge: f64, extent: f64| if edge >= extent { f64::INFINITY } else { edge };
        Rect2::new(
            Point2::new(lo(t.lo.x, e.lo.x), lo(t.lo.y, e.lo.y)),
            Point2::new(hi(t.hi.x, e.hi.x), hi(t.hi.y, e.hi.y)),
        )
    }

    /// The interior test: is the circle of `radius` around `xy`
    /// *strictly* inside shard `idx`'s [open tile](Self::open_tile)
    /// ([`Rect2::contains_disc`])? When it is, every object the engine's
    /// candidate gathering can reach (seeds are within the step-2 radius
    /// because the radius is the max seed upper bound, and plan distance
    /// ≤ surface distance; range candidates are within it by definition)
    /// lives on this shard, so the shard's local answer *is* the union
    /// answer, bit for bit. The home shard applies the same predicate to
    /// the same tile itself, right after step 2.
    ///
    /// Strictness matters at the half-open ownership boundary: an object
    /// sitting exactly on a tile's right edge belongs to the *next*
    /// shard, so the circle must stay strictly clear of the edge. A
    /// non-finite radius (the engine's degenerate "rank everything"
    /// fallback) is never interior.
    pub fn interior(&self, idx: usize, xy: Point2, radius: f64) -> bool {
        self.open_tile(idx).contains_disc(xy, radius)
    }

    /// Shards whose tile could own an object within plan distance
    /// `radius` of `xy` — the RANGE fan-out set. Uses the identical
    /// squared predicate as the R-tree's `within_distance` (`d² ≤ r²`
    /// with componentwise clamp distances), so it is a superset of the
    /// shards that will return anything: for an object `o` in tile `t`,
    /// every rounding step of `t`'s min-distance is ≤ the same step of
    /// `o`'s distance. A non-finite radius selects every shard.
    pub fn overlapping(&self, xy: Point2, radius: f64) -> Vec<usize> {
        if !radius.is_finite() {
            return (0..self.shards.len()).collect();
        }
        let r2 = radius * radius;
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let t = &s.tile;
                let dx = (t.lo.x - xy.x).max(0.0).max(xy.x - t.hi.x);
                let dy = (t.lo.y - xy.y).max(0.0).max(xy.y - t.hi.y);
                dx * dx + dy * dy <= r2
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(n: usize) -> ShardMap {
        let extent = Rect2::new(Point2::new(0.0, 0.0), Point2::new(100.0, 50.0));
        let shards = ShardMap::vertical_slabs(extent, n)
            .into_iter()
            .enumerate()
            .map(|(i, tile)| ShardSpec { tile, addr: format!("127.0.0.1:{}", 7000 + i) })
            .collect();
        ShardMap::new(shards)
    }

    #[test]
    fn home_is_a_partition_of_the_extent() {
        let m = map(4);
        // Every grid point — including points exactly on cut lines and on
        // the global edges — has exactly one home.
        for xi in 0..=40 {
            for yi in 0..=20 {
                let p = Point2::new(xi as f64 * 2.5, yi as f64 * 2.5);
                let owners: Vec<usize> = (0..m.len())
                    .filter(|&i| {
                        let t = &m.shards()[i].tile;
                        let x_ok = p.x >= t.lo.x
                            && (p.x < t.hi.x || (t.hi.x >= m.extent().hi.x && p.x <= t.hi.x));
                        let y_ok = p.y >= t.lo.y
                            && (p.y < t.hi.y || (t.hi.y >= m.extent().hi.y && p.y <= t.hi.y));
                        x_ok && y_ok
                    })
                    .collect();
                assert_eq!(owners.len(), 1, "point {p:?} owned by {owners:?}");
                assert_eq!(m.home(p), Some(owners[0]));
            }
        }
        assert_eq!(m.home(Point2::new(-0.001, 1.0)), None);
        assert_eq!(m.home(Point2::new(100.001, 1.0)), None);
        assert_eq!(m.home(Point2::new(f64::NAN, 1.0)), None);
    }

    #[test]
    fn cut_lines_belong_to_the_right_slab() {
        let m = map(4);
        // x = 25 is slab 1's closed left edge, not slab 0's right edge.
        assert_eq!(m.home(Point2::new(25.0, 10.0)), Some(1));
        // The global right edge is closed on the last slab.
        assert_eq!(m.home(Point2::new(100.0, 10.0)), Some(3));
    }

    #[test]
    fn interior_is_strict_at_inner_edges_and_relaxed_at_global_ones() {
        let m = map(4);
        // Slab 1 spans x in [25, 50).
        let center = Point2::new(37.5, 25.0);
        assert!(m.interior(1, center, 12.0));
        // Touching the inner edge exactly is NOT interior (the object on
        // x = 50 belongs to slab 2).
        assert!(!m.interior(1, center, 12.5));
        // The global y edges are exempt: the circle may poke past them.
        assert!(m.interior(1, center, 12.0), "y reaches 37 of 50");
        let near_top = Point2::new(37.5, 49.0);
        assert!(m.interior(1, near_top, 5.0), "pokes past global hi.y only");
        // Slab 0's left edge is global: poking past it is fine.
        assert!(m.interior(0, Point2::new(2.0, 25.0), 5.0));
        // Non-finite radius is never interior.
        assert!(!m.interior(1, center, f64::INFINITY));
        assert!(!m.interior(1, center, f64::NAN));
        // The open tile keeps the inner cut lines and opens the rest.
        let inf = f64::INFINITY;
        assert_eq!(m.open_tile(1), Rect2::new(Point2::new(25.0, -inf), Point2::new(50.0, inf)));
        assert_eq!(m.open_tile(0).lo.x, -inf);
        assert_eq!(map(1).open_tile(0), Rect2::UNBOUNDED);
    }

    #[test]
    fn overlapping_matches_the_within_distance_predicate() {
        let m = map(4);
        let q = Point2::new(30.0, 25.0);
        assert_eq!(m.overlapping(q, 1.0), vec![1]);
        // Reaches back across x = 25 into slab 0.
        assert_eq!(m.overlapping(q, 5.0), vec![0, 1]);
        // Exactly touching x = 50 includes slab 2 (closed predicate —
        // conservative superset).
        assert_eq!(m.overlapping(q, 20.0), vec![0, 1, 2]);
        assert_eq!(m.overlapping(q, f64::INFINITY).len(), 4);
        assert_eq!(m.overlapping(q, 1000.0).len(), 4);
    }

    #[test]
    fn slabs_tile_the_extent_exactly() {
        let extent = Rect2::new(Point2::new(-3.0, 1.0), Point2::new(17.0, 9.0));
        let slabs = ShardMap::vertical_slabs(extent, 3);
        assert_eq!(slabs.len(), 3);
        assert_eq!(slabs[0].lo.x, extent.lo.x);
        assert_eq!(slabs[2].hi.x, extent.hi.x);
        for w in slabs.windows(2) {
            assert_eq!(w[0].hi.x, w[1].lo.x, "slabs must share cut lines exactly");
        }
        for s in &slabs {
            assert_eq!(s.lo.y, extent.lo.y);
            assert_eq!(s.hi.y, extent.hi.y);
        }
    }
}
