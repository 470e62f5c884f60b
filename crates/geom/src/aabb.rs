//! Axis-aligned bounding boxes in 2-D and 3-D with minimum-distance kernels.
//!
//! MBR-to-MBR minimum distances are the edge weights of the SDN lower-bound
//! network (paper §3.3), and rectangle overlap areas drive the integrated
//! I/O-region merging in MR3 (§4.2), so these kernels are on the hot path.

use crate::point::{Point2, Point3};

/// A 2-D axis-aligned rectangle. An *empty* rectangle has `lo > hi` per axis
/// and acts as the identity for [`Rect2::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect2 {
    /// Minimum corner.
    pub lo: Point2,
    /// Maximum corner.
    pub hi: Point2,
}

impl Rect2 {
    /// The empty rectangle (identity for union, intersects nothing).
    pub const EMPTY: Rect2 = Rect2 {
        lo: Point2::new(f64::INFINITY, f64::INFINITY),
        hi: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// The whole plane: every edge open at `±∞`.
    pub const UNBOUNDED: Rect2 = Rect2 {
        lo: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        hi: Point2::new(f64::INFINITY, f64::INFINITY),
    };

    /// Creates the value from its parts.
    pub fn new(lo: Point2, hi: Point2) -> Self {
        Self { lo, hi }
    }

    /// Whether the disc of `radius` around `c` lies *strictly* inside:
    /// it clears every edge, so a disc touching an edge is not inside. A
    /// `±∞` edge is open — every finite disc clears it. A non-finite or
    /// negative radius is never inside.
    pub fn contains_disc(&self, c: Point2, radius: f64) -> bool {
        radius.is_finite()
            && radius >= 0.0
            && c.x - radius > self.lo.x
            && c.x + radius < self.hi.x
            && c.y - radius > self.lo.y
            && c.y + radius < self.hi.y
    }

    /// Rectangle covering a single point.
    pub fn from_point(p: Point2) -> Self {
        Self { lo: p, hi: p }
    }

    /// Smallest rectangle covering all `points`; `EMPTY` when empty input.
    pub fn from_points(points: impl IntoIterator<Item = Point2>) -> Self {
        points.into_iter().fold(Self::EMPTY, |r, p| r.union(&Self::from_point(p)))
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Extent along x.
    pub fn width(&self) -> f64 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    /// Extent along y.
    pub fn height(&self) -> f64 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    /// Covered area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    pub fn center(&self) -> Point2 {
        Point2::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// Smallest rectangle covering both operands.
    pub fn union(&self, other: &Rect2) -> Rect2 {
        Rect2 {
            lo: Point2::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point2::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Intersection; `EMPTY`-like (lo > hi) when disjoint.
    pub fn intersection(&self, other: &Rect2) -> Rect2 {
        Rect2 {
            lo: Point2::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point2::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        }
    }

    /// Intersects.
    pub fn intersects(&self, other: &Rect2) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Contains point.
    pub fn contains_point(&self, p: Point2) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Contains rect.
    pub fn contains_rect(&self, other: &Rect2) -> bool {
        other.is_empty()
            || (self.lo.x <= other.lo.x
                && self.lo.y <= other.lo.y
                && self.hi.x >= other.hi.x
                && self.hi.y >= other.hi.y)
    }

    /// Minimum Euclidean distance from `p` to the rectangle (0 inside).
    pub fn min_dist_point(&self, p: Point2) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Fraction of the *smaller* rectangle's area covered by the overlap,
    /// in `[0, 1]`. This is the ">= 80 % overlapped" test MR3 uses when
    /// deciding to merge candidate I/O regions (paper §4.2). Degenerate
    /// (zero-area) rectangles overlap fully iff they intersect.
    pub fn overlap_fraction(&self, other: &Rect2) -> f64 {
        if !self.intersects(other) {
            return 0.0;
        }
        let inter = self.intersection(other).area();
        let smaller = self.area().min(other.area());
        if smaller <= 0.0 {
            1.0
        } else {
            inter / smaller
        }
    }

    /// Grow the rectangle by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect2 {
        Rect2 {
            lo: Point2::new(self.lo.x - margin, self.lo.y - margin),
            hi: Point2::new(self.hi.x + margin, self.hi.y + margin),
        }
    }
}

/// A 3-D axis-aligned box. Used as the MBR of SDN crossing-line segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    /// Minimum corner.
    pub lo: Point3,
    /// Maximum corner.
    pub hi: Point3,
}

impl Aabb3 {
    /// The empty.
    pub const EMPTY: Aabb3 = Aabb3 {
        lo: Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
        hi: Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Creates the value from its parts.
    pub fn new(lo: Point3, hi: Point3) -> Self {
        Self { lo, hi }
    }

    /// From point.
    pub fn from_point(p: Point3) -> Self {
        Self { lo: p, hi: p }
    }

    /// From points.
    pub fn from_points(points: impl IntoIterator<Item = Point3>) -> Self {
        points.into_iter().fold(Self::EMPTY, |b, p| b.union(&Self::from_point(p)))
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }

    /// Geometric centre.
    pub fn center(&self) -> Point3 {
        (self.lo + self.hi) * 0.5
    }

    /// Union.
    pub fn union(&self, other: &Aabb3) -> Aabb3 {
        Aabb3 {
            lo: Point3::new(
                self.lo.x.min(other.lo.x),
                self.lo.y.min(other.lo.y),
                self.lo.z.min(other.lo.z),
            ),
            hi: Point3::new(
                self.hi.x.max(other.hi.x),
                self.hi.y.max(other.hi.y),
                self.hi.z.max(other.hi.z),
            ),
        }
    }

    /// Contains box.
    pub fn contains_box(&self, other: &Aabb3) -> bool {
        other.is_empty()
            || (self.lo.x <= other.lo.x
                && self.lo.y <= other.lo.y
                && self.lo.z <= other.lo.z
                && self.hi.x >= other.hi.x
                && self.hi.y >= other.hi.y
                && self.hi.z >= other.hi.z)
    }

    /// Minimum Euclidean distance from `p` to the box (0 inside).
    pub fn min_dist_point(&self, p: Point3) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        let dz = (self.lo.z - p.z).max(0.0).max(p.z - self.hi.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Minimum distance between two boxes (0 when they intersect). This is
    /// the SDN edge-weight kernel: it never exceeds the distance between any
    /// pair of points drawn from the two boxes, which is what makes the SDN
    /// shortest path a valid lower bound of the surface distance.
    pub fn min_dist_box(&self, other: &Aabb3) -> f64 {
        let dx = (self.lo.x - other.hi.x).max(0.0).max(other.lo.x - self.hi.x);
        let dy = (self.lo.y - other.hi.y).max(0.0).max(other.lo.y - self.hi.y);
        let dz = (self.lo.z - other.hi.z).max(0.0).max(other.lo.z - self.hi.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Projection onto the horizontal plane.
    pub fn xy(&self) -> Rect2 {
        Rect2::new(self.lo.xy(), self.hi.xy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ax: f64, ay: f64, bx: f64, by: f64) -> Rect2 {
        Rect2::new(Point2::new(ax, ay), Point2::new(bx, by))
    }

    #[test]
    fn empty_rect_is_union_identity() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Rect2::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect2::EMPTY), a);
        assert!(Rect2::EMPTY.is_empty());
        assert!(!Rect2::EMPTY.intersects(&a));
    }

    #[test]
    fn contains_disc_is_strict_and_open_at_infinite_edges() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let c = Point2::new(5.0, 5.0);
        assert!(a.contains_disc(c, 4.0));
        assert!(a.contains_disc(c, 0.0));
        assert!(!a.contains_disc(c, 5.0), "touching an edge is not inside");
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            assert!(!a.contains_disc(c, bad), "radius {bad}");
            assert!(!Rect2::UNBOUNDED.contains_disc(c, bad), "radius {bad}");
        }
        let open_right = r(0.0, 0.0, f64::INFINITY, 10.0);
        assert!(open_right.contains_disc(Point2::new(1e12, 5.0), 4.0));
        assert!(!open_right.contains_disc(Point2::new(1e12, 5.0), 5.0));
        assert!(Rect2::UNBOUNDED.contains_disc(c, 1e300));
    }

    #[test]
    fn rect_min_dist_point() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_dist_point(Point2::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_dist_point(Point2::new(5.0, 2.0)), 3.0);
        assert_eq!(a.min_dist_point(Point2::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn overlap_fraction_bounds() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 0.0, 3.0, 2.0); // half of each overlaps
        assert!((a.overlap_fraction(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.overlap_fraction(&a), 1.0);
        assert_eq!(a.overlap_fraction(&r(5.0, 5.0, 6.0, 6.0)), 0.0);
        // Containment of a smaller box => fraction 1.
        let small = r(0.5, 0.5, 1.0, 1.0);
        assert_eq!(a.overlap_fraction(&small), 1.0);
    }

    #[test]
    fn overlap_fraction_degenerate() {
        let line = r(0.0, 1.0, 2.0, 1.0); // zero height
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.overlap_fraction(&line), 1.0);
    }

    #[test]
    fn aabb3_min_dist_box() {
        let a = Aabb3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        let b = Aabb3::new(Point3::new(4.0, 0.0, 0.0), Point3::new(5.0, 1.0, 1.0));
        assert_eq!(a.min_dist_box(&b), 3.0);
        assert_eq!(a.min_dist_box(&a), 0.0);
        // Touching boxes have distance zero.
        let c = Aabb3::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert_eq!(a.min_dist_box(&c), 0.0);
    }

    #[test]
    fn aabb3_union_and_contains() {
        let a = Aabb3::from_points([Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 2.0, 3.0)]);
        let b = Aabb3::from_point(Point3::new(-1.0, 5.0, 1.0));
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert!(!a.contains_box(&b));
    }

    #[test]
    fn min_dist_box_lower_bounds_point_pairs() {
        // Sanity: box min-dist <= distance between arbitrary contained points.
        let a = Aabb3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        let b = Aabb3::new(Point3::new(3.0, 3.0, 3.0), Point3::new(4.0, 4.0, 4.0));
        let d = a.min_dist_box(&b);
        let p = Point3::new(0.9, 0.7, 1.0);
        let q = Point3::new(3.2, 3.9, 3.0);
        assert!(d <= p.dist(q));
    }
}
