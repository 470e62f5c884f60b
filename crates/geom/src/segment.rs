//! Line segments in 2-D and 3-D.

use crate::aabb::{Aabb3, Rect2};
use crate::point::{Point2, Point3};

/// A 2-D line segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment2 {
    /// First endpoint.
    pub a: Point2,
    /// Second endpoint.
    pub b: Point2,
}

impl Segment2 {
    /// Creates the value from its parts.
    pub fn new(a: Point2, b: Point2) -> Self {
        Self { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Minimum bounding rectangle/box.
    pub fn mbr(&self) -> Rect2 {
        Rect2::from_points([self.a, self.b])
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Point2) -> Point2 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq <= 0.0 {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Dist point.
    pub fn dist_point(&self, p: Point2) -> f64 {
        self.closest_point(p).dist(p)
    }
}

/// A 3-D line segment. Crossing-line pieces in the SDN are stored as these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment3 {
    /// First endpoint.
    pub a: Point3,
    /// Second endpoint.
    pub b: Point3,
}

impl Segment3 {
    /// Creates the value from its parts.
    pub fn new(a: Point3, b: Point3) -> Self {
        Self { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Minimum bounding rectangle/box.
    pub fn mbr(&self) -> Aabb3 {
        Aabb3::from_points([self.a, self.b])
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Point3) -> Point3 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq <= 0.0 {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Dist point.
    pub fn dist_point(&self, p: Point3) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Minimum distance between two 3-D segments (Ericson, "Real-Time
    /// Collision Detection" §5.1.9). This is the exact-geometry edge weight
    /// of full-resolution SDN networks, where a crossing-line segment *is*
    /// the original surface cross-section.
    pub fn dist_segment(&self, other: &Segment3) -> f64 {
        let d1 = self.b - self.a;
        let d2 = other.b - other.a;
        let r = self.a - other.a;
        let a = d1.dot(d1);
        let e = d2.dot(d2);
        let f = d2.dot(r);
        let (s, t);
        if a <= 1e-18 && e <= 1e-18 {
            return self.a.dist(other.a);
        }
        if a <= 1e-18 {
            s = 0.0;
            t = (f / e).clamp(0.0, 1.0);
        } else {
            let c = d1.dot(r);
            if e <= 1e-18 {
                t = 0.0;
                s = (-c / a).clamp(0.0, 1.0);
            } else {
                let b = d1.dot(d2);
                let denom = a * e - b * b;
                let mut s_ =
                    if denom > 1e-18 { ((b * f - c * e) / denom).clamp(0.0, 1.0) } else { 0.0 };
                let mut t_ = (b * s_ + f) / e;
                if t_ < 0.0 {
                    t_ = 0.0;
                    s_ = (-c / a).clamp(0.0, 1.0);
                } else if t_ > 1.0 {
                    t_ = 1.0;
                    s_ = ((b - c) / a).clamp(0.0, 1.0);
                }
                s = s_;
                t = t_;
            }
        }
        let p1 = self.a + d1 * s;
        let p2 = other.a + d2 * t;
        p1.dist(p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_point_2d_clamps_to_endpoints() {
        let s = Segment2::new(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0));
        assert_eq!(s.closest_point(Point2::new(-1.0, 1.0)), Point2::new(0.0, 0.0));
        assert_eq!(s.closest_point(Point2::new(3.0, 1.0)), Point2::new(2.0, 0.0));
        assert_eq!(s.closest_point(Point2::new(1.0, 1.0)), Point2::new(1.0, 0.0));
        assert_eq!(s.dist_point(Point2::new(1.0, 3.0)), 3.0);
    }

    #[test]
    fn degenerate_segment() {
        let p = Point3::new(1.0, 1.0, 1.0);
        let s = Segment3::new(p, p);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.closest_point(Point3::new(5.0, 1.0, 1.0)), p);
    }

    #[test]
    fn segment3_mbr() {
        let s = Segment3::new(Point3::new(0.0, 2.0, -1.0), Point3::new(4.0, 0.0, 3.0));
        let m = s.mbr();
        assert_eq!(m.lo, Point3::new(0.0, 0.0, -1.0));
        assert_eq!(m.hi, Point3::new(4.0, 2.0, 3.0));
    }

    #[test]
    fn dist_point_3d() {
        let s = Segment3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(10.0, 0.0, 0.0));
        assert_eq!(s.dist_point(Point3::new(5.0, 3.0, 4.0)), 5.0);
    }

    #[test]
    fn dist_segment_parallel_and_skew() {
        let a = Segment3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(10.0, 0.0, 0.0));
        // Parallel, offset by 3 in y.
        let b = Segment3::new(Point3::new(2.0, 3.0, 0.0), Point3::new(8.0, 3.0, 0.0));
        assert!((a.dist_segment(&b) - 3.0).abs() < 1e-12);
        // Skew crossing above the middle.
        let c = Segment3::new(Point3::new(5.0, -1.0, 2.0), Point3::new(5.0, 1.0, 2.0));
        assert!((a.dist_segment(&c) - 2.0).abs() < 1e-12);
        // Disjoint colinear.
        let d = Segment3::new(Point3::new(13.0, 0.0, 0.0), Point3::new(20.0, 0.0, 0.0));
        assert!((a.dist_segment(&d) - 3.0).abs() < 1e-12);
        // Symmetry.
        assert!((a.dist_segment(&c) - c.dist_segment(&a)).abs() < 1e-12);
    }

    #[test]
    fn dist_segment_degenerate() {
        let p = Segment3::new(Point3::new(1.0, 1.0, 1.0), Point3::new(1.0, 1.0, 1.0));
        let q = Segment3::new(Point3::new(4.0, 5.0, 1.0), Point3::new(4.0, 5.0, 1.0));
        assert!((p.dist_segment(&q) - 5.0).abs() < 1e-12);
        let s = Segment3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(10.0, 0.0, 0.0));
        // Point (1,1,1) to its projection (1,0,0): sqrt(2).
        assert!((p.dist_segment(&s) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dist_segment_opposing_slopes_beats_boxes() {
        // Two ascending segments offset in z: their y-ranges overlap and
        // their z-ranges touch, so boxes report only the x gap (1), but
        // the true geometry never gets closer than sqrt(51). This is
        // exactly why full-resolution SDN edges use segment distances.
        let a = Segment3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(0.0, 10.0, 10.0));
        let b = Segment3::new(Point3::new(1.0, 0.0, 10.0), Point3::new(1.0, 10.0, 20.0));
        let box_dist = a.mbr().min_dist_box(&b.mbr());
        assert!((box_dist - 1.0).abs() < 1e-12);
        let seg_dist = a.dist_segment(&b);
        // min over (s,t) of sqrt(1 + 100(s-t)^2 + (10 - 10(s-t))^2) = sqrt(51).
        assert!((seg_dist - 51f64.sqrt()).abs() < 1e-9, "got {seg_dist}");
    }
}
