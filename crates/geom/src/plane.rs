//! Axis-aligned sweep planes and their intersections with terrain facets.
//!
//! The MSDN (paper §3.3) cuts the terrain with vertical planes `x = c` or
//! `y = c`; intersecting the TIN with such a plane yields *crossing lines*
//! (polylines on the surface). This module produces the per-triangle
//! intersection segments that the `sdn` crate chains into polylines.

use crate::point::Point3;
use crate::segment::Segment3;
use crate::triangle::Triangle3;

/// Horizontal axis a sweep plane is perpendicular to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Planes `x = c` (perpendicular to the x-axis).
    X,
    /// Planes `y = c` (perpendicular to the y-axis).
    Y,
}

impl Axis {
    /// Coordinate of `p` along this axis.
    pub fn coord(&self, p: Point3) -> f64 {
        match self {
            Axis::X => p.x,
            Axis::Y => p.y,
        }
    }

    /// The other horizontal axis.
    pub fn other(&self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }
}

/// A vertical plane `axis = value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisPlane {
    /// The sweep axis.
    pub axis: Axis,
    /// Plane coordinate along the axis.
    pub value: f64,
}

impl AxisPlane {
    /// Creates the value from its parts.
    pub fn new(axis: Axis, value: f64) -> Self {
        Self { axis, value }
    }

    /// Signed distance of `p` from the plane along the axis.
    pub fn side(&self, p: Point3) -> f64 {
        self.axis.coord(p) - self.value
    }

    /// Intersection of the plane with segment `(a, b)`, if the segment
    /// crosses (or touches) the plane.
    pub fn intersect_segment(&self, a: Point3, b: Point3) -> Option<Point3> {
        let sa = self.side(a);
        let sb = self.side(b);
        if sa == 0.0 {
            return Some(a);
        }
        if sb == 0.0 {
            return Some(b);
        }
        if (sa < 0.0) == (sb < 0.0) {
            return None;
        }
        let t = sa / (sa - sb);
        Some(a.lerp(b, t))
    }

    /// Intersection of the plane with a triangle: `None` when disjoint,
    /// otherwise the chord where the plane crosses the facet. Tangencies at
    /// a single vertex return a degenerate (zero-length) segment, which the
    /// polyline chaining in `sdn` drops.
    pub fn intersect_triangle(&self, tri: &Triangle3) -> Option<Segment3> {
        let mut pts: Vec<Point3> = Vec::with_capacity(2);
        let vs = tri.vertices();
        for i in 0..3 {
            let a = vs[i];
            let b = vs[(i + 1) % 3];
            if let Some(p) = self.intersect_segment(a, b) {
                // Deduplicate points shared by adjacent edges.
                if !pts.iter().any(|q| q.dist_sq(p) < 1e-18) {
                    pts.push(p);
                }
            }
        }
        match pts.len() {
            2 => Some(Segment3::new(pts[0], pts[1])),
            1 => Some(Segment3::new(pts[0], pts[0])),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_is_signed() {
        let pl = AxisPlane::new(Axis::Y, 1.0);
        let below = Point3::new(0.0, 0.0, 0.0);
        let above = Point3::new(0.0, 2.0, 0.0);
        assert!(pl.side(below) < 0.0);
        assert!(pl.side(above) > 0.0);
        assert_eq!(pl.side(Point3::new(0.0, 1.0, 0.0)), 0.0);
    }

    #[test]
    fn intersect_segment_midpoint() {
        let pl = AxisPlane::new(Axis::X, 1.0);
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 2.0, 4.0);
        let p = pl.intersect_segment(a, b).unwrap();
        assert_eq!(p, Point3::new(1.0, 1.0, 2.0));
        assert!(pl.intersect_segment(a, Point3::new(0.5, 9.0, 9.0)).is_none());
    }

    #[test]
    fn intersect_triangle_chord() {
        let tri = Triangle3::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(0.0, 2.0, 2.0),
        );
        let pl = AxisPlane::new(Axis::Y, 1.0);
        let seg = pl.intersect_triangle(&tri).unwrap();
        // The chord runs at y = 1 from the a-c edge to the b-c edge.
        assert!((seg.a.y - 1.0).abs() < 1e-12);
        assert!((seg.b.y - 1.0).abs() < 1e-12);
        assert!(seg.length() > 0.0);
    }

    #[test]
    fn intersect_triangle_disjoint_and_vertex_touch() {
        let tri = Triangle3::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(1.0, 2.0, 0.0),
        );
        assert!(AxisPlane::new(Axis::Y, 5.0).intersect_triangle(&tri).is_none());
        // Touching only the apex vertex yields a degenerate segment.
        let touch = AxisPlane::new(Axis::Y, 2.0).intersect_triangle(&tri).unwrap();
        assert_eq!(touch.length(), 0.0);
    }
}
