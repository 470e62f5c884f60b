//! Property-based tests of the geometry kernel.

use proptest::prelude::*;
use sknn_geom::{Aabb3, Ellipse2, Point2, Point3, Rect2, Segment3, Triangle3};

fn pt2() -> impl Strategy<Value = Point2> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point2::new(x, y))
}

fn pt3() -> impl Strategy<Value = Point3> {
    (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0)
        .prop_map(|(x, y, z)| Point3::new(x, y, z))
}

proptest! {
    /// Segment–segment distance: symmetric, non-negative, zero on self,
    /// and a true lower bound of distances between sampled points.
    #[test]
    fn segment_distance_properties(a in pt3(), b in pt3(), c in pt3(), d in pt3(),
                                   s in 0.0f64..1.0, t in 0.0f64..1.0) {
        let s1 = Segment3::new(a, b);
        let s2 = Segment3::new(c, d);
        let dist = s1.dist_segment(&s2);
        prop_assert!(dist >= -1e-12);
        prop_assert!((dist - s2.dist_segment(&s1)).abs() < 1e-9);
        prop_assert!(s1.dist_segment(&s1) < 1e-9);
        // Lower bound of any sampled point pair.
        let p = a.lerp(b, s);
        let q = c.lerp(d, t);
        prop_assert!(dist <= p.dist(q) + 1e-9);
        // And at least the box distance.
        prop_assert!(dist >= s1.mbr().min_dist_box(&s2.mbr()) - 1e-9);
    }

    /// A rectangle's min-distance to a point is a lower bound on that
    /// point's distance to any point the rectangle contains.
    #[test]
    fn rect_min_dist_bounds_contained_points(
        a in pt2(), b in pt2(), c in pt2(), d in pt2(),
        s in 0.0f64..1.0, t in 0.0f64..1.0, u in 0.0f64..1.0, v in 0.0f64..1.0,
    ) {
        let r1 = Rect2::from_points([a, b]);
        let r2 = Rect2::from_points([c, d]);
        let p = Point2::new(
            r1.lo.x + s * r1.width(),
            r1.lo.y + t * r1.height(),
        );
        let q = Point2::new(
            r2.lo.x + u * r2.width(),
            r2.lo.y + v * r2.height(),
        );
        prop_assert!(r1.min_dist_point(q) <= p.dist(q) + 1e-9);
    }

    /// Union is commutative, associative-enough, and covering.
    #[test]
    fn aabb_union_covers(a in pt3(), b in pt3(), c in pt3()) {
        let b1 = Aabb3::from_points([a, b]);
        let b2 = Aabb3::from_point(c);
        let u = b1.union(&b2);
        prop_assert!(u.contains_box(&b1));
        prop_assert!(u.contains_box(&b2));
        prop_assert_eq!(u, b2.union(&b1));
    }

    /// Ellipse: points sampled inside by definition are classified inside,
    /// and the MBR contains every inside point.
    #[test]
    fn ellipse_classification(f1 in pt2(), f2 in pt2(), slack in 0.1f64..50.0,
                              angle in 0.0f64..std::f64::consts::TAU, radial in 0.0f64..1.0) {
        let constant = f1.dist(f2) + slack;
        let e = Ellipse2::new(f1, f2, constant);
        // A point on the segment between the foci is always inside.
        let mid = (f1 + f2) * 0.5;
        prop_assert!(e.contains(mid));
        // A boundary-ish sample scaled inward is inside and in the MBR.
        let a = e.semi_major() * radial;
        let bsemi = e.semi_minor() * radial;
        let dir = (f2 - f1).normalized();
        let dir = if dir.norm() == 0.0 { Point2::new(1.0, 0.0) } else { dir };
        let center = mid;
        let local = Point2::new(a * angle.cos(), bsemi * angle.sin());
        let p = Point2::new(
            center.x + dir.x * local.x - dir.y * local.y,
            center.y + dir.y * local.x + dir.x * local.y,
        );
        prop_assert!(e.contains(p), "interior sample escaped");
        prop_assert!(e.mbr().contains_point(p));
    }

    /// Barycentric lift: inside-classified points interpolate z within the
    /// vertex range; the closest point on a triangle is never farther than
    /// the nearest vertex.
    #[test]
    fn triangle_lift_and_closest(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0,
        cx in -10.0f64..10.0, cy in -10.0f64..10.0, cz in -10.0f64..10.0,
        u in 0.0f64..1.0, v in 0.0f64..1.0,
        p in pt3(),
    ) {
        let t = Triangle3::new(
            Point3::new(ax, ay, az),
            Point3::new(bx, by, bz),
            Point3::new(cx, cy, cz),
        );
        prop_assume!(t.signed_area_xy().abs() > 1e-6);
        // A barycentric interior point.
        let (u, v) = if u + v > 1.0 { (1.0 - u, 1.0 - v) } else { (u, v) };
        let w = 1.0 - u - v;
        let q = t.a * w + t.b * u + t.c * v;
        if let Some(lifted) = t.lift_xy(q.xy()) {
            let zmin = t.a.z.min(t.b.z).min(t.c.z) - 1e-9;
            let zmax = t.a.z.max(t.b.z).max(t.c.z) + 1e-9;
            prop_assert!(lifted.z >= zmin && lifted.z <= zmax);
            prop_assert!((lifted.z - q.z).abs() < 1e-6);
        }
        // Closest point optimality versus the vertices.
        let cp = t.closest_point(p);
        let d = cp.dist(p);
        for vtx in t.vertices() {
            prop_assert!(d <= vtx.dist(p) + 1e-9);
        }
    }
}
