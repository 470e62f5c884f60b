//! Point location: which facet contains a horizontal position?
//!
//! Query and object points arrive as (x, y) positions (or as off-mesh 3-D
//! points); embedding them into the surface model (paper §3.2) needs the
//! containing triangle. A uniform bucket grid over triangle MBRs gives O(1)
//! expected lookup for any mesh, not just grid TINs.

use crate::mesh::{TerrainMesh, TriId};
use sknn_geom::{Point2, Point3, Rect2};

/// Uniform-grid triangle locator.
pub struct TriangleLocator {
    extent: Rect2,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    buckets: Vec<Vec<TriId>>,
}

impl TriangleLocator {
    /// Build a locator with roughly one triangle per bucket.
    pub fn build(mesh: &TerrainMesh) -> Self {
        let extent = mesh.extent();
        let n_tri = mesh.num_triangles().max(1);
        let aspect = (extent.height() / extent.width().max(1e-12)).max(1e-6);
        let nx = ((n_tri as f64 / (2.0 * aspect)).sqrt().ceil() as usize).max(1);
        let ny = ((nx as f64 * aspect).ceil() as usize).max(1);
        let cell_w = extent.width() / nx as f64;
        let cell_h = extent.height() / ny as f64;
        let mut buckets = vec![Vec::new(); nx * ny];
        for t in 0..mesh.num_triangles() as TriId {
            let mbr = mesh.triangle(t).mbr_xy();
            let (c0, r0) = clamp_cell(extent, nx, ny, cell_w, cell_h, mbr.lo);
            let (c1, r1) = clamp_cell(extent, nx, ny, cell_w, cell_h, mbr.hi);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    buckets[r * nx + c].push(t);
                }
            }
        }
        Self { extent, nx, ny, cell_w, cell_h, buckets }
    }

    /// Triangle whose projection contains `p`, if any. Points on shared
    /// edges may match either incident facet.
    pub fn locate(&self, mesh: &TerrainMesh, p: Point2) -> Option<TriId> {
        if !self.extent.contains_point(p) {
            return None;
        }
        let (c, r) = clamp_cell(self.extent, self.nx, self.ny, self.cell_w, self.cell_h, p);
        self.buckets[r * self.nx + c].iter().copied().find(|&t| mesh.triangle(t).contains_xy(p))
    }

    /// Lift a horizontal position onto the surface (barycentric elevation).
    pub fn lift(&self, mesh: &TerrainMesh, p: Point2) -> Option<Point3> {
        let t = self.locate(mesh, p)?;
        mesh.triangle(t).lift_xy(p)
    }
}

fn clamp_cell(
    extent: Rect2,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    p: Point2,
) -> (usize, usize) {
    let cx = if cell_w <= 0.0 {
        0
    } else {
        (((p.x - extent.lo.x) / cell_w) as isize).clamp(0, nx as isize - 1) as usize
    };
    let cy = if cell_h <= 0.0 {
        0
    } else {
        (((p.y - extent.lo.y) / cell_h) as isize).clamp(0, ny as isize - 1) as usize
    };
    (cx, cy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::TerrainConfig;

    #[test]
    fn locates_every_grid_cell_center() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(7);
        let loc = TriangleLocator::build(&mesh);
        let e = mesh.extent();
        // Probe a lattice of interior points.
        for i in 1..20 {
            for j in 1..20 {
                let p = Point2::new(
                    e.lo.x + e.width() * i as f64 / 20.0,
                    e.lo.y + e.height() * j as f64 / 20.0,
                );
                let t = loc.locate(&mesh, p).expect("interior point must be inside a facet");
                assert!(mesh.triangle(t).contains_xy(p));
            }
        }
    }

    #[test]
    fn outside_extent_is_none() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(1);
        let loc = TriangleLocator::build(&mesh);
        assert!(loc.locate(&mesh, Point2::new(-1.0, 0.0)).is_none());
        assert!(loc.locate(&mesh, Point2::new(1e9, 1e9)).is_none());
    }

    #[test]
    fn lift_interpolates_grid_heights() {
        let mesh = TerrainConfig::ep().with_grid(9).build_mesh(2);
        let loc = TriangleLocator::build(&mesh);
        // At an exact vertex position the lift must equal the vertex.
        let v = mesh.vertex(12);
        let lifted = loc.lift(&mesh, v.xy()).unwrap();
        assert!((lifted.z - v.z).abs() < 1e-9);
    }

    #[test]
    fn corners_are_locatable() {
        let mesh = TerrainConfig::bh().with_grid(9).build_mesh(3);
        let loc = TriangleLocator::build(&mesh);
        let e = mesh.extent();
        for p in [e.lo, e.hi, Point2::new(e.lo.x, e.hi.y), Point2::new(e.hi.x, e.lo.y)] {
            assert!(loc.locate(&mesh, p).is_some(), "corner {p:?}");
        }
    }
}
