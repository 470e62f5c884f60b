//! The multiresolution SDN stack.
//!
//! An MSDN is "a collection of SDNs at a number of resolutions" (paper
//! §3.3): for both sweep axes, the full-resolution crossing lines are built
//! once (planes spaced at the mesh's mean edge length, the paper's densest
//! placement), then each resolution level keeps `r%` of every line's
//! points *and* thins the plane set itself ("for a request of low
//! resolution SDN data, we reduce the density of crossing lines selected
//! too").
//!
//! At query time the axis is chosen from the direction of the pair: planes
//! perpendicular to the dominant horizontal axis separate the endpoints
//! most often and therefore give the most chain legs (this is the paper's
//! 45°-angle heuristic, stated here in its geometrically effective form).

use crate::crossing::{plane_positions, CrossingLine};
use crate::network::{lower_bound, LowerBound};
use crate::simplify::{simplify_line, SimplifiedLine};
use sknn_geom::{Axis, AxisPlane, Point3, Rect2};
use sknn_terrain::mesh::TerrainMesh;

/// MSDN build parameters.
#[derive(Debug, Clone)]
pub struct MsdnConfig {
    /// Resolution levels, ascending, each in `(0, 1]` (the paper's set is
    /// `[0.25, 0.375, 0.5, 0.75, 1.0]`).
    pub levels: Vec<f64>,
    /// Plane spacing in metres; `None` = the mesh's mean edge length.
    pub plane_spacing: Option<f64>,
}

impl Default for MsdnConfig {
    fn default() -> Self {
        Self { levels: vec![0.25, 0.375, 0.5, 0.75, 1.0], plane_spacing: None }
    }
}

/// One resolution level of one axis: a thinned set of simplified lines.
#[derive(Debug, Clone)]
pub struct SdnLevel {
    /// The resolution.
    pub resolution: f64,
    /// The lines.
    pub lines: Vec<SimplifiedLine>,
}

/// The full multiresolution stack.
#[derive(Debug, Clone)]
pub struct Msdn {
    /// The levels.
    pub levels: Vec<f64>,
    x_levels: Vec<SdnLevel>,
    y_levels: Vec<SdnLevel>,
}

impl Msdn {
    /// Build the MSDN of a mesh.
    pub fn build(mesh: &TerrainMesh, cfg: &MsdnConfig) -> Self {
        let spacing = cfg.plane_spacing.unwrap_or_else(|| mesh.mean_edge_length().max(1e-6));
        let extent = mesh.extent();
        let build_axis = |axis: Axis| -> Vec<CrossingLine> {
            let (lo, hi) = match axis {
                Axis::X => (extent.lo.x, extent.hi.x),
                Axis::Y => (extent.lo.y, extent.hi.y),
            };
            plane_positions(lo, hi, spacing)
                .into_iter()
                .filter_map(|v| CrossingLine::build(mesh, AxisPlane::new(axis, v)))
                .collect()
        };
        let x_full = build_axis(Axis::X);
        let y_full = build_axis(Axis::Y);
        let make_levels = |full: &[CrossingLine]| -> Vec<SdnLevel> {
            cfg.levels
                .iter()
                .map(|&r| {
                    let stride = (1.0 / r).round().max(1.0) as usize;
                    let lines = full.iter().step_by(stride).map(|l| simplify_line(l, r)).collect();
                    SdnLevel { resolution: r, lines }
                })
                .collect()
        };
        Self {
            levels: cfg.levels.clone(),
            x_levels: make_levels(&x_full),
            y_levels: make_levels(&y_full),
        }
    }

    /// Reassemble an MSDN from its parts (used by [`crate::io`]).
    pub(crate) fn from_parts(
        levels: Vec<f64>,
        x_levels: Vec<SdnLevel>,
        y_levels: Vec<SdnLevel>,
    ) -> Self {
        Self { levels, x_levels, y_levels }
    }

    /// Num levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Sweep axis used for a pair: planes perpendicular to the dominant
    /// horizontal direction of `(a, b)`.
    pub fn axis_for(a: Point3, b: Point3) -> Axis {
        if (b.x - a.x).abs() >= (b.y - a.y).abs() {
            Axis::X
        } else {
            Axis::Y
        }
    }

    fn level(&self, axis: Axis, level_idx: usize) -> &SdnLevel {
        match axis {
            Axis::X => &self.x_levels[level_idx],
            Axis::Y => &self.y_levels[level_idx],
        }
    }

    /// Crossing lines of `level_idx` strictly separating `a` and `b`,
    /// ordered from `a`'s side to `b`'s.
    pub fn lines_between(&self, level_idx: usize, a: Point3, b: Point3) -> Vec<&SimplifiedLine> {
        let axis = Self::axis_for(a, b);
        let (ca, cb) = (axis.coord(a), axis.coord(b));
        let (lo, hi) = (ca.min(cb), ca.max(cb));
        let mut lines: Vec<&SimplifiedLine> = self
            .level(axis, level_idx)
            .lines
            .iter()
            .filter(|l| l.plane.value > lo && l.plane.value < hi)
            .collect();
        lines.sort_by(|p, q| p.plane.value.total_cmp(&q.plane.value));
        if ca > cb {
            lines.reverse();
        }
        lines
    }

    /// Lower bound of the surface distance at `level_idx`, optionally
    /// ROI-restricted.
    pub fn lower_bound(
        &self,
        level_idx: usize,
        a: Point3,
        b: Point3,
        roi: Option<&Rect2>,
    ) -> LowerBound {
        let lines = self.lines_between(level_idx, a, b);
        lower_bound(&lines, a, b, roi, None)
    }

    /// Borrow a level's lines for external storage layers.
    pub fn level_lines(&self, axis: Axis, level_idx: usize) -> &[SimplifiedLine] {
        &self.level(axis, level_idx).lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{lower_bound_with, LbScratch};
    use sknn_geodesic::exact::ExactGeodesic;
    use sknn_geodesic::mesh_net::MeshPoint;
    use sknn_geom::Point2;
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;

    fn setup() -> (TerrainMesh, TriangleLocator, Msdn) {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(21);
        let loc = TriangleLocator::build(&mesh);
        let msdn = Msdn::build(&mesh, &MsdnConfig::default());
        (mesh, loc, msdn)
    }

    #[test]
    fn axis_heuristic() {
        let a = Point3::new(0.0, 0.0, 0.0);
        assert_eq!(Msdn::axis_for(a, Point3::new(10.0, 3.0, 0.0)), Axis::X);
        assert_eq!(Msdn::axis_for(a, Point3::new(3.0, 10.0, 0.0)), Axis::Y);
        assert_eq!(Msdn::axis_for(a, Point3::new(5.0, 5.0, 0.0)), Axis::X);
    }

    #[test]
    fn levels_grow_in_size() {
        let (_, _, msdn) = setup();
        // Segments stored at a level, both axes.
        let segments = |i: usize| -> usize {
            let lines = msdn.x_levels[i].lines.iter().chain(&msdn.y_levels[i].lines);
            lines.map(|l| l.segments.len()).sum()
        };
        for i in 1..msdn.num_levels() {
            assert!(segments(i) > segments(i - 1), "level {i} not larger");
        }
    }

    #[test]
    fn lines_between_are_ordered_and_separating() {
        let (_, loc, msdn) = setup();
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(21);
        let a = loc.lift(&mesh, Point2::new(20.0, 30.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(150.0, 90.0)).unwrap();
        let lines = msdn.lines_between(4, a, b);
        assert!(!lines.is_empty());
        for l in &lines {
            assert!(l.plane.value > a.x && l.plane.value < b.x);
        }
        for w in lines.windows(2) {
            assert!(w[0].plane.value < w[1].plane.value);
        }
        // Reversed direction reverses the order.
        let rev = msdn.lines_between(4, b, a);
        assert_eq!(rev.len(), lines.len());
        assert!(rev.first().unwrap().plane.value > rev.last().unwrap().plane.value);
    }

    #[test]
    fn msdn_bounds_bracket_exact_distance_across_levels() {
        let (mesh, loc, msdn) = setup();
        let geo = ExactGeodesic::new(&mesh);
        let pairs = [
            (Point2::new(18.0, 22.0), Point2::new(139.0, 131.0)),
            (Point2::new(120.0, 30.0), Point2::new(25.0, 140.0)),
        ];
        for (a2, b2) in pairs {
            let a = loc.lift(&mesh, a2).unwrap();
            let b = loc.lift(&mesh, b2).unwrap();
            let ds = geo.distance(
                MeshPoint::Interior { tri: loc.locate(&mesh, a2).unwrap(), pos: a },
                MeshPoint::Interior { tri: loc.locate(&mesh, b2).unwrap(), pos: b },
            );
            for lvl in 0..msdn.num_levels() {
                let lb = msdn.lower_bound(lvl, a, b, None);
                assert!(lb.value >= a.dist(b) - 1e-9);
                assert!(lb.value <= ds + 1e-6, "level {lvl}: lb {} > exact {ds}", lb.value);
            }
        }
    }

    #[test]
    fn higher_levels_beat_euclid_substantially_on_rugged_terrain() {
        // Use a genuinely rugged custom terrain: on mild terrain the SDN
        // advantage over the Euclidean bound is small by nature (§1).
        let mesh =
            TerrainConfig::bh().with_grid(17).with_relief(1500.0).with_hurst(0.3).build_mesh(21);
        let loc = TriangleLocator::build(&mesh);
        let msdn = Msdn::build(&mesh, &MsdnConfig::default());
        let a = loc.lift(&mesh, Point2::new(12.0, 15.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(148.0, 150.0)).unwrap();
        let lb0 = msdn.lower_bound(0, a, b, None).value;
        let lb4 = msdn.lower_bound(4, a, b, None).value;
        let euclid = a.dist(b);
        assert!(lb4 >= lb0 * 0.98, "top level {lb4} below bottom {lb0}");
        assert!(lb4 > euclid * 1.02, "full-res SDN bound {lb4} barely above euclid {euclid}");
    }

    /// The corridor ("dummy") bound at the next level, over the level's
    /// lines between the points and the previous level's witness chain
    /// (the way the ranking's lower-bound phase asks for it), is at least
    /// that level's full bound and uses no more segments.
    #[test]
    fn dummy_lower_bound_dominates() {
        let (mesh, loc, msdn) = setup();
        let a = loc.lift(&mesh, Point2::new(25.0, 20.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(140.0, 145.0)).unwrap();
        let full = msdn.lower_bound(2, a, b, None);
        let lines = msdn.lines_between(3, a, b);
        let corridor = Some((&full.path_mbrs[..], 10.0));
        let dummy = lower_bound_with(&lines, a, b, None, corridor, &mut LbScratch::new());
        let full_next = msdn.lower_bound(3, a, b, None);
        assert!(dummy.value >= full_next.value - 1e-9);
        assert!(dummy.segments_used <= full_next.segments_used);
    }
}
