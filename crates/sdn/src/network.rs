//! The support distance network and its lower bounds.
//!
//! "A network is constructed from the SDN by treating each line segment as
//! a node and there is an edge to link a node with each of the nodes which
//! are line segments from the neighboring crossing lines. The length of an
//! edge is the minimum Euclidian distance between the MBRs of the two line
//! segments" (paper §3.3). The query points embed by connecting to every
//! segment of the first line they face; the Dijkstra value, floored by the
//! Euclidean distance, is a valid lower bound of the surface distance:
//! any surface path must cross the planes between the points in order, and
//! each leg between consecutive crossings is at least the minimum distance
//! between the corresponding segment MBRs.

use crate::simplify::SimplifiedLine;
use sknn_geodesic::graph::{Dijkstra, DijkstraScratch, Graph, QueueCounters};
use sknn_geom::{Aabb3, Point3, Rect2};

/// Result of a lower-bound computation.
#[derive(Debug, Clone)]
pub struct LowerBound {
    /// The bound itself (>= Euclidean distance, <= surface distance).
    pub value: f64,
    /// MBRs of the segments along the witness chain (for building the
    /// dummy-lower-bound corridor at the next resolution).
    pub path_mbrs: Vec<Aabb3>,
    /// Dijkstra nodes settled (CPU-cost proxy).
    pub nodes_settled: usize,
    /// Segments that participated after filtering (I/O-cost proxy for the
    /// in-memory path; the paged layer counts real pages).
    pub segments_used: usize,
    /// Queue-operation counters of the Dijkstra run.
    pub queue: QueueCounters,
}

/// Reusable working state for [`lower_bound_with`].
///
/// The ranking engine computes thousands of lower bounds per query batch;
/// each one builds a small layered graph and runs an early-exit Dijkstra
/// over it. This scratch keeps the layer table, edge list, CSR graph and
/// Dijkstra state alive across calls so the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub struct LbScratch {
    /// `(line, segment)` per admitted segment, grouped by layer; the graph
    /// node of entry `i` is `2 + i` (0 and 1 are the query endpoints).
    segs: Vec<(u32, u32)>,
    /// Layer boundaries into `segs` (`len == layers + 1`).
    layer_off: Vec<u32>,
    edges: Vec<(u32, u32, f64)>,
    graph: Graph,
    dij: DijkstraScratch,
}

impl LbScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute the SDN lower bound between `a` and `b`.
///
/// * `lines` — crossing lines strictly separating `a` and `b`, ordered
///   along the sweep axis from `a`'s side to `b`'s side;
/// * `roi` — optional xy-filter on segments (the MR3 ellipse region);
/// * `corridor` — optional per-line segment mask (the dummy-lower-bound
///   envelope; restricting the graph can only raise the Dijkstra value, so
///   a corridor bound is an *optimistic* lower bound usable only for the
///   negative test described in §4.2.2).
///
/// Lines left with no admissible segments are dropped from the chain,
/// which weakens (never invalidates) the bound.
pub fn lower_bound(
    lines: &[&SimplifiedLine],
    a: Point3,
    b: Point3,
    roi: Option<&Rect2>,
    corridor: Option<&[Vec<bool>]>,
) -> LowerBound {
    let mut scratch = LbScratch::new();
    lower_bound_with(lines, a, b, roi, corridor, &mut scratch)
}

/// [`lower_bound`] against reusable working state (see [`LbScratch`]):
/// no per-call allocation once the buffers have grown to a working size,
/// identical results.
pub fn lower_bound_with(
    lines: &[&SimplifiedLine],
    a: Point3,
    b: Point3,
    roi: Option<&Rect2>,
    corridor: Option<&[Vec<bool>]>,
    scratch: &mut LbScratch,
) -> LowerBound {
    let euclid = a.dist(b);
    let LbScratch { segs, layer_off, edges, graph, dij } = scratch;
    // Collect admissible segments per line, dropping empty lines. Node
    // numbering: 0 = a, 1 = b, then segments layer by layer — so the graph
    // node of `segs[i]` is `2 + i`.
    segs.clear();
    layer_off.clear();
    layer_off.push(0);
    for (li, line) in lines.iter().enumerate() {
        let start = segs.len();
        for (si, seg) in line.segments.iter().enumerate() {
            if let Some(r) = roi {
                if !r.intersects(&seg.mbr.xy()) {
                    continue;
                }
            }
            if let Some(c) = corridor {
                if !c[li][si] {
                    continue;
                }
            }
            segs.push((li as u32, si as u32));
        }
        if segs.len() > start {
            layer_off.push(segs.len() as u32);
        }
    }
    if segs.is_empty() {
        return LowerBound {
            value: euclid,
            path_mbrs: Vec::new(),
            nodes_settled: 0,
            segments_used: 0,
            queue: QueueCounters::default(),
        };
    }
    let nlayers = layer_off.len() - 1;
    let seg_of = |i: u32| -> &crate::simplify::SimplifiedSegment {
        let (li, si) = segs[i as usize];
        &lines[li as usize].segments[si as usize]
    };

    edges.clear();
    // a to the first layer, b to the last.
    for k in layer_off[0]..layer_off[1] {
        edges.push((0, 2 + k, seg_of(k).min_dist_point(a)));
    }
    for k in layer_off[nlayers - 1]..layer_off[nlayers] {
        edges.push((1, 2 + k, seg_of(k).min_dist_point(b)));
    }
    // Consecutive layers, all pairs.
    for li in 0..nlayers - 1 {
        for i in layer_off[li]..layer_off[li + 1] {
            let s1 = seg_of(i);
            for j in layer_off[li + 1]..layer_off[li + 2] {
                edges.push((2 + i, 2 + j, s1.min_dist(seg_of(j))));
            }
        }
    }
    graph.rebuild_undirected(2 + segs.len(), edges);
    let d = Dijkstra::run_multi_scratch(graph, &[(0, 0.0)], Some(1), dij);
    // Single-plane bound (the paper's original intuition, §3.3): any
    // surface path must touch every separating crossing line, so for each
    // line, min over its segments of dist(a, seg) + dist(seg, b) is a
    // valid bound — take the best line. This captures forced climbs over
    // ridges that the chain bound can dodge laterally.
    let mut single = 0.0f64;
    for li in 0..nlayers {
        let line_bound = (layer_off[li]..layer_off[li + 1])
            .map(|i| {
                let sgm = seg_of(i);
                sgm.min_dist_point(a) + sgm.min_dist_point(b)
            })
            .fold(f64::INFINITY, f64::min);
        single = single.max(line_bound);
    }
    let value = d.dist(1).max(single).max(euclid);
    let path_mbrs =
        d.path_to(1).into_iter().filter(|&n| n >= 2).map(|n| seg_of(n - 2).mbr).collect();
    LowerBound {
        value,
        path_mbrs,
        nodes_settled: d.settled,
        segments_used: segs.len(),
        queue: d.queue,
    }
}

/// Build the dummy-lower-bound corridor: admit only segments whose MBR
/// comes within `width` of the previous witness chain ("building an
/// envelope from extending the lb path identified from the previous round,
/// by making it thicker", §4.2.2).
pub fn corridor_mask(lines: &[&SimplifiedLine], path_mbrs: &[Aabb3], width: f64) -> Vec<Vec<bool>> {
    lines
        .iter()
        .map(|line| {
            line.segments
                .iter()
                .map(|seg| path_mbrs.iter().any(|m| m.min_dist_box(&seg.mbr) <= width))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossing::{plane_positions, CrossingLine};
    use crate::simplify::simplify_line;
    use sknn_geodesic::exact::ExactGeodesic;
    use sknn_geodesic::mesh_net::MeshPoint;
    use sknn_geom::{Axis, AxisPlane, Point2};
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;
    use sknn_terrain::mesh::TerrainMesh;

    fn setup(seed: u64) -> (TerrainMesh, TriangleLocator) {
        // Rugged custom terrain: SDN bounds only separate visibly from the
        // Euclidean bound when the surface genuinely detours (§1).
        let mesh =
            TerrainConfig::bh().with_grid(17).with_relief(900.0).with_hurst(0.4).build_mesh(seed);
        let loc = TriangleLocator::build(&mesh);
        (mesh, loc)
    }

    fn lines_between(
        mesh: &TerrainMesh,
        resolution: f64,
        y0: f64,
        y1: f64,
        spacing: f64,
    ) -> Vec<SimplifiedLine> {
        plane_positions(y0, y1, spacing)
            .into_iter()
            .filter_map(|v| CrossingLine::build(mesh, AxisPlane::new(Axis::Y, v)))
            .map(|l| simplify_line(&l, resolution))
            .collect()
    }

    #[test]
    fn lower_bound_brackets_surface_distance() {
        let (mesh, loc) = setup(7);
        let geo = ExactGeodesic::new(&mesh);
        let a2 = Point2::new(22.0, 11.0);
        let b2 = Point2::new(133.0, 148.0);
        let a = loc.lift(&mesh, a2).unwrap();
        let b = loc.lift(&mesh, b2).unwrap();
        let ds = geo.distance(
            MeshPoint::Interior { tri: loc.locate(&mesh, a2).unwrap(), pos: a },
            MeshPoint::Interior { tri: loc.locate(&mesh, b2).unwrap(), pos: b },
        );
        for res in [0.25, 0.5, 1.0] {
            let owned = lines_between(&mesh, res, a.y + 1.0, b.y - 1.0, 12.0);
            let refs: Vec<&SimplifiedLine> = owned.iter().collect();
            let lb = lower_bound(&refs, a, b, None, None);
            assert!(lb.value >= a.dist(b) - 1e-9, "below euclid");
            assert!(lb.value <= ds + 1e-6, "res {res}: lb {} exceeds exact {ds}", lb.value);
        }
    }

    #[test]
    fn finer_resolution_gives_tighter_bound() {
        let (mesh, loc) = setup(3);
        let a = loc.lift(&mesh, Point2::new(15.0, 8.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(140.0, 152.0)).unwrap();
        let mut prev = 0.0;
        for res in [0.25, 0.5, 1.0] {
            let owned = lines_between(&mesh, res, a.y + 1.0, b.y - 1.0, 12.0);
            let refs: Vec<&SimplifiedLine> = owned.iter().collect();
            let lb = lower_bound(&refs, a, b, None, None).value;
            // Breakpoint sets are not nested across resolutions, so allow a
            // whisker of regression; the ranking engine clamps bounds
            // monotone anyway.
            assert!(lb >= prev * 0.98 - 1e-9, "res {res}: lb {lb} regressed below {prev}");
            prev = lb;
        }
        // The full-resolution bound must beat plain Euclidean.
        assert!(prev > a.dist(b) + 1e-9, "sdn bound no better than euclid");
    }

    #[test]
    fn more_planes_give_tighter_bound() {
        let (mesh, loc) = setup(5);
        let a = loc.lift(&mesh, Point2::new(12.0, 9.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(150.0, 150.0)).unwrap();
        let sparse = lines_between(&mesh, 1.0, a.y + 1.0, b.y - 1.0, 48.0);
        let dense = lines_between(&mesh, 1.0, a.y + 1.0, b.y - 1.0, 12.0);
        let rs: Vec<&SimplifiedLine> = sparse.iter().collect();
        let rd: Vec<&SimplifiedLine> = dense.iter().collect();
        let lb_sparse = lower_bound(&rs, a, b, None, None).value;
        let lb_dense = lower_bound(&rd, a, b, None, None).value;
        // Plane positions differ between densities (half-spacing offsets),
        // so require no more than a small regression.
        assert!(lb_dense >= lb_sparse * 0.95, "dense {lb_dense} vs sparse {lb_sparse}");
    }

    #[test]
    fn no_separating_planes_falls_back_to_euclid() {
        let (mesh, loc) = setup(2);
        let a = loc.lift(&mesh, Point2::new(10.0, 10.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(12.0, 10.5)).unwrap();
        let lb = lower_bound(&[], a, b, None, None);
        assert_eq!(lb.value, a.dist(b));
        assert!(lb.path_mbrs.is_empty());
    }

    #[test]
    fn corridor_bound_dominates_full_bound() {
        let (mesh, loc) = setup(11);
        let a = loc.lift(&mesh, Point2::new(18.0, 12.0)).unwrap();
        let b = loc.lift(&mesh, Point2::new(145.0, 149.0)).unwrap();
        let owned = lines_between(&mesh, 0.5, a.y + 1.0, b.y - 1.0, 12.0);
        let refs: Vec<&SimplifiedLine> = owned.iter().collect();
        let full = lower_bound(&refs, a, b, None, None);
        assert!(!full.path_mbrs.is_empty());
        let mask = corridor_mask(&refs, &full.path_mbrs, 5.0);
        let dummy = lower_bound(&refs, a, b, None, Some(&mask));
        assert!(
            dummy.value >= full.value - 1e-9,
            "dummy {} below full {}",
            dummy.value,
            full.value
        );
        assert!(dummy.segments_used <= full.segments_used);
    }

    #[test]
    fn roi_filter_reduces_work_and_keeps_validity() {
        let (mesh, loc) = setup(13);
        let geo = ExactGeodesic::new(&mesh);
        let a2 = Point2::new(20.0, 15.0);
        let b2 = Point2::new(130.0, 140.0);
        let a = loc.lift(&mesh, a2).unwrap();
        let b = loc.lift(&mesh, b2).unwrap();
        let ds = geo.distance(
            MeshPoint::Interior { tri: loc.locate(&mesh, a2).unwrap(), pos: a },
            MeshPoint::Interior { tri: loc.locate(&mesh, b2).unwrap(), pos: b },
        );
        let owned = lines_between(&mesh, 1.0, a.y + 1.0, b.y - 1.0, 12.0);
        let refs: Vec<&SimplifiedLine> = owned.iter().collect();
        let full = lower_bound(&refs, a, b, None, None);
        // ROI: the ellipse MBR for a generous upper bound.
        let ell = sknn_geom::Ellipse2::new(a2, b2, ds * 1.1);
        let roi = ell.mbr();
        let bounded = lower_bound(&refs, a, b, Some(&roi), None);
        assert!(bounded.segments_used <= full.segments_used);
        assert!(bounded.value <= ds + 1e-6, "roi lb {} > exact {ds}", bounded.value);
        assert!(bounded.value >= a.dist(b) - 1e-9);
    }
}
