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

use crate::simplify::{SimplifiedLine, SimplifiedSegment};
use sknn_geodesic::graph::QueueCounters;
use sknn_geom::{Aabb3, Point3, Rect2};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// each one runs an early-exit Dijkstra over the layers of admitted
/// segments. This scratch keeps the layer table, the per-segment
/// precomputations and the Dijkstra state alive across calls so the steady
/// state allocates nothing but the returned witness chain.
#[derive(Debug, Default)]
pub struct LbScratch {
    /// The admitted segments, copied out of their lines and grouped by
    /// layer; the graph node of entry `i` is `2 + i` (0 and 1 are the query
    /// endpoints).
    segs: Vec<SimplifiedSegment>,
    /// Layer boundaries into `segs` (`len == layers + 1`), and each
    /// layer's plane coordinate.
    layer_off: Vec<u32>,
    plane: Vec<f64>,
    /// Per admitted segment: its layer, `is_exact()`, and its distances to
    /// `a` and to `b`.
    layer: Vec<u32>,
    exact: Vec<bool>,
    da: Vec<f64>,
    db: Vec<f64>,
    run: Labels,
}

impl LbScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Dijkstra state of one run over nodes `0..n`.
#[derive(Debug, Default)]
struct Labels {
    /// Per node: tentative distance, predecessor, settled flag.
    dist: Vec<f64>,
    prev: Vec<u32>,
    done: Vec<bool>,
    /// Min-queue of `(distance bits, node)`: labels are non-negative, and
    /// non-negative floats order as their bit patterns do.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: QueueCounters,
}

impl Labels {
    /// Reset for a run over `n` nodes from node 0.
    fn begin(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, u32::MAX);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
        self.queue = QueueCounters::default();
        self.dist[0] = 0.0;
        self.push(0.0, 0);
    }

    fn push(&mut self, d: f64, v: u32) {
        debug_assert!(d >= 0.0, "label {d} would mis-order the bit-keyed queue");
        self.heap.push(Reverse((d.to_bits(), v)));
        self.queue.pushes += 1;
    }

    /// Relax the edge of weight `w` out of `from`, settled at `d`.
    #[inline]
    fn relax(&mut self, from: u32, d: f64, v: usize, w: f64) {
        let nd = d + w;
        if nd < self.dist[v] {
            self.dist[v] = nd;
            self.prev[v] = from;
            self.push(nd, v as u32);
        }
    }
}

/// What a floor gives away before it may veto a relaxation: a floor `f`
/// computed for an edge of weight `w` is used as `f * (1 - rel) - abs`,
/// which must not exceed `w` as floats (DESIGN §5).
#[derive(Debug, Clone, Copy)]
struct Slack {
    rel: f64,
    abs: f64,
}

/// Crossing-line points sit within 1e-9 of their plane and an exact
/// segment's stored MBR within 1e-9 per corner of the segment's own
/// (`SimplifiedSegment::is_exact`), so either floor can overshoot the
/// weight it guards by a few 1e-9 plus rounding; 1e-7 dominates both with
/// two orders to spare and costs no measurable pruning.
const SLACK: Slack = Slack { rel: 1e-9, abs: 1e-7 };

/// Compute the SDN lower bound between `a` and `b`.
///
/// * `lines` — crossing lines strictly separating `a` and `b`, ordered
///   along the sweep axis from `a`'s side to `b`'s side;
/// * `roi` — optional xy-filter on segments (the MR3 ellipse region);
/// * `corridor` — optional `(prior witness chain, width)`: admit only
///   segments whose MBR comes within `width` of the chain of the previous
///   round ("building an envelope from extending the lb path identified
///   from the previous round, by making it thicker", §4.2.2). Restricting
///   the graph can only raise the Dijkstra value, so a corridor bound is an
///   *optimistic* lower bound usable only for the negative test described
///   there.
///
/// Lines left with no admissible segments are dropped from the chain,
/// which weakens (never invalidates) the bound.
pub fn lower_bound(
    lines: &[&SimplifiedLine],
    a: Point3,
    b: Point3,
    roi: Option<&Rect2>,
    corridor: Option<(&[Aabb3], f64)>,
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
    corridor: Option<(&[Aabb3], f64)>,
    scratch: &mut LbScratch,
) -> LowerBound {
    layered_in_place(lines, a, b, roi, corridor, SLACK, scratch)
}

/// The layered network is never built. Node numbering is the paper's
/// network's — 0 = `a`, 1 = `b`, `2 + i` = admitted segment `i`, edges
/// `a`–first layer, all pairs between consecutive layers, last layer–`b` —
/// and the run is plain Dijkstra from `a` with early exit at `b`: pop the
/// globally smallest `(distance, node)`, relax with strict `<`. Distances,
/// predecessors and the queue counters are a function of that pop order
/// alone, so they equal what a run over the materialised graph gives
/// (`tests::layered_reference`), whatever order a node's neighbours are
/// visited in. Two things make it cheap:
///
/// * a neighbour already settled is skipped — its label is final and at
///   most `d(u)`, so the relaxation could not win — hence each layer-pair
///   weight is evaluated at most once, and none after `b` settles;
/// * an unsettled neighbour `v` is skipped *before* its weight is computed
///   when `d(u) + floor >= tentative(v)` for a floor that cannot exceed
///   the weight: first the gap between the two planes, then, for two exact
///   segments, the MBR distance in front of the segment–segment distance.
///   Float addition is monotone, so `floor <= w` gives
///   `d + w >= d + floor >= tentative(v)`: the relaxation was lost anyway.
fn layered_in_place(
    lines: &[&SimplifiedLine],
    a: Point3,
    b: Point3,
    roi: Option<&Rect2>,
    corridor: Option<(&[Aabb3], f64)>,
    slack: Slack,
    scratch: &mut LbScratch,
) -> LowerBound {
    let euclid = a.dist(b);
    let LbScratch { segs, layer_off, plane, layer, exact, da, db, run } = scratch;
    // Collect admissible segments per line, dropping empty lines, with
    // what every later step asks of a segment computed once.
    segs.clear();
    layer_off.clear();
    layer_off.push(0);
    plane.clear();
    layer.clear();
    exact.clear();
    da.clear();
    db.clear();
    for line in lines {
        let start = segs.len();
        let this_layer = layer_off.len() as u32 - 1;
        for seg in &line.segments {
            if roi.is_some_and(|r| !r.intersects(&seg.mbr.xy())) {
                continue;
            }
            if corridor.is_some_and(|(path, width)| {
                !path.iter().any(|m| m.min_dist_box(&seg.mbr) <= width)
            }) {
                continue;
            }
            segs.push(*seg);
            layer.push(this_layer);
            let is_exact = seg.is_exact();
            exact.push(is_exact);
            let (to_a, to_b) = if is_exact {
                (seg.seg.dist_point(a), seg.seg.dist_point(b))
            } else {
                (seg.mbr.min_dist_point(a), seg.mbr.min_dist_point(b))
            };
            da.push(to_a);
            db.push(to_b);
        }
        if segs.len() > start {
            layer_off.push(segs.len() as u32);
            plane.push(line.plane.value);
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
    let floor = |f: f64| f * (1.0 - slack.rel) - slack.abs;

    run.begin(2 + segs.len());
    let mut settled = 0usize;
    while let Some(Reverse((bits, node))) = run.heap.pop() {
        run.queue.pops += 1;
        let u = node as usize;
        if run.done[u] {
            run.queue.stale_pops += 1;
            continue;
        }
        run.done[u] = true;
        settled += 1;
        if u == 1 {
            break;
        }
        let d = f64::from_bits(bits);
        if u == 0 {
            for (k, &w) in da[..layer_off[1] as usize].iter().enumerate() {
                run.relax(node, d, 2 + k, w);
            }
            continue;
        }
        let i = u - 2;
        let l = layer[i] as usize;
        if l + 1 == nlayers {
            run.relax(node, d, 1, db[i]);
        }
        let su = &segs[i];
        let adjacent = [l.checked_sub(1), (l + 1 < nlayers).then_some(l + 1)];
        for m in adjacent.into_iter().flatten() {
            let reach = d + floor((plane[l] - plane[m]).abs());
            for j in layer_off[m] as usize..layer_off[m + 1] as usize {
                let v = 2 + j;
                if run.done[v] || reach >= run.dist[v] {
                    continue;
                }
                let sv = &segs[j];
                let boxes = su.mbr.min_dist_box(&sv.mbr);
                let w = if exact[i] && exact[j] {
                    if d + floor(boxes) >= run.dist[v] {
                        continue;
                    }
                    su.seg.dist_segment(&sv.seg)
                } else {
                    boxes
                };
                run.relax(node, d, v, w);
            }
        }
    }
    // Single-plane bound (the paper's original intuition, §3.3): any
    // surface path must touch every separating crossing line, so for each
    // line, min over its segments of dist(a, seg) + dist(seg, b) is a
    // valid bound — take the best line. This captures forced climbs over
    // ridges that the chain bound can dodge laterally.
    let mut single = 0.0f64;
    for l in 0..nlayers {
        let line_bound = (layer_off[l] as usize..layer_off[l + 1] as usize)
            .map(|i| da[i] + db[i])
            .fold(f64::INFINITY, f64::min);
        single = single.max(line_bound);
    }
    let value = run.dist[1].max(single).max(euclid);
    // Witness chain: walk back from `b`; every chain ends at `a` (node 0).
    let mut path_mbrs = Vec::new();
    if run.dist[1].is_finite() {
        let mut cur = run.prev[1];
        while cur >= 2 {
            path_mbrs.push(segs[cur as usize - 2].mbr);
            cur = run.prev[cur as usize];
        }
        path_mbrs.reverse();
    }
    LowerBound {
        value,
        path_mbrs,
        nodes_settled: settled,
        segments_used: segs.len(),
        queue: run.queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossing::{plane_positions, CrossingLine};
    use crate::msdn::{Msdn, MsdnConfig};
    use crate::simplify::simplify_line;
    use proptest::prelude::*;
    use sknn_geodesic::exact::ExactGeodesic;
    use sknn_geodesic::graph::{Dijkstra, Graph, QueuePolicy};
    use sknn_geodesic::mesh_net::MeshPoint;
    use sknn_geom::{Axis, AxisPlane, Ellipse2, Point2, Segment3};
    use sknn_terrain::dem::TerrainConfig;
    use sknn_terrain::locate::TriangleLocator;
    use sknn_terrain::mesh::TerrainMesh;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};

    /// The corridor as the materialising form took it: one flag per
    /// segment of every line, ROI or not.
    fn corridor_mask(lines: &[&SimplifiedLine], path_mbrs: &[Aabb3], width: f64) -> Vec<Vec<bool>> {
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

    /// The oracle: the paper's network built literally — every edge between
    /// consecutive layers as a tuple, a CSR over them, the shared Dijkstra
    /// core on top — as `lower_bound_with` did before it ran in place.
    fn layered_reference(
        lines: &[&SimplifiedLine],
        a: Point3,
        b: Point3,
        roi: Option<&Rect2>,
        corridor: Option<(&[Aabb3], f64)>,
        policy: QueuePolicy,
    ) -> LowerBound {
        let euclid = a.dist(b);
        let mask = corridor.map(|(path, width)| corridor_mask(lines, path, width));
        let mut segs: Vec<(u32, u32)> = Vec::new();
        let mut layer_off = vec![0u32];
        for (li, line) in lines.iter().enumerate() {
            let start = segs.len();
            for (si, seg) in line.segments.iter().enumerate() {
                if roi.is_some_and(|r| !r.intersects(&seg.mbr.xy())) {
                    continue;
                }
                if mask.as_ref().is_some_and(|c| !c[li][si]) {
                    continue;
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
        let seg_of = |i: u32| -> &SimplifiedSegment {
            let (li, si) = segs[i as usize];
            &lines[li as usize].segments[si as usize]
        };
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        for k in layer_off[0]..layer_off[1] {
            edges.push((0, 2 + k, seg_of(k).min_dist_point(a)));
        }
        for k in layer_off[nlayers - 1]..layer_off[nlayers] {
            edges.push((1, 2 + k, seg_of(k).min_dist_point(b)));
        }
        for li in 0..nlayers - 1 {
            for i in layer_off[li]..layer_off[li + 1] {
                let s1 = seg_of(i);
                for j in layer_off[li + 1]..layer_off[li + 2] {
                    edges.push((2 + i, 2 + j, s1.min_dist(seg_of(j))));
                }
            }
        }
        let graph = Graph::from_undirected(2 + segs.len(), &edges);
        let d = Dijkstra::run_multi_with(&graph, &[(0, 0.0)], Some(1), policy);
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
        let value = d.dist[1].max(single).max(euclid);
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

    const NO_SLACK: Slack = Slack { rel: 0.0, abs: 0.0 };

    /// First field in which two bounds differ, if any.
    fn mismatch(got: &LowerBound, want: &LowerBound) -> Option<String> {
        if got.value.to_bits() != want.value.to_bits() {
            return Some(format!("value {:e} vs {:e}", got.value, want.value));
        }
        if got.path_mbrs != want.path_mbrs {
            return Some(format!("path {:?} vs {:?}", got.path_mbrs, want.path_mbrs));
        }
        if (got.nodes_settled, got.segments_used) != (want.nodes_settled, want.segments_used) {
            return Some(format!(
                "settled/used {:?} vs {:?}",
                (got.nodes_settled, got.segments_used),
                (want.nodes_settled, want.segments_used)
            ));
        }
        (got.queue != want.queue).then(|| format!("queue {:?} vs {:?}", got.queue, want.queue))
    }

    /// The in-place run under `slack` against the oracle under both queue
    /// policies; the oracle's result on agreement.
    fn agree(
        lines: &[&SimplifiedLine],
        a: Point3,
        b: Point3,
        roi: Option<&Rect2>,
        corridor: Option<(&[Aabb3], f64)>,
        slack: Slack,
        scratch: &mut LbScratch,
    ) -> Result<LowerBound, String> {
        let want = layered_reference(lines, a, b, roi, corridor, QueuePolicy::Bucket);
        let heap = layered_reference(lines, a, b, roi, corridor, QueuePolicy::Heap);
        if let Some(m) = mismatch(&heap, &want) {
            return Err(format!("oracle heap vs bucket: {m}"));
        }
        let got = layered_in_place(lines, a, b, roi, corridor, slack, scratch);
        match mismatch(&got, &want) {
            Some(m) => Err(format!("in place vs oracle: {m}")),
            None => Ok(want),
        }
    }

    struct Terrain {
        mesh: TerrainMesh,
        loc: TriangleLocator,
        msdn: Msdn,
    }

    /// Rugged terrains by `(seed, grid)`, built once per test binary. The
    /// 33-grid ones get planes twice as dense as the default (the mean 3-D
    /// edge length, long on this relief), for chains of up to 20 layers.
    fn terrain(seed: u64, grid: usize) -> Arc<Terrain> {
        type Built = Mutex<HashMap<(u64, usize), Arc<Terrain>>>;
        static ALL: OnceLock<Built> = OnceLock::new();
        let mut all = ALL.get_or_init(Default::default).lock().unwrap();
        Arc::clone(all.entry((seed, grid)).or_insert_with(|| {
            let mesh = TerrainConfig::bh()
                .with_grid(grid)
                .with_relief(900.0)
                .with_hurst(0.4)
                .build_mesh(seed);
            let loc = TriangleLocator::build(&mesh);
            let plane_spacing = (grid == 33).then(|| mesh.mean_edge_length() / 2.0);
            let msdn = Msdn::build(&mesh, &MsdnConfig { plane_spacing, ..Default::default() });
            Arc::new(Terrain { mesh, loc, msdn })
        }))
    }

    /// One drawn case: a pair on one terrain, walked up every MSDN level
    /// the way ranking does — the full bound, then the corridor bound of
    /// the next level from this level's witness chain.
    #[allow(clippy::too_many_arguments)]
    fn check_case(
        seed: u64,
        big: bool,
        from: (f64, f64),
        to: (f64, f64),
        reach: f64,
        with_roi: bool,
        width_edges: u32,
        slack: Slack,
    ) -> Result<(), String> {
        let t = terrain(seed, if big { 33 } else { 17 });
        let e = t.mesh.extent();
        let at = |(x, y): (f64, f64)| Point2::new(e.lo.x + x * e.width(), e.lo.y + y * e.height());
        // `reach` pulls `b` towards `a`, so zero- and one-layer pairs are
        // drawn beside terrain-wide ones.
        let a2 = at(from);
        let b2 = a2 + (at(to) - a2) * reach;
        let (a, b) = (t.loc.lift(&t.mesh, a2).unwrap(), t.loc.lift(&t.mesh, b2).unwrap());
        let roi = with_roi.then(|| Ellipse2::new(a2, b2, a.dist(b) * 1.3).mbr());
        let width = f64::from(width_edges) * t.mesh.mean_edge_length();
        let mut scratch = LbScratch::new();
        let mut prior: Vec<Aabb3> = Vec::new();
        for level in 0..t.msdn.num_levels() {
            let lines = t.msdn.lines_between(level, a, b);
            let ctx = |what: &str, m: String| format!("level {level} {what}: {m}");
            if !prior.is_empty() {
                agree(&lines, a, b, roi.as_ref(), Some((&prior, width)), slack, &mut scratch)
                    .map_err(|m| ctx("corridor", m))?;
            }
            let full = agree(&lines, a, b, roi.as_ref(), None, slack, &mut scratch)
                .map_err(|m| ctx("full", m))?;
            if !full.path_mbrs.is_empty() {
                agree(
                    &lines,
                    a,
                    b,
                    roi.as_ref(),
                    Some((&full.path_mbrs, width)),
                    slack,
                    &mut scratch,
                )
                .map_err(|m| ctx("own corridor", m))?;
                prior = full.path_mbrs;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The refactoring contract: field for field what the materialised
        /// network gives, under either queue policy, at every level (the
        /// last one all exact segments), either direction, with and without
        /// ROI and corridor, from zero layers to the whole terrain.
        #[test]
        fn in_place_equals_the_layered_reference(
            seed in 0u64..3, big in any::<bool>(),
            from in (0.03f64..0.97, 0.03f64..0.97), to in (0.03f64..0.97, 0.03f64..0.97),
            reach in 0.0f64..1.0, with_roi in any::<bool>(), width_edges in 0u32..4,
        ) {
            let r = check_case(seed, big, from, to, reach, with_roi, width_edges, SLACK);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }

        /// On drawn terrains the floors hold with no slack at all (real
        /// crossing points sit within rounding of their plane); what the
        /// slack is for is `floors_need_their_slack` below.
        #[test]
        fn zero_slack_also_agrees_on_generated_terrain(
            seed in 0u64..3, big in any::<bool>(),
            from in (0.03f64..0.97, 0.03f64..0.97), to in (0.03f64..0.97, 0.03f64..0.97),
            reach in 0.0f64..1.0, with_roi in any::<bool>(), width_edges in 0u32..4,
        ) {
            let r = check_case(seed, big, from, to, reach, with_roi, width_edges, NO_SLACK);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    /// Two x-planes ten apart, all segments exact. `s0` is nearest `a` but
    /// far from `t`; `s1` faces `t`. `plane_off` pushes the facing segments
    /// towards each other off their planes, `mbr_off` shrinks their stored
    /// MBRs away from each other — both inside the tolerances the crate
    /// itself accepts (`crossing` tests points to 1e-9 of the plane,
    /// `is_exact` corners to 1e-9). `s1` is placed so that its relaxation of
    /// `t` wins by half the resulting overshoot: a floor without slack
    /// vetoes it.
    fn knife_edge(plane_off: f64, mbr_off: f64) -> (Vec<SimplifiedLine>, Point3, Point3) {
        let seg = |x: f64, y0: f64, y1: f64, shrink: f64| {
            let seg = Segment3::new(Point3::new(x, y0, 0.0), Point3::new(x, y1, 0.0));
            let mut mbr = seg.mbr();
            mbr.lo.x += shrink;
            mbr.hi.x += shrink;
            SimplifiedSegment { seg, mbr }
        };
        let a = Point3::new(-5.0, 0.0, 0.0);
        let b = Point3::new(15.0, 5.5, 0.0);
        let s0 = seg(0.0, -1.0, 0.0, 0.0);
        let t = seg(10.0 - plane_off, 5.0, 6.0, mbr_off);
        // s0 settles first and labels t; s1 must then beat that label by
        // half of what the floors overshoot its weight by.
        let label = s0.min_dist_point(a) + s0.min_dist(&t);
        let overshoot = 2.0 * (plane_off + mbr_off);
        let to_s1 = label - (10.0 - 2.0 * plane_off) - overshoot / 2.0;
        let dx = 5.0 + plane_off;
        let y_lo = (to_s1 * to_s1 - dx * dx).sqrt();
        let s1 = seg(plane_off, y_lo, 5.0, -mbr_off);
        let line =
            |x: f64, segments| SimplifiedLine { plane: AxisPlane::new(Axis::X, x), segments };
        (vec![line(0.0, vec![s0, s1]), line(10.0, vec![t])], a, b)
    }

    /// The committed counter-example behind the slack in DESIGN §5: with
    /// none, each floor alone vetoes a relaxation that wins.
    #[test]
    fn floors_need_their_slack() {
        for (plane_off, mbr_off) in [(4e-10, 0.0), (0.0, 4e-10)] {
            let (owned, a, b) = knife_edge(plane_off, mbr_off);
            let lines: Vec<&SimplifiedLine> = owned.iter().collect();
            assert!(owned.iter().all(|l| l.segments.iter().all(|s| s.is_exact())));
            let mut scratch = LbScratch::new();
            let want = agree(&lines, a, b, None, None, SLACK, &mut scratch).unwrap();
            // The witness chain goes through s1, not s0.
            assert_eq!(want.path_mbrs[0], owned[0].segments[1].mbr);
            let got = layered_in_place(&lines, a, b, None, None, NO_SLACK, &mut scratch);
            assert!(
                mismatch(&got, &want).is_some(),
                "offsets ({plane_off}, {mbr_off}): zero slack was expected to lose the relaxation"
            );
        }
    }

    /// A scratch dirtied by a larger run gives the result of a fresh one.
    #[test]
    fn scratch_reuse_is_invisible() {
        let t = terrain(1, 17);
        let a = t.loc.lift(&t.mesh, Point2::new(15.0, 8.0)).unwrap();
        let b = t.loc.lift(&t.mesh, Point2::new(140.0, 152.0)).unwrap();
        let c = t.loc.lift(&t.mesh, Point2::new(60.0, 40.0)).unwrap();
        let mut scratch = LbScratch::new();
        let big = t.msdn.lines_between(4, a, b);
        let _ = lower_bound_with(&big, a, b, None, None, &mut scratch);
        let small = t.msdn.lines_between(1, c, a);
        let reused = lower_bound_with(&small, c, a, None, None, &mut scratch);
        assert_eq!(mismatch(&reused, &lower_bound(&small, c, a, None, None)), None);
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

    /// Ground truth on every path through the kernel: at each of the five
    /// levels, the full, ROI-restricted and corridor-after-full bounds
    /// against the exact geodesic.
    #[test]
    fn lower_bound_brackets_surface_distance() {
        let t = terrain(7, 17);
        let geo = ExactGeodesic::new(&t.mesh);
        let width = t.mesh.mean_edge_length() * 2.0;
        let pairs = [
            (Point2::new(22.0, 11.0), Point2::new(133.0, 148.0)),
            (Point2::new(141.0, 35.0), Point2::new(19.0, 88.0)),
        ];
        for (a2, b2) in pairs {
            let a = t.loc.lift(&t.mesh, a2).unwrap();
            let b = t.loc.lift(&t.mesh, b2).unwrap();
            let ds = geo.distance(
                MeshPoint::Interior { tri: t.loc.locate(&t.mesh, a2).unwrap(), pos: a },
                MeshPoint::Interior { tri: t.loc.locate(&t.mesh, b2).unwrap(), pos: b },
            );
            let roi = Ellipse2::new(a2, b2, ds * 1.1).mbr();
            let mut prior: Vec<Aabb3> = Vec::new();
            for level in 0..t.msdn.num_levels() {
                let lines = t.msdn.lines_between(level, a, b);
                let full = lower_bound(&lines, a, b, None, None);
                let bounded = lower_bound(&lines, a, b, Some(&roi), None);
                for (what, lb) in [("full", &full), ("roi", &bounded)] {
                    assert!(lb.value >= a.dist(b) - 1e-9, "level {level} {what}: below euclid");
                    assert!(
                        lb.value <= ds + 1e-6,
                        "level {level} {what}: lb {} exceeds exact {ds}",
                        lb.value
                    );
                }
                assert!(bounded.segments_used <= full.segments_used);
                // The corridor bound is the optimistic one: never below the
                // bound it stands in for, on the same lines.
                if !prior.is_empty() {
                    let dummy = lower_bound(&lines, a, b, Some(&roi), Some((&prior, width)));
                    assert!(dummy.value >= a.dist(b) - 1e-9, "level {level} dummy: below euclid");
                    assert!(
                        dummy.value >= bounded.value - 1e-9,
                        "level {level}: dummy {} below full {}",
                        dummy.value,
                        bounded.value
                    );
                    assert!(dummy.segments_used <= bounded.segments_used);
                }
                prior = bounded.path_mbrs;
            }
        }
    }

    #[test]
    fn finer_resolution_gives_tighter_bound() {
        let t = terrain(3, 17);
        let (mesh, loc) = (&t.mesh, &t.loc);
        let a = loc.lift(mesh, Point2::new(15.0, 8.0)).unwrap();
        let b = loc.lift(mesh, Point2::new(140.0, 152.0)).unwrap();
        let mut prev = 0.0;
        for res in [0.25, 0.5, 1.0] {
            let owned = lines_between(mesh, res, a.y + 1.0, b.y - 1.0, 12.0);
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
        let t = terrain(5, 17);
        let (mesh, loc) = (&t.mesh, &t.loc);
        let a = loc.lift(mesh, Point2::new(12.0, 9.0)).unwrap();
        let b = loc.lift(mesh, Point2::new(150.0, 150.0)).unwrap();
        let sparse = lines_between(mesh, 1.0, a.y + 1.0, b.y - 1.0, 48.0);
        let dense = lines_between(mesh, 1.0, a.y + 1.0, b.y - 1.0, 12.0);
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
        let t = terrain(2, 17);
        let (mesh, loc) = (&t.mesh, &t.loc);
        let a = loc.lift(mesh, Point2::new(10.0, 10.0)).unwrap();
        let b = loc.lift(mesh, Point2::new(12.0, 10.5)).unwrap();
        let lb = lower_bound(&[], a, b, None, None);
        assert_eq!(lb.value, a.dist(b));
        assert!(lb.path_mbrs.is_empty());
    }

    #[test]
    fn corridor_bound_dominates_full_bound() {
        let t = terrain(11, 17);
        let (mesh, loc) = (&t.mesh, &t.loc);
        let a = loc.lift(mesh, Point2::new(18.0, 12.0)).unwrap();
        let b = loc.lift(mesh, Point2::new(145.0, 149.0)).unwrap();
        let owned = lines_between(mesh, 0.5, a.y + 1.0, b.y - 1.0, 12.0);
        let refs: Vec<&SimplifiedLine> = owned.iter().collect();
        let full = lower_bound(&refs, a, b, None, None);
        assert!(!full.path_mbrs.is_empty());
        let dummy = lower_bound(&refs, a, b, None, Some((&full.path_mbrs, 5.0)));
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
        let t = terrain(13, 17);
        let (mesh, loc) = (&t.mesh, &t.loc);
        let geo = ExactGeodesic::new(mesh);
        let a2 = Point2::new(20.0, 15.0);
        let b2 = Point2::new(130.0, 140.0);
        let a = loc.lift(mesh, a2).unwrap();
        let b = loc.lift(mesh, b2).unwrap();
        let ds = geo.distance(
            MeshPoint::Interior { tri: loc.locate(mesh, a2).unwrap(), pos: a },
            MeshPoint::Interior { tri: loc.locate(mesh, b2).unwrap(), pos: b },
        );
        let owned = lines_between(mesh, 1.0, a.y + 1.0, b.y - 1.0, 12.0);
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
