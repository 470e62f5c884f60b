//! Property-based tests of the core invariants from DESIGN.md §5, run
//! across crates with shared fixtures.

use proptest::prelude::*;
use std::sync::OnceLock;
use surface_knn::core::config::Mr3Config;
use surface_knn::core::mr3::Mr3Engine;
use surface_knn::core::objects::ObjectStore;
use surface_knn::core::workload::{Scene, SceneBuilder, SurfacePoint};
use surface_knn::geodesic::ExactGeodesic;
use surface_knn::geom::{Axis, AxisPlane, Point2};
use surface_knn::multires::{build_dmtm, DmtmTree};
use surface_knn::sdn::crossing::CrossingLine;
use surface_knn::sdn::simplify_line;
use surface_knn::terrain::locate::TriangleLocator;
use surface_knn::terrain::mesh::TerrainMesh;
use surface_knn::terrain::TerrainConfig;

struct Fixture {
    mesh: TerrainMesh,
    locator: TriangleLocator,
    tree: DmtmTree,
    cfg: Mr3Config,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(4242);
        let locator = TriangleLocator::build(&mesh);
        let tree = build_dmtm(&mesh);
        Fixture { mesh, locator, tree, cfg: Mr3Config::default() }
    })
}

/// An engine over the fixture's mesh, for the ops that need its paged
/// structures.
fn engine() -> &'static Mr3Engine<'static, 'static> {
    static SCENE: OnceLock<Scene<'static>> = OnceLock::new();
    static ENGINE: OnceLock<Mr3Engine<'static, 'static>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let f = fixture();
        let scene =
            SCENE.get_or_init(|| SceneBuilder::new(&f.mesh).object_count(1).seed(1).build());
        Mr3Engine::build(&f.mesh, scene, &f.cfg)
    })
}

fn exact() -> &'static ExactGeodesic<'static> {
    static GEO: OnceLock<ExactGeodesic<'static>> = OnceLock::new();
    GEO.get_or_init(|| ExactGeodesic::new(&fixture().mesh))
}

fn surface_point(f: &Fixture, x: f64, y: f64) -> SurfacePoint {
    let e = f.mesh.extent();
    let p = Point2::new(e.lo.x + x * e.width().max(1e-9), e.lo.y + y * e.height().max(1e-9));
    let tri = f.locator.locate(&f.mesh, p).unwrap();
    let pos = f.mesh.triangle(tri).lift_xy(p).unwrap();
    SurfacePoint { tri, pos }
}

/// Invariant 1 at the ranking call site: every neighbour `try_query`
/// returns carries `lb <= dS` against the exact geodesic engine — and the
/// SDN, not only the Euclidean seed, set some of those lower bounds, so
/// `lb_phase`'s calls into the kernel are what is being checked.
#[test]
fn ranked_lower_bounds_stay_below_the_exact_geodesic() {
    let f = fixture();
    let scene = SceneBuilder::new(&f.mesh).object_count(30).seed(9).build();
    let engine = Mr3Engine::build(&f.mesh, &scene, &f.cfg);
    let mut above_euclid = 0;
    for qseed in [3u64, 14, 15, 92, 65] {
        let q = scene.random_query(qseed);
        let res = engine.try_query(q, 5).expect("fault-free query");
        assert_eq!(res.neighbors.len(), 5);
        for n in &res.neighbors {
            let p = scene.object(n.id).point;
            let ds = exact().distance(q.to_mesh_point(), p.to_mesh_point());
            assert!(
                n.range.lb <= ds + 1e-6,
                "query {qseed} object {}: lb {} > exact {ds}",
                n.id,
                n.range.lb
            );
            above_euclid += usize::from(n.range.lb > q.pos.dist(p.pos) + 1e-9);
        }
    }
    assert!(above_euclid > 0, "no returned lower bound came from the SDN");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: at every resolution pair, `lb <= dS <= ub`.
    #[test]
    fn distance_ranges_bracket_exact(
        ax in 0.05f64..0.95, ay in 0.05f64..0.95,
        bx in 0.05f64..0.95, by in 0.05f64..0.95,
        level in 0usize..5,
        dmtm_idx in 0usize..6,
    ) {
        let f = fixture();
        let a = surface_point(f, ax, ay);
        let b = surface_point(f, bx, by);
        prop_assume!(a.pos.dist(b.pos) > 1.0);
        let ds = exact().distance(a.to_mesh_point(), b.to_mesh_point());
        // `dmtm_idx` indexes the default s=1 schedule: 0.5 % … 200 %.
        let range = engine().estimate_pair(a, b, dmtm_idx, level);
        prop_assert!(range.lb <= ds + 1e-6, "lb {} > exact {}", range.lb, ds);
        if range.ub.is_finite() {
            prop_assert!(range.ub >= ds - 1e-6, "ub {} < exact {}", range.ub, ds);
        }
    }

    /// Invariant 3: every original segment's MBR is enclosed by some
    /// simplified segment's MBR, for arbitrary plane and resolution.
    #[test]
    fn sdn_simplification_enclosure(frac in 0.02f64..1.0, at in 0.05f64..0.95, x_axis in any::<bool>()) {
        let f = fixture();
        let e = f.mesh.extent();
        let axis = if x_axis { Axis::X } else { Axis::Y };
        let value = match axis {
            Axis::X => e.lo.x + at * e.width(),
            Axis::Y => e.lo.y + at * e.height(),
        };
        if let Some(line) = CrossingLine::build(&f.mesh, AxisPlane::new(axis, value)) {
            let simp = simplify_line(&line, frac);
            for w in line.points.windows(2) {
                let orig = surface_knn::geom::Aabb3::from_points([w[0], w[1]]);
                prop_assert!(
                    simp.segments.iter().any(|s| s.mbr.contains_box(&orig)),
                    "unenclosed original segment at resolution {frac}"
                );
            }
        }
    }

    /// Invariant 4: the front after any number of collapses partitions the
    /// leaves exactly once.
    #[test]
    fn dmtm_front_partitions_leaves(step_frac in 0.0f64..=1.0) {
        let f = fixture();
        let tree = &f.tree;
        let m = (tree.num_steps() as f64 * step_frac) as u32;
        let front = tree.front_at_step(m);
        prop_assert_eq!(front.len(), tree.front_size(m));
        let mut covered = vec![0u32; tree.num_leaves()];
        for id in front {
            for leaf in tree.descendant_leaves(id) {
                covered[leaf as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// Invariant 7: R-tree k-NN and range results match linear scans for
    /// arbitrary object sets and query points.
    #[test]
    fn rtree_matches_linear_scan(
        seed in 0u64..1000,
        n in 1usize..120,
        k in 1usize..15,
        qx in 0.0f64..1.0, qy in 0.0f64..1.0,
        radius in 0.0f64..0.6,
    ) {
        let f = fixture();
        let scene = SceneBuilder::new(&f.mesh).object_count(n).seed(seed).build();
        let e = f.mesh.extent();
        let q = Point2::new(e.lo.x + qx * e.width(), e.lo.y + qy * e.height());
        let knn = scene.dxy().knn(q, k);
        let mut dists: Vec<f64> = scene
            .objects()
            .iter()
            .map(|o| o.point.pos.xy().dist(q))
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = k.min(n);
        prop_assert_eq!(knn.len(), expect);
        if expect > 0 {
            prop_assert!((knn[expect - 1].0 - dists[expect - 1]).abs() < 1e-9);
        }
        // Range query.
        let r = radius * e.width();
        let got = scene.dxy().within_distance(q, r).len();
        let want = dists.iter().filter(|&&d| d <= r).count();
        prop_assert_eq!(got, want);
    }

    /// Surface lifting: interpolated elevations stay within the facet's
    /// vertex elevation range.
    #[test]
    fn lift_stays_within_facet_range(x in 0.01f64..0.99, y in 0.01f64..0.99) {
        let f = fixture();
        let sp = surface_point(f, x, y);
        let tri = f.mesh.triangle(sp.tri);
        let zmin = tri.a.z.min(tri.b.z).min(tri.c.z);
        let zmax = tri.a.z.max(tri.b.z).max(tri.c.z);
        prop_assert!(sp.pos.z >= zmin - 1e-9 && sp.pos.z <= zmax + 1e-9);
    }

    /// Dynamic objects (DESIGN §18): after every mutation batch the
    /// published snapshot keeps the structural invariants — parallel SoA
    /// arrays, exact parent MBRs containing every child, and an R-tree
    /// entry count that matches the live object table.
    #[test]
    fn dynamic_snapshots_keep_structural_invariants(
        seed in 0u64..300,
        batches in 1usize..5,
        per_batch in 1usize..12,
    ) {
        let f = fixture();
        let scene = SceneBuilder::new(&f.mesh).object_count(10).seed(seed).build();
        let store = ObjectStore::genesis(scene.objects(), 32, None);
        let mut i = 0u64;
        for _ in 0..batches {
            for _ in 0..per_batch {
                let live = store.snapshot().live_ids();
                let p = scene.random_query(seed ^ (0xD00D + i));
                match i % 4 {
                    1 if live.len() > 1 => {
                        store.move_object(live[(i as usize * 31) % live.len()], p).unwrap();
                    }
                    3 if live.len() > 1 => {
                        store.delete(live[(i as usize * 17) % live.len()]).unwrap();
                    }
                    _ => {
                        store.insert(p).unwrap();
                    }
                }
                i += 1;
            }
            let snap = store.snapshot();
            prop_assert!(snap.validate().is_ok(), "batch invariants: {:?}", snap.validate());
            prop_assert_eq!(snap.rtree().len(), snap.live());
        }
    }

    /// Exact geodesic sanity under random pairs: bracketed by Euclidean
    /// and network distances, and symmetric.
    #[test]
    fn exact_distance_bracketing(
        ax in 0.05f64..0.95, ay in 0.05f64..0.95,
        bx in 0.05f64..0.95, by in 0.05f64..0.95,
    ) {
        let f = fixture();
        let a = surface_point(f, ax, ay);
        let b = surface_point(f, bx, by);
        let ds = exact().distance(a.to_mesh_point(), b.to_mesh_point());
        let de = a.pos.dist(b.pos);
        prop_assert!(ds >= de - 1e-9, "exact {ds} below euclid {de}");
        let back = exact().distance(b.to_mesh_point(), a.to_mesh_point());
        prop_assert!((ds - back).abs() <= 1e-6 * (1.0 + ds), "{ds} vs {back}");
    }
}
