//! Microbenchmarks of the compute kernels under the ranking loop: the
//! Dijkstra priority queue (Dial buckets vs binary heap), multi-source
//! Dijkstra over the three graph shapes MR3 actually runs (DMTM front,
//! pathnet, corridor-restricted front — the last both over its own graph
//! and masked over the whole front's), a candidate's goal-directed run
//! masked to its prune ellipse, the whole-mesh pathnet constructor under a
//! region filter and one group's run to its members over the region's net
//! searched in place, the cut cache's unit-store
//! build and a cold unit load over one tile and over the whole terrain,
//! the whole-terrain front's derivation and CSR from resident units,
//! one cold ranking iteration's whole fetch on the benchmark's scene, a
//! cold fused line-cache load
//! of one group's X and Y bands, a ranking iteration's read plan with
//! every key resident, the SDN lower bound in the
//! three shapes its callers give it, the MSDN's layout on pages, the page
//! checksum every physical read verifies, the batched point–MBR distance
//! kernel behind R-tree descent, the R-tree bulk load behind every
//! object-store genesis and recovery, and one object-store move commit at
//! two store sizes.
//!
//! Runs under `cargo bench --bench hot_paths`. Beyond the human report (one
//! `bench <name> <ns> ns/iter` line per row), two extra modes back the
//! committed artifacts and CI:
//!
//! * `-- --out BENCH_kernels.json` writes every measurement as JSON
//!   (the committed `BENCH_kernels.json`).
//! * `-- --gate` exits nonzero when the bucket queue is more than 5%
//!   slower than the heap on the front shape — the CI regression gate
//!   that keeps the default queue policy honest.
//!
//! A positional argument filters benchmarks by substring. `--budget-ms N`
//! sets the per-benchmark measurement budget.

use sknn_core::config::Mr3Config;
use sknn_core::objects::ObjectStore;
use sknn_core::workload::SceneBuilder;
use sknn_core::Mr3Engine;
use sknn_geodesic::graph::{potential, Dijkstra, DijkstraScratch, Graph, QueuePolicy};
use sknn_geodesic::pathnet::{PathnetScratch, RegionNet};
use sknn_geodesic::{MeshPoint, Pathnet};
use sknn_geom::{Axis, Ellipse2, Point2, Rect2};
use sknn_multires::{build_dmtm, CutCache, CutGrid, FetchScratch, FrontGraph, TileSpan, UnitStore};
use sknn_sdn::network::{lower_bound, lower_bound_with, LbScratch};
use sknn_sdn::{LineBand, LineCutCache, Msdn, MsdnConfig, PagedMsdn};
use sknn_spatial::kernel::{min_dists_point, min_dists_point_sq, MAX_BATCH};
use sknn_spatial::RTree;
use sknn_store::{page_checksum, Pager, PAGE_SIZE};
use sknn_terrain::dem::TerrainConfig;
use sknn_terrain::locate::TriangleLocator;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark measurement: mean wall time per iteration.
struct Record {
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

struct Harness {
    budget: Duration,
    filter: Option<String>,
    records: Vec<Record>,
}

impl Harness {
    /// Warm up once, then iterate until the budget elapses.
    fn bench<O>(&mut self, name: &str, mut f: impl FnMut() -> O) {
        if let Some(fil) = &self.filter {
            if !name.contains(fil.as_str()) {
                return;
            }
        }
        black_box(f());
        let started = Instant::now();
        let mut iters: u64 = 0;
        while started.elapsed() < self.budget {
            black_box(f());
            iters += 1;
        }
        let iters = iters.max(1);
        let ns = started.elapsed().as_nanos() as f64 / iters as f64;
        println!("bench {name:<44} {ns:>14.0} ns/iter ({iters} iters)");
        self.records.push(Record { name: name.to_string(), ns_per_iter: ns, iters });
    }

    fn mean(&self, name: &str) -> Option<f64> {
        self.records.iter().find(|r| r.name == name).map(|r| r.ns_per_iter)
    }

    fn json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"hot_paths\",\n");
        s.push_str(&format!("  \"host_threads\": {},\n", sknn_exec::available_threads()));
        s.push_str("  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}{}\n",
                r.name,
                r.ns_per_iter,
                r.iters,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Deterministic multi-source Dijkstra driver: three spread sources, full
/// settle (no target cutoff), both queue policies share the scratch type.
fn run_shape(graph: &Graph, scratch: &mut DijkstraScratch) -> (usize, u64) {
    let n = graph.num_nodes() as u32;
    let sources = [(0u32, 0.0), (n / 3, 0.0), (2 * n / 3, 0.0)];
    let run = Dijkstra::run_multi_scratch(graph, &sources, None, scratch);
    (run.settled, run.queue.pushes)
}

/// Synthetic queue-stress graph: a seeded geometric lattice with random
/// weights and long-range chords, sized so queue traffic (push/pop/stale
/// churn) dominates over memory effects.
fn synthetic_graph(side: u32) -> Graph {
    let n = side * side;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    // Splitmix-style seeded generator; no external RNG dependency.
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    for y in 0..side {
        for x in 0..side {
            let v = y * side + x;
            if x + 1 < side {
                edges.push((v, v + 1, 1.0 + next()));
            }
            if y + 1 < side {
                edges.push((v, v + side, 1.0 + next()));
            }
            // Sparse chords create decrease-key traffic (stale pops).
            if v.is_multiple_of(7) && v + side + 1 < n {
                edges.push((v, v + side + 1, 1.5 + 2.0 * next()));
            }
        }
    }
    Graph::from_undirected(n as usize, &edges)
}

fn main() {
    let mut filter = None;
    let mut out: Option<String> = None;
    let mut gate = false;
    let mut budget_ms: u64 = 300;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bench" => {}
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--gate" => gate = true,
            "--budget-ms" => {
                budget_ms =
                    args.next().and_then(|v| v.parse().ok()).expect("--budget-ms takes an integer")
            }
            other if !other.starts_with('-') => filter = Some(other.to_string()),
            other => panic!("unknown flag {other}"),
        }
    }
    // The gate compares the two queue policies on the front shape; it
    // needs both measurements regardless of any filter.
    if gate {
        filter = None;
    }
    let mut h = Harness { budget: Duration::from_millis(budget_ms), filter, records: Vec::new() };

    // --- Queue push/pop on the synthetic stress lattice ------------------
    let synth = synthetic_graph(96);
    for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
        let mut scratch = DijkstraScratch::with_policy(policy);
        h.bench(&format!("queue/lattice96/{policy}"), || {
            black_box(run_shape(&synth, &mut scratch))
        });
    }

    // --- Multi-source Dijkstra over the MR3 graph shapes -----------------
    let mesh = TerrainConfig::bh().with_grid(33).build_mesh(2);
    let tree = build_dmtm(&mesh);
    let m50 = tree.step_for_fraction(0.5);
    let front = FrontGraph::extract(&tree, m50, None);
    let front_graph = Graph::from_undirected(front.num_nodes(), &front.edges);
    // Corridor shape: the same front restricted to a narrow ROI band, the
    // ranking stage's region-limited retrieval.
    let ext = mesh.extent();
    let band = Rect2::new(
        Point2::new(ext.lo.x, ext.lo.y + 0.40 * (ext.hi.y - ext.lo.y)),
        Point2::new(ext.hi.x, ext.lo.y + 0.60 * (ext.hi.y - ext.lo.y)),
    );
    let corridor = FrontGraph::extract(&tree, m50, Some(&band));
    let corridor_graph = Graph::from_undirected(corridor.num_nodes(), &corridor.edges);
    let pathnet = Pathnet::build(&mesh, 2, None);

    let shapes: [(&str, &Graph); 3] =
        [("front50", &front_graph), ("corridor", &corridor_graph), ("pathnet", pathnet.graph())];
    for (shape, graph) in shapes {
        for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
            let mut scratch = DijkstraScratch::with_policy(policy);
            h.bench(&format!("dijkstra/{shape}/{policy}"), || {
                black_box(run_shape(graph, &mut scratch))
            });
        }
    }

    // The corridor the way ranking runs it: no graph per restriction, a
    // masked run over the whole front's adjacency that enters only the
    // band's nodes, from the same three sources.
    let in_band: Vec<bool> =
        front.ids.iter().map(|id| corridor.ids.binary_search(id).is_ok()).collect();
    let nc = corridor.num_nodes();
    let band_sources: Vec<(u32, f64)> = [0, nc / 3, 2 * nc / 3]
        .iter()
        .map(|&c| (front.local_of(corridor.ids[c]).expect("band node is a front node"), 0.0))
        .collect();
    for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
        let mut scratch = DijkstraScratch::with_policy(policy);
        h.bench(&format!("dijkstra/masked_corridor/{policy}"), || {
            let run = Dijkstra::run_masked_scratch(
                &front_graph,
                &band_sources,
                &[],
                |v| in_band[v as usize],
                &mut scratch,
            );
            black_box((run.settled, run.queue.pushes))
        });
    }

    // A candidate's run the way ranking aims it: masked to the prune
    // ellipse of a bound 20 % above the pair's front distance, from the
    // query's embedding to the candidate's, keyed by the potential of each
    // node's representative towards the candidate (A*).
    let front_locator = TriangleLocator::build(&mesh);
    let on_surface = |fx: f64, fy: f64| {
        let p = Point2::new(ext.lo.x + fx * ext.width(), ext.lo.y + fy * ext.height());
        let tri = front_locator.locate(&mesh, p).expect("point inside the terrain");
        (tri, front_locator.lift(&mesh, p).expect("located"))
    };
    let ((qt, qp), (ct, cp)) = (on_surface(0.2, 0.3), on_surface(0.8, 0.7));
    let q_emb = front.embed(&tree, &mesh, qt, qp);
    let c_emb = front.embed(&tree, &mesh, ct, cp);
    let free = Dijkstra::run_masked_scratch(
        &front_graph,
        &q_emb,
        &c_emb,
        |_| true,
        &mut DijkstraScratch::new(),
    )
    .best_exit(&c_emb)
    .0;
    let ellipse = Ellipse2::new(qp.xy(), cp.xy(), 1.2 * free);
    let in_ellipse: Vec<bool> = front.rep_pos.iter().map(|p| ellipse.contains(p.xy())).collect();
    for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
        let mut scratch = DijkstraScratch::with_policy(policy);
        h.bench(&format!("dijkstra/goal_ellipse/{policy}"), || {
            let run = Dijkstra::run_masked_toward(
                &front_graph,
                &q_emb,
                &c_emb,
                |v| in_ellipse[v as usize],
                |v| potential(front.rep_pos[v as usize], cp),
                &mut scratch,
            );
            black_box((run.settled, run.queue.pushes))
        });
    }

    // --- Pathnet over a group region --------------------------------------
    // Ranking's shape: a 16 × 16-cell rectangle (512 facets) on the
    // benchmark's 129² terrain, where a group region holds ≈ 525. The
    // whole-mesh constructor under a facet filter; then one group's run
    // over the region's net searched in place, from the region's centre
    // to eight members around it, aimed at them and stopped at them.
    let terrain = TerrainConfig::bh().with_grid(129).build_mesh(2);
    let terrain_locator = TriangleLocator::build(&terrain);
    let tc = terrain.extent().center();
    let region =
        Rect2::new(Point2::new(tc.x - 79.0, tc.y - 79.0), Point2::new(tc.x + 79.0, tc.y + 79.0));
    h.bench("pathnet/build_filter", || {
        let filter = |t: u32| terrain.triangle(t).mbr_xy().intersects(&region);
        black_box(Pathnet::build(&terrain, 1, Some(&filter)).num_nodes())
    });
    let surface = |p: Point2| {
        let tri = terrain_locator.locate(&terrain, p).expect("point inside the terrain");
        MeshPoint::Interior { tri, pos: terrain_locator.lift(&terrain, p).expect("located") }
    };
    let query = surface(Point2::new(tc.x + 3.0, tc.y + 4.0));
    let members: Vec<MeshPoint> = (0..8)
        .map(|i| {
            let a = i as f64 * std::f64::consts::FRAC_PI_4 + 0.3;
            surface(Point2::new(tc.x + 60.0 * a.cos(), tc.y + 60.0 * a.sin()))
        })
        .collect();
    let group_net = RegionNet::new(&terrain, 1, region);
    let mut scratch = PathnetScratch::new();
    h.bench("pathnet/region_members", || {
        black_box(group_net.distances(query, &members, &mut scratch).settled)
    });

    // --- Cut-cache unit store ------------------------------------------------
    // On the 129² terrain with the engine's default lattice: `build_units`
    // writes every step of the s=1 schedule (its five front fractions and
    // the pathnet's step 0) onto a fresh pager, the setup cost an engine
    // build pays; `load_units` is one cold load at the 50 % step of the
    // units of one central tile, and of the whole extent (the first
    // iteration's region), with the cache's units and the pager window
    // emptied before every load.
    let cfg = Mr3Config::default();
    let tree = build_dmtm(&terrain);
    let grid = CutGrid::new(terrain.extent(), cfg.cut_cache.tiles, cfg.cut_cache.pad_tiles);
    let steps: Vec<u32> =
        cfg.schedule.dmtm.iter().map(|&frac| tree.step_for_fraction(frac)).collect();
    h.bench("cutcache/build_units/s1", || {
        UnitStore::build(&Pager::new(cfg.pool_pages), &tree, grid, &steps)
    });
    let unit_pager = Pager::new(cfg.pool_pages);
    let units = UnitStore::build(&unit_pager, &tree, grid, &steps);
    let cut_cache = CutCache::new(cfg.cut_cache.capacity_bytes, units);
    let step = tree.step_for_fraction(0.5);
    let centre = cfg.cut_cache.tiles / 2;
    let one_tile = TileSpan { x0: centre, x1: centre + 1, y0: centre, y1: centre + 1 };
    for (name, span) in [("tile", one_tile), ("full", grid.full_span())] {
        h.bench(&format!("cutcache/load_units/{name}"), || {
            cut_cache.clear();
            unit_pager.reset_stats();
            let mut load = cut_cache.claim(step, &[span]);
            unit_pager.read_into(&mut [&mut load]).expect("unfaulted");
            load.publish();
            load.finish(&unit_pager).expect("unfaulted")
        });
    }

    // --- The whole-terrain front -------------------------------------------
    // What the engine's table of whole-terrain fronts saves each query that
    // shares one: the front over the whole lattice at the step a radius
    // run's second iteration uses (the 25 % step), derived from resident
    // units with recycled buffers, and its CSR rebuilt in place, as a
    // ranking iteration derives a front.
    let second = tree.step_for_fraction(cfg.schedule.dmtm[1]);
    let mut load = cut_cache.claim(second, &[grid.full_span()]);
    unit_pager.read_into(&mut [&mut load]).expect("unfaulted");
    load.publish();
    let (whole_units, _) = load.finish(&unit_pager).expect("unfaulted").pop().expect("one span");
    let mut fetch = FetchScratch::default();
    let mut csr = Graph::default();
    h.bench("front/derive_whole", || {
        let front = FrontGraph::derive(&tree, second, &whole_units, &mut fetch);
        csr.rebuild_undirected(front.num_nodes(), &front.edges);
        let nodes = front.num_nodes();
        fetch.recycle(front);
        black_box((nodes, csr.num_nodes()))
    });

    // --- One cold iteration's whole fetch ----------------------------------
    // The benchmark's scene (this terrain, 400 objects) on a cold-cache engine
    // with no read stall: the 25 % iteration of a query's 5 nearest objects,
    // bounded by their pair estimates at the first step, as a radius run's
    // second iteration is. Caches and window are emptied before every call;
    // the plan and claims, the one batch (carrying the rest of the schedule,
    // every region being bounded), the decode and publish of every unit and
    // line, and each group's front derivation and CSR.
    let cold_scene = SceneBuilder::new(&terrain).object_count(400).seed(1).build();
    let cold_engine = Mr3Engine::build(&terrain, &cold_scene, &cfg);
    let cold_q = cold_scene.random_query(3);
    let cold_ubs: Vec<f64> = cold_engine
        .seeds2d(cold_q.pos.xy(), 5)
        .into_iter()
        .map(|(_, _, p)| cold_engine.estimate_pair(cold_q, p, 0, cfg.schedule.msdn_level(0)).ub)
        .collect();
    assert!(cold_ubs.iter().all(|ub| ub.is_finite()), "every candidate is bounded");
    h.bench("cutcache/cold_iteration", || {
        cold_engine.fetch_iteration(cold_q, 5, 1, &cold_ubs).expect("unfaulted")
    });

    // --- One warm pair estimate -------------------------------------------
    // `Mr3Engine::estimate_pair` at the 25 % step (MSDN level 1) on the same
    // scene, on a warm engine whose whole-terrain table and line cache a
    // first call filled: the query scope, the front from the table, the
    // band's lines from the line cache, the Dijkstra run over the front and
    // the lower bound. No page is read.
    let mut pair_engine = Mr3Engine::build(&terrain, &cold_scene, &cfg);
    pair_engine.cold_cache = false;
    let (pair_p, pair_level) = (cold_scene.random_query(4), cfg.schedule.msdn_level(1));
    pair_engine.estimate_pair(cold_q, pair_p, 1, pair_level);
    pair_engine.estimate_pair(cold_q, pair_p, 1, pair_level);
    assert_eq!(pair_engine.pager().stats().physical_reads, 0, "a warm pair estimate reads no page");
    h.bench("pair/estimate_warm", || pair_engine.estimate_pair(cold_q, pair_p, 1, pair_level).ub);

    // --- One bounded group's upper bounds over a view ----------------------
    // The same scene on a warm engine with every unit of every step
    // resident and the whole-terrain front of the 75 % step published:
    // the first I/O group of the 75 % iteration for the query's 5 nearest
    // objects, bounded by their pair estimates at the first step — its
    // plan and upper-bound phase over a view of the whole-terrain front.
    // No page is read.
    let mut view_engine = Mr3Engine::build(&terrain, &cold_scene, &cfg);
    view_engine.cold_cache = false;
    let fronts = cfg.schedule.dmtm.iter().filter(|&&f| f <= 1.0).count();
    for i in 0..fronts {
        view_engine.plan_iteration(cold_q, 5, i, &[]).expect("unfaulted");
    }
    let i75 = cfg.schedule.dmtm.iter().position(|&f| f == 0.75).expect("s=1 has a 75 % step");
    let bound = || view_engine.bound_first_group(cold_q, 5, i75, &cold_ubs).expect("unfaulted");
    // The first call derives the step's whole-terrain front; later ones view it.
    bound();
    assert!(view_engine.whole_front_steps().contains(&tree.step_for_fraction(0.75)));
    h.bench("front/view_bounded/view", bound);
    assert_eq!(view_engine.pager().stats().physical_reads, 0, "a warm group reads no page");

    // --- Line-cache band loads -----------------------------------------------
    // One cold load of a lower-bound round at the top MSDN level on the
    // same terrain and lattice: a central group's X and Y bands (members
    // on both sweep axes, 60 units around the centre), region and bands
    // snapped as ranking snaps them, both claimed and read in one batch,
    // then published and handed out, as an iteration does. The cache's
    // lines and the pager window are emptied before every load.
    let msdn_cfg = MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: cfg.plane_spacing };
    let line_pager = Pager::new(cfg.pool_pages);
    let paged_msdn = PagedMsdn::build(&line_pager, &Msdn::build(&terrain, &msdn_cfg));
    let line_cache = LineCutCache::new((cfg.cut_cache.capacity_bytes / 4).max(1));
    let group_roi = grid.snap(&region);
    let (xlo, xhi) = grid.snap_band(0, tc.x - 60.0, tc.x + 60.0);
    let (ylo, yhi) = grid.snap_band(1, tc.y - 60.0, tc.y + 60.0);
    let bands = [
        LineBand { axis: Axis::X, lo: xlo, hi: xhi, roi: Some(&group_roi) },
        LineBand { axis: Axis::Y, lo: ylo, hi: yhi, roi: Some(&group_roi) },
    ];
    let top_level = paged_msdn.num_levels() - 1;
    h.bench("linecache/load_bands/xy", || {
        line_cache.clear();
        line_pager.reset_stats();
        let mut load = line_cache.claim(&paged_msdn, top_level, &bands);
        line_pager.read_into(&mut [&mut load]).expect("unfaulted");
        load.publish();
        load.finish(&line_pager).expect("unfaulted")
    });

    // --- Iteration plan on a warm engine -------------------------------------
    // What a warm ranking iteration pays before its first bound: a default
    // engine on the 33² terrain with 30 objects, a query ranked against
    // its 10 nearest objects as fresh candidates at the schedule's 50 %
    // iteration — one group over the whole terrain, so every tile's unit
    // and both axes' lines at that iteration's MSDN level — with every key
    // already resident. The claim pass over both caches, the grouping and
    // the query scope around them; no page is read.
    let plan_scene = SceneBuilder::new(&mesh).object_count(30).seed(1).build();
    let mut plan_engine = Mr3Engine::build(&mesh, &plan_scene, &cfg);
    plan_engine.cold_cache = false;
    let plan_q = plan_scene.random_query(3);
    let half = cfg.schedule.dmtm.iter().position(|&f| f == 0.5).expect("s=1 has a 50 % step");
    plan_engine.plan_iteration(plan_q, 10, half, &[]).expect("unfaulted");
    plan_engine.plan_iteration(plan_q, 10, half, &[]).expect("unfaulted");
    assert_eq!(plan_engine.pager().stats().physical_reads, 0, "a warm plan reads no page");
    h.bench("ranking/plan_iteration/warm", || {
        plan_engine.plan_iteration(plan_q, 10, half, &[]).expect("unfaulted")
    });
    // The same plan with nothing resident: a cold-cache engine empties both
    // caches and opens an empty pager window before every call, and no read
    // stall is set. The claims, the one batch and the decode of the
    // iteration's own keys and of the look-ahead's: fresh candidates are
    // unbounded, so it carries the next step only — the 75 % step's units and
    // the next MSDN level's lines over the same group.
    let cold_plan = Mr3Engine::build(&mesh, &plan_scene, &cfg);
    cold_plan.plan_iteration(plan_q, 10, half, &[]).expect("unfaulted");
    assert!(cold_plan.pager().stats().physical_reads > 0, "a cold plan reads pages");
    h.bench("ranking/plan_iteration/cold", || {
        cold_plan.plan_iteration(plan_q, 10, half, &[]).expect("unfaulted")
    });
    // The same cold plan for candidates with finite upper bounds — each
    // candidate's pair estimate at the 25 % step, the bound the 50 %
    // iteration of a run plans over. Every region is a prune ellipse's
    // MBR, so the batch carries the rest of the schedule: the 75 %, 100 %
    // and pathnet steps' units and the later MSDN levels' lines over the
    // bounded groups.
    let quarter = half - 1;
    let ubs: Vec<f64> = cold_plan
        .seeds2d(plan_q.pos.xy(), 10)
        .into_iter()
        .map(|(_, _, p)| {
            cold_plan.estimate_pair(plan_q, p, quarter, cfg.schedule.msdn_level(quarter)).ub
        })
        .collect();
    assert!(ubs.iter().all(|ub| ub.is_finite()), "every candidate is bounded");
    cold_plan.plan_iteration(plan_q, 10, half, &ubs).expect("unfaulted");
    h.bench("ranking/plan_iteration/cold_bounded", || {
        cold_plan.plan_iteration(plan_q, 10, half, &ubs).expect("unfaulted")
    });

    // --- SDN lower bound ---------------------------------------------------
    // One pair a third of the terrain apart at the full-resolution level
    // (every segment exact, the dearest weights). `roi` and `roi_corridor`
    // are ranking's two calls per candidate — the separating lines under
    // the candidate's ellipse MBR, the second also under the corridor of
    // the previous level's witness chain, both on the engine's scratch;
    // `whole_line` is `PagedMsdn::lower_bound`'s call with no region, on a
    // fresh scratch.
    let msdn = Msdn::build(&mesh, &MsdnConfig::default());
    let locator = TriangleLocator::build(&mesh);
    let lift = |fx: f64, fy: f64| {
        let p = Point2::new(ext.lo.x + fx * ext.width(), ext.lo.y + fy * ext.height());
        locator.lift(&mesh, p).expect("point inside the terrain")
    };
    let (a, b) = (lift(0.30, 0.42), lift(0.64, 0.55));
    let top = msdn.num_levels() - 1;
    let lines = msdn.lines_between(top, a, b);
    let roi = Ellipse2::new(a.xy(), b.xy(), a.dist(b) * 1.2).mbr();
    let prior = lower_bound(&msdn.lines_between(top - 1, a, b), a, b, Some(&roi), None).path_mbrs;
    let width = mesh.mean_edge_length() * 2.0;
    let mut scratch = LbScratch::new();
    h.bench("sdn/lower_bound/roi", || {
        lower_bound_with(&lines, a, b, Some(&roi), None, &mut scratch).value
    });
    h.bench("sdn/lower_bound/roi_corridor", || {
        lower_bound_with(&lines, a, b, Some(&roi), Some((&prior, width)), &mut scratch).value
    });
    h.bench("sdn/lower_bound/whole_line", || lower_bound(&lines, a, b, None, None).value);
    // The MSDN laid out on pages, as every engine build does it: one heap
    // file per (axis, level), each page written (and checksummed) once.
    h.bench("sdn/paged_msdn_build", || {
        let pager = Pager::new(256);
        PagedMsdn::build(&pager, &msdn).num_levels()
    });

    // --- Page checksum -------------------------------------------------------
    // The sidecar every physical read verifies before admission, over one
    // 8 KiB page of pseudo-random bytes.
    let page: Vec<u8> = (0..PAGE_SIZE as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    h.bench("store/page_checksum_8k", || page_checksum(black_box(&page)));

    // --- Batched point–MBR mindist kernel --------------------------------
    let rects: Vec<Rect2> = (0..16)
        .map(|i| {
            let x = (i as f64) * 1.3 - 8.0;
            let y = (i as f64) * -0.7 + 5.0;
            Rect2::new(Point2::new(x, y), Point2::new(x + 2.0, y + 1.5))
        })
        .collect();
    let p = Point2::new(0.4, -1.2);
    h.bench("mbr/scalar_16", || {
        let mut acc = 0.0;
        for r in &rects {
            acc += r.min_dist_point(p);
        }
        acc
    });
    let mut lanes = [0.0f64; MAX_BATCH];
    h.bench("mbr/batch_16", || {
        let n = min_dists_point(p, &rects, &mut lanes);
        lanes[..n].iter().sum::<f64>()
    });
    h.bench("mbr/batch_sq_16", || {
        let n = min_dists_point_sq(p, &rects, &mut lanes);
        lanes[..n].iter().sum::<f64>()
    });

    // --- R-tree bulk load ---------------------------------------------------
    // STR packing of 2 000 object points, as `ObjectStore` genesis and
    // recovery replay do it.
    let scene = SceneBuilder::new(&mesh).object_count(2000).seed(1).build();
    let points: Vec<(Rect2, u32)> =
        scene.objects().iter().map(|o| (Rect2::from_point(o.point.pos.xy()), o.id)).collect();
    h.bench("rtree/bulk_load_2000", || RTree::bulk_load(points.clone()));

    // --- Object-store commit ------------------------------------------------
    // One durable move on a 1 000- and a 4 000-object store while a reader
    // holds the previous snapshot: the WAL append and sync, the copy of
    // what the move changes, the publish, and the reader's release. Each
    // object is moved once per `n` iterations, to one of 4 096 targets, so
    // no two live objects ever share a position.
    for n in [1000usize, 4000] {
        let scene = SceneBuilder::new(&mesh).object_count(n).seed(3).build();
        let store = ObjectStore::genesis(scene.objects(), 64, None);
        let targets = scene.random_queries(4096, 7);
        let mut i = 0usize;
        h.bench(&format!("objects/commit_move_{n}"), || {
            let held = store.snapshot();
            let id = (i * 7919 % n) as u32;
            let moved = store.move_object(id, targets[i % targets.len()]).expect("unfaulted");
            i += 1;
            (moved, held.live())
        });
    }

    if let Some(path) = out {
        std::fs::write(&path, h.json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# wrote {path}");
    }
    if gate {
        let heap = h.mean("dijkstra/front50/heap").expect("gate needs the heap front run");
        let bucket = h.mean("dijkstra/front50/bucket").expect("gate needs the bucket front run");
        let ratio = bucket / heap;
        eprintln!("# gate: front50 bucket/heap ratio {ratio:.3} (limit 1.05)");
        if ratio > 1.05 {
            eprintln!("# ERROR: bucket queue is {:.1}% slower than heap", (ratio - 1.0) * 100.0);
            std::process::exit(1);
        }
    }
}
