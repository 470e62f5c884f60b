//! End-to-end tests of the sharded deployment: real shard servers on
//! ephemeral ports, a real router fronting them, and the contract that
//! justifies the whole subsystem — the final top-k ids, `lb`/`ub`
//! intervals, and step-2 radius are **bit-identical** to a single engine
//! over the union terrain, for interior and boundary-straddling queries
//! alike, under concurrent clients, with speculative legs cancelled
//! mid-flight.

use std::time::Duration;
use surface_knn::prelude::*;
use surface_knn::serve::edge::{check_edge_contract, Contract};
use surface_knn::serve::promtext;
use surface_knn::serve::protocol::{ErrorCode, Frame};
use surface_knn::serve::{Client, ServeConfig, Server};
use surface_knn::shard::{Router, RouterConfig, ShardMap, ShardSpec};

fn test_world() -> (TerrainMesh, Mr3Config) {
    (TerrainConfig::bh().with_grid(21).build_mesh(42), Mr3Config::default())
}

/// Tile-restricted engines over the same mesh and scene: each shard
/// keeps exactly the objects whose plan point its tile owns (ids stay
/// global), the same partition rule the deployment CLI applies.
fn build_shard_engines<'s, 'm>(
    mesh: &'m TerrainMesh,
    scene: &'s Scene<'m>,
    cfg: &Mr3Config,
    probe: &ShardMap,
) -> Vec<Mr3Engine<'s, 'm>> {
    (0..probe.len())
        .map(|i| {
            let mut engine = Mr3Engine::build(mesh, scene, cfg);
            engine.cold_cache = false;
            for o in scene.objects() {
                let xy = Point2::new(o.point.pos.x, o.point.pos.y);
                if probe.home(xy) != Some(i) {
                    engine.objects().delete(o.id).expect("shard partition delete");
                }
            }
            engine
        })
        .collect()
}

fn probe_map(tiles: &[surface_knn::geom::Rect2]) -> ShardMap {
    ShardMap::new(tiles.iter().map(|&tile| ShardSpec { tile, addr: String::new() }).collect())
}

/// The headline guarantee: a 2-shard fleet answers a straddle-heavy
/// query set bit-identically to one engine over the union terrain, at
/// 1, 4, and 8 concurrent client threads. Both router paths must fire
/// (interior fast path and full straddle merge), every speculative leg
/// of an interior query must be cancelled, and no leg may fail.
#[test]
fn sharded_answers_bit_identical_to_union_engine() {
    const K: usize = 4;
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(28).seed(7).build();
    let mut union = Mr3Engine::build(&mesh, &scene, &cfg);
    union.cold_cache = false;
    let union = union;

    let tiles = ShardMap::vertical_slabs(mesh.extent(), 2);
    let probe = probe_map(&tiles);
    let engines = build_shard_engines(&mesh, &scene, &cfg, &probe);
    let servers: Vec<_> = engines
        .iter()
        .map(|e| Server::bind(e, "127.0.0.1:0", ServeConfig::default()).unwrap())
        .collect();
    let shard_handles: Vec<_> = servers.iter().map(|s| s.handle()).collect();
    let map = ShardMap::new(
        servers
            .iter()
            .zip(&tiles)
            .map(|(s, &tile)| ShardSpec { tile, addr: s.local_addr().to_string() })
            .collect(),
    );

    // Straddle-heavy query set: mostly points hugging the cut line (the
    // radius circle crosses into the neighbor tile), plus a few far from
    // it (interior fast path).
    let cut = tiles[0].hi.x;
    let mut pool = scene.random_queries(64, 5_000);
    pool.sort_by(|a, b| (a.pos.x - cut).abs().total_cmp(&(b.pos.x - cut).abs()));
    let queries: Vec<SurfacePoint> =
        pool[..18].iter().chain(&pool[pool.len() - 6..]).copied().collect();

    // One reference answer per query, and the expected routing split:
    // the router takes the fast path exactly when the union radius
    // circle stays inside the home tile (then and only then do the
    // shard's local seeds — hence radius, hence the interior test —
    // coincide with the union's).
    let direct: Vec<_> = queries.iter().map(|&q| union.query(q, K)).collect();
    let expected_interior = queries
        .iter()
        .zip(&direct)
        .filter(|(q, d)| {
            let xy = Point2::new(q.pos.x, q.pos.y);
            probe.interior(probe.home(xy).unwrap(), xy, d.radius)
        })
        .count();
    assert!(expected_interior > 0, "query set must exercise the interior fast path");
    assert!(expected_interior < queries.len(), "query set must exercise the straddle merge");

    let levels: [usize; 3] = [1, 4, 8];
    std::thread::scope(|outer| {
        let runs: Vec<_> = servers
            .iter()
            .map(|s| {
                outer.spawn(move || {
                    let _ = s.run();
                })
            })
            .collect();
        let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
        let addr = router.local_addr();
        let rhandle = router.handle();
        let stats = router.stats();
        std::thread::scope(|inner| {
            let rrun = inner.spawn(|| {
                let _ = router.run();
            });
            for (level, &threads) in levels.iter().enumerate() {
                std::thread::scope(|clients| {
                    for t in 0..threads {
                        let queries = &queries;
                        let direct = &direct;
                        clients.spawn(move || {
                            let mut client = Client::connect(addr).unwrap();
                            for (i, q) in
                                queries.iter().enumerate().filter(|&(i, _)| i % threads == t)
                            {
                                let req_id = ((level as u64) << 32) | ((t as u64) << 16) | i as u64;
                                client.send_query(req_id, *q, K as u32, 0).unwrap();
                                let frame = client.recv().unwrap();
                                let Frame::Response(resp) = frame else {
                                    panic!("query {i}: expected a response, got {frame:?}");
                                };
                                assert_eq!(resp.req_id, req_id);
                                let want = &direct[i];
                                assert_eq!(
                                    resp.neighbors.len(),
                                    want.neighbors.len(),
                                    "query {i}: neighbor count"
                                );
                                for (wire, local) in resp.neighbors.iter().zip(&want.neighbors) {
                                    assert_eq!(wire.id, local.id, "query {i}: id");
                                    assert_eq!(
                                        wire.lb.to_bits(),
                                        local.range.lb.to_bits(),
                                        "query {i}: lb of object {}",
                                        local.id
                                    );
                                    assert_eq!(
                                        wire.ub.to_bits(),
                                        local.range.ub.to_bits(),
                                        "query {i}: ub of object {}",
                                        local.id
                                    );
                                }
                                assert_eq!(
                                    resp.radius.to_bits(),
                                    want.radius.to_bits(),
                                    "query {i}: step-2 radius"
                                );
                            }
                        });
                    }
                });
            }
            rhandle.shutdown();
            rrun.join().unwrap();
        });
        for h in &shard_handles {
            h.shutdown();
        }
        for r in runs {
            r.join().unwrap();
        }

        let total = (queries.len() * levels.len()) as u64;
        assert_eq!(stats.routed.get(), total);
        assert_eq!(stats.completed.get(), total);
        assert_eq!(stats.leg_failures.get(), 0);
        assert_eq!(stats.interior.get(), (expected_interior * levels.len()) as u64);
        assert_eq!(stats.interior.get() + stats.fanned_out.get(), total);
        assert_eq!(stats.merged.get(), stats.fanned_out.get());
        // Every interior query withdraws both speculative SEEDS legs.
        assert_eq!(stats.cancelled_legs.get(), 2 * stats.interior.get());
    });
}

/// Cancellation stops a slow leg: shard 1 is made slow (cold cache plus
/// injected per-miss read latency) and wedged behind a long-running
/// direct query on the shard's single worker. An interior query homed on
/// shard 0 still fans a speculative SEEDS leg to shard 1 — which must be
/// withdrawn by CANCEL *while queued there* (shard 1's own `cancelled`
/// counter is the proof), the answer staying correct and untouched by
/// the slow shard.
#[test]
fn cancel_withdraws_a_slow_speculative_leg() {
    const K: usize = 2;
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(24).seed(11).build();
    let mut union = Mr3Engine::build(&mesh, &scene, &cfg);
    union.cold_cache = false;
    let union = union;

    let tiles = ShardMap::vertical_slabs(mesh.extent(), 2);
    let probe = probe_map(&tiles);
    let mut engines = build_shard_engines(&mesh, &scene, &cfg, &probe);
    // Shard 1 pays for every page again on every query, 60 ms per miss.
    engines[1].cold_cache = true;
    engines[1].pager().set_read_stall(Duration::from_millis(60));

    let qpool = scene.random_queries(40, 9_000);
    let blocker = *qpool
        .iter()
        .find(|q| probe.home(Point2::new(q.pos.x, q.pos.y)) == Some(1))
        .expect("a query homed on shard 1");
    let (interior_q, direct) = qpool
        .iter()
        .filter(|q| probe.home(Point2::new(q.pos.x, q.pos.y)) == Some(0))
        .find_map(|&q| {
            let d = union.query(q, K);
            let xy = Point2::new(q.pos.x, q.pos.y);
            (d.radius.is_finite() && probe.interior(0, xy, d.radius)).then_some((q, d))
        })
        .expect("an interior query homed on shard 0");

    let server0 = Server::bind(&engines[0], "127.0.0.1:0", ServeConfig::default()).unwrap();
    // A single worker on the slow shard: while the blocker query
    // executes, anything else queues in the admission lanes — where a
    // CANCEL can still withdraw it.
    let server1 = Server::bind(
        &engines[1],
        "127.0.0.1:0",
        ServeConfig { exec_threads: 1, ..ServeConfig::default() },
    )
    .unwrap();
    let handles = [server0.handle(), server1.handle()];
    let shard1_addr = server1.local_addr();
    let shard1_stats = server1.stats();
    let map = ShardMap::new(
        [&server0, &server1]
            .iter()
            .zip(&tiles)
            .map(|(s, &tile)| ShardSpec { tile, addr: s.local_addr().to_string() })
            .collect(),
    );

    std::thread::scope(|outer| {
        let run0 = outer.spawn(|| {
            let _ = server0.run();
        });
        let run1 = outer.spawn(|| {
            let _ = server1.run();
        });
        let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
        let addr = router.local_addr();
        let rhandle = router.handle();
        let stats = router.stats();
        std::thread::scope(|inner| {
            let rrun = inner.spawn(|| {
                let _ = router.run();
            });

            // Wedge shard 1: a direct slow query, with a STATS round
            // trip as the admission barrier (frames are processed in
            // order per connection).
            let mut slow = Client::connect(shard1_addr).unwrap();
            slow.send_query(900, blocker, K as u32, 0).unwrap();
            slow.send(&Frame::StatsRequest).unwrap();
            match slow.recv().unwrap() {
                Frame::Stats(_) => {}
                other => panic!("barrier produced {other:?}"),
            }
            // The single worker was parked on the lanes, so by now it
            // is inside the blocker's first 60 ms page stall.
            std::thread::sleep(Duration::from_millis(100));

            let mut client = Client::connect(addr).unwrap();
            client.send_query(1, interior_q, K as u32, 0).unwrap();
            let frame = client.recv().unwrap();
            let Frame::Response(resp) = frame else {
                panic!("expected a response, got {frame:?}");
            };
            assert_eq!(resp.req_id, 1);
            assert_eq!(resp.neighbors.len(), direct.neighbors.len());
            for (wire, local) in resp.neighbors.iter().zip(&direct.neighbors) {
                assert_eq!(wire.id, local.id);
                assert_eq!(wire.lb.to_bits(), local.range.lb.to_bits());
                assert_eq!(wire.ub.to_bits(), local.range.ub.to_bits());
            }

            // The wedged query itself is unharmed by the cancel.
            let frame = slow.recv().unwrap();
            let Frame::Response(b) = frame else {
                panic!("blocker should still complete, got {frame:?}");
            };
            assert_eq!(b.req_id, 900);

            rhandle.shutdown();
            rrun.join().unwrap();
        });
        for h in &handles {
            h.shutdown();
        }
        run0.join().unwrap();
        run1.join().unwrap();

        assert_eq!(stats.interior.get(), 1, "the probe query must take the fast path");
        assert_eq!(stats.cancelled_legs.get(), 2, "both speculative legs withdrawn");
        assert_eq!(stats.leg_failures.get(), 0);
    });
    // The semantic heart of the test: the SEEDS leg to the slow shard
    // was still queued behind the blocker when the CANCEL landed, so the
    // shard counted a *landed* cancel — the leg never executed.
    assert_eq!(shard1_stats.cancelled.get(), 1, "cancel must land on the queued SEEDS leg");
    assert_eq!(shard1_stats.completed.get(), 1, "only the blocker ran on shard 1");
}

/// EDF lane ordering under a full queue: with one router worker wedged
/// on a slow query, four deadlined queries fill the queue (depth 4) and
/// must drain earliest-deadline-first — not in arrival order — while a
/// fifth arrival is shed with a typed `Overloaded`.
#[test]
fn edf_orders_a_full_router_queue_and_sheds_overflow() {
    const K: usize = 2;
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(16).seed(13).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg); // cold cache: every query pays misses
    engine.pager().set_read_stall(Duration::from_millis(200));

    let tiles = ShardMap::vertical_slabs(mesh.extent(), 1);
    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let shandle = server.handle();
    let map =
        ShardMap::new(vec![ShardSpec { tile: tiles[0], addr: server.local_addr().to_string() }]);

    let queries = scene.random_queries(6, 17_000);

    std::thread::scope(|outer| {
        let srun = outer.spawn(|| {
            let _ = server.run();
        });
        let router = Router::bind(
            map,
            "127.0.0.1:0",
            RouterConfig {
                workers: 1,
                queue_depth: 4,
                starvation_floor: Duration::ZERO, // pure EDF
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let addr = router.local_addr();
        let rhandle = router.handle();
        let stats = router.stats();
        std::thread::scope(|inner| {
            let rrun = inner.spawn(|| {
                let _ = router.run();
            });

            // Wedge the single worker: its home leg is stuck behind the
            // shard's 200 ms-per-miss stall.
            let mut wedge = Client::connect(addr).unwrap();
            wedge.send_query(100, queries[0], K as u32, 0).unwrap();
            std::thread::sleep(Duration::from_millis(50));

            // Deadlines deliberately out of arrival order. Expected
            // drain: req 4 (10 s), req 2 (20 s), req 3 (35 s), req 1
            // (50 s). The fifth arrival finds the queue full.
            let mut client = Client::connect(addr).unwrap();
            for (req_id, deadline_ms) in [(1, 50_000), (2, 20_000), (3, 35_000), (4, 10_000)] {
                client.send_query(req_id, queries[req_id as usize], K as u32, deadline_ms).unwrap();
            }
            client.send_query(5, queries[5], K as u32, 40_000).unwrap();
            // Unblock the shard: remaining misses are free, the wedge
            // query completes, and the queue drains.
            engine.pager().set_read_stall(Duration::ZERO);

            let mut order = Vec::new();
            let mut shed_req = None;
            for _ in 0..5 {
                match client.recv().expect("every request must get a reply") {
                    Frame::Response(r) => {
                        assert_eq!(r.neighbors.len(), K);
                        order.push(r.req_id);
                    }
                    Frame::Error(e) => {
                        assert_eq!(e.code, ErrorCode::Overloaded, "unexpected: {e:?}");
                        assert!(shed_req.replace(e.req_id).is_none(), "only one shed");
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            assert_eq!(shed_req, Some(5), "the overflow arrival is the one shed");
            assert_eq!(order, vec![4, 2, 3, 1], "queue must drain earliest-deadline-first");

            let Frame::Response(w) = wedge.recv().unwrap() else {
                panic!("wedge query must still complete");
            };
            assert_eq!(w.req_id, 100);

            rhandle.shutdown();
            rrun.join().unwrap();
        });
        shandle.shutdown();
        srun.join().unwrap();

        assert_eq!(stats.routed.get(), 5, "shed query never routes");
        assert_eq!(stats.completed.get(), 5);
        assert_eq!(stats.shed.get(), 1);
        assert_eq!(stats.expired.get(), 0);
        assert_eq!(stats.leg_failures.get(), 0);
    });
}

/// Every family a router exports and every key of its `STATS` frame, as
/// of `f586151` plus the edge's `panics` row — the twin of the server's
/// pinned lists in `tests/telemetry.rs`.
const ROUTER_FAMILIES: [&str; 25] = [
    "sknn_shard_bound_violations_total",
    "sknn_shard_cancel_misses_total",
    "sknn_shard_cancelled_legs_total",
    "sknn_shard_cancelled_total",
    "sknn_shard_completed_total",
    "sknn_shard_connections_total",
    "sknn_shard_expired_total",
    "sknn_shard_fanned_out_total",
    "sknn_shard_fanout_us",
    "sknn_shard_interior_total",
    "sknn_shard_latency_us",
    "sknn_shard_leg_failures_total",
    "sknn_shard_map_size",
    "sknn_shard_merge_us",
    "sknn_shard_merged_total",
    "sknn_shard_objects",
    "sknn_shard_panics_total",
    "sknn_shard_protocol_errors_total",
    "sknn_shard_queue_depth",
    "sknn_shard_queue_us",
    "sknn_shard_rejected_shutdown_total",
    "sknn_shard_route_us",
    "sknn_shard_routed_total",
    "sknn_shard_shed_total",
    "sknn_shard_write_errors_total",
];
const ROUTER_STATS_KEYS: [&str; 24] = [
    "bound_violations",
    "cancel_misses",
    "cancelled",
    "cancelled_legs",
    "completed",
    "connections",
    "expired",
    "fanned_out",
    "interior",
    "latency_p50_us",
    "latency_p95_us",
    "latency_p99_us",
    "latency_us_n",
    "leg_failures",
    "merged",
    "objects",
    "panics",
    "protocol_errors",
    "queue_depth",
    "rejected_shutdown",
    "routed",
    "shards",
    "shed",
    "write_errors",
];

/// A one-shard fleet whose router has a single worker and a three-slot
/// queue: first the router's exported names are compared with the pinned
/// lists (every sample labelled `instance="router"`), then the edge
/// contract suite (`serve::edge::check_edge_contract`) runs against it,
/// the worker held by a per-miss read stall on the shard's cold pool.
#[test]
fn router_keeps_its_metric_names_and_obeys_the_edge_contract() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(16).seed(13).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg); // cold cache: every query pays misses
    let tiles = ShardMap::vertical_slabs(mesh.extent(), 1);
    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let map =
        ShardMap::new(vec![ShardSpec { tile: tiles[0], addr: server.local_addr().to_string() }]);
    const PARKED: u64 = 3;

    std::thread::scope(|outer| {
        let srun = outer.spawn(|| server.run());
        let router = Router::bind(
            map,
            "127.0.0.1:0",
            RouterConfig {
                workers: 1,
                queue_depth: PARKED as usize,
                metrics_addr: Some("127.0.0.1:0".to_string()),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let metrics = router.metrics_addr().unwrap();
        std::thread::scope(|inner| {
            let rrun = inner.spawn(|| router.run());

            let timeout = Duration::from_secs(5);
            let scrape = promtext::http_get(&metrics.to_string(), "/metrics", timeout).unwrap();
            let mut families: Vec<&str> = scrape
                .lines()
                .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
                .collect();
            families.sort_unstable();
            assert_eq!(families, ROUTER_FAMILIES, "exported families changed:\n{scrape}");
            for s in promtext::parse(&scrape).expect("parseable exposition") {
                assert_eq!(s.labels.get("instance").map(String::as_str), Some("router"), "{s:?}");
            }
            let entries = Client::connect(router.local_addr()).unwrap().fetch_stats().unwrap();
            let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            assert_eq!(keys, ROUTER_STATS_KEYS, "STATS keys changed");

            check_edge_contract(&Contract {
                handle: router.handle(),
                metrics,
                parked: PARKED,
                query: scene.random_query(17_100),
                hold: &|on| {
                    let stall = if on { Duration::from_millis(100) } else { Duration::ZERO };
                    engine.pager().set_read_stall(stall);
                },
            });
            rrun.join().unwrap();
        });
        server.handle().shutdown();
        srun.join().unwrap();
    });
}
