//! End-to-end tests of the sharded deployment: real shard servers on
//! ephemeral ports, a real router fronting them, and the contract that
//! justifies the whole subsystem — the final top-k ids, `lb`/`ub`
//! intervals, and step-2 radius are **bit-identical** to a single engine
//! over the union terrain, for interior and boundary-straddling queries
//! alike, under concurrent clients — with the home shard deciding which
//! is which, so no shard sees a leg its query does not need.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use surface_knn::geom::Rect2;
use surface_knn::prelude::*;
use surface_knn::serve::edge::{check_edge_contract, Contract};
use surface_knn::serve::promtext;
use surface_knn::serve::protocol::{ErrorCode, Frame};
use surface_knn::serve::{Client, ServeConfig, ServeStats, Server};
use surface_knn::shard::{Router, RouterConfig, RouterStats, ShardMap, ShardSpec};

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

fn probe_map(tiles: &[Rect2]) -> ShardMap {
    ShardMap::new(tiles.iter().map(|&tile| ShardSpec { tile, addr: String::new() }).collect())
}

/// Serves each engine as the shard of its tile behind one router, hands
/// the router's address to `drive`, then drains the fleet and returns
/// the router's and every shard's counters. A panic in `drive` is
/// re-raised after the drain, so a failed assertion cannot wedge the
/// fleet's threads.
fn with_fleet(
    engines: &[Mr3Engine<'_, '_>],
    tiles: &[Rect2],
    drive: impl FnOnce(SocketAddr),
) -> (Arc<RouterStats>, Vec<Arc<ServeStats>>) {
    let servers: Vec<_> = engines
        .iter()
        .map(|e| Server::bind(e, "127.0.0.1:0", ServeConfig::default()).unwrap())
        .collect();
    let map = ShardMap::new(
        servers
            .iter()
            .zip(tiles)
            .map(|(s, &tile)| ShardSpec { tile, addr: s.local_addr().to_string() })
            .collect(),
    );
    let (router_stats, driven) = std::thread::scope(|outer| {
        let runs: Vec<_> = servers.iter().map(|s| outer.spawn(|| s.run())).collect();
        // Binding reads every shard's STATS, so the shards run first.
        let router = Router::bind(map, "127.0.0.1:0", RouterConfig::default()).unwrap();
        let driven = std::thread::scope(|inner| {
            let rrun = inner.spawn(|| router.run());
            let addr = router.local_addr();
            let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(addr)));
            router.handle().shutdown();
            rrun.join().unwrap();
            driven
        });
        for s in &servers {
            s.handle().shutdown();
        }
        for r in runs {
            r.join().unwrap();
        }
        (router.stats(), driven)
    });
    if let Err(panic) = driven {
        std::panic::resume_unwind(panic);
    }
    (router_stats, servers.iter().map(|s| s.stats()).collect())
}

/// The headline guarantee: a 2-shard fleet answers a straddle-heavy
/// query set bit-identically to one engine over the union terrain, at
/// 1, 4, and 8 concurrent client threads. Both router paths must fire
/// (interior fast path and full straddle merge), no leg may fail, and
/// each shard must see exactly the legs the plan needs: the home `QUERY`,
/// and for a straddle `SEEDS` everywhere, `RADIUS` and `EXEC` at home and
/// `RANGE` where the radius reaches — nothing speculative.
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
    let (stats, shards) = with_fleet(&engines, &tiles, |addr| {
        for (level, &threads) in levels.iter().enumerate() {
            std::thread::scope(|clients| {
                for t in 0..threads {
                    let queries = &queries;
                    let direct = &direct;
                    clients.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for (i, q) in queries.iter().enumerate().filter(|&(i, _)| i % threads == t)
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
    });

    let total = (queries.len() * levels.len()) as u64;
    assert_eq!(stats.routed.get(), total);
    assert_eq!(stats.completed.get(), total);
    assert_eq!(stats.leg_failures.get(), 0);
    assert_eq!(stats.interior.get(), (expected_interior * levels.len()) as u64);
    assert_eq!(stats.interior.get() + stats.fanned_out.get(), total);
    assert_eq!(stats.merged.get(), stats.fanned_out.get());
    // Exactly the legs the plan needs, per shard: the home QUERY; for a
    // straddle, SEEDS on every shard, RADIUS and EXEC on the home, and
    // RANGE on each shard the union radius reaches (NaN ranges all).
    let mut legs = vec![0u64; tiles.len()];
    for (q, d) in queries.iter().zip(&direct) {
        let xy = Point2::new(q.pos.x, q.pos.y);
        let home = probe.home(xy).unwrap();
        legs[home] += 1;
        if !probe.interior(home, xy, d.radius) {
            legs.iter_mut().for_each(|n| *n += 1);
            legs[home] += 2;
            let radius = if d.radius.is_nan() { f64::INFINITY } else { d.radius };
            probe.overlapping(xy, radius).into_iter().for_each(|i| legs[i] += 1);
        }
    }
    let accepted: Vec<u64> = shards.iter().map(|s| s.accepted.get()).collect();
    let want: Vec<u64> = legs.iter().map(|n| n * levels.len() as u64).collect();
    assert_eq!(accepted, want, "legs per shard");
}

/// Sends `queries` one at a time and expects a response to each.
fn ask_alone(addr: SocketAddr, queries: &[SurfacePoint]) {
    let mut client = Client::connect(addr).unwrap();
    for (i, &q) in queries.iter().enumerate() {
        client.send_query(i as u64, q, 4, 0).unwrap();
        assert!(matches!(client.recv(), Ok(Frame::Response(_))), "query {i}");
    }
}

/// Each shard's step-4 count: the answers it ranked.
fn ranked(shards: &[Arc<ServeStats>]) -> Vec<u64> {
    shards.iter().map(|s| s.stage_rank_us.count()).collect()
}

/// The home shard decides: run alone, each of the six queries farthest
/// from the cut is answered by its home shard's one `QUERY` leg and
/// ranked once there; the other shard admits nothing.
#[test]
fn an_interior_query_leaves_the_other_shard_idle() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(28).seed(7).build();
    let tiles = ShardMap::vertical_slabs(mesh.extent(), 2);
    let probe = probe_map(&tiles);
    let engines = build_shard_engines(&mesh, &scene, &cfg, &probe);
    let cut = tiles[0].hi.x;
    let mut pool = scene.random_queries(64, 5_000);
    pool.sort_by(|a, b| (a.pos.x - cut).abs().total_cmp(&(b.pos.x - cut).abs()));
    let far = &pool[pool.len() - 6..];

    let (stats, shards) = with_fleet(&engines, &tiles, |addr| ask_alone(addr, far));
    assert_eq!(stats.interior.get(), 6, "every far query is interior");
    let mut homed = vec![0u64; tiles.len()];
    far.iter().for_each(|q| homed[probe.home(Point2::new(q.pos.x, q.pos.y)).unwrap()] += 1);
    let accepted: Vec<u64> = shards.iter().map(|s| s.accepted.get()).collect();
    assert_eq!(accepted, homed, "a non-home shard admits no leg of an interior query");
    assert_eq!(ranked(&shards), homed);
}

/// A query hugging the cut stops on its home shard after step 2, so the
/// home ranks it once, in its `EXEC` leg: a shard's step-4 count is its
/// interior answers plus its `EXEC` legs.
#[test]
fn a_straddle_is_ranked_once_on_its_home() {
    const K: usize = 4;
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(28).seed(7).build();
    let tiles = ShardMap::vertical_slabs(mesh.extent(), 2);
    let probe = probe_map(&tiles);
    let engines = build_shard_engines(&mesh, &scene, &cfg, &probe);
    let cut = tiles[0].hi.x;
    let near = *scene
        .random_queries(64, 5_000)
        .iter()
        .min_by(|a, b| (a.pos.x - cut).abs().total_cmp(&(b.pos.x - cut).abs()))
        .unwrap();
    let xy = Point2::new(near.pos.x, near.pos.y);
    let home = probe.home(xy).unwrap();
    let union = Mr3Engine::build(&mesh, &scene, &cfg);
    assert!(!probe.interior(home, xy, union.query(near, K).radius), "must straddle");

    let (stats, shards) = with_fleet(&engines, &tiles, |addr| ask_alone(addr, &[near]));
    assert_eq!((stats.fanned_out.get(), stats.merged.get()), (1, 1));
    let mut exec = vec![0u64; tiles.len()];
    exec[home] = 1;
    assert_eq!(ranked(&shards), exec, "the stopped QUERY ranks nothing; EXEC ranks once");
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
/// of `f586151` plus the edge's `panics` row, less the edge's two `CANCEL`
/// rows — the twin of the server's pinned lists in `tests/telemetry.rs`.
const ROUTER_FAMILIES: [&str; 23] = [
    "sknn_shard_bound_violations_total",
    "sknn_shard_cancelled_legs_total",
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
const ROUTER_STATS_KEYS: [&str; 22] = [
    "bound_violations",
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
