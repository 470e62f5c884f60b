//! End-to-end tests of the networked query service: a real server on an
//! ephemeral port, real TCP clients, and the three contracts the serving
//! layer adds on top of the engine — bit-identical results under
//! concurrent execution, typed load shedding instead of hangs, graceful
//! drain that answers everything admitted, a panicking query that fails
//! alone, no reply waiting for a stranger's, and each reply's stall its
//! own — plus the serving
//! edge's own contract suite, run here against a `Server`.

mod common;

use common::ShutdownOnDrop;
use std::time::Duration;
use surface_knn::prelude::*;
use surface_knn::serve::edge::{check_edge_contract, Contract};
use surface_knn::serve::promtext;
use surface_knn::serve::protocol::{ErrorCode, Frame};
use surface_knn::serve::{Client, ServeConfig, Server};

fn test_world() -> (TerrainMesh, Mr3Config) {
    (TerrainConfig::bh().with_grid(21).build_mesh(42), Mr3Config::default())
}

/// Eight concurrent client threads, each firing queries the server runs
/// side by side; every response must match a direct `Engine::try_query`
/// call bit for bit.
#[test]
fn responses_bit_identical_to_direct_queries() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(7).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false; // serving regime: warm shared cut caches
    let engine = engine;

    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let stats = server.stats();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    const K: usize = 4;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = &engine;
                let scene = &scene;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let queries = scene.random_queries(PER_CLIENT, 1000 + c as u64);
                    for (i, &q) in queries.iter().enumerate() {
                        let req_id = ((c as u64) << 32) | i as u64;
                        client.send_query(req_id, q, K as u32, 0).unwrap();
                        let frame = client.recv().unwrap();
                        let Frame::Response(resp) = frame else {
                            panic!("expected a response, got {frame:?}");
                        };
                        assert_eq!(resp.req_id, req_id);
                        assert!(resp.degraded.is_none());
                        // The engine's determinism guarantee, measured
                        // across a network hop: identical ids and
                        // bit-identical bounds.
                        let direct = engine.try_query(q, K).unwrap();
                        assert_eq!(resp.neighbors.len(), direct.neighbors.len());
                        for (wire, local) in resp.neighbors.iter().zip(&direct.neighbors) {
                            assert_eq!(wire.id, local.id);
                            assert_eq!(wire.lb.to_bits(), local.range.lb.to_bits());
                            assert_eq!(wire.ub.to_bits(), local.range.ub.to_bits());
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        handle.shutdown();
        run.join().unwrap();
    });

    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(stats.completed.get(), total);
    assert_eq!(stats.shed.get(), 0);
    assert_eq!(stats.protocol_errors.get(), 0);
    assert_eq!(stats.batched_requests.get(), total);
}

/// With the admission queue bounded at three and a single worker,
/// pipelined requests must be shed with a typed `Overloaded` — and every
/// single request still gets exactly one reply (no hangs: the client
/// read timeout turns a dropped reply into a test failure). First, with
/// the worker held on a stalled query, the queue depth must read
/// exactly what is parked — in the `STATS` frame and on `/metrics` alike
/// — and 0 once drained: both are the lanes' own length, not a second
/// count kept beside them.
#[test]
fn full_queue_sheds_with_typed_overloaded() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(8).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    let engine = engine;

    const PARKED: u64 = 3;
    let serve_cfg = ServeConfig {
        queue_depth: PARKED as usize,
        exec_threads: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let metrics = server.metrics_addr().unwrap().to_string();
    let handle = server.handle();
    let stats = server.stats();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20;
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);

        // Every read batch of the first query (cold caches) stalls, so the
        // worker is held until the stall is lifted. Frames are
        // processed in order per connection: once STATS reads an empty
        // queue the first query is admitted *and* picked up.
        engine.pager().set_read_stall(Duration::from_millis(100));
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
        let depths = |client: &mut Client| {
            let entries = client.fetch_stats().unwrap();
            let stat = entries.iter().find(|(n, _)| n == "queue_depth").unwrap().1;
            let text = promtext::http_get(&metrics, "/metrics", Duration::from_secs(5)).unwrap();
            let samples = promtext::parse(&text).unwrap();
            let gauge = samples.iter().find(|s| s.name == "sknn_serve_queue_depth").unwrap().value;
            (stat, gauge as u64)
        };
        let warmup = scene.random_queries(1 + PARKED as usize, 1999);
        client.send_query(0, warmup[0], 3, 0).unwrap();
        while depths(&mut client).0 != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for (i, &q) in warmup.iter().enumerate().skip(1) {
            client.send_query(i as u64, q, 3, 0).unwrap();
        }
        let parked = depths(&mut client);
        engine.pager().set_read_stall(Duration::ZERO);
        for _ in 0..=PARKED {
            assert!(matches!(client.recv(), Ok(Frame::Response(_))));
        }
        assert_eq!(parked, (PARKED, PARKED), "(STATS key, gauge) with the worker held");
        assert_eq!(depths(&mut client), (0, 0), "(STATS key, gauge) after the drain");
        drop(client);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let scene = &scene;
                scope.spawn(move || {
                    let mut sender =
                        Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
                    let mut receiver = sender.try_clone().unwrap();
                    let queries = scene.random_queries(PER_CLIENT, 2000 + c as u64);
                    // Pipeline everything without waiting: the queue
                    // (three slots) cannot absorb this, so most must be shed.
                    for (i, &q) in queries.iter().enumerate() {
                        sender.send_query(((c as u64) << 32) | i as u64, q, 3, 0).unwrap();
                    }
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..PER_CLIENT {
                        match receiver.recv().expect("every request must get a reply") {
                            Frame::Response(_) => ok += 1,
                            Frame::Error(e) => {
                                assert_eq!(e.code, ErrorCode::Overloaded, "unexpected: {e:?}");
                                shed += 1;
                            }
                            other => panic!("unexpected frame {other:?}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        let outcomes = clients.into_iter().map(|c| c.join().unwrap()).collect();
        handle.shutdown();
        run.join().unwrap();
        outcomes
    });

    let (ok, shed): (u64, u64) = outcomes.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
    assert_eq!(ok + shed, (CLIENTS * PER_CLIENT) as u64);
    assert!(shed > 0, "a three-slot queue must shed under {CLIENTS} pipelining clients");
    assert!(ok > 0, "some requests must still be served");
    assert_eq!(stats.shed.get(), shed);
    assert_eq!(stats.completed.get(), ok + 1 + PARKED);
}

/// Requests admitted before shutdown are all answered; the drain never
/// drops them. The `STATS` round trip serves as the admission barrier:
/// frames are processed in order per connection, so once the stats reply
/// arrives, every earlier query on that connection has been admitted.
#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(9).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    let engine = engine;

    // A deep queue so requests are still queued (not yet executed) when
    // shutdown lands.
    let serve_cfg = ServeConfig { queue_depth: 64, ..ServeConfig::default() };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let stats = server.stats();

    const N: usize = 12;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect(addr).unwrap();
        let queries = scene.random_queries(N, 3000);
        for (i, &q) in queries.iter().enumerate() {
            client.send_query(i as u64, q, 3, 0).unwrap();
        }
        client.send(&Frame::StatsRequest).unwrap();

        // Collect replies until the stats frame: at that point all N
        // queries have passed admission. Early query replies may arrive
        // first; count them.
        let mut responses = 0usize;
        loop {
            match client.recv().unwrap() {
                Frame::Stats(_) => break,
                Frame::Response(_) => responses += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(stats.accepted.get(), N as u64, "barrier: all queries admitted");

        handle.shutdown();
        // Every admitted request must still be answered with a real
        // response — not an error, not silence.
        while responses < N {
            match client.recv().expect("drain must deliver all admitted replies") {
                Frame::Response(_) => responses += 1,
                other => panic!("drain produced {other:?}"),
            }
        }
        run.join().unwrap();
    });

    assert_eq!(stats.completed.get(), N as u64);
    assert_eq!(stats.shed.get(), 0);
    assert_eq!(stats.expired.get(), 0);

    // Dropping the server closes the listener; new connections must be
    // refused outright once the drain is over.
    drop(server);
    assert!(Client::connect(addr).is_err(), "listener should be closed after drain");
}

/// Version negotiation end to end: a peer speaking a dead dialect (a v1
/// header) gets exactly one typed `BadRequest` naming the version, then
/// the server hangs up — the peer is never left waiting.
#[test]
fn foreign_protocol_version_gets_a_typed_error_and_a_closed_socket() {
    use std::io::{Read, Write};
    use surface_knn::serve::protocol::read_frame;

    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(10).seed(7).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg);
    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let stats = server.stats();

    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut v1 = Frame::StatsRequest.encode();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        sock.write_all(&v1).unwrap();
        match read_frame(&mut sock).expect("a typed reply, not a hang") {
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.detail.contains("version 1"), "detail: {}", e.detail);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The server closed its end: EOF, not a read timeout.
        assert_eq!(sock.read(&mut [0u8; 1]).expect("clean close"), 0);
        handle.shutdown();
        run.join().unwrap();
    });
    assert_eq!(stats.protocol_errors.get(), 1);
}

/// The `QUERY` tile over the wire: a tile the step-2 circle crosses is
/// answered with no neighbours and the radius the full query reports; a
/// NaN bound is a typed `BadRequest` that never reaches the engine.
#[test]
fn a_query_tile_stops_the_engine_and_a_nan_bound_is_a_bad_request() {
    use surface_knn::geom::Rect2;
    use surface_knn::serve::QueryFrame;

    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(12).seed(7).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg);
    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let (addr, handle, stats) = (server.local_addr(), server.handle(), server.stats());
    let q = scene.random_query(3);
    let full = engine.try_query(q, 3).unwrap();
    let c = Point2::new(q.pos.x, q.pos.y);
    let half = Point2::new(full.radius / 2.0, full.radius / 2.0);
    let query = |req_id, within| {
        let (tri, x, y, z, k, deadline_ms, trace_id) = (q.tri, c.x, c.y, q.pos.z, 3, 0, 0);
        Frame::Query(QueryFrame { req_id, tri, x, y, z, k, deadline_ms, trace_id, within })
    };
    let nan = Rect2::new(Point2::new(f64::NAN, 0.0), Point2::new(1.0, 1.0));

    let replies = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect(addr).unwrap();
        let replies: Vec<Frame> = [(1, Rect2::new(c - half, c + half)), (2, nan)]
            .map(|(req_id, within)| {
                client.send(&query(req_id, within)).unwrap();
                client.recv().unwrap()
            })
            .into();
        handle.shutdown();
        run.join().unwrap();
        replies
    });
    match &replies[0] {
        Frame::Response(r) => {
            assert!(r.neighbors.is_empty(), "stopped after step 2");
            assert_eq!(r.radius.to_bits(), full.radius.to_bits());
        }
        other => panic!("expected a response, got {other:?}"),
    }
    match &replies[1] {
        Frame::Error(e) => assert_eq!((e.req_id, e.code), (2, ErrorCode::BadRequest), "{e:?}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(stats.accepted.get(), 1, "the NaN tile is refused before admission");
}

/// A query that panics inside the engine fails alone: its client gets one
/// typed `Internal` error, the worker survives, later queries on the
/// same connection answer bit-identically to an engine that never
/// faulted, and the drain still completes. The client's read timeout is
/// the watchdog — a dead worker shows up as a timed-out `recv`, and
/// the server is shut down before anything is asserted so a failure
/// cannot wedge the scope.
#[test]
fn panicking_query_gets_a_typed_error_and_the_server_keeps_serving() {
    use surface_knn::store::{FaultInjector, FaultKind};

    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(11).build();
    let mut clean = Mr3Engine::build(&mesh, &scene, &cfg);
    clean.cold_cache = false;
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    // The third physical read of the serving engine's life panics while
    // leading its single-flight — inside the first query's cut load.
    engine
        .pager()
        .set_fault_injector(Some(FaultInjector::script().fail_nth_read(3, FaultKind::Panic)));
    let engine = engine;

    let server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let stats = server.stats();

    const K: usize = 3;
    let queries = scene.random_queries(3, 4000);
    let replies: Result<Vec<Frame>, String> = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(20)).unwrap();
        let replies = queries
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                client.send_query(i as u64, q, K as u32, 0).map_err(|e| e.to_string())?;
                client.recv().map_err(|e| format!("query {i}: no reply before the watchdog: {e}"))
            })
            .collect();
        handle.shutdown();
        run.join().unwrap();
        replies
    });

    let replies = replies.unwrap();
    match &replies[0] {
        Frame::Error(e) => {
            assert_eq!((e.req_id, e.code), (0, ErrorCode::Internal), "{e:?}");
            assert!(e.detail.contains("injected fault"), "detail: {}", e.detail);
        }
        other => panic!("the panicking query must get an error frame, got {other:?}"),
    }
    for (i, frame) in replies.iter().enumerate().skip(1) {
        let Frame::Response(resp) = frame else { panic!("query {i} got {frame:?}") };
        assert!(resp.degraded.is_none());
        let direct = clean.try_query(queries[i], K).unwrap();
        assert_eq!(resp.radius.to_bits(), direct.radius.to_bits());
        assert_eq!(resp.neighbors.len(), direct.neighbors.len());
        for (wire, local) in resp.neighbors.iter().zip(&direct.neighbors) {
            assert_eq!(wire.id, local.id);
            assert_eq!(wire.lb.to_bits(), local.range.lb.to_bits());
            assert_eq!(wire.ub.to_bits(), local.range.ub.to_bits());
        }
    }
    assert_eq!((stats.panics.get(), stats.completed.get()), (1, 2));
    assert_eq!(stats.query_errors.get(), 0);
    // The panic unwound through a cut-cache load: nothing stays latched.
    let cuts = engine.cut_cache_snapshot().unwrap();
    assert_eq!((cuts.loading, cuts.in_flight), (0, 0), "{cuts:?}");
}

/// No reply waits for a stranger. One connection sends a `QUERY` that
/// stalls on every read batch of cold caches and then a `SEEDS` request, which
/// reads only the in-memory object snapshot: with two workers the `SEEDS`
/// reply overtakes the query's, well inside a single stall — it is not
/// held back until whatever was picked up around the same time returns.
#[test]
fn a_fast_reply_does_not_wait_for_a_stalled_stranger() {
    use std::time::Instant;
    use surface_knn::serve::protocol::SeedsRequestFrame;

    const STALL: Duration = Duration::from_millis(100);
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(14).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg); // cold cache: every query pays misses
    engine.pager().set_read_stall(STALL);
    let serve_cfg = ServeConfig { exec_threads: 2, ..ServeConfig::default() };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    let (first, waited, second) = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
        let q = scene.random_query(7000);
        let (x, y) = (q.pos.x, q.pos.y);
        let sent = Instant::now();
        client.send_query(1, q, 3, 0).unwrap();
        let seeds = SeedsRequestFrame { req_id: 2, trace_id: 0, x, y, k: 3, deadline_ms: 0 };
        client.send(&Frame::SeedsRequest(seeds)).unwrap();
        let first = client.recv();
        let waited = sent.elapsed();
        // Measured; now let the query finish without paying for every miss.
        engine.pager().set_read_stall(Duration::ZERO);
        let second = client.recv();
        handle.shutdown();
        run.join().unwrap();
        (first, waited, second)
    });
    assert!(matches!(&first, Ok(Frame::Seeds(s)) if s.req_id == 2), "first reply: {first:?}");
    assert!(matches!(&second, Ok(Frame::Response(r)) if r.req_id == 1), "then: {second:?}");
    assert!(waited < STALL / 2, "SEEDS took {waited:?} beside a query stalling {STALL:?} a miss");
}

/// Each response's `stall_us` is its own request's pager stall, read from
/// its worker thread's window. Four workers run cold queries side by side
/// under a 1 ms read stall, so their stalls overlap; the per-response
/// stalls still sum to no more than the pager's stall clock advanced over
/// the run. A stall clock differenced around each engine call would count
/// every overlapping stall once per request that saw it.
#[test]
fn concurrent_responses_report_only_their_own_stall() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 5;
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(7).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg); // cold cache: every query pays misses
    engine.pager().set_read_stall(Duration::from_millis(1));
    let serve_cfg = ServeConfig { exec_threads: 4, ..ServeConfig::default() };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    let stall_before_ns = engine.pager().stall_ns();
    let reported_us: u64 = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let scene = &scene;
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
                    let queries = scene.random_queries(PER_CLIENT, 2000 + c as u64);
                    let mut stall_us = 0u64;
                    for (i, &q) in queries.iter().enumerate() {
                        client.send_query(i as u64, q, 4, 0).unwrap();
                        let frame = client.recv().unwrap();
                        let Frame::Response(resp) = frame else {
                            panic!("expected a response, got {frame:?}");
                        };
                        stall_us += resp.timing.stall_us as u64;
                    }
                    stall_us
                })
            })
            .collect();
        let total = clients.into_iter().map(|c| c.join().unwrap()).sum();
        handle.shutdown();
        run.join().unwrap();
        total
    });
    let stalled_us = (engine.pager().stall_ns() - stall_before_ns) / 1_000;
    assert!(reported_us > 0, "cold queries stall");
    assert!(
        reported_us <= stalled_us,
        "responses report {reported_us} µs of stall; the pager stalled {stalled_us} µs"
    );
}

/// The edge contract suite (`serve::edge::check_edge_contract`) against
/// a shard server: one worker, held by a per-batch read stall on cold
/// caches.
#[test]
fn server_obeys_the_edge_contract() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(12).build();
    let engine = Mr3Engine::build(&mesh, &scene, &cfg); // cold cache: every query pays misses
    const PARKED: u64 = 3;
    let serve_cfg = ServeConfig {
        queue_depth: PARKED as usize,
        exec_threads: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![server.handle()]);
        check_edge_contract(&Contract {
            handle: server.handle(),
            metrics: server.metrics_addr().unwrap(),
            parked: PARKED,
            query: scene.random_query(5000),
            hold: &|on| {
                let stall = if on { Duration::from_millis(100) } else { Duration::ZERO };
                engine.pager().set_read_stall(stall);
            },
        });
        run.join().unwrap();
    });
}
