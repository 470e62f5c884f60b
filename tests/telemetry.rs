//! End-to-end tests of the request-scoped telemetry pipeline: wire-
//! propagated trace ids surviving concurrent execution, per-stage
//! clocks that partition (never exceed) the end-to-end latency, the
//! Prometheus metrics endpoint with its drain-aware health check, and
//! the slow-query capture dumped over the wire as JSONL.

mod common;

use common::ShutdownOnDrop;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use surface_knn::prelude::*;
use surface_knn::serve::promtext;
use surface_knn::serve::protocol::Frame;
use surface_knn::serve::{Client, ServeConfig, Server};

fn test_world() -> (TerrainMesh, Mr3Config) {
    (TerrainConfig::bh().with_grid(21).build_mesh(42), Mr3Config::default())
}

/// N concurrent clients send traced queries that the server executes
/// side by side. Every obs record drained afterwards must carry exactly
/// one of the N issued trace ids, every issued id must appear, and the
/// server-reported stage clocks must fit inside the client-observed
/// round trip.
#[test]
fn trace_ids_survive_batching_and_stages_partition_latency() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(30).seed(7).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    engine.enable_tracing();
    let engine = engine;

    let mut server = Server::bind(&engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    server.enable_tracing(65536);
    let addr = server.local_addr();
    let handle = server.handle();

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 4;
    const K: usize = 4;
    // trace id = 0x5000 + client*16 + i: distinct, nonzero, recognizable.
    let issued = |c: usize, i: usize| 0x5000u64 + (c as u64) * 16 + i as u64;

    let echoes: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new()); // (trace_id, e2e_us)
    let trace = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let scene = &scene;
                let echoes = &echoes;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let queries = scene.random_queries(PER_CLIENT, 4000 + c as u64);
                    for (i, &q) in queries.iter().enumerate() {
                        let tid = issued(c, i);
                        let sent = Instant::now();
                        client.send_query_traced(i as u64, q, K as u32, 0, tid).unwrap();
                        let frame = client.recv().unwrap();
                        let Frame::Response(resp) = frame else {
                            panic!("expected a response, got {frame:?}");
                        };
                        let e2e_us = sent.elapsed().as_micros() as u64;
                        // The response echoes the request's trace id.
                        assert_eq!(resp.trace_id, tid);
                        // Stage partition: the queue → linger → exec
                        // chain is measured on server-side monotonic
                        // clocks nested inside the client's round trip.
                        let t = &resp.timing;
                        let stage_sum = t.queue_us as u64 + t.linger_us as u64 + t.exec_us as u64;
                        assert!(
                            stage_sum <= e2e_us,
                            "stage sum {stage_sum}µs exceeds round trip {e2e_us}µs"
                        );
                        // The engine's four MR3 steps nest inside exec.
                        let engine_sum = t.knn2d_us as u64
                            + t.radius_us as u64
                            + t.range_us as u64
                            + t.rank_us as u64;
                        assert!(
                            engine_sum <= t.exec_us as u64,
                            "engine stages {engine_sum}µs exceed exec {}µs",
                            t.exec_us
                        );
                        echoes.lock().unwrap().push((tid, e2e_us));
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        handle.shutdown();
        run.join().unwrap()
    });

    let echoes = echoes.into_inner().unwrap();
    assert_eq!(echoes.len(), CLIENTS * PER_CLIENT);

    // Drained ring: every record is attributable to one of the issued
    // requests — engine spans, iteration events, I/O attribution, and
    // the serving layer's own serve_request spans alike.
    let trace = trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "ring too small for the test workload");
    let valid: std::collections::BTreeSet<u64> =
        (0..CLIENTS).flat_map(|c| (0..PER_CLIENT).map(move |i| issued(c, i))).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut attributed = 0usize;
    for rec in &trace.records {
        assert!(
            valid.contains(&rec.query),
            "record {:?} carries foreign id {:#x}",
            rec.name,
            rec.query
        );
        seen.insert(rec.query);
        attributed += 1;
    }
    assert!(attributed > 0, "traced run produced no attributable records");
    assert_eq!(seen, valid, "every issued trace id must appear in the drained ring");
}

/// With the capture threshold at zero every request lands in the slow
/// log; the `TRACE_DUMP` frame returns it as JSONL where each entry is
/// valid JSON carrying an issued trace id and its stage spans.
#[test]
fn slow_query_dump_returns_valid_jsonl_with_trace_ids() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(8).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    engine.cold_cache = false;
    let engine = engine;

    let serve_cfg = ServeConfig {
        slow_threshold: Duration::ZERO, // capture everything
        slow_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    const N: usize = 10;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect(addr).unwrap();
        let queries = scene.random_queries(N, 5000);
        for (i, &q) in queries.iter().enumerate() {
            client.send_query_traced(i as u64, q, 3, 0, 0x9000 + i as u64).unwrap();
            let frame = client.recv().unwrap();
            assert!(matches!(frame, Frame::Response(_)), "got {frame:?}");
        }

        let jsonl = client.fetch_trace_dump().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        let entries: Vec<&str> =
            lines.iter().copied().filter(|l| !l.starts_with("{\"evicted\"")).collect();
        assert_eq!(entries.len(), N, "threshold 0 must capture every request:\n{jsonl}");
        for line in &lines {
            surface_knn::obs::json::validate(line)
                .unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {line}"));
        }
        for (i, line) in entries.iter().enumerate() {
            assert!(line.contains("\"trace_id\":"), "entry {i} lacks a trace id: {line}");
            for key in ["\"queue_us\":", "\"exec_us\":", "\"outcome\":"] {
                assert!(line.contains(key), "entry {i} lacks {key}: {line}");
            }
        }
        // Entries are sorted slowest-first.
        let total_of = |line: &str| -> u64 {
            let tail = &line[line.find("\"total_us\":").expect("total_us present") + 11..];
            tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
        };
        for pair in entries.windows(2) {
            assert!(
                total_of(pair[0]) >= total_of(pair[1]),
                "dump not sorted slowest-first:\n{jsonl}"
            );
        }
        // The dump is a read, not a drain: a second fetch sees the same.
        assert_eq!(client.fetch_trace_dump().unwrap(), jsonl);

        handle.shutdown();
        run.join().unwrap();
    });
}

/// Every family a shard server exports and every key of its `STATS`
/// frame, as of `f586151` less the micro-batcher's rows (batch size,
/// linger, mean batch), which left with it, and the writeback rows
/// (flushed and dirty pages), which left with the paged object heap, the
/// two `CANCEL` rows (landed and missed), which left with the frame, and
/// the seven WAL families, which only ever described a server's
/// genesis commit (durability is library-only): the metric tables may be
/// reorganised, but not one name may change or go missing (dashboards,
/// `sknn top --check` and the router's `objects` lookup read them by
/// name).
const SERVER_FAMILIES: [&str; 47] = [
    "sknn_cutcache_cooling_entries",
    "sknn_cutcache_evictions_total",
    "sknn_cutcache_extractions_in_flight",
    "sknn_cutcache_failed_loads_total",
    "sknn_cutcache_hit_rate",
    "sknn_cutcache_hits_total",
    "sknn_cutcache_misses_total",
    "sknn_cutcache_resident_bytes",
    "sknn_cutcache_singleflight_waits_total",
    "sknn_cutcache_warm_entries",
    "sknn_dijkstra_pops_total",
    "sknn_dijkstra_pushes_total",
    "sknn_dijkstra_settled_total",
    "sknn_dijkstra_stale_pops_total",
    "sknn_objects_live",
    "sknn_serve_accepted_total",
    "sknn_serve_batched_requests_total",
    "sknn_serve_batches_total",
    "sknn_serve_completed_total",
    "sknn_serve_connections_total",
    "sknn_serve_degraded_total",
    "sknn_serve_exec_us",
    "sknn_serve_expired_total",
    "sknn_serve_latency_us",
    "sknn_serve_panics_total",
    "sknn_serve_protocol_errors_total",
    "sknn_serve_query_errors_total",
    "sknn_serve_queue_depth",
    "sknn_serve_queue_us",
    "sknn_serve_rejected_shutdown_total",
    "sknn_serve_shed_total",
    "sknn_serve_slow_captured_total",
    "sknn_serve_stage_knn2d_us",
    "sknn_serve_stage_radius_us",
    "sknn_serve_stage_range_us",
    "sknn_serve_stage_rank_us",
    "sknn_serve_stall_us",
    "sknn_serve_write_errors_total",
    "sknn_store_checksum_failures_total",
    "sknn_store_coalesced_misses_total",
    "sknn_store_fault_exhausted_total",
    "sknn_store_fault_retries_total",
    "sknn_store_faults_injected_total",
    "sknn_store_logical_reads_total",
    "sknn_store_physical_reads_total",
    "sknn_store_shard_contention_total",
    "sknn_store_stall_us_total",
];
const SERVER_STATS_KEYS: [&str; 26] = [
    "accepted",
    "batched_requests",
    "batches",
    "completed",
    "connections",
    "degraded",
    "dijkstra_pops",
    "dijkstra_pushes",
    "dijkstra_settled",
    "dijkstra_stale_pops",
    "expired",
    "latency_p50_us",
    "latency_p95_us",
    "latency_p99_us",
    "latency_us_n",
    "objects",
    "panics",
    "protocol_errors",
    "query_errors",
    "queue_depth",
    "queue_p50_us",
    "queue_us_n",
    "rejected_shutdown",
    "shed",
    "slow_captured",
    "write_errors",
];

/// The metrics endpoint serves parseable Prometheus text containing the
/// per-stage histograms and pool counters while queries run — exactly
/// the pinned families, each carrying the configured `instance` label —
/// and its `/healthz` flips to 503 the moment graceful drain begins,
/// while the admitted backlog is still being answered.
#[test]
fn metrics_endpoint_parses_and_healthz_flips_during_drain() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(9).build();
    let mut engine = Mr3Engine::build(&mesh, &scene, &cfg);
    // Cold cache + a per-miss stall: every query pays real pager stalls,
    // stretching the drain window so the 503 is reliably observable.
    engine.cold_cache = true;
    engine.pager().set_read_stall(Duration::from_millis(2));
    let engine = engine;

    let serve_cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        exec_threads: 1, // serialize the backlog: one slow query at a time
        instance: "shard7".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let metrics = server.metrics_addr().expect("metrics endpoint configured").to_string();
    let handle = server.handle();
    let stats = server.stats();
    let timeout = Duration::from_secs(5);

    const N: usize = 12;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect(addr).unwrap();

        // Healthy while serving.
        let (status, body) = promtext::http_get_status(&metrics, "/healthz", timeout).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("serving"), "{body}");

        // Run one query to completion so the stage histograms have data.
        let q0 = scene.random_query(6000);
        client.send_query(u64::MAX, q0, 3, 0).unwrap();
        assert!(matches!(client.recv().unwrap(), Frame::Response(_)));

        let scrape = promtext::http_get(&metrics, "/metrics", timeout).unwrap();
        let samples = promtext::parse(&scrape)
            .unwrap_or_else(|line| panic!("unparseable exposition at line {line}:\n{scrape}"));
        let mut families: Vec<&str> =
            scrape.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
        families.sort_unstable();
        assert_eq!(families, SERVER_FAMILIES, "exported families changed:\n{scrape}");
        for s in &samples {
            assert_eq!(s.labels.get("instance").map(String::as_str), Some("shard7"), "{s:?}");
        }
        // The completed query put a sample in the exec histogram, and the
        // stall clock advanced (cold pool + injected read stall).
        let exec_count = samples
            .iter()
            .find(|s| s.name == "sknn_serve_exec_us_count")
            .expect("exec histogram count");
        assert!(exec_count.value >= 1.0);
        let stall =
            samples.iter().find(|s| s.name == "sknn_store_stall_us_total").expect("stall counter");
        assert!(stall.value > 0.0, "2ms/miss stall on a cold pool must register");

        // Pipeline a backlog of slow queries, barrier on admission, then
        // begin the drain while they are still queued.
        let queries = scene.random_queries(N, 6001);
        for (i, &q) in queries.iter().enumerate() {
            client.send_query(i as u64, q, 3, 0).unwrap();
        }
        client.send(&Frame::StatsRequest).unwrap();
        let mut responses = 0usize;
        loop {
            match client.recv().unwrap() {
                Frame::Stats(s) => {
                    let mut keys: Vec<&str> = s.entries.iter().map(|(k, _)| k.as_str()).collect();
                    keys.sort_unstable();
                    assert_eq!(keys, SERVER_STATS_KEYS, "STATS keys changed");
                    break;
                }
                Frame::Response(_) => responses += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        handle.shutdown();

        // The health answer flips as soon as drain begins, while the
        // backlog (≥ 5ms of stall per query, serialized) is still live.
        let mut saw_draining = false;
        let poll_deadline = Instant::now() + timeout;
        while Instant::now() < poll_deadline {
            match promtext::http_get_status(&metrics, "/healthz", timeout) {
                Ok((503, body)) => {
                    assert!(body.contains("draining"), "{body}");
                    saw_draining = true;
                    break;
                }
                Ok((200, _)) => std::thread::sleep(Duration::from_millis(1)),
                Ok((status, body)) => panic!("healthz gave {status}: {body}"),
                // The endpoint shuts down only after the drain finishes;
                // a refused connection here means we missed the window.
                Err(e) => panic!("healthz unreachable during drain: {e}"),
            }
        }
        assert!(saw_draining, "healthz never reported draining");

        // Drain still answers everything admitted.
        while responses < N {
            match client.recv().expect("drain must answer the admitted backlog") {
                Frame::Response(_) => responses += 1,
                other => panic!("drain produced {other:?}"),
            }
        }
        run.join().unwrap();
    });

    assert_eq!(stats.completed.get(), (N + 1) as u64);
    // run() lingers through a short lame-duck grace, then stops the
    // metrics loop; the port must actually close shortly after.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        if promtext::http_get_status(&metrics, "/healthz", Duration::from_millis(200)).is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "metrics endpoint must shut down with the server");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The pager's `/metrics` families are Prometheus *counters*: every
/// request zeroes its worker thread's pager window, and so does every
/// query's scope, while the exported totals — the pager's process-wide
/// row — must keep rising through that. Five identical queries, a scrape
/// after each: the series never steps back, and ends at least five
/// queries' worth of logical reads above where it started.
#[test]
fn store_counters_survive_per_query_stat_resets() {
    let (mesh, cfg) = test_world();
    let scene = SceneBuilder::new(&mesh).object_count(20).seed(9).build();
    // Cold: a warm query finds every cut resident and reads no page at
    // all, while a cold one reads the same pages every time.
    let engine = Mr3Engine::build(&mesh, &scene, &cfg);
    assert!(engine.cold_cache);
    let q = scene.random_query(6100);
    // One query's cost, off the pager's own (per-query) window.
    engine.try_query(q, 3).unwrap();
    let per_query = engine.pager().stats().logical_reads;
    assert!(per_query > 0);

    let serve_cfg =
        ServeConfig { metrics_addr: Some("127.0.0.1:0".to_string()), ..ServeConfig::default() };
    let server = Server::bind(&engine, "127.0.0.1:0", serve_cfg).unwrap();
    let addr = server.local_addr();
    let metrics = server.metrics_addr().expect("metrics endpoint configured").to_string();
    let handle = server.handle();
    let scrape = || {
        let text = promtext::http_get(&metrics, "/metrics", Duration::from_secs(5)).unwrap();
        let samples = promtext::parse(&text).expect("parseable exposition");
        let of = |name: &str| samples.iter().find(|s| s.name == name).expect(name).value;
        (of("sknn_store_logical_reads_total"), of("sknn_store_physical_reads_total"))
    };

    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run());
        let _shutdown = ShutdownOnDrop(vec![handle.clone()]);
        let mut client = Client::connect(addr).unwrap();
        let first = scrape();
        let mut last = first;
        for i in 0..5 {
            client.send_query(i, q, 3, 0).unwrap();
            assert!(matches!(client.recv().unwrap(), Frame::Response(_)));
            let now = scrape();
            assert!(
                now.0 >= last.0 && now.1 >= last.1,
                "counter went backwards: {last:?} -> {now:?}"
            );
            last = now;
        }
        handle.shutdown();
        run.join().unwrap();
        assert!(
            last.0 >= first.0 + 5.0 * per_query as f64,
            "{first:?} -> {last:?} over five queries of {per_query} logical reads each"
        );
    });
}
