//! `sknn` — command-line front end for surface k-NN query processing.
//!
//! ```text
//! sknn info                            terrain + structure statistics
//! sknn knn --k 5 --queries 3           surface k-NN queries
//!          [--threads N]               run the batch on N threads
//!          [--stall-ms MS]             simulate MS ms of disk latency per
//!                                      read batch that reads a page new to
//!                                      its query (I/O-bound regime; prints
//!                                      the batch's coalesced misses)
//!          [--fault-profile S:R:K]     inject storage faults: seed S, rate
//!                                      R in [0,1], kind K (transient|
//!                                      permanent|bitflip|latency); prints
//!                                      fault/retry/degradation counters
//!          [--cache-stats true]        print the cut-cache summary line
//!                                      (hits, misses, hit rate, residency)
//! sknn trace --k 5 [--out t.jsonl]     traced k-NN: JSONL records + a
//!                                      human convergence summary
//! sknn range --radius 150              surface range query
//! sknn pair                            surface closest pair
//! sknn constrained --max-slope 1.5     obstacle-constrained k-NN
//! sknn export --out terrain.obj [--resolution 0.25]
//!                                      export terrain (or a DMTM front) as OBJ
//! sknn prepare --structures t.sknn     prebuild + save the DMTM/MSDN bundle
//! sknn serve --port 7070               networked query service (SIGINT/
//!          [--queue-depth 64]          SIGTERM drains gracefully).
//!          [--threads N]               --threads: requests executed
//!          [--max-seconds S]           concurrently. --fault-profile or the
//!          [--trace-out s.jsonl]       SKNN_FAULT_PROFILE env var injects
//!                                      storage faults into the serving
//!                                      engine; --trace-out FILE writes the
//!                                      final observability trace
//!          [--metrics-port P]          Prometheus /metrics + /healthz on
//!                                      port P (0 = ephemeral, printed)
//!          [--slow-ms 100]             slow-query capture threshold
//!          [--slow-log slow.jsonl]     write the slow-query log at drain
//!          [--stall-ms MS]             read stall per missing batch
//! sknn mutate --ops 200                dynamic-object write workload:
//!          [--k 5] [--queries 5]       seeded insert/move/delete mix through
//!          [--threads 1]               the WAL'd object store, write-
//!          [--fault-profile S:R:K]     throughput summary, then crash +
//!                                      recovery with bit-identical k-NN
//!                                      verification (K may be the write-side
//!                                      kind fsync)
//! sknn shard --shards 2 --port 7070    sharded deployment in one process:
//!          [--max-seconds S]           N engine shards on ephemeral ports
//!          [--metrics-port P]          (vertical terrain slabs, disjoint
//!          [--router-workers 8]        object ownership) fronted by a
//!          [--queue-depth 256]         router whose answers are bit-
//!          [--trace-out r.jsonl]       identical to one engine over the
//!                                      union terrain. --metrics-port
//!                                      serves the router's families;
//!                                      each shard gets an ephemeral
//!                                      metrics port (all printed, every
//!                                      family instance-labelled).
//!                                      SKNN_FAULT_PROFILE / --fault-
//!                                      profile injects storage faults
//!                                      into every shard engine.
//! sknn loadgen --addr HOST:PORT        drive a running server
//!          [--connections 8]           concurrent connections
//!          [--requests 50]             requests per connection
//!          [--qps 0]                   comma list of open-loop rates
//!                                      (0 = closed loop), one pass each
//!          [--k 5] [--deadline-ms 0]
//!          [--verify true]             check responses bit-for-bit
//!                                      against a local engine (terrain
//!                                      flags must match the server's)
//!          [--verify-data P:G:S:O]     build the verification oracle
//!                                      from an explicit dataset spec
//!                                      (preset:grid:seed:objects) — for
//!                                      verifying a sharded deployment
//!                                      against the single merged-terrain
//!                                      engine regardless of local flags
//! sknn top --metrics HOST:PORT         live server telemetry: polls the
//!          [--interval-ms 1000]        metrics endpoint and redraws qps,
//!          [--iterations 0]            queue depth, cut-cache gauges,
//!          [--check]                   stage quantiles and shed/expired/
//!                                      degraded rates
//!                                      (--check: scrape once, validate,
//!                                      exit nonzero on parse failure)
//!          [--endpoints a,b,c]         fleet mode: poll several metrics
//!                                      endpoints, render one row per
//!                                      instance plus a fleet-total line;
//!                                      --check additionally requires the
//!                                      sknn_shard_* families on the
//!                                      router endpoint
//!
//! common flags (accepted as `--name value` or `--name=value`):
//!   --preset bh|ep     terrain preset (default bh)
//!   --dem file.asc     load a real DEM (ESRI ASCII grid) instead of a preset
//!   --grid N           grid points per side (default 65)
//!   --seed N           master seed (default 42)
//!   --objects N        object count (default 50)
//!   --schedule s1|s2|s3  MR3 step schedule (default s1)
//!   --structures f.sknn  reuse a saved structure bundle for knn/range/pair
//! ```

use sknn_bench::Args;
use surface_knn::core::config::StepSchedule;
use surface_knn::core::constrained::{ConstrainedEngine, ObstacleMask};
use surface_knn::prelude::*;
use surface_knn::serve::promtext::{self, Sample};
use surface_knn::serve::{Handle, LoadgenConfig, ServeConfig, Server};
use surface_knn::shard::{Router, RouterConfig, ShardMap, ShardSpec};
use surface_knn::store::{FaultInjector, FaultProfile};
use surface_knn::terrain::stats::MeshStats;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().cloned().unwrap_or_else(|| "help".into());
    // The subcommand token is consumed above; everything after it is
    // `--name value` / `--name=value` flags (Args warns on strays and on
    // flags no branch reads).
    let args = Args::from_argv(argv.get(1..).unwrap_or(&[]).to_vec());

    // `top` is a pure network client — dispatch before the (expensive)
    // terrain build the query commands share.
    if cmd == "top" {
        run_top(&args);
        return;
    }

    let preset: String = args.get("preset", "bh".to_string());
    let grid: usize = args.get("grid", 65);
    let seed: u64 = args.get("seed", 42);
    let objects: usize = args.get("objects", 50);
    let dem_path: String = args.get("dem", String::new());
    let mesh = if dem_path.is_empty() {
        let cfg_base = match preset.as_str() {
            "ep" => TerrainConfig::ep(),
            _ => TerrainConfig::bh(),
        };
        cfg_base.with_grid(grid).build_mesh(seed)
    } else {
        let file = std::fs::File::open(&dem_path).expect("cannot open DEM file");
        let dem = surface_knn::terrain::parse_ascii_grid(std::io::BufReader::new(file))
            .expect("malformed ESRI ASCII grid");
        surface_knn::terrain::builder::triangulate(&dem)
    };
    let scene = SceneBuilder::new(&mesh).object_count(objects).seed(seed ^ 1).build();

    let schedule = match args.get::<String>("schedule", "s1".to_string()).as_str() {
        "s2" => StepSchedule::s2(),
        "s3" => StepSchedule::s3(),
        _ => StepSchedule::s1(),
    };
    let cfg = Mr3Config::default().with_schedule(schedule);

    // Optional prebuilt-structure bundle for the query commands.
    let structures_path: String = args.get("structures", String::new());
    let build_engine = |cfg: &Mr3Config| -> Mr3Engine {
        if structures_path.is_empty() {
            Mr3Engine::build(&mesh, &scene, cfg)
        } else {
            let s = surface_knn::core::persist::Structures::load(&structures_path)
                .expect("cannot load structure bundle");
            Mr3Engine::build_from(&mesh, &scene, cfg, s)
        }
    };

    match cmd.as_str() {
        "prepare" => {
            let out = if structures_path.is_empty() {
                "terrain.sknn".to_string()
            } else {
                structures_path.clone()
            };
            let s = surface_knn::core::persist::Structures::build(&mesh, &cfg);
            s.save(&out).expect("cannot save structure bundle");
            println!(
                "saved DMTM ({} nodes) + MSDN ({} levels) to {out}",
                s.tree.nodes().len(),
                s.msdn.num_levels()
            );
        }
        "info" => {
            let s = MeshStats::compute(&mesh);
            println!("preset        : {preset}");
            println!("vertices      : {}", s.num_vertices);
            println!("facets        : {}", s.num_triangles);
            println!("edges         : {}", s.num_edges);
            println!(
                "extent        : {:.0} m x {:.0} m",
                mesh.extent().width(),
                mesh.extent().height()
            );
            println!("relief        : {:.1} m", s.relief());
            println!("rugosity      : {:.3}", s.rugosity);
            println!("mean slope    : {:.3}", s.mean_slope);
            println!("mean edge len : {:.2} m", s.mean_edge_length);
            println!("objects       : {}", scene.num_objects());
        }
        "knn" => {
            let k: usize = args.get("k", 5);
            let nq: usize = args.get("queries", 1);
            let threads: usize = args.get("threads", 1);
            let cache_stats: bool = args.get("cache-stats", false);
            let engine = build_engine(&cfg);
            let faults = fault_injector(&args, false);
            let faults_on = faults.is_some();
            set_io_regime(&engine, args.get("stall-ms", 0.0), faults);
            let qs = scene.random_queries(nq, seed ^ 7);
            // Build the batch vector outside the timed region so 1-thread
            // and N-thread qps lines measure the same work.
            let batch: Vec<_> = qs.iter().map(|&q| (q, k)).collect();
            let conc_before = engine.pager().lifetime_concurrency_stats();
            let start = std::time::Instant::now();
            // try_query surfaces fault-budget exhaustion as a value (the
            // point of --fault-profile); fault-free it matches query. One
            // thread runs the plain loop.
            let results = engine.try_query_batch(&batch, threads);
            let elapsed = start.elapsed();
            let conc_after = engine.pager().lifetime_concurrency_stats();
            for (i, (q, outcome)) in qs.iter().zip(&results).enumerate() {
                println!("query {i} at ({:.0}, {:.0}):", q.pos.x, q.pos.y);
                let res = match outcome {
                    Ok(res) => res,
                    Err(e) => {
                        println!("  ERROR: {e}");
                        continue;
                    }
                };
                for (rank, n) in res.neighbors.iter().enumerate() {
                    println!(
                        "  {}. object {:>3}  surface [{:>8.1}, {:>8.1}] m",
                        rank + 1,
                        n.id,
                        n.range.lb,
                        n.range.ub
                    );
                }
                if let Some(d) = &res.degraded {
                    println!("  DEGRADED: {d}");
                }
                println!(
                    "  cost: {} pages, {:.1} ms cpu, {} iterations, {} candidates",
                    res.stats.pages,
                    res.stats.cpu.as_secs_f64() * 1e3,
                    res.stats.iterations,
                    res.stats.candidates
                );
            }
            println!(
                "batch: {} queries on {} thread{} in {:.2} s ({:.2} qps)",
                qs.len(),
                threads,
                if threads == 1 { "" } else { "s" },
                elapsed.as_secs_f64(),
                qs.len() as f64 / elapsed.as_secs_f64().max(1e-9)
            );
            // Where the ranking steps (2 + 4) spent their time, mean per
            // answered query.
            // Lower-bound time sums its jobs, a helper's included, so it
            // may overlap the fetch and upper-bound times.
            let answered: Vec<_> = results.iter().flatten().map(|r| &r.stats).collect();
            if !answered.is_empty() {
                let mean = |f: fn(&surface_knn::core::metrics::QueryStats) -> u64| {
                    answered.iter().map(|s| f(s)).sum::<u64>() / answered.len() as u64
                };
                let fronts = |f: fn(&surface_knn::core::metrics::QueryStats) -> usize| {
                    answered.iter().map(|s| f(s)).sum::<usize>() as f64 / answered.len() as f64
                };
                println!(
                    "ranking phases (mean us/query): cut fetch {} (read {}, decode {}, \
                     derive {}; fronts {:.1} shared, {:.1} derived, {:.1} whole-terrain), \
                     upper bounds {}, lower bounds {} ({} jobs by a helper), pathnet {}",
                    mean(|s| s.stages.rank_fetch_us),
                    mean(|s| s.stages.fetch_read_us),
                    mean(|s| s.stages.fetch_decode_us),
                    mean(|s| s.stages.fetch_derive_us),
                    fronts(|s| s.shared_fronts),
                    fronts(|s| s.derived_fronts),
                    fronts(|s| s.whole_fronts),
                    mean(|s| s.stages.rank_ub_us),
                    mean(|s| s.stages.rank_lb_us),
                    mean(|s| s.lb_jobs_shared as u64),
                    mean(|s| s.stages.rank_pathnet_us),
                );
            }
            if threads > 1 {
                // Every worker's events, as lifetime deltas over the batch.
                println!(
                    "pool concurrency (batch): {} coalesced misses",
                    conc_after.coalesced_misses - conc_before.coalesced_misses,
                );
            }
            if let (true, Some(s)) = (cache_stats, engine.cut_cache_snapshot()) {
                println!(
                    "cut cache: {} hits, {} misses ({:.1}% hit rate), \
                     {} single-flight waits, {} evictions, \
                     {} warm + {} cooling units resident ({} KiB)",
                    s.hits,
                    s.misses,
                    s.hit_rate() * 100.0,
                    s.singleflight_waits,
                    s.evictions,
                    s.warm_entries,
                    s.cooling_entries,
                    s.resident_bytes / 1024,
                );
            }
            if faults_on {
                let fs = engine.pager().fault_stats();
                let degraded = results
                    .iter()
                    .filter(|r| matches!(r, Ok(res) if res.degraded.is_some()))
                    .count();
                let failed = results.iter().filter(|r| r.is_err()).count();
                println!(
                    "faults: {} injected, {} retried, {} budgets exhausted, \
                     {} checksum failures, {} permanent; {} queries degraded, {} failed",
                    fs.injected,
                    fs.retries,
                    fs.exhausted,
                    fs.checksum_failures,
                    fs.permanent_failures,
                    degraded,
                    failed
                );
            }
        }
        "trace" => {
            // Traced k-NN. JSONL records go to stdout (pipe-friendly) and
            // the human-readable convergence summary to stderr; with
            // `--out FILE` the JSONL goes to the file and the summary to
            // stdout instead.
            use std::io::Write;
            let k: usize = args.get("k", 5);
            let nq: usize = args.get("queries", 1);
            let out_path: String = args.get("out", String::new());
            let mut engine = build_engine(&cfg);
            engine.enable_tracing();
            let mut file = if out_path.is_empty() {
                None
            } else {
                Some(std::io::BufWriter::new(
                    std::fs::File::create(&out_path).expect("cannot create --out file"),
                ))
            };
            for (i, q) in scene.random_queries(nq, seed ^ 7).into_iter().enumerate() {
                let res = engine.try_query(q, k).expect("sknn query failed");
                let trace = res.trace.expect("tracing enabled but no trace returned");
                let summary = format!(
                    "query {i} at ({:.0}, {:.0}) — k={k}, {} pages\n{}",
                    q.pos.x,
                    q.pos.y,
                    res.stats.pages,
                    trace.convergence_summary()
                );
                match file.as_mut() {
                    Some(f) => {
                        f.write_all(trace.to_jsonl().as_bytes()).expect("cannot write --out file");
                        println!("{summary}");
                    }
                    None => {
                        print!("{}", trace.to_jsonl());
                        eprintln!("{summary}");
                    }
                }
            }
            if let Some(mut f) = file {
                f.flush().expect("cannot write --out file");
                println!("wrote JSONL trace to {out_path}");
            }
        }
        "range" => {
            let radius: f64 = args.get("radius", 150.0);
            let engine = build_engine(&cfg);
            let q = scene.random_query(seed ^ 7);
            let res = engine.range_query(q, radius);
            println!(
                "objects within {radius} m surface distance of ({:.0}, {:.0}): {:?}",
                q.pos.x, q.pos.y, res.inside
            );
            if !res.undecided.is_empty() {
                println!("undecided at max resolution: {:?}", res.undecided);
            }
            println!(
                "cost: {} pages, {:.1} ms cpu",
                res.stats.pages,
                res.stats.cpu.as_secs_f64() * 1e3
            );
        }
        "pair" => {
            let engine = build_engine(&cfg);
            match engine.closest_pair() {
                Some(cp) => println!(
                    "closest pair: {} and {} at [{:.1}, {:.1}] m ({}; {} pairs considered, {:.1} ms cpu)",
                    cp.a,
                    cp.b,
                    cp.range.lb,
                    cp.range.ub,
                    if cp.proven { "proven" } else { "estimated" },
                    cp.stats.candidates,
                    cp.stats.cpu.as_secs_f64() * 1e3
                ),
                None => println!("need at least two objects"),
            }
        }
        "constrained" => {
            let k: usize = args.get("k", 5);
            let max_slope: f64 = args.get("max-slope", 1.5);
            let mask = ObstacleMask::from_slope_limit(&mesh, max_slope);
            println!(
                "slope limit {max_slope}: {:.1}% of facets blocked",
                mask.blocked_fraction() * 100.0
            );
            let engine = ConstrainedEngine::build(&mesh, &scene, mask);
            let q = scene.random_query(seed ^ 7);
            let res = engine.query(q, k);
            if res.neighbors.is_empty() {
                println!("no reachable objects from ({:.0}, {:.0})", q.pos.x, q.pos.y);
            }
            for (rank, n) in res.neighbors.iter().enumerate() {
                println!(
                    "  {}. object {:>3}  constrained surface [{:>8.1}, {:>8.1}] m",
                    rank + 1,
                    n.id,
                    n.range.lb,
                    n.range.ub
                );
            }
        }
        "export" => {
            use surface_knn::multires::{build_dmtm, FrontGraph};
            use surface_knn::terrain::obj;
            let out_path: String = args.get("out", "terrain.obj".to_string());
            let resolution: f64 = args.get("resolution", 1.0);
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(&out_path).expect("cannot create output file"),
            );
            if resolution >= 1.0 {
                obj::write_mesh_obj(&mesh, &mut file).unwrap();
                println!("wrote full mesh to {out_path}");
            } else {
                let tree = build_dmtm(&mesh);
                let m = tree.step_for_fraction(resolution);
                let fg = FrontGraph::extract(&tree, m, None);
                let edges: Vec<(u32, u32)> = fg.edges.iter().map(|&(a, b, _)| (a, b)).collect();
                obj::write_graph_obj(&fg.rep_pos, &edges, &mut file).unwrap();
                println!(
                    "wrote {:.1}% front ({} nodes, {} edges) to {out_path}",
                    resolution * 100.0,
                    fg.num_nodes(),
                    edges.len()
                );
            }
        }
        "serve" => {
            let host: String = args.get("host", "127.0.0.1".to_string());
            let port: u16 = args.get("port", 7070);
            let serve_cfg = ServeConfig {
                queue_depth: args.get("queue-depth", 64),
                exec_threads: match args.get("threads", 0usize) {
                    0 => surface_knn::exec::available_threads(),
                    n => n,
                },
                metrics_addr: args.get_opt::<u16>("metrics-port").map(|p| format!("{host}:{p}")),
                slow_threshold: Duration::from_secs_f64(args.get("slow-ms", 100.0) / 1e3),
                slow_capacity: args.get("slow-capacity", 256),
                ..ServeConfig::default()
            };
            let max_seconds: f64 = args.get("max-seconds", 0.0);
            let trace_out: String = args.get("trace-out", String::new());
            let slow_log_out: String = args.get("slow-log", String::new());

            let mut engine = build_engine(&cfg);
            // Serving is the warm regime: the cut caches persist across
            // requests instead of being wiped per query.
            engine.cold_cache = false;
            let faults = fault_injector(&args, true);
            if let Some((spec, _)) = &faults {
                eprintln!("# fault injection active: {spec}");
            }
            set_io_regime(&engine, args.get("stall-ms", 0.0), faults);

            let mut server = Server::bind(&engine, (host.as_str(), port), serve_cfg)
                .expect("cannot bind server address");
            if !trace_out.is_empty() {
                server.enable_tracing(4096);
            }
            let stats = server.stats();
            println!(
                "serving {} objects (grid {grid}, preset {preset}) on {}",
                scene.num_objects(),
                server.local_addr()
            );
            if let Some(addr) = server.metrics_addr() {
                println!("metrics on http://{addr}/metrics (health: /healthz)");
            }
            install_shutdown_watcher(server.handle(), max_seconds);
            let trace = server.run();
            println!("drained: {}", stats.summary());
            if !server.slow_log().is_empty() || !slow_log_out.is_empty() {
                let jsonl = server.slow_log().to_jsonl();
                if slow_log_out.is_empty() {
                    print!("slow-query log ({} entries):\n{jsonl}", server.slow_log().len());
                } else {
                    std::fs::write(&slow_log_out, &jsonl).expect("cannot write --slow-log");
                    println!(
                        "wrote {} slow-query entries to {slow_log_out}",
                        server.slow_log().len()
                    );
                }
            }
            if let Some(trace) = trace {
                std::fs::write(&trace_out, trace.to_jsonl()).expect("cannot write --trace-out");
                println!("wrote serve trace to {trace_out}");
            }
        }
        "shard" => {
            let host: String = args.get("host", "127.0.0.1".to_string());
            let port: u16 = args.get("port", 7070);
            let n: usize = args.get("shards", 2);
            let max_seconds: f64 = args.get("max-seconds", 0.0);
            let metrics_port: Option<u16> = args.get_opt("metrics-port");
            let trace_out: String = args.get("trace-out", String::new());

            // Partition via the same tiles (and the same `home` rule) the
            // router will route with, so ownership agrees bit-for-bit.
            let tiles = ShardMap::vertical_slabs(mesh.extent(), n);
            let probe = ShardMap::new(
                tiles.iter().map(|&tile| ShardSpec { tile, addr: String::new() }).collect(),
            );
            let mut engines = Vec::with_capacity(n);
            for i in 0..n {
                let mut engine = build_engine(&cfg);
                engine.cold_cache = false;
                set_io_regime(&engine, 0.0, fault_injector(&args, true));
                // Restrict the object store to the tile; ids stay global,
                // so the union of the shards is exactly the full scene.
                let store = engine.objects();
                for o in scene.objects() {
                    let xy = Point2::new(o.point.pos.x, o.point.pos.y);
                    if probe.home(xy) != Some(i) {
                        store.delete(o.id).expect("shard partition delete failed");
                    }
                }
                engines.push(engine);
            }
            if let Some((spec, _)) = fault_injector(&args, true) {
                eprintln!("# fault injection active on every shard: {spec}");
            }

            let servers: Vec<Server<'_, '_, '_>> = engines
                .iter()
                .enumerate()
                .map(|(i, engine)| {
                    let scfg = ServeConfig {
                        instance: format!("shard{i}"),
                        metrics_addr: metrics_port.map(|_| format!("{host}:0")),
                        ..ServeConfig::default()
                    };
                    Server::bind(engine, (host.as_str(), 0u16), scfg)
                        .expect("cannot bind shard address")
                })
                .collect();
            let map = ShardMap::new(
                tiles
                    .iter()
                    .zip(&servers)
                    .map(|(&tile, s)| ShardSpec { tile, addr: s.local_addr().to_string() })
                    .collect(),
            );
            for (i, (spec, engine)) in map.shards().iter().zip(&engines).enumerate() {
                println!(
                    "shard {i}: {} objects, tile x [{:.0}, {:.0}) on {}",
                    engine.write_stats().live_objects,
                    spec.tile.lo.x,
                    spec.tile.hi.x,
                    spec.addr
                );
            }

            std::thread::scope(|scope| {
                let shard_handles: Vec<Handle> = servers.iter().map(|s| s.handle()).collect();
                for server in &servers {
                    scope.spawn(move || {
                        server.run();
                    });
                }
                let router_cfg = RouterConfig {
                    workers: args.get("router-workers", 8),
                    queue_depth: args.get("queue-depth", 256),
                    metrics_addr: metrics_port.map(|p| format!("{host}:{p}")),
                    ..RouterConfig::default()
                };
                let mut router = Router::bind(map.clone(), (host.as_str(), port), router_cfg)
                    .expect("cannot bind router address");
                if !trace_out.is_empty() {
                    router.enable_tracing(4096);
                }
                let stats = router.stats();
                println!(
                    "router: fronting {n} shards, {} objects (grid {grid}, preset {preset}) on {}",
                    scene.num_objects(),
                    router.local_addr()
                );
                if let Some(addr) = router.metrics_addr() {
                    println!("router metrics on http://{addr}/metrics (health: /healthz)");
                }
                for (i, server) in servers.iter().enumerate() {
                    if let Some(addr) = server.metrics_addr() {
                        println!("shard {i} metrics on http://{addr}/metrics");
                    }
                }
                // Draining the router drains the fleet: the shards are
                // shut down once it returns.
                install_shutdown_watcher(router.handle(), max_seconds);
                let trace = router.run();
                println!("router drained: {}", stats.summary());
                // The router is fully drained: no query still holds shard
                // legs, so the shards can drain in any order.
                for handle in shard_handles {
                    handle.shutdown();
                }
                if let Some(trace) = trace {
                    std::fs::write(&trace_out, trace.to_jsonl()).expect("cannot write --trace-out");
                    println!("wrote router trace to {trace_out}");
                }
            });
        }
        "mutate" => {
            use surface_knn::core::objects::ObjectStore;
            let ops: usize = args.get("ops", 200);
            let k: usize = args.get("k", 5);
            let nq: usize = args.get("queries", 5);
            let threads: usize = args.get("threads", 1);

            let mut engine = build_engine(&cfg);
            if let Some((spec, injector)) = fault_injector(&args, false) {
                engine = engine.with_object_store(ObjectStore::genesis(
                    scene.objects(),
                    0,
                    Some(std::sync::Arc::new(injector)),
                ));
                eprintln!("# write-fault injection active: {spec}");
            }
            let engine = engine;
            let store = engine.objects();

            // Seeded mixed workload: 2 inserts, 1 move, 1 delete per 4 ops.
            // Placements come from the scene's deterministic query
            // generator, so the run is reproducible for a given seed.
            let start = std::time::Instant::now();
            let mut done = 0usize;
            let mut aborted = 0usize;
            for i in 0..ops {
                if store.kill_requested() {
                    println!("crash requested by the fault injector after {done} ops");
                    break;
                }
                let snap = store.snapshot();
                let p = scene.random_query(seed ^ (0x5EED_0000 + i as u64));
                let r = match i % 4 {
                    0 | 2 => store.insert(p).map(|_| true),
                    1 => {
                        let live = snap.live_ids();
                        store.move_object(live[(i * 31) % live.len()], p)
                    }
                    _ if snap.live() > 1 => {
                        let live = snap.live_ids();
                        store.delete(live[(i * 17) % live.len()])
                    }
                    _ => Ok(false),
                };
                match r {
                    Ok(_) => done += 1,
                    Err(e) => {
                        aborted += 1;
                        eprintln!("# op {i} aborted: {e}");
                    }
                }
            }
            let elapsed = start.elapsed();
            let ws = engine.write_stats();
            println!(
                "write workload: {done} committed + {aborted} aborted of {ops} ops \
                 in {:.3} s ({:.0} ops/s)",
                elapsed.as_secs_f64(),
                done as f64 / elapsed.as_secs_f64().max(1e-9)
            );
            println!(
                "wal: {} appends, {} fsyncs ({} failed), {} records truncated; \
                 objects live: {}",
                ws.wal.appends,
                ws.wal.fsyncs,
                ws.wal.failed_fsyncs,
                ws.wal.truncated,
                ws.live_objects
            );

            // Crash, recover, and verify bit-identical k-NN answers.
            let image = store.crash_image();
            let rec_start = std::time::Instant::now();
            let (recovered, report) =
                ObjectStore::recover(&image, 0, None).expect("recovery failed");
            let rec_elapsed = rec_start.elapsed();
            println!(
                "recovery: {} WAL op records replayed ({} after genesis), {} txns \
                 committed, {} torn tail bytes, {:.1} ms",
                report.replay_records,
                report.replayed_ops,
                report.committed_txns,
                report.torn_tail_bytes,
                rec_elapsed.as_secs_f64() * 1e3
            );
            let rec_engine = build_engine(&cfg).with_object_store(recovered);
            let qs = scene.random_queries(nq, seed ^ 0xBEEF);
            let batch: Vec<_> = qs.iter().map(|&q| (q, k)).collect();
            let a = engine.try_query_batch(&batch, threads);
            let b = rec_engine.try_query_batch(&batch, threads);
            let mut mismatches = 0usize;
            for (i, (ra, rb)) in a.into_iter().zip(b).enumerate() {
                let (ra, rb) = (ra.expect("sknn query failed"), rb.expect("sknn query failed"));
                let ka: Vec<_> = ra.neighbors.iter().map(|n| (n.id, n.range)).collect();
                let kb: Vec<_> = rb.neighbors.iter().map(|n| (n.id, n.range)).collect();
                if ka != kb {
                    eprintln!("# ERROR: query {i} differs after recovery");
                    mismatches += 1;
                }
            }
            println!(
                "verification: {nq} queries x k={k} on {threads} thread{} — {}",
                if threads == 1 { "" } else { "s" },
                if mismatches == 0 {
                    "bit-identical after recovery".to_string()
                } else {
                    format!("{mismatches} MISMATCHES")
                }
            );
            if mismatches > 0 {
                std::process::exit(1);
            }
        }
        "loadgen" => {
            let addr: String = args.get("addr", "127.0.0.1:7070".to_string());
            let qps_list: String = args.get("qps", "0".to_string());
            let verify: bool = args.get("verify", false);
            let base = LoadgenConfig {
                addr,
                connections: args.get("connections", 8),
                requests_per_conn: args.get("requests", 50),
                qps: 0.0,
                k: args.get("k", 5),
                deadline_ms: args.get("deadline-ms", 0),
                seed: seed ^ 0xC0FFEE,
            };
            // The verification oracle: `--verify-data preset:grid:seed:objects`
            // names the dataset explicitly (the way to verify a sharded
            // deployment against the single merged-terrain engine without
            // depending on this invocation's terrain flags); plain
            // `--verify` rebuilds from the local flags, which must then
            // match the server's. Queries are drawn from the oracle's
            // scene either way, so request generation and verification
            // agree on the terrain.
            let verify_data: String = args.get("verify-data", String::new());
            let (vmesh, vscene);
            let (gen_scene, verify_engine) = if verify_data.is_empty() {
                (&scene, verify.then(|| build_engine(&cfg)))
            } else {
                let mut parts = verify_data.split(':');
                let vpreset = parts.next().unwrap_or("bh").to_string();
                let vgrid: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(grid);
                let vseed: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(seed);
                let vobjects: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(objects);
                let tc = match vpreset.as_str() {
                    "ep" => TerrainConfig::ep(),
                    _ => TerrainConfig::bh(),
                };
                vmesh = tc.with_grid(vgrid).build_mesh(vseed);
                vscene = SceneBuilder::new(&vmesh).object_count(vobjects).seed(vseed ^ 1).build();
                (&vscene, Some(Mr3Engine::build(&vmesh, &vscene, &cfg)))
            };

            let mut failed = false;
            for qps_raw in qps_list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let qps: f64 = qps_raw.parse().expect("--qps must be a comma list of numbers");
                let pass = LoadgenConfig { qps, ..base.clone() };
                let report =
                    surface_knn::serve::loadgen::run(gen_scene, &pass, verify_engine.as_ref())
                        .expect("loadgen pass failed");
                println!(
                    "{}{}: {} sent, {} ok ({} degraded, {} late costing {:.1} engine ms), \
                     {} overloaded, {} expired, {:.1} qps, p50 {:.2} ms, p95 {:.2} ms, \
                     p99 {:.2} ms{}",
                    report.mode,
                    if qps > 0.0 { format!("@{qps:.0}") } else { String::new() },
                    report.sent,
                    report.ok,
                    report.degraded,
                    report.late,
                    report.late_exec_ms,
                    report.overloaded,
                    report.expired,
                    report.achieved_qps,
                    report.latency.p50,
                    report.latency.p95,
                    report.latency.p99,
                    if verify_engine.is_some() {
                        format!(", {} verified / {} mismatches", report.verified, report.mismatches)
                    } else {
                        String::new()
                    },
                );
                let table = report.stage_table();
                if !table.is_empty() {
                    print!("{table}");
                }
                if report.protocol_errors > 0 || report.mismatches > 0 || report.missing > 0 {
                    eprintln!(
                        "# ERROR: {} protocol errors, {} mismatches, {} missing replies",
                        report.protocol_errors, report.mismatches, report.missing
                    );
                    failed = true;
                }
                if report.stage_sum_violations > 0 {
                    eprintln!(
                        "# ERROR: {} responses with stage sum > end-to-end latency",
                        report.stage_sum_violations
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        _ => {
            println!(
                "usage: sknn <info|knn|trace|range|pair|constrained|export|prepare|mutate|serve|shard|loadgen|top> [flags]"
            );
            println!("see the module docs (src/bin/sknn.rs) for the flag list");
        }
    }
}

/// The `--fault-profile seed:rate:kind` injector and the spec it came
/// from, if one is asked for. With `env_fallback` an absent flag falls
/// back to `SKNN_FAULT_PROFILE` — how CI wires fault injection into the
/// serving commands without touching their command lines.
fn fault_injector(args: &Args, env_fallback: bool) -> Option<(String, FaultInjector)> {
    let fallback = if env_fallback {
        std::env::var("SKNN_FAULT_PROFILE").unwrap_or_default()
    } else {
        String::new()
    };
    let spec: String = args.get("fault-profile", fallback);
    if spec.is_empty() {
        return None;
    }
    let profile = FaultProfile::parse(&spec).expect("fault profile must be seed:rate:kind");
    Some((spec, FaultInjector::from_profile(&profile)))
}

/// Puts an engine's pager in the requested I/O regime: `stall_ms` of
/// simulated disk latency per read batch that reads a page new to its
/// query, and
/// read-side faults.
fn set_io_regime(
    engine: &Mr3Engine<'_, '_>,
    stall_ms: f64,
    faults: Option<(String, FaultInjector)>,
) {
    if stall_ms > 0.0 {
        engine.pager().set_read_stall(Duration::from_secs_f64(stall_ms / 1e3));
    }
    if let Some((_, injector)) = faults {
        engine.pager().set_fault_injector(Some(injector));
    }
}

/// One parsed scrape of a metrics endpoint and when it was taken — what
/// both `top` modes read values and rates from.
struct Scrape {
    samples: Vec<Sample>,
    at: std::time::Instant,
}

impl Scrape {
    fn fetch(endpoint: &str) -> Result<Self, String> {
        let body = promtext::http_get(endpoint, "/metrics", Duration::from_secs(2))
            .map_err(|e| format!("scrape of {endpoint} failed: {e}"))?;
        let samples = promtext::parse(&body).map_err(|line| {
            format!("{endpoint}: metrics line {line} does not parse as Prometheus text exposition")
        })?;
        Ok(Self { samples, at: std::time::Instant::now() })
    }

    /// [`fetch`](Self::fetch), or report the failure and exit nonzero.
    fn fetch_or_exit(endpoint: &str) -> Self {
        Self::fetch(endpoint).unwrap_or_else(|e| {
            eprintln!("# ERROR: {e}");
            std::process::exit(1);
        })
    }

    fn has(&self, name: &str) -> bool {
        self.samples.iter().any(|s| s.name == name)
    }

    fn value(&self, name: &str) -> f64 {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value).unwrap_or(0.0)
    }

    /// Per-second increase of `name` since `prev` (0 on the first scrape).
    fn rate(&self, prev: Option<&Scrape>, name: &str) -> f64 {
        prev.map_or(0.0, |old| {
            let dt = self.at.duration_since(old.at).as_secs_f64().max(1e-9);
            (self.value(name) - old.value(name)).max(0.0) / dt
        })
    }
}

/// `sknn top`: poll the metrics endpoint and redraw a one-screen summary.
///
/// Quantiles come from the cumulative (lifetime) histograms the endpoint
/// exposes; rates are deltas between successive scrapes. `--check true`
/// scrapes once, validates that the exposition parses and the expected
/// metric families are present, and exits nonzero otherwise — the CI
/// smoke test runs exactly that.
fn run_top(args: &Args) {
    let endpoints: String = args.get("endpoints", String::new());
    if !endpoints.is_empty() {
        run_top_fleet(args, &endpoints);
        return;
    }

    let metrics: String = args.get("metrics", "127.0.0.1:7071".to_string());
    let query_addr: String = args.get("addr", String::new());
    let interval = Duration::from_millis(args.get("interval-ms", 1000));
    let iterations: usize = args.get("iterations", 0);
    let check: bool = args.get("check", false);
    let timeout = Duration::from_secs(2);

    let buckets = |scrape: &Scrape, hist: &str| -> Vec<Sample> {
        let bucket_name = format!("{hist}_bucket");
        scrape.samples.iter().filter(|s| s.name == bucket_name).cloned().collect()
    };

    if check {
        let scrape = Scrape::fetch_or_exit(&metrics);
        let required = [
            "sknn_serve_accepted_total",
            "sknn_serve_completed_total",
            "sknn_serve_queue_depth",
            "sknn_serve_queue_us_bucket",
            "sknn_serve_exec_us_bucket",
            "sknn_serve_stage_knn2d_us_bucket",
            "sknn_serve_stage_rank_us_bucket",
            "sknn_serve_stall_us_bucket",
            "sknn_serve_latency_us_bucket",
            "sknn_store_logical_reads_total",
            "sknn_store_faults_injected_total",
            "sknn_dijkstra_pushes_total",
            "sknn_dijkstra_pops_total",
            "sknn_dijkstra_stale_pops_total",
            "sknn_dijkstra_settled_total",
            "sknn_cutcache_hits_total",
            "sknn_cutcache_misses_total",
            "sknn_cutcache_hit_rate",
        ];
        let missing: Vec<&str> = required.into_iter().filter(|name| !scrape.has(name)).collect();
        if !missing.is_empty() {
            eprintln!("# ERROR: metrics endpoint is missing families: {missing:?}");
            std::process::exit(1);
        }
        match promtext::http_get_status(&metrics, "/healthz", timeout) {
            Ok((status, body)) => {
                println!(
                    "metrics OK: {} samples, healthz {status} {}",
                    scrape.samples.len(),
                    body.trim()
                )
            }
            Err(e) => {
                eprintln!("# ERROR: healthz fetch failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let stage_hists = [
        ("queue", "sknn_serve_queue_us"),
        ("exec", "sknn_serve_exec_us"),
        ("knn2d", "sknn_serve_stage_knn2d_us"),
        ("radius", "sknn_serve_stage_radius_us"),
        ("range", "sknn_serve_stage_range_us"),
        ("rank", "sknn_serve_stage_rank_us"),
        ("stall", "sknn_serve_stall_us"),
        ("latency", "sknn_serve_latency_us"),
    ];
    let mut prev: Option<Scrape> = None;
    let mut tick = 0usize;
    loop {
        let scrape = Scrape::fetch_or_exit(&metrics);
        let health = promtext::http_get_status(&metrics, "/healthz", timeout)
            .map(|(status, _)| if status == 200 { "serving" } else { "draining" })
            .unwrap_or("unreachable");
        let rate = |name: &str| scrape.rate(prev.as_ref(), name);
        // Full-screen redraw (clear + home); plain append when piped is
        // still readable since each frame is self-contained.
        let mut out = String::new();
        out.push_str("\x1b[2J\x1b[H");
        out.push_str(&format!("sknn top — {metrics} — {health} — scrape #{tick}\n\n"));
        out.push_str(&format!(
            "qps {:8.1}   queue depth {:4.0}   connections {:6.0}\n",
            rate("sknn_serve_completed_total"),
            scrape.value("sknn_serve_queue_depth"),
            scrape.value("sknn_serve_connections_total"),
        ));
        out.push_str(&format!(
            "shed {:6.1}/s   expired {:6.1}/s   degraded {:6.1}/s   errors {:6.1}/s\n",
            rate("sknn_serve_shed_total"),
            rate("sknn_serve_expired_total"),
            rate("sknn_serve_degraded_total"),
            rate("sknn_serve_query_errors_total"),
        ));
        out.push_str(&format!(
            "cut cache: hit rate {:5.1}%   warm {:5.0}   cooling {:4.0}   \
             in-flight {:2.0}   resident {:6.0} KiB\n\n",
            scrape.value("sknn_cutcache_hit_rate") * 100.0,
            scrape.value("sknn_cutcache_warm_entries"),
            scrape.value("sknn_cutcache_cooling_entries"),
            scrape.value("sknn_cutcache_extractions_in_flight"),
            scrape.value("sknn_cutcache_resident_bytes") / 1024.0,
        ));
        let stale = scrape.value("sknn_dijkstra_stale_pops_total");
        let pops = scrape.value("sknn_dijkstra_pops_total");
        out.push_str(&format!(
            "dijkstra: settled {:8.1}/s   pushes {:8.1}/s   pops {:8.1}/s   stale {:4.1}%\n\n",
            rate("sknn_dijkstra_settled_total"),
            rate("sknn_dijkstra_pushes_total"),
            rate("sknn_dijkstra_pops_total"),
            if pops > 0.0 { stale / pops * 100.0 } else { 0.0 },
        ));
        out.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}   (µs, lifetime)\n",
            "stage", "p50", "p95", "p99", "count"
        ));
        for (label, hist) in stage_hists {
            let b = buckets(&scrape, hist);
            let q = |p: f64| {
                promtext::histogram_quantile(&b, p)
                    .map(|v| if v.is_infinite() { "inf".to_string() } else { format!("{v:.0}") })
                    .unwrap_or_else(|| "-".to_string())
            };
            out.push_str(&format!(
                "{label:<10} {:>10} {:>10} {:>10} {:>10.0}\n",
                q(0.5),
                q(0.95),
                q(0.99),
                scrape.value(&format!("{hist}_count")),
            ));
        }
        if !query_addr.is_empty() {
            out.push_str("\ntop slow queries (slowest first):\n");
            match fetch_slow_lines(&query_addr, 5) {
                Ok(lines) if lines.is_empty() => out.push_str("  (none captured)\n"),
                Ok(lines) => {
                    for line in lines {
                        let mut line = line;
                        if line.len() > 120 {
                            line.truncate(117);
                            line.push_str("...");
                        }
                        out.push_str("  ");
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
                Err(e) => out.push_str(&format!("  (dump failed: {e})\n")),
            }
        }
        print!("{out}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();

        tick += 1;
        if iterations > 0 && tick >= iterations {
            return;
        }
        prev = Some(scrape);
        std::thread::sleep(interval);
    }
}

/// `sknn top --endpoints a,b,c`: fleet mode. Scrapes every endpoint each
/// tick, classifies each as a router (exposes `sknn_shard_*`) or a shard
/// (exposes `sknn_serve_*`), and renders one row per instance plus a
/// fleet-total line; a router endpoint also gets a fan-out summary line.
/// With `--check true` it scrapes once and exits nonzero unless every
/// endpoint parses and at least one router exposes the full
/// `sknn_shard_*` family set.
fn run_top_fleet(args: &Args, endpoints: &str) {
    let eps: Vec<String> =
        endpoints.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if eps.is_empty() {
        eprintln!("# ERROR: --endpoints needs at least one HOST:PORT");
        std::process::exit(1);
    }
    let interval = Duration::from_millis(args.get("interval-ms", 1000));
    let iterations: usize = args.get("iterations", 0);
    let check: bool = args.get("check", false);

    let is_router = |scrape: &Scrape| scrape.has("sknn_shard_routed_total");
    let instance_of = |scrape: &Scrape| -> String {
        scrape
            .samples
            .iter()
            .find_map(|s| s.labels.get("instance").cloned())
            .unwrap_or_else(|| "-".to_string())
    };

    if check {
        let shard_required = [
            "sknn_shard_routed_total",
            "sknn_shard_interior_total",
            "sknn_shard_fanned_out_total",
            "sknn_shard_merged_total",
            "sknn_shard_leg_failures_total",
            "sknn_shard_bound_violations_total",
            "sknn_shard_map_size",
        ];
        let mut routers = 0usize;
        for ep in &eps {
            let scrape = Scrape::fetch_or_exit(ep);
            if is_router(&scrape) {
                routers += 1;
                let missing: Vec<&str> =
                    shard_required.iter().filter(|name| !scrape.has(name)).copied().collect();
                if !missing.is_empty() {
                    eprintln!("# ERROR: router {ep} is missing families: {missing:?}");
                    std::process::exit(1);
                }
            } else if !scrape.has("sknn_serve_completed_total") {
                eprintln!("# ERROR: {ep} exposes neither sknn_shard_* nor sknn_serve_* families");
                std::process::exit(1);
            }
            if instance_of(&scrape) == "-" {
                eprintln!("# ERROR: {ep} exports no instance label");
                std::process::exit(1);
            }
            println!(
                "{} OK: {} ({} samples, instance {})",
                ep,
                if is_router(&scrape) { "router" } else { "shard" },
                scrape.samples.len(),
                instance_of(&scrape),
            );
        }
        if routers == 0 {
            eprintln!("# ERROR: no endpoint exposes the sknn_shard_* router families");
            std::process::exit(1);
        }
        println!("fleet OK: {} endpoints, {} router(s)", eps.len(), routers);
        return;
    }

    let mut prev: Vec<Option<Scrape>> = eps.iter().map(|_| None).collect();
    let mut tick = 0usize;
    loop {
        let mut out = String::new();
        out.push_str("\x1b[2J\x1b[H");
        out.push_str(&format!("sknn top — fleet of {} — scrape #{tick}\n\n", eps.len()));
        out.push_str(&format!(
            "{:<22} {:<9} {:<7} {:>8} {:>6} {:>10} {:>6} {:>8}\n",
            "endpoint", "instance", "role", "qps", "queue", "completed", "shed", "expired"
        ));
        let mut fleet_qps = 0.0;
        let mut fleet_queue = 0.0;
        let mut fleet_completed = 0.0;
        let mut fleet_shed = 0.0;
        let mut fleet_expired = 0.0;
        let mut router_line = String::new();
        for (i, ep) in eps.iter().enumerate() {
            let Ok(scrape) = Scrape::fetch(ep) else {
                out.push_str(&format!("{ep:<22} {:<9} unreachable\n", "-"));
                prev[i] = None;
                continue;
            };
            let prefix = if is_router(&scrape) { "sknn_shard" } else { "sknn_serve" };
            let completed_name = format!("{prefix}_completed_total");
            let qps = scrape.rate(prev[i].as_ref(), &completed_name);
            let queue = scrape.value(&format!("{prefix}_queue_depth"));
            let completed = scrape.value(&completed_name);
            let shed = scrape.value(&format!("{prefix}_shed_total"));
            let expired = scrape.value(&format!("{prefix}_expired_total"));
            out.push_str(&format!(
                "{:<22} {:<9} {:<7} {:>8.1} {:>6.0} {:>10.0} {:>6.0} {:>8.0}\n",
                ep,
                instance_of(&scrape),
                if prefix == "sknn_shard" { "router" } else { "shard" },
                qps,
                queue,
                completed,
                shed,
                expired,
            ));
            // The router's completions are the client-visible ones; its
            // row still participates in the totals because shards also
            // serve direct (non-routed) clients in mixed deployments.
            fleet_qps += qps;
            fleet_queue += queue;
            fleet_completed += completed;
            fleet_shed += shed;
            fleet_expired += expired;
            if prefix == "sknn_shard" {
                router_line = format!(
                    "router: {:.0} routed ({:.0} interior, {:.0} fanned out, {:.0} merged), \
                     {:.0} leg failures, {:.0} bound violations, \
                     map size {:.0}, {:.0} fleet objects\n",
                    scrape.value("sknn_shard_routed_total"),
                    scrape.value("sknn_shard_interior_total"),
                    scrape.value("sknn_shard_fanned_out_total"),
                    scrape.value("sknn_shard_merged_total"),
                    scrape.value("sknn_shard_leg_failures_total"),
                    scrape.value("sknn_shard_bound_violations_total"),
                    scrape.value("sknn_shard_map_size"),
                    scrape.value("sknn_shard_objects"),
                );
            }
            prev[i] = Some(scrape);
        }
        out.push_str(&format!(
            "{:<22} {:<9} {:<7} {:>8.1} {:>6.0} {:>10.0} {:>6.0} {:>8.0}\n",
            "fleet total",
            "",
            "",
            fleet_qps,
            fleet_queue,
            fleet_completed,
            fleet_shed,
            fleet_expired,
        ));
        if !router_line.is_empty() {
            out.push('\n');
            out.push_str(&router_line);
        }
        print!("{out}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();

        tick += 1;
        if iterations > 0 && tick >= iterations {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// Fetches the slow-query JSONL dump over the query port and returns up
/// to `limit` entry lines (the `{"evicted":N}` header is skipped).
fn fetch_slow_lines(addr: &str, limit: usize) -> Result<Vec<String>, String> {
    let mut client =
        surface_knn::serve::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let jsonl = client.fetch_trace_dump().map_err(|e| format!("trace dump: {e}"))?;
    Ok(jsonl
        .lines()
        .filter(|l| !l.starts_with("{\"evicted\""))
        .take(limit)
        .map(str::to_string)
        .collect())
}

/// Latched by the signal handler; polled by the watcher thread. An
/// atomic store is async-signal-safe, which is all the handler does.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_flag() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }
    // Direct symbol binding, same technique as core's CpuTimer: no libc
    // crate in the workspace.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_flag() {}

/// Triggers graceful drain on SIGINT/SIGTERM, or after `max_seconds`
/// when positive (0 = run until signalled).
fn install_shutdown_watcher(handle: Handle, max_seconds: f64) {
    install_signal_flag();
    let deadline = (max_seconds > 0.0)
        .then(|| std::time::Instant::now() + Duration::from_secs_f64(max_seconds));
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::Relaxed)
            || deadline.is_some_and(|d| std::time::Instant::now() >= d)
        {
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}
