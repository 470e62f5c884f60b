//! Load generation against a running server: closed-loop (one request
//! in flight per connection — measures service latency) and open-loop
//! (requests launched on a fixed schedule regardless of completions — the
//! arrival process that saturates the admission queue and exercises load
//! shedding).
//!
//! Every request is classified by its typed reply; a missing reply is a
//! protocol failure, not a statistic. With a verification engine the
//! generator also checks each non-degraded response bit-for-bit against
//! a direct `Engine::try_query` call — the end-to-end determinism
//! guarantee, measured rather than assumed.

use crate::client::Client;
use crate::protocol::{ErrorCode, Frame, RecvError, ServerTiming};
use sknn_core::mr3::Mr3Engine;
use sknn_core::workload::{Scene, SurfacePoint};
use std::collections::HashMap;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stage names, in request-path order, for the server-side breakdown
/// table. Indices match `stage_values`.
pub const STAGE_NAMES: [&str; 7] = ["queue", "exec", "knn2d", "radius", "range", "rank", "stall"];

fn stage_values(t: &ServerTiming) -> [u32; 7] {
    [t.queue_us, t.exec_us, t.knn2d_us, t.radius_us, t.range_us, t.rank_us, t.stall_us]
}

/// What to run against the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_conn: usize,
    /// Aggregate open-loop arrival rate in queries/second; `0` selects
    /// the closed loop.
    pub qps: f64,
    /// Neighbors per query.
    pub k: u32,
    /// Per-request deadline forwarded to the server (`0` = none).
    pub deadline_ms: u32,
    /// Workload seed (query points are `scene.random_queries` of it).
    pub seed: u64,
}

/// Latency summary over successful responses, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyMs {
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Outcome of one loadgen pass.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Requests sent.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Successful responses carrying a degradation marker.
    pub degraded: u64,
    /// Successful responses that reached the client after their deadline
    /// (`deadline_ms` past the send); counted in `ok` as well.
    pub late: u64,
    /// Engine time (`ServerTiming.exec_us`) the late responses cost, ms:
    /// work done for answers nobody was waiting for any more.
    pub late_exec_ms: f64,
    /// Typed `Overloaded` rejections (shed at admission).
    pub overloaded: u64,
    /// Typed `DeadlineExpired` replies.
    pub expired: u64,
    /// Requests with no reply at all (should be zero — every admitted or
    /// rejected request gets a frame).
    pub missing: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
    /// Responses compared bit-for-bit against a direct engine call.
    pub verified: u64,
    /// Comparisons that differed (should be zero).
    pub mismatches: u64,
    /// Completed responses per second.
    pub achieved_qps: f64,
    /// Latency of admitted requests: successful responses and
    /// `DeadlineExpired` replies.
    pub latency: LatencyMs,
    /// Server-reported per-stage latency summaries, in [`STAGE_NAMES`]
    /// order. Empty when no request succeeded.
    pub stages: Vec<(String, LatencyMs)>,
    /// Responses whose server-reported stage sum (queue + exec)
    /// exceeded the client-measured round trip — should be zero; both
    /// come from monotonic clocks and the client span contains the
    /// server span.
    pub stage_sum_violations: u64,
}

impl RunReport {
    /// The per-stage breakdown as an aligned text table (empty string
    /// when the server reported no stage timing).
    pub fn stage_table(&self) -> String {
        if self.stages.is_empty() {
            return String::new();
        }
        let mut s = String::new();
        s.push_str(&format!(
            "  {:<8} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "mean_ms", "p50_ms", "p95_ms", "p99_ms"
        ));
        for (name, l) in &self.stages {
            s.push_str(&format!(
                "  {:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name, l.mean, l.p50, l.p95, l.p99
            ));
        }
        s
    }
}

/// Per-connection tally, merged into the final report.
#[derive(Debug, Default)]
struct ConnTally {
    sent: u64,
    ok: u64,
    degraded: u64,
    late: u64,
    late_exec_ms: f64,
    overloaded: u64,
    expired: u64,
    missing: u64,
    protocol_errors: u64,
    verified: u64,
    mismatches: u64,
    latencies_ms: Vec<f64>,
    /// Per-stage server-reported times, ms, in [`STAGE_NAMES`] order.
    stage_ms: [Vec<f64>; 7],
    stage_sum_violations: u64,
}

impl ConnTally {
    /// Folds an admitted request's round trip into the latencies; for a
    /// response also its server timing, the containment invariant
    /// against the client round trip, and whether it came too late.
    fn record_reply(&mut self, frame: &Frame, e2e_ms: f64, deadline_ms: u32) {
        let timing = match frame {
            Frame::Response(r) => &r.timing,
            Frame::Error(e) if e.code == ErrorCode::DeadlineExpired => {
                return self.latencies_ms.push(e2e_ms);
            }
            _ => return,
        };
        self.latencies_ms.push(e2e_ms);
        for (vec, us) in self.stage_ms.iter_mut().zip(stage_values(timing)) {
            vec.push(us as f64 / 1e3);
        }
        let server_path_ms = (timing.queue_us as u64 + timing.exec_us as u64) as f64 / 1e3;
        // Allow a microsecond of rounding slack: each stage is truncated
        // to whole µs independently of the client's clock read.
        if server_path_ms > e2e_ms + 0.001 {
            self.stage_sum_violations += 1;
        }
        if deadline_ms > 0 && e2e_ms > deadline_ms as f64 {
            self.late += 1;
            self.late_exec_ms += timing.exec_us as f64 / 1e3;
        }
    }
}

/// Bit pattern of a response, for exact comparison.
type Fingerprint = Vec<(u32, u64, u64)>;

fn fingerprint_result(res: &sknn_core::metrics::QueryResult) -> Fingerprint {
    res.neighbors.iter().map(|n| (n.id, n.range.lb.to_bits(), n.range.ub.to_bits())).collect()
}

fn fingerprint_response(neighbors: &[crate::protocol::WireNeighbor]) -> Fingerprint {
    neighbors.iter().map(|n| (n.id, n.lb.to_bits(), n.ub.to_bits())).collect()
}

/// Runs one pass. `verify` supplies a local engine over the *same* scene
/// the server uses; when present, every non-degraded response is
/// compared bit-for-bit against `try_query`.
pub fn run(
    scene: &Scene<'_>,
    cfg: &LoadgenConfig,
    verify: Option<&Mr3Engine<'_, '_>>,
) -> io::Result<RunReport> {
    let conns = cfg.connections.max(1);
    let per_conn = cfg.requests_per_conn;
    // Deterministic per-connection workloads, disjoint by seed.
    let workloads: Vec<Vec<SurfacePoint>> = (0..conns)
        .map(|c| scene.random_queries(per_conn, cfg.seed ^ ((c as u64 + 1) * 0x9E37_79B9)))
        .collect();
    // Expected fingerprints are computed before the clock starts so
    // verification work cannot distort the measured run.
    let expected: Vec<Vec<Option<Fingerprint>>> = workloads
        .iter()
        .map(|qs| {
            qs.iter()
                .map(|&q| {
                    verify.map(|e| {
                        fingerprint_result(
                            &e.try_query(q, cfg.k as usize).expect("verify engine query failed"),
                        )
                    })
                })
                .collect()
        })
        .collect();

    let start = Instant::now();
    let tallies: Vec<io::Result<ConnTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let queries = &workloads[c];
                let expect = &expected[c];
                scope.spawn(move || {
                    if cfg.qps > 0.0 {
                        run_open_conn(cfg, c as u64, queries, expect)
                    } else {
                        run_closed_conn(cfg, c as u64, queries, expect)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen connection panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut report = RunReport {
        mode: if cfg.qps > 0.0 { "open" } else { "closed" }.to_string(),
        ..Default::default()
    };
    let mut latencies: Vec<f64> = Vec::new();
    let mut stage_ms: [Vec<f64>; 7] = Default::default();
    for tally in tallies {
        let t = tally?;
        report.sent += t.sent;
        report.ok += t.ok;
        report.degraded += t.degraded;
        report.late += t.late;
        report.late_exec_ms += t.late_exec_ms;
        report.overloaded += t.overloaded;
        report.expired += t.expired;
        report.missing += t.missing;
        report.protocol_errors += t.protocol_errors;
        report.verified += t.verified;
        report.mismatches += t.mismatches;
        report.stage_sum_violations += t.stage_sum_violations;
        latencies.extend(t.latencies_ms);
        for (merged, conn) in stage_ms.iter_mut().zip(t.stage_ms) {
            merged.extend(conn);
        }
    }
    report.achieved_qps = report.ok as f64 / wall_s.max(1e-9);
    report.latency = summarize(&mut latencies);
    if stage_ms.iter().any(|v| !v.is_empty()) {
        report.stages = STAGE_NAMES
            .iter()
            .zip(stage_ms.iter_mut())
            .map(|(name, vals)| (name.to_string(), summarize(vals)))
            .collect();
    }
    Ok(report)
}

fn summarize(latencies: &mut [f64]) -> LatencyMs {
    if latencies.is_empty() {
        return LatencyMs::default();
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let at = |p: f64| {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    LatencyMs {
        mean: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50: at(0.50),
        p95: at(0.95),
        p99: at(0.99),
    }
}

/// Splits a reply into the tally. Returns the request index the frame
/// answered, or `None` for undecodable traffic.
fn classify(tally: &mut ConnTally, frame: &Frame, expect: &[Option<Fingerprint>]) -> Option<usize> {
    match frame {
        Frame::Response(r) => {
            let idx = (r.req_id & 0xFFFF_FFFF) as usize;
            tally.ok += 1;
            if r.degraded.is_some() {
                tally.degraded += 1;
            } else if let Some(Some(fp)) = expect.get(idx) {
                tally.verified += 1;
                if fingerprint_response(&r.neighbors) != *fp {
                    tally.mismatches += 1;
                }
            }
            Some(idx)
        }
        Frame::Error(e) => {
            match e.code {
                ErrorCode::Overloaded => tally.overloaded += 1,
                ErrorCode::DeadlineExpired => tally.expired += 1,
                // Answered, and not with neighbours; the summary line
                // shows these as the gap between `sent` and the rest.
                _ => {}
            }
            Some((e.req_id & 0xFFFF_FFFF) as usize)
        }
        _ => {
            tally.protocol_errors += 1;
            None
        }
    }
}

/// Closed loop: send, wait, repeat. Latency is the full round trip.
fn run_closed_conn(
    cfg: &LoadgenConfig,
    conn: u64,
    queries: &[SurfacePoint],
    expect: &[Option<Fingerprint>],
) -> io::Result<ConnTally> {
    // A 10 s idle timeout converts a wedged server into a counted
    // failure instead of an indefinite hang.
    let mut client = Client::connect_with_timeout(&cfg.addr, Duration::from_secs(10))?;
    let mut tally = ConnTally::default();
    for (i, &q) in queries.iter().enumerate() {
        let req_id = (conn << 32) | i as u64;
        let sent_at = Instant::now();
        client.send_query(req_id, q, cfg.k, cfg.deadline_ms)?;
        tally.sent += 1;
        match client.recv() {
            Ok(frame) => {
                if classify(&mut tally, &frame, expect).is_some() {
                    let e2e_ms = sent_at.elapsed().as_secs_f64() * 1e3;
                    tally.record_reply(&frame, e2e_ms, cfg.deadline_ms);
                }
            }
            Err(RecvError::Protocol(_)) => {
                tally.protocol_errors += 1;
                tally.missing += 1;
                break;
            }
            Err(_) => {
                tally.missing += 1;
                break;
            }
        }
    }
    Ok(tally)
}

/// Open loop: a sender thread fires on a fixed schedule while the main
/// thread collects replies, matching on `req_id` (concurrent requests
/// complete out of order).
fn run_open_conn(
    cfg: &LoadgenConfig,
    conn: u64,
    queries: &[SurfacePoint],
    expect: &[Option<Fingerprint>],
) -> io::Result<ConnTally> {
    let mut recv_client = Client::connect_with_timeout(&cfg.addr, Duration::from_secs(10))?;
    let mut send_client = recv_client.try_clone()?;
    let interval = Duration::from_secs_f64(cfg.connections.max(1) as f64 / cfg.qps);
    // Each connection is offset by its share of the interval, so the
    // aggregate arrivals are evenly spaced, not one burst per tick.
    let phase = conn as f64 / cfg.connections.max(1) as f64;
    let (time_tx, time_rx) = mpsc::channel::<(usize, Instant)>();

    let mut tally = ConnTally::default();
    let total = queries.len();
    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(move || -> io::Result<u64> {
            let t0 = Instant::now();
            for (i, &q) in queries.iter().enumerate() {
                let due = t0 + interval.mul_f64(i as f64 + phase);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let req_id = (conn << 32) | i as u64;
                time_tx.send((i, Instant::now())).ok();
                send_client.send_query(req_id, q, cfg.k, cfg.deadline_ms)?;
            }
            Ok(total as u64)
        });

        let mut send_times: HashMap<usize, Instant> = HashMap::with_capacity(total);
        let mut outcomes = 0usize;
        while outcomes < total {
            match recv_client.recv() {
                Ok(frame) => {
                    while let Ok((i, at)) = time_rx.try_recv() {
                        send_times.insert(i, at);
                    }
                    if let Some(idx) = classify(&mut tally, &frame, expect) {
                        outcomes += 1;
                        if let Some(at) = send_times.get(&idx) {
                            let e2e_ms = at.elapsed().as_secs_f64() * 1e3;
                            tally.record_reply(&frame, e2e_ms, cfg.deadline_ms);
                        }
                    }
                }
                Err(RecvError::Protocol(_)) => {
                    tally.protocol_errors += 1;
                    break;
                }
                Err(_) => break,
            }
        }
        tally.missing += (total - outcomes) as u64;
        tally.sent = sender.join().expect("loadgen sender panicked")?;
        Ok(())
    })?;
    Ok(tally)
}
