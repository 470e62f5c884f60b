//! The serving edge: everything between a socket and an admitted job,
//! once. A shard [`Server`](crate::Server) and the `sknn-shard` router
//! both bind an [`Edge`] and hand it a [`Service`]; the edge owns the
//! listener (and the optional metrics listener), the accept loop, one
//! reader thread per connection, admission into the FIFO lanes, `STATS`,
//! `TRACE_DUMP`, framing errors, the shutdown [`Handle`] and
//! the drain. It reads a request frame's ids and deadline itself
//! ([`Frame::request_header`]) and asks the process one question —
//! [`Service::claim`]: *is this yours, and if so what is its payload, or
//! why is it a `BadRequest`* — and runs the one
//! worker loop both processes share: pop the lanes, stamp the pickup,
//! refuse what spent half its deadline queued, and hand the rest to
//! [`Service::serve`] one job at a time, a panic in which fails that
//! request alone.
//!
//! Threading model (all scoped, no detached threads):
//!
//! ```text
//! Edge::run()
//!  ├─ Service::workers() × (pop → serve → reply)   — until the lanes are closed and empty
//!  ├─ metrics thread (when configured)
//!  ├─ accept loop (run itself)             — nonblocking accept + shutdown poll
//!  └─ one reader thread per connection
//! ```
//!
//! Admission is one bounded FIFO queue: a reader `try_push`es each
//! request, and a full queue means an immediate typed `Overloaded`
//! reply — load shedding is a fast "no", never a hang or an unbounded
//! buffer. Workers take jobs in arrival order; a job that spent half its
//! deadline queued is answered `DeadlineExpired` at dequeue instead of
//! taking a worker. An admitted request is answered exactly once:
//! nothing withdraws it from the queue.
//!
//! Graceful drain is ordering, not machinery: setting the shutdown flag
//! stops the accept loop and makes every reader exit at its next frame
//! boundary (rejecting frames that slip in mid-read with a typed
//! `ShuttingDown`). Closing the lanes refuses new pushes while the
//! workers drain everything still queued; `/healthz` answers 503 from
//! the moment the flag is set until a short lame-duck grace after the
//! last reply. Admitted requests are therefore answered, new ones
//! refused, and `run` returns when the last reply is written.

use crate::conn::{read_frame_interruptible, ConnWriter, ReadOutcome};
use crate::lanes::{Lanes, PushError};
use crate::metrics_http::{bind_metrics, metrics_loop};
use crate::protocol::{ErrorCode, Frame, StatsFrame, TraceDumpFrame};
use sknn_core::workload::SurfacePoint;
use sknn_obs::{mint_trace_id, QueryTrace, Recorder, Registry, RingRecorder, NOOP};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the metrics endpoint keeps answering `/healthz` as draining
/// after the drain itself completes: even an instant drain stays
/// observable, so pollers see the state transition instead of a vanished
/// endpoint.
const METRICS_DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Socket read timeout of a connection's reader: the granularity at which
/// a reader blocked on an idle socket notices the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

crate::metrics_table! {
    /// The metrics every serving process has, declared once and stamped
    /// under the process's own prefix ([`Service::PREFIX`]). One more —
    /// the `queue_depth` gauge — is not stored: it is the lanes' own length.
    pub struct EdgeStats {
        counters {
            connections: "Connections accepted",
            completed: "Requests answered with a successful response",
            shed: "Requests shed at admission (queue full)",
            expired: "Requests dropped at dequeue (deadline expired)",
            rejected_shutdown: "Requests rejected while draining",
            protocol_errors: "Malformed or unexpected frames received",
            /// The client was gone mid-flight.
            write_errors: "Reply writes that failed",
            /// Each was answered with a typed `Internal` error and the
            /// worker kept serving.
            panics: "Jobs that panicked (answered with a typed Internal error)",
        }
        hists {
            /// Arrival → worker pickup.
            queue_us: "Admission queue wait, microseconds",
            /// Enqueue → reply.
            latency_us: "End-to-end server-side latency, microseconds" [50, 95, 99],
        }
    }
}

/// Remote handle on a running process: its address and a shutdown
/// switch. Clonable across threads; `shutdown` is idempotent.
#[derive(Debug, Clone)]
pub struct Handle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl Handle {
    /// The bound query address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful drain: stop accepting, answer what was admitted,
    /// then return from `run`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// One admitted request, parked in the lanes until a worker picks it up.
pub struct Job<P> {
    /// The client's request id, echoed on the reply.
    pub req_id: u64,
    /// The request's trace id: client-supplied or minted at admission,
    /// never 0 past that point, so every obs record and every downstream
    /// leg of this request can carry it.
    pub trace_id: u64,
    /// Absolute deadline (arrival + `deadline_ms`), if the request
    /// carries one.
    pub deadline: Option<Instant>,
    /// When the job was admitted.
    pub enqueued: Instant,
    /// When a worker pulled this job off the lanes (`enqueued` until
    /// then): queue time ends and the process's own time starts here.
    pub recv_at: Instant,
    writer: Arc<ConnWriter>,
    /// What the process asked to be handed back.
    pub payload: P,
}

impl<P> Job<P> {
    /// Writes `frame` on the connection this job arrived on; returns
    /// whether the client is still reachable.
    pub fn reply(&self, stats: &EdgeStats, frame: &Frame) -> bool {
        self.writer.send(&stats.write_errors, frame)
    }

    /// [`reply`](Self::reply) with a typed error for this request.
    pub fn refuse(&self, stats: &EdgeStats, code: ErrorCode, detail: &str) -> bool {
        self.reply(stats, &Frame::error(self.req_id, code, detail))
    }

    /// Whether the job, just picked up, spent half its budget queued.
    /// Refusing only at the deadline serves jobs with no slack left, and
    /// on-time goodput collapses past saturation (EXPERIMENTS "What
    /// admission buys").
    fn spent(&self) -> bool {
        let waited = self.recv_at.duration_since(self.enqueued);
        self.deadline.is_some_and(|d| waited >= d.saturating_duration_since(self.recv_at))
    }
}

#[cfg(test)]
impl Job<()> {
    /// A job whose replies go nowhere.
    pub(crate) fn detached(
        req_id: u64,
        trace_id: u64,
        deadline: Option<Instant>,
        enqueued: Instant,
    ) -> Self {
        let writer = Arc::new(ConnWriter::null());
        Self { req_id, trace_id, deadline, enqueued, recv_at: enqueued, writer, payload: () }
    }
}

/// What a process does with the edge: which frames it takes, how it
/// answers an admitted job, and what it reports beyond the shared rows.
pub trait Service: Sync {
    /// What an admitted job carries.
    type Payload: Send;
    /// Prefix of every metrics family this process exports.
    const PREFIX: &'static str;

    /// The shared rows, wherever the process keeps them.
    fn edge_stats(&self) -> &EdgeStats;

    /// The one question: `None` if `frame` is not a request this process
    /// takes (it is answered as a protocol error); else the validated
    /// payload to queue, or why validation failed.
    fn claim(&self, frame: Frame) -> Option<Result<Self::Payload, &'static str>>;

    /// Called once per request that entered the lanes.
    fn accepted(&self) {}

    /// `STATS` entries beyond the edge's own.
    fn stats_rows(&self, out: &mut Vec<(String, u64)>);

    /// The `TRACE_DUMP` reply. Empty unless the process keeps a
    /// slow-query reservoir; an empty dump keeps fleet tooling uniform.
    fn trace_dump(&self) -> String {
        String::new()
    }

    /// Registers the process's families beyond the edge's own.
    fn register<'a>(&'a self, reg: &Registry<'a>);

    /// How many jobs are served concurrently (worker threads).
    fn workers(&self) -> usize;

    /// Called for a job that spent half its deadline queued, before the
    /// edge answers it `DeadlineExpired`.
    fn expired(&self, _job: &Job<Self::Payload>) {}

    /// Answers one live job exactly once. A panic in here is caught by
    /// the worker loop and answered with a typed `Internal`.
    fn serve(&self, job: Job<Self::Payload>, rec: &dyn Recorder);
}

/// The three values [`crate::ServeConfig`] and the router's config have
/// in common; each `bind` fills this from its own config.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Admission queue bound; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Where to serve `/metrics` and `/healthz`; `None` disables.
    pub metrics_addr: Option<String>,
    /// `instance` label on every exported family; empty = no label.
    pub instance: String,
}

/// A bound (but not yet running) serving edge.
pub struct Edge {
    listener: TcpListener,
    metrics: Option<(TcpListener, SocketAddr)>,
    shutdown: Arc<AtomicBool>,
    ring: Option<RingRecorder>,
    cfg: EdgeConfig,
}

impl Edge {
    /// Binds the listener (and the metrics listener, when configured).
    /// Pass port 0 for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: EdgeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let metrics = cfg.metrics_addr.as_deref().map(bind_metrics).transpose()?;
        Ok(Self { listener, metrics, shutdown: Arc::new(AtomicBool::new(false)), ring: None, cfg })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The metrics endpoint's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|&(_, addr)| addr)
    }

    /// Handle for shutting the process down from another thread.
    pub fn handle(&self) -> Handle {
        Handle { addr: self.local_addr(), shutdown: Arc::clone(&self.shutdown) }
    }

    /// Record the workers' spans and events into a bounded ring, drained
    /// into the trace that [`run`](Self::run) returns.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.ring = Some(RingRecorder::new(capacity));
    }

    /// Serves until [`Handle::shutdown`] is called, then drains and
    /// returns the observability trace (when tracing is enabled).
    pub fn run<S: Service>(&self, svc: &S) -> Option<QueryTrace> {
        self.listener.set_nonblocking(true).expect("listener nonblocking");
        let rec: &dyn Recorder = match &self.ring {
            Some(ring) => ring,
            None => &NOOP,
        };
        let lanes = Lanes::new(self.cfg.queue_depth);
        let registry = if self.cfg.instance.is_empty() {
            Registry::new()
        } else {
            Registry::with_instance(&self.cfg.instance)
        };
        let stats = svc.edge_stats();
        stats.register_rows(&registry, S::PREFIX);
        register_queue_depth(&registry, S::PREFIX, &lanes);
        svc.register(&registry);
        let metrics_stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (lanes, registry) = (&lanes, &registry);
            let workers: Vec<_> = (0..svc.workers().max(1))
                .map(|_| scope.spawn(move || work(svc, lanes, rec)))
                .collect();
            if let Some((listener, _)) = &self.metrics {
                let (draining, stop) = (&*self.shutdown, &metrics_stop);
                scope.spawn(move || metrics_loop(listener, registry, draining, stop));
            }
            while !self.shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        stats.connections.inc();
                        scope.spawn(move || self.serve_conn(svc, stream, lanes));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            // Closing the lanes starts the drain clock: queued jobs keep
            // draining, new pushes are refused with a typed
            // `ShuttingDown`, and the workers exit once the lanes run
            // dry. The metrics endpoint keeps answering `/healthz` as
            // "draining" for the whole window plus the lame-duck grace.
            lanes.close();
            for w in workers {
                let _ = w.join();
            }
            if self.metrics.is_some() {
                std::thread::sleep(METRICS_DRAIN_GRACE);
            }
            metrics_stop.store(true, Ordering::Relaxed);
        });
        self.ring.as_ref().map(|r| r.drain())
    }

    /// Reader thread for one connection.
    fn serve_conn<S: Service>(&self, svc: &S, stream: TcpStream, lanes: &Lanes<S::Payload>) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let writer = match stream.try_clone() {
            Ok(w) => Arc::new(ConnWriter::new(w)),
            Err(_) => return,
        };
        let stats = svc.edge_stats();
        let reply = |frame: &Frame| writer.send(&stats.write_errors, frame);
        let bad_request = |req_id, why| reply(&Frame::error(req_id, ErrorCode::BadRequest, why));
        let mut stream = stream;
        loop {
            match read_frame_interruptible(&mut stream, &self.shutdown) {
                ReadOutcome::Frame(Frame::StatsRequest) => {
                    let mut entries = Vec::new();
                    stats.stats_rows(&mut entries);
                    entries.push(("queue_depth".to_string(), lanes.len() as u64));
                    svc.stats_rows(&mut entries);
                    reply(&Frame::Stats(StatsFrame { entries }));
                }
                ReadOutcome::Frame(Frame::TraceDumpRequest) => {
                    reply(&Frame::TraceDump(TraceDumpFrame { jsonl: svc.trace_dump() }));
                }
                ReadOutcome::Frame(frame) => match frame.request_header().zip(svc.claim(frame)) {
                    Some((header, payload)) => self.admit(svc, lanes, &writer, header, payload),
                    None => {
                        // Replies only flow process → client, and a
                        // request the process does not take is no better.
                        stats.protocol_errors.inc();
                        bad_request(0, "unexpected frame type");
                    }
                },
                ReadOutcome::Protocol(e) => {
                    // A framing error (a foreign protocol version
                    // included) means the stream position is no longer
                    // trustworthy; reply once and hang up.
                    stats.protocol_errors.inc();
                    bad_request(0, &e.to_string());
                    return;
                }
                ReadOutcome::Closed | ReadOutcome::Io | ReadOutcome::Shutdown => return,
            }
        }
    }

    /// Offers a claimed request to the admission lanes, replying with
    /// the right typed error when it cannot be queued.
    fn admit<S: Service>(
        &self,
        svc: &S,
        lanes: &Lanes<S::Payload>,
        writer: &Arc<ConnWriter>,
        (req_id, raw_trace_id, deadline_ms): (u64, u64, u32),
        payload: Result<S::Payload, &'static str>,
    ) {
        let stats = svc.edge_stats();
        let refuse = |code, why| {
            writer.send(&stats.write_errors, &Frame::error(req_id, code, why));
        };
        let payload = match payload {
            Ok(payload) => payload,
            Err(why) => return refuse(ErrorCode::BadRequest, why),
        };
        if self.shutdown.load(Ordering::Relaxed) {
            stats.rejected_shutdown.inc();
            return refuse(ErrorCode::ShuttingDown, "draining");
        }
        let enqueued = Instant::now();
        let deadline = match deadline_ms {
            0 => None,
            ms => Some(enqueued + Duration::from_millis(ms as u64)),
        };
        // Every admitted request has a nonzero trace id from here on:
        // the client's, or one minted now. It becomes the engine's query
        // id and stamps every downstream leg, so each obs record this
        // request produces carries it even when the request rides a batch
        // with strangers.
        let trace_id = if raw_trace_id != 0 { raw_trace_id } else { mint_trace_id() };
        let writer = Arc::clone(writer);
        let job = Job { req_id, trace_id, deadline, enqueued, recv_at: enqueued, writer, payload };
        match lanes.try_push(job) {
            Ok(()) => svc.accepted(),
            Err(PushError::Full) => {
                stats.shed.inc();
                refuse(ErrorCode::Overloaded, "admission queue full");
            }
            Err(PushError::Closed) => {
                stats.rejected_shutdown.inc();
                refuse(ErrorCode::ShuttingDown, "draining");
            }
        }
    }
}

/// One worker: pops the lanes until they are closed and empty and sees
/// every job it pops answered exactly once.
fn work<S: Service>(svc: &S, lanes: &Lanes<S::Payload>, rec: &dyn Recorder) {
    let stats = svc.edge_stats();
    while let Some(mut job) = lanes.pop() {
        job.recv_at = Instant::now();
        stats.queue_us.record(job.recv_at.duration_since(job.enqueued).as_micros() as u64);
        // A request whose budget went to the queue is answered now
        // instead of occupying a worker to produce a reply nobody wants.
        if job.spent() {
            stats.expired.inc();
            svc.expired(&job);
            job.refuse(stats, ErrorCode::DeadlineExpired, "half the deadline spent queued");
            continue;
        }
        // A panic fails this request only: unanswered, its client would
        // block for good, and a dead worker is capacity lost until
        // restart. Everything the engine shares across queries recovers
        // from an unwinding holder (poison-tolerant locks, drop-guarded
        // single-flight latches, a scratch that is dropped rather than
        // pooled), so serving on is sound.
        let (req_id, writer) = (job.req_id, Arc::clone(&job.writer));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| svc.serve(job, rec))) {
            stats.panics.inc();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let frame = Frame::error(req_id, ErrorCode::Internal, &format!("job panicked: {msg}"));
            writer.send(&stats.write_errors, &frame);
        }
    }
}

/// The `queue_depth` gauge reads the lanes: there is no second copy of
/// the count to drift from them.
fn register_queue_depth<'a, P: Send>(reg: &Registry<'a>, prefix: &str, lanes: &'a Lanes<P>) {
    reg.gauge_fn(&format!("{prefix}queue_depth"), "Requests currently queued", move || {
        lanes.len() as f64
    });
}

/// What [`check_edge_contract`] needs of a process that is already
/// running on another thread with **one** worker that executes one job
/// at a time, a metrics endpoint, and a queue bound of `parked`.
pub struct Contract<'a> {
    /// The running process's handle.
    pub handle: Handle,
    /// Its metrics endpoint.
    pub metrics: SocketAddr,
    /// Its admission queue bound (≥ 2).
    pub parked: u64,
    /// A query point the process answers with a `Response`.
    pub query: SurfacePoint,
    /// `true` holds the worker inside whatever job it executes next;
    /// `false` lets it (and every later job) finish.
    pub hold: &'a dyn Fn(bool),
}

/// The edge's contract as executable checks over any process that runs
/// one: a foreign header version gets one `BadRequest` then EOF; a
/// request whose deadline passes while it is parked behind the held
/// worker is answered `DeadlineExpired` on its own connection and
/// counted; with the worker held, the `STATS` `queue_depth` reads exactly
/// what is parked and the next arrival is `Overloaded`; `/healthz` flips to 503
/// while the admitted backlog is still unanswered and a frame finished
/// after the flip is `ShuttingDown`; every admitted request gets exactly
/// one reply on its own connection, in arrival order (a deadlined
/// request parked behind deadline-less ones included), then EOF. Begins
/// the drain itself; the caller joins `run` afterwards. Panics on the first violated
/// expectation.
pub fn check_edge_contract(p: &Contract<'_>) {
    use crate::protocol::{read_frame, QueryFrame, RecvError};
    use crate::{promtext, Client};
    use std::io::{Read, Write};

    let deadlined = |req_id: u64, deadline_ms: u32| {
        let (tri, p) = (p.query.tri, p.query.pos);
        let (x, y, z, trace_id) = (p.x, p.y, p.z, req_id + 1000);
        let within = sknn_geom::Rect2::UNBOUNDED;
        Frame::Query(QueryFrame { req_id, tri, x, y, z, k: 2, deadline_ms, trace_id, within })
    };
    let request = |req_id: u64| deadlined(req_id, 0);
    let addr = p.handle.addr();
    let timeout = Duration::from_secs(30);
    let connect = || Client::connect_with_timeout(addr, timeout).expect("connect");
    let raw = || {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(timeout)).expect("read timeout");
        s
    };
    let error_of = |frame: Frame| match frame {
        Frame::Error(e) => (e.req_id, e.code),
        other => panic!("expected a typed error, got {other:?}"),
    };
    let stat = |c: &mut Client, key: &str| {
        let entries = c.fetch_stats().expect("stats round trip");
        entries.iter().find(|(n, _)| n == key).unwrap_or_else(|| panic!("no {key} key")).1
    };
    let queue_depth = |c: &mut Client| stat(c, "queue_depth");

    let mut foreign = raw();
    let mut v1 = Frame::StatsRequest.encode();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    foreign.write_all(&v1).expect("send");
    let reply = read_frame(&mut foreign).expect("a typed reply, not a hang");
    assert_eq!(error_of(reply), (0, ErrorCode::BadRequest));
    assert_eq!(foreign.read(&mut [0u8; 1]).expect("clean close"), 0);

    // Request 50 holds the worker; frames are processed in order per
    // connection, so once STATS on the same connection reads an empty
    // queue, request 50 has been admitted *and* picked up. Request 51
    // parks behind it with a budget shorter than the hold.
    (p.hold)(true);
    let mut a = connect();
    a.send(&request(50)).expect("send");
    while queue_depth(&mut a) != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut b = connect();
    b.send(&deadlined(51, 20)).expect("send");
    std::thread::sleep(Duration::from_millis(60));
    (p.hold)(false);
    assert!(matches!(a.recv(), Ok(Frame::Response(r)) if r.req_id == 50), "the holder is served");
    assert_eq!(error_of(b.recv().expect("expiry reply")), (51, ErrorCode::DeadlineExpired));
    assert_eq!(stat(&mut b, "expired"), 1, "dropped at dequeue, and counted");

    // Request 0 holds the worker the same way.
    (p.hold)(true);
    a.send(&request(0)).expect("send");
    while queue_depth(&mut a) != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for id in 1..=p.parked {
        // The last one carries a deadline that cannot pass; it still
        // waits its turn behind the deadline-less ones.
        let deadline_ms = if id == p.parked { 60_000 } else { 0 };
        a.send(&deadlined(id, deadline_ms)).expect("send");
    }
    assert_eq!(queue_depth(&mut a), p.parked, "queue_depth is what is parked");

    b.send(&request(99)).expect("send");
    assert_eq!(error_of(b.recv().expect("shed reply")), (99, ErrorCode::Overloaded));

    // The shutdown flag is honoured between frames only, so a frame
    // whose first bytes the reader already holds is finished and then
    // refused. The pause lets the reader take those bytes.
    let mut late = raw();
    let bytes = request(77).encode();
    late.write_all(&bytes[..4]).expect("send");
    std::thread::sleep(Duration::from_millis(200));
    p.handle.shutdown();
    let metrics = p.metrics.to_string();
    let flipped = Instant::now() + timeout;
    while promtext::http_get_status(&metrics, "/healthz", timeout).expect("healthz").0 != 503 {
        assert!(Instant::now() < flipped, "healthz never reported draining");
        std::thread::sleep(Duration::from_millis(1));
    }
    late.write_all(&bytes[4..]).expect("send");
    let reply = read_frame(&mut late).expect("a typed refusal");
    assert_eq!(error_of(reply), (77, ErrorCode::ShuttingDown));

    (p.hold)(false);
    let answered: Vec<u64> = (0..=p.parked)
        .map(|_| match a.recv().expect("drain answers what was admitted") {
            Frame::Response(r) => r.req_id,
            other => panic!("expected a response, got {other:?}"),
        })
        .collect();
    assert!(answered.into_iter().eq(0..=p.parked), "one reply per admitted request, in order");
    assert!(matches!(a.recv(), Err(RecvError::Closed)), "then the connection closes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QueryFrame, RangeFrame};
    use crate::Client;
    use std::sync::atomic::AtomicU64;

    /// A process whose first job panics and whose every later job is
    /// answered with an empty `RANGE` frame.
    #[derive(Default)]
    struct FirstJobPanics {
        stats: EdgeStats,
        served: AtomicU64,
    }

    impl Service for FirstJobPanics {
        type Payload = ();
        const PREFIX: &'static str = "sknn_test_";

        fn edge_stats(&self) -> &EdgeStats {
            &self.stats
        }

        fn claim(&self, frame: Frame) -> Option<Result<(), &'static str>> {
            matches!(frame, Frame::Query(_)).then_some(Ok(()))
        }

        fn stats_rows(&self, _out: &mut Vec<(String, u64)>) {}

        fn register<'a>(&'a self, _reg: &Registry<'a>) {}

        fn workers(&self) -> usize {
            1
        }

        fn serve(&self, job: Job<()>, _rec: &dyn Recorder) {
            if self.served.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first job blew up");
            }
            let (req_id, trace_id) = (job.req_id, job.trace_id);
            job.reply(&self.stats, &Frame::Range(RangeFrame { req_id, trace_id, objects: vec![] }));
        }
    }

    /// A panic inside `serve` fails that request alone: its client gets a
    /// typed `Internal` naming the panic, the one worker answers the next
    /// request, and the drain still completes. The client's read timeout
    /// is the watchdog against a dead worker.
    #[test]
    fn a_panicking_job_fails_alone_and_its_worker_serves_on() {
        let cfg = EdgeConfig { queue_depth: 4, metrics_addr: None, instance: String::new() };
        let edge = Edge::bind("127.0.0.1:0", cfg).unwrap();
        let handle = edge.handle();
        let svc = FirstJobPanics::default();
        let replies: Vec<_> = std::thread::scope(|scope| {
            let run = scope.spawn(|| edge.run(&svc));
            let mut client =
                Client::connect_with_timeout(handle.addr(), Duration::from_secs(10)).unwrap();
            let replies = [1, 2]
                .map(|req_id| {
                    let (tri, x, y, z, k) = (0, 0.0, 0.0, 0.0, 1);
                    let within = sknn_geom::Rect2::UNBOUNDED;
                    let (deadline_ms, trace_id) = (0, 0);
                    let q = QueryFrame { req_id, tri, x, y, z, k, deadline_ms, trace_id, within };
                    client.send(&Frame::Query(q)).unwrap();
                    client.recv()
                })
                .into_iter()
                .collect();
            handle.shutdown();
            run.join().unwrap();
            replies
        });
        match &replies[0] {
            Ok(Frame::Error(e)) => {
                assert_eq!((e.req_id, e.code), (1, ErrorCode::Internal), "{e:?}");
                assert!(e.detail.contains("first job blew up"), "detail: {}", e.detail);
            }
            other => panic!("the panicking job must get a typed error, got {other:?}"),
        }
        assert!(matches!(&replies[1], Ok(Frame::Range(r)) if r.req_id == 2), "{:?}", replies[1]);
        assert_eq!((svc.stats.panics.get(), svc.stats.write_errors.get()), (1, 0));
    }

    /// Refused at dequeue: a job that waited as long as it has left.
    #[test]
    fn a_job_that_spent_half_its_budget_queued_is_refused() {
        let t0 = Instant::now();
        let ms = |n| Duration::from_millis(n);
        let spent = |deadline: Option<u64>, waited| {
            let mut job = Job::detached(1, 2, deadline.map(|d| t0 + ms(d)), t0);
            job.recv_at = t0 + ms(waited);
            job.spent()
        };
        assert!(!spent(Some(100), 49), "more left than waited");
        assert!(spent(Some(100), 50), "half spent");
        assert!(spent(Some(100), 150), "past the deadline");
        assert!(!spent(None, 60_000), "no deadline, never refused");
    }

    /// The gauge has no state of its own: it follows the lanes through
    /// push and pop.
    #[test]
    fn queue_depth_gauge_is_the_lanes_length() {
        let lanes = Lanes::new(4);
        let reg = Registry::new();
        register_queue_depth(&reg, "sknn_test_", &lanes);
        let gauge = || {
            let text = reg.render();
            let line = text.lines().find(|l| l.starts_with("sknn_test_queue_depth ")).unwrap();
            line.rsplit(' ').next().unwrap().parse::<usize>().unwrap()
        };
        let now = Instant::now();
        assert_eq!((gauge(), lanes.len()), (0, 0));
        for id in 0..3 {
            lanes.try_push(Job::detached(id, id + 1000, None, now)).unwrap();
            assert_eq!((gauge(), lanes.len()), (id as usize + 1, id as usize + 1));
        }
        for left in (0..3).rev() {
            assert!(lanes.pop().is_some());
            assert_eq!((gauge(), lanes.len()), (left, left));
        }
    }
}
