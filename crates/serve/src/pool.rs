//! Persistent multiplexed connections: one long-lived socket per peer,
//! many requests in flight at once, demultiplexed by request id.
//!
//! The blocking [`Client`](crate::client::Client) opens a connection and
//! matches replies by arrival order — fine for a load generator's
//! one-in-one-out loops, useless for a router that keeps several
//! operations in flight to several shards and wants answers as they
//! land. A [`PoolClient`] owns one connection per peer:
//!
//! * a single writer, serialized by a mutex, assigns wire-unique request
//!   ids ([`PoolClient::next_req_id`]) and sends frames back to back;
//! * a reader thread demultiplexes every inbound frame by its `req_id`
//!   into per-request channels, so callers [`InFlight::wait`] only for
//!   their own reply;
//! * reconnection is lazy: a dead socket fails all in-flight requests
//!   with [`PoolError::ConnectionLost`], and the next send dials afresh.
//!   An epoch counter keeps a stale reader (from a replaced connection)
//!   from failing requests that belong to its successor.
//!
//! Only frames that carry a `req_id` (responses, errors, and the shard
//! operation replies) can ride a pooled connection; `STATS` and
//! `TRACE_DUMP` have no id and belong on a plain [`Client`].
//!
//! [`Client`]: crate::client::Client

use crate::protocol::{read_frame, Frame, ProtocolError, RecvError};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a lazy reconnect waits for the TCP handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a pooled request failed.
#[derive(Debug)]
pub enum PoolError {
    /// The connection died with the request in flight. The request may
    /// or may not have executed on the peer; retrying is the caller's
    /// call.
    ConnectionLost,
    /// No reply within the caller's wait budget. The pending slot is
    /// released, so a late reply is silently dropped.
    Timeout,
    /// Dialing or writing failed.
    Io(io::Error),
    /// The peer sent bytes that were not a valid frame (the connection
    /// is torn down).
    Protocol(ProtocolError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ConnectionLost => f.write_str("connection lost mid-flight"),
            PoolError::Timeout => f.write_str("timed out awaiting reply"),
            PoolError::Io(e) => write!(f, "i/o error: {e}"),
            PoolError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

type PendingMap = HashMap<u64, SyncSender<Result<Frame, PoolError>>>;

struct Shared {
    addr: String,
    /// The write half. `None` means disconnected; the next send dials.
    write: Mutex<Option<TcpStream>>,
    /// In-flight requests awaiting their reply, keyed by `req_id`.
    pending: Mutex<PendingMap>,
    /// Bumped on every successful dial; a reader that observes a
    /// mismatch on exit belongs to a replaced connection and must not
    /// touch shared state.
    epoch: AtomicU64,
    /// Monotonic request-id source (wire-unique per pool).
    req_ids: AtomicU64,
}

/// One persistent, multiplexed connection to a peer. Cheap to share
/// (`Clone` is an `Arc` bump); all methods take `&self`.
#[derive(Clone)]
pub struct PoolClient {
    shared: Arc<Shared>,
}

/// A request that has been written and awaits its reply. Dropping it
/// releases the pending slot (a late reply is discarded).
pub struct InFlight {
    shared: Arc<Shared>,
    /// The request id this flight is keyed on.
    pub req_id: u64,
    rx: Receiver<Result<Frame, PoolError>>,
}

impl PoolClient {
    /// A pool for `addr`. No connection is made until the first send.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            shared: Arc::new(Shared {
                addr: addr.into(),
                write: Mutex::new(None),
                pending: Mutex::new(HashMap::new()),
                epoch: AtomicU64::new(0),
                req_ids: AtomicU64::new(1),
            }),
        }
    }

    /// The peer address this pool dials.
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// A fresh request id, unique across this pool's lifetime. Callers
    /// stamp it into the frame they pass to [`begin`](Self::begin).
    pub fn next_req_id(&self) -> u64 {
        self.shared.req_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends one encoded frame (which must carry a `req_id` from
    /// [`next_req_id`](Self::next_req_id)) and returns the in-flight
    /// handle to wait on. The pending slot is registered before the
    /// write, so a reply can never race past its waiter.
    pub fn begin(&self, req_id: u64, frame: &[u8]) -> Result<InFlight, PoolError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).insert(req_id, tx);
        let mut w = self.shared.write.lock().unwrap_or_else(|e| e.into_inner());
        let send = ensure_conn(&self.shared, &mut w)
            .and_then(|()| w.as_mut().expect("ensured").write_all(frame));
        drop(w);
        if let Err(e) = send {
            self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&req_id);
            self.drop_conn();
            return Err(PoolError::Io(e));
        }
        Ok(InFlight { shared: Arc::clone(&self.shared), req_id, rx })
    }

    /// Tears down the current connection (reader exits; in-flight
    /// requests fail with [`PoolError::ConnectionLost`]).
    fn drop_conn(&self) {
        let stream = self.shared.write.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(s) = stream {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // Release the slot so a late reply (or a reply to an abandoned
        // request) is discarded instead of leaking map entries.
        self.shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.req_id);
    }
}

impl InFlight {
    /// Blocks for the reply up to `timeout`.
    pub fn wait(self, timeout: Duration) -> Result<Frame, PoolError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(PoolError::Timeout),
            // Sender gone without a value: the reader died between
            // failing the map and our receive — same as a lost
            // connection.
            Err(RecvTimeoutError::Disconnected) => Err(PoolError::ConnectionLost),
        }
        // `self` drops here, releasing the pending slot.
    }
}

/// Dials if disconnected; on success the reader thread for the new
/// connection is running and `*w` is `Some`.
fn ensure_conn(shared: &Arc<Shared>, w: &mut Option<TcpStream>) -> io::Result<()> {
    if w.is_some() {
        return Ok(());
    }
    let dial = || -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses resolved");
        for addr in shared.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(s) => return Ok(s),
                Err(e) => last = e,
            }
        }
        Err(last)
    };
    let stream = dial()?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
    let reader_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("sknn-pool-reader-{epoch}"))
        .spawn(move || reader_loop(reader_shared, read_half, epoch))
        .map_err(io::Error::other)?;
    *w = Some(stream);
    Ok(())
}

/// Demultiplexes inbound frames into pending slots until the connection
/// dies, then (if this connection is still the current one) fails every
/// in-flight request and clears the write half for a lazy redial.
fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream, epoch: u64) {
    let fatal: PoolError = loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let Some(req_id) = frame.reply_to() else {
                    // Stats / trace dumps carry no request id; a pooled
                    // connection never asks for them, so drop silently.
                    continue;
                };
                let waiter =
                    shared.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&req_id);
                if let Some(tx) = waiter {
                    // A dropped waiter (abandoned flight) is fine.
                    let _ = tx.send(Ok(frame));
                }
            }
            Err(RecvError::Closed) => break PoolError::ConnectionLost,
            Err(RecvError::Io(_)) => break PoolError::ConnectionLost,
            Err(RecvError::Protocol(e)) => break PoolError::Protocol(e),
        }
    };
    // Stale-reader guard: if a newer connection exists, its reader owns
    // the pending map and the write half — touch nothing.
    let mut w = shared.write.lock().unwrap_or_else(|e| e.into_inner());
    if shared.epoch.load(Ordering::SeqCst) != epoch {
        return;
    }
    *w = None;
    drop(w);
    let drained: Vec<_> = {
        let mut p = shared.pending.lock().unwrap_or_else(|e| e.into_inner());
        p.drain().collect()
    };
    let mut fatal = Some(fatal);
    for (_, tx) in drained {
        // The first waiter gets the real cause; the rest get the generic
        // loss (PoolError is not Clone because io::Error is not).
        let err = fatal.take().unwrap_or(PoolError::ConnectionLost);
        let _ = tx.send(Err(err));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_frame, ErrorCode, ErrorFrame, HEADER_LEN};
    use std::io::Write;
    use std::net::TcpListener;

    /// A trivial echo peer: answers every inbound frame with an error
    /// frame carrying the same req_id, in whatever order `reorder` says.
    fn spawn_peer(reorder: bool) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut pending: Vec<u64> = Vec::new();
            loop {
                match read_frame(&mut s) {
                    Ok(f) => {
                        if let Some((id, ..)) = f.request_header() {
                            pending.push(id);
                        }
                        let flush = if reorder { pending.len() >= 2 } else { true };
                        if flush {
                            if reorder {
                                pending.reverse();
                            }
                            for id in pending.drain(..) {
                                let reply = Frame::Error(ErrorFrame {
                                    req_id: id,
                                    code: ErrorCode::BadRequest,
                                    detail: format!("echo {id}"),
                                });
                                write_frame(&mut s, &reply).unwrap();
                            }
                        }
                    }
                    Err(_) => return,
                }
            }
        });
        (addr, h)
    }

    fn query(req_id: u64) -> Vec<u8> {
        Frame::Query(crate::protocol::QueryFrame {
            req_id,
            tri: 0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
            k: 1,
            deadline_ms: 0,
            trace_id: req_id,
            within: sknn_geom::Rect2::UNBOUNDED,
        })
        .encode()
    }

    #[test]
    fn replies_demux_by_req_id_even_reordered() {
        let (addr, _h) = spawn_peer(true);
        let pool = PoolClient::new(addr.to_string());
        let a = pool.next_req_id();
        let b = pool.next_req_id();
        let fa = pool.begin(a, &query(a)).unwrap();
        let fb = pool.begin(b, &query(b)).unwrap();
        // Peer flushes both replies in reverse order; each flight still
        // gets its own.
        let ra = fa.wait(Duration::from_secs(5)).unwrap();
        let rb = fb.wait(Duration::from_secs(5)).unwrap();
        match (ra, rb) {
            (Frame::Error(ea), Frame::Error(eb)) => {
                assert_eq!(ea.req_id, a);
                assert_eq!(eb.req_id, b);
            }
            other => panic!("unexpected frames: {other:?}"),
        }
    }

    #[test]
    fn dead_peer_fails_in_flight_and_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // First connection: read the request header, then hang up.
        let l2 = listener.try_clone().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut hdr = [0u8; HEADER_LEN];
            use std::io::Read;
            let _ = s.read_exact(&mut hdr);
            drop(s);
            // Second connection: behave.
            let (mut s, _) = l2.accept().unwrap();
            if let Ok(f) = read_frame(&mut s) {
                if let Some((id, ..)) = f.request_header() {
                    let reply = Frame::Error(ErrorFrame {
                        req_id: id,
                        code: ErrorCode::BadRequest,
                        detail: "ok".into(),
                    });
                    let _ = write_frame(&mut s, &reply);
                }
            }
            let _ = s.flush();
            std::thread::sleep(Duration::from_millis(100));
        });
        let pool = PoolClient::new(addr.to_string());
        let id = pool.next_req_id();
        let flight = pool.begin(id, &query(id)).unwrap();
        match flight.wait(Duration::from_secs(5)) {
            Err(PoolError::ConnectionLost) => {}
            other => panic!("expected ConnectionLost, got {other:?}"),
        }
        // Lazy reconnect on the next begin.
        let id2 = pool.next_req_id();
        let reply = pool.begin(id2, &query(id2)).unwrap().wait(Duration::from_secs(5)).unwrap();
        match reply {
            Frame::Error(e) => assert_eq!(e.req_id, id2),
            other => panic!("unexpected: {other:?}"),
        }
        peer.join().unwrap();
    }

    #[test]
    fn timeout_releases_the_pending_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            drop(s);
        });
        let pool = PoolClient::new(addr.to_string());
        let id = pool.next_req_id();
        let flight = pool.begin(id, &query(id)).unwrap();
        match flight.wait(Duration::from_millis(20)) {
            Err(PoolError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(pool.shared.pending.lock().unwrap().is_empty(), "slot must be released");
    }
}
