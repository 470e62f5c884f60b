//! A small blocking client for the sknn wire protocol, used by the load
//! generator, the end-to-end tests, and anyone scripting against a
//! running server.

use crate::protocol::{read_frame, write_frame, Frame, QueryFrame, RecvError};
use sknn_core::workload::SurfacePoint;
use sknn_geom::Rect2;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a server. Not thread-safe by design — callers that
/// want pipelining split sending and receiving across clones
/// ([`Client::try_clone`]).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with Nagle disabled and a read timeout, so a wedged
    /// server surfaces as an error rather than a silent hang.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(60))
    }

    /// [`connect`](Self::connect) with an explicit read timeout.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        read_timeout: Duration,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Self { stream })
    }

    /// Clones the underlying socket (shared kernel buffers), so one half
    /// can send while the other receives.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self { stream: self.stream.try_clone()? })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Receives one frame (blocking, up to the read timeout).
    pub fn recv(&mut self) -> Result<Frame, RecvError> {
        read_frame(&mut self.stream)
    }

    /// Sends a query for `k` neighbors of a known surface point — the full
    /// query: its tile is [`Rect2::UNBOUNDED`].
    pub fn send_query(
        &mut self,
        req_id: u64,
        q: SurfacePoint,
        k: u32,
        deadline_ms: u32,
    ) -> io::Result<()> {
        self.send_query_traced(req_id, q, k, deadline_ms, 0)
    }

    /// [`send_query`](Self::send_query) with an explicit trace id (0 =
    /// let the server mint one; the reply echoes the effective id).
    pub fn send_query_traced(
        &mut self,
        req_id: u64,
        q: SurfacePoint,
        k: u32,
        deadline_ms: u32,
        trace_id: u64,
    ) -> io::Result<()> {
        self.send(&Frame::Query(QueryFrame {
            req_id,
            tri: q.tri,
            x: q.pos.x,
            y: q.pos.y,
            z: q.pos.z,
            k,
            deadline_ms,
            trace_id,
            within: Rect2::UNBOUNDED,
        }))
    }

    /// Round-trips a `STATS` request. Only valid when no queries are in
    /// flight on this connection (replies are matched by arrival).
    pub fn fetch_stats(&mut self) -> Result<Vec<(String, u64)>, RecvError> {
        self.send(&Frame::StatsRequest).map_err(RecvError::Io)?;
        loop {
            match self.recv()? {
                Frame::Stats(s) => return Ok(s.entries),
                // Late query replies may still be draining past the
                // stats request; skip them.
                Frame::Response(_) | Frame::Error(_) => continue,
                _ => {
                    return Err(RecvError::Protocol(crate::protocol::ProtocolError::Malformed(
                        "unexpected frame awaiting stats",
                    )))
                }
            }
        }
    }

    /// Round-trips a `TRACE_DUMP` request, returning the server's
    /// slow-query reservoir as JSONL. Same caveat as
    /// [`fetch_stats`](Self::fetch_stats): no queries in flight.
    pub fn fetch_trace_dump(&mut self) -> Result<String, RecvError> {
        self.send(&Frame::TraceDumpRequest).map_err(RecvError::Io)?;
        loop {
            match self.recv()? {
                Frame::TraceDump(t) => return Ok(t.jsonl),
                Frame::Response(_) | Frame::Error(_) => continue,
                _ => {
                    return Err(RecvError::Protocol(crate::protocol::ProtocolError::Malformed(
                        "unexpected frame awaiting trace dump",
                    )))
                }
            }
        }
    }
}
