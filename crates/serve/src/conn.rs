//! The two halves of a served connection — the interruptible frame
//! reader and the mutex'd reply writer — as the [`edge`](crate::edge)
//! uses them for every process that serves the protocol.

use crate::protocol::{decode_payload, parse_header, Frame, ProtocolError, HEADER_LEN};
use sknn_obs::Counter;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Shared write half of a connection. The workers and the
/// connection's reader thread all reply on the same socket (responses
/// vs. admission rejections), so writes go through a mutex and each
/// frame is a single `write_all` — frames never interleave.
#[derive(Debug)]
pub struct ConnWriter {
    /// `None` is the null sink: every send succeeds and goes nowhere.
    stream: Mutex<Option<TcpStream>>,
    /// Latched on the first failed write: the client is gone, so further
    /// replies are skipped instead of erroring one by one.
    dead: AtomicBool,
}

impl ConnWriter {
    /// The reply half of `stream`.
    pub fn new(stream: TcpStream) -> Self {
        Self { stream: Mutex::new(Some(stream)), dead: AtomicBool::new(false) }
    }

    /// A writer that discards every frame (unit tests).
    #[cfg(test)]
    pub fn null() -> Self {
        Self { stream: Mutex::new(None), dead: AtomicBool::new(false) }
    }

    /// Writes one frame; returns whether the client is still reachable.
    /// The first failed write bumps `write_errors`. A reply whose list
    /// does not fit one frame goes out as the typed `BadRequest` naming
    /// the list ([`Frame::encode_whole`]), never cut.
    pub fn send(&self, write_errors: &Counter, frame: &Frame) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let bytes = frame.encode_whole().unwrap_or_else(|e| Frame::Error(e).encode());
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let Some(stream) = stream.as_mut() else { return true };
        match stream.write_all(&bytes) {
            Ok(()) => true,
            Err(_) => {
                self.dead.store(true, Ordering::Relaxed);
                write_errors.inc();
                false
            }
        }
    }
}

/// What [`read_frame_interruptible`] found on the socket.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A decoded frame.
    Frame(Frame),
    /// Clean close at a frame boundary.
    Closed,
    /// Shutdown observed at a frame boundary.
    Shutdown,
    /// Bytes arrived but were not a valid frame (a foreign protocol
    /// version included); the stream position is no longer trustworthy.
    Protocol(ProtocolError),
    /// The transport failed.
    Io,
}

/// Reads one frame off a socket with a read timeout, re-arming on
/// timeouts so the reader can poll the shutdown flag. The flag is only
/// honored *between* frames: a frame whose bytes have started arriving
/// is finished and then rejected by the caller, keeping the stream
/// framing intact for the final replies.
pub fn read_frame_interruptible(stream: &mut TcpStream, shutdown: &AtomicBool) -> ReadOutcome {
    let mut header = [0u8; HEADER_LEN];
    match fill(stream, &mut header, Some(shutdown)) {
        Fill::Done => {}
        Fill::Eof(0) => return ReadOutcome::Closed,
        Fill::Eof(got) => {
            return ReadOutcome::Protocol(ProtocolError::Truncated { needed: HEADER_LEN, got })
        }
        Fill::Shutdown => return ReadOutcome::Shutdown,
        Fill::Io => return ReadOutcome::Io,
    }
    let (tag, len) = match parse_header(&header) {
        Ok(v) => v,
        Err(e) => return ReadOutcome::Protocol(e),
    };
    let mut payload = vec![0u8; len as usize];
    match fill(stream, &mut payload, None) {
        Fill::Done => {}
        Fill::Eof(got) => {
            return ReadOutcome::Protocol(ProtocolError::Truncated { needed: len as usize, got })
        }
        Fill::Shutdown => unreachable!("shutdown not polled mid-frame"),
        Fill::Io => return ReadOutcome::Io,
    }
    match decode_payload(tag, &payload) {
        Ok(frame) => ReadOutcome::Frame(frame),
        Err(e) => ReadOutcome::Protocol(e),
    }
}

enum Fill {
    Done,
    /// EOF after this many bytes.
    Eof(usize),
    Shutdown,
    Io,
}

/// Fills `buf` from the socket, treating timeouts as poll ticks. When
/// `shutdown` is provided it is checked before the first byte — i.e. at
/// a frame boundary only.
fn fill(stream: &mut TcpStream, buf: &mut [u8], shutdown: Option<&AtomicBool>) -> Fill {
    let mut filled = 0;
    while filled < buf.len() {
        if filled == 0 && shutdown.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            return Fill::Shutdown;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Fill::Eof(filled),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Fill::Io,
        }
    }
    Fill::Done
}
