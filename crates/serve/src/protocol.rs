//! The `sknn` wire protocol: length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"SKNN"
//!      4     2  protocol version (little-endian u16, must be 5)
//!      6     1  frame type tag
//!      7     1  reserved (must be 0 on send, ignored on receive)
//!      8     4  payload length (little-endian u32, <= MAX_PAYLOAD)
//! ```
//!
//! # One declaration per frame
//!
//! The frames are the rows of the `wire_table!` invocation below, and
//! nothing else: a row gives the tag, the payload's fields **in wire
//! order** with how each travels, and whether the frame is a request
//! (and which frame answers it) or a reply. The public struct, the
//! [`Frame`] variant, the encoder, the decoder, the tag range
//! [`parse_header`] accepts, the [`Request`] pairing and
//! [`Frame::request_header`] / [`Frame::reply_to`] are all generated from
//! that row, so a layout is written once. How a field travels:
//!
//! * `u8`/`u16`/`u32`/`u64` — little-endian; `f64` — its IEEE-754 bit
//!   pattern as a `u64`, so a decoded frame re-encodes to the identical
//!   byte string (the property the round-trip proptests pin down, and
//!   what makes the end-to-end "server result == direct engine call"
//!   comparison exact rather than approximate);
//! * `String` — u16 byte length + UTF-8; `str32` — the same behind a u32
//!   length; `Option<String>` — a 0/1 flag byte, then the string if 1;
//! * `list16<T>` / `list32<T>` — a u16 / u32 count, then the elements;
//! * a record ([`ServerTiming`], [`WireObject`], [`WireNeighbor`], a
//!   `Rect2` tile) or a pair — its fields one after the other.
//!
//! # Versioning
//!
//! The version travels per frame and exactly one is spoken:
//! [`VERSION`]` = 5`. [`parse_header`] rejects every
//! other version with a typed [`ProtocolError::BadVersion`] before looking
//! at the tag or the payload, and a server answers it with one
//! [`ErrorCode::BadRequest`] frame before hanging up — a foreign peer gets
//! a reason, never a hang or a misparse. (Versions 1 and 2 — no trace
//! ids, three-field timing, no shard ops — had no deployed client left
//! and their encode/decode branches are gone. Version 3 had a `CANCEL`
//! frame at tag 8 and no tile on `QUERY`; version 4 moved tags 9–15 down
//! by one, so a mixed fleet fails at the header instead of reading a
//! renumbered tag as the wrong frame. Version 4 had a radius-only
//! `RADIUS` request and reply at tags 12–13, which an `EXEC` over no
//! candidates replaces; version 5 moved `EXEC` from tag 14 to 12.)
//!
//! # Bounds
//!
//! Decoding is total: any byte string produces either a frame or a typed
//! [`ProtocolError`], never a panic. The payload-length cap bounds every
//! allocation before it happens, including the lists inside payloads: the
//! one list decoder checks a claimed count against the bytes actually
//! present before it reserves a vector. Encoding is bounded the same way
//! from the other side: the one list encoder stops at the last element
//! that still fits this frame's [`MAX_PAYLOAD`] beside everything else
//! the frame carries, so `encode` cannot produce a frame its peer would
//! reject as oversized. Only `STATS` may arrive cut that way: a request
//! or reply goes out through [`Frame::encode_whole`], which refuses to
//! cut its list and names it in a typed `BadRequest` instead — a query
//! never runs on, or answers with, a silent prefix.

use sknn_geom::{Point2, Rect2};
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SKNN";

/// The one protocol version: every frame is encoded at it, and a frame
/// carrying any other is rejected with [`ProtocolError::BadVersion`].
pub const VERSION: u16 = 5;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a payload. Frames claiming more are rejected before any
/// allocation happens, so a hostile length field cannot balloon memory.
pub const MAX_PAYLOAD: u32 = 4 << 20;

/// Sentinel triangle id in a [`QueryFrame`]: the query point carries only
/// plan coordinates `(x, y)` and the server locates the containing facet
/// itself (`Scene::surface_point`). Any other value names the facet
/// directly and `z` must be the surface height.
pub const LOCATE_TRI: u32 = u32::MAX;

/// Why a request was answered with an [`ErrorFrame`] instead of a result.
/// The discriminant is the code's byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue was full; the request was shed without being
    /// executed. Retry against a less-loaded server (or later).
    Overloaded = 1,
    /// The request spent half its deadline (or all of it) queued; it was
    /// dropped at dequeue without being executed.
    DeadlineExpired = 2,
    /// The query ran but storage faults exceeded the engine's per-query
    /// budget (`QueryError::FaultBudgetExceeded`).
    FaultBudgetExceeded = 3,
    /// The server is draining and no longer admits new requests.
    ShuttingDown = 4,
    /// The frame was well-formed but semantically invalid (facet id out of
    /// range, non-finite coordinates, a NaN tile bound, point outside the
    /// terrain, or an unexpected frame type).
    BadRequest = 5,
    /// The request's engine call panicked. Only this request failed: the
    /// server caught the panic, counted it (`sknn_serve_panics_total`)
    /// and keeps serving. (Byte 6, version 3's `Cancelled`, stays
    /// unassigned.)
    Internal = 7,
}

impl std::fmt::Display for ErrorCode {
    /// The variant's name.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version field was not [`VERSION`].
    BadVersion(u16),
    /// The frame type tag is not one this version defines.
    UnknownFrameType(u8),
    /// The header claimed a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
    },
    /// The input ended before the field being read was complete.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The payload parsed but violated an invariant (bad UTF-8, unknown
    /// error code, trailing bytes, a count larger than the payload could
    /// possibly hold).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtocolError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (supported {VERSION})")
            }
            ProtocolError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtocolError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} more bytes, got {got}")
            }
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------------
// Codecs: how each kind of field travels
// ---------------------------------------------------------------------------

/// Largest value a `width`-byte unsigned integer can state.
fn uint_max(width: usize) -> usize {
    (u64::MAX >> (64 - 8 * width)) as usize
}

/// The frame being written: the header, then the payload behind it.
struct Enc {
    buf: Vec<u8>,
    /// The first list cut short to fit, by its field name.
    cut: Option<&'static str>,
}

impl Enc {
    /// Payload bytes still free once `owed` — what the fields behind the
    /// current one need at the least — is set aside; `None` when the
    /// frame has already outgrown [`MAX_PAYLOAD`].
    fn room(&self, owed: usize) -> Option<usize> {
        (HEADER_LEN + MAX_PAYLOAD as usize).checked_sub(self.buf.len() + owed)
    }

    /// The low `width` bytes of `v`, little-endian.
    fn uint(&mut self, width: usize, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes()[..width]);
    }

    /// A `width`-byte length, then UTF-8 — cut at a char boundary where
    /// the length's range or the frame's room ends. (u16 strings are
    /// short reasons and details; the u32 one is the JSONL trace dump,
    /// whose lines parse independently — a cut loses entries, not syntax.)
    fn str(&mut self, width: usize, s: &str, owed: usize) {
        let mut end = s.len().min(uint_max(width)).min(self.room(owed + width).unwrap_or(0));
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.uint(width, end as u64);
        self.buf.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// A `width`-byte count, then the elements — as many as the count can
    /// state *and* this frame can still hold beside the `owed` bytes of
    /// its later fields, so no list can push a frame past the cap. A list
    /// cut short is noted under its field `name`.
    fn list<T: Wire>(&mut self, width: usize, items: &[T], owed: usize, name: &'static str) {
        let count_at = self.buf.len();
        self.uint(width, 0);
        let most = uint_max(width).min(self.room(owed).unwrap_or(0) / T::MIN_LEN);
        let mut n = 0usize;
        for item in items.iter().take(most) {
            let mark = self.buf.len();
            item.put(self);
            // Only an element longer than its minimum can overshoot.
            if self.room(owed).is_none() {
                self.buf.truncate(mark);
                break;
            }
            n += 1;
        }
        if n < items.len() {
            self.cut.get_or_insert(name);
        }
        self.buf[count_at..count_at + width].copy_from_slice(&(n as u64).to_le_bytes()[..width]);
    }
}

/// Cursor over a payload with bounds-checked reads.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { needed: n, got: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn uint(&mut self, width: usize) -> Result<u64, ProtocolError> {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(self.bytes(width)?);
        Ok(u64::from_le_bytes(le))
    }

    fn str(&mut self, width: usize) -> Result<String, ProtocolError> {
        let len = self.uint(width)? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| ProtocolError::Malformed("invalid utf-8 in string"))
    }

    /// Reads a counted list, rejecting a count the remaining payload
    /// cannot hold before reserving anything.
    fn list<T: Wire>(&mut self, width: usize) -> Result<Vec<T>, ProtocolError> {
        let n = self.uint(width)? as usize;
        let needed = n.saturating_mul(T::MIN_LEN);
        if self.remaining() < needed {
            return Err(ProtocolError::Truncated { needed, got: self.remaining() });
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(self)?);
        }
        Ok(items)
    }
}

/// A value whose Rust type alone says how it travels.
trait Wire: Sized {
    /// The fewest bytes one value occupies (all of them, unless it holds
    /// a string).
    const MIN_LEN: usize;
    fn put(&self, w: &mut Enc);
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError>;
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = size_of::<$t>();
            fn put(&self, w: &mut Enc) {
                w.uint(Self::MIN_LEN, *self as u64);
            }
            fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
                Ok(r.uint(Self::MIN_LEN)? as $t)
            }
        }
    )*};
}
wire_uint!(u8, u16, u32, u64);

impl Wire for f64 {
    const MIN_LEN: usize = 8;
    fn put(&self, w: &mut Enc) {
        self.to_bits().put(w);
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for ErrorCode {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Enc) {
        (*self as u8).put(w);
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        use ErrorCode::*;
        let code = u8::get(r)?;
        [Overloaded, DeadlineExpired, FaultBudgetExceeded, ShuttingDown, BadRequest, Internal]
            .into_iter()
            .find(|c| *c as u8 == code)
            .ok_or(ProtocolError::Malformed("unknown error code"))
    }
}

/// A tile travels as its four bounds, `lo.x`, `lo.y`, `hi.x`, `hi.y`.
impl Wire for Rect2 {
    const MIN_LEN: usize = 32;
    fn put(&self, w: &mut Enc) {
        [self.lo.x, self.lo.y, self.hi.x, self.hi.y].iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        let lo = Point2::new(f64::get(r)?, f64::get(r)?);
        Ok(Rect2::new(lo, Point2::new(f64::get(r)?, f64::get(r)?)))
    }
}

impl Wire for String {
    const MIN_LEN: usize = 2;
    fn put(&self, w: &mut Enc) {
        w.str(2, self, 0);
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        r.str(2)
    }
}

impl Wire for Option<String> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut Enc) {
        match self {
            Some(s) => {
                1u8.put(w);
                s.put(w);
            }
            None => 0u8.put(w),
        }
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(String::get(r)?)),
            _ => Err(ProtocolError::Malformed("bad degraded flag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, w: &mut Enc) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Declares a record: the public struct and its [`Wire`] impl, fields in
/// wire order, each `name: codec` (the module doc lists the codecs).
macro_rules! wire_record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fm:meta])* $f:ident: $c:ident $(<$e:ty>)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$fm])* pub $f: wire_record!(@ty $c $(<$e>)?), )*
        }

        impl Wire for $name {
            const MIN_LEN: usize = 0 $( + wire_record!(@min $c $(<$e>)?) )*;
            // `owed` is what the fields behind the current one need at
            // the least; only the clamping codecs read it.
            #[allow(unused_variables, unused_assignments)]
            fn put(&self, w: &mut Enc) {
                let mut owed = Self::MIN_LEN;
                $(
                    owed -= wire_record!(@min $c $(<$e>)?);
                    wire_record!(@put w, &self.$f, owed, stringify!($f), $c $(<$e>)?);
                )*
            }
            fn get(r: &mut Rd<'_>) -> Result<Self, ProtocolError> {
                Ok(Self { $( $f: wire_record!(@get r, $c $(<$e>)?), )* })
            }
        }
    };
    // Per codec: the Rust type it carries, its fewest bytes, how it is
    // written and how it is read.
    (@ty str32) => { String };
    (@ty list16<$e:ty>) => { Vec<$e> };
    (@ty list32<$e:ty>) => { Vec<$e> };
    (@ty $t:ident $(<$e:ty>)?) => { $t $(<$e>)? };
    (@min str32) => { 4 };
    (@min list16<$e:ty>) => { 2 };
    (@min list32<$e:ty>) => { 4 };
    (@min $t:ident $(<$e:ty>)?) => { <$t $(<$e>)? as Wire>::MIN_LEN };
    (@put $w:ident, $v:expr, $owed:ident, $n:expr, str32) => { $w.str(4, $v, $owed) };
    (@put $w:ident, $v:expr, $owed:ident, $n:expr, list16<$e:ty>) => { $w.list(2, $v, $owed, $n) };
    (@put $w:ident, $v:expr, $owed:ident, $n:expr, list32<$e:ty>) => { $w.list(4, $v, $owed, $n) };
    (@put $w:ident, $v:expr, $owed:ident, $n:expr, $t:ident $(<$e:ty>)?) => { Wire::put($v, $w) };
    (@get $r:ident, str32) => { $r.str(4)? };
    (@get $r:ident, list16<$e:ty>) => { $r.list(2)? };
    (@get $r:ident, list32<$e:ty>) => { $r.list(4)? };
    (@get $r:ident, $t:ident $(<$e:ty>)?) => { <$t $(<$e>)? as Wire>::get($r)? };
}

wire_record! {
    /// One ranked neighbor on the wire: object id plus its surface-distance
    /// range `[lb, ub]`, bit-exact.
    #[derive(Copy)]
    pub struct WireNeighbor {
        /// Object id.
        id: u32,
        /// Surface distance lower bound.
        lb: f64,
        /// Surface distance upper bound.
        ub: f64,
    }
}

wire_record! {
    /// One object on the wire: id plus its located surface point, enough for
    /// a peer to rebuild the engine's candidate without a local object table.
    #[derive(Copy)]
    pub struct WireObject {
        /// Object id (global across the fleet — shards keep genesis ids).
        id: u32,
        /// Containing facet of the object's surface point.
        tri: u32,
        /// Surface point x (bit-exact f64).
        x: f64,
        /// Surface point y.
        y: f64,
        /// Surface point z.
        z: f64,
    }
}

wire_record! {
    /// Server-side timing attached to every successful response: queue +
    /// exec partition the request's time in the server. The four
    /// engine-stage fields are per-request wall time inside the engine call;
    /// `stall_us` is the part of it this request's own reads spent stalled
    /// in the pager, whatever concurrent requests stalled meanwhile.
    #[derive(Copy, Eq, Default)]
    pub struct ServerTiming {
        /// Microseconds the request waited in the admission queue (arrival to
        /// worker pickup).
        queue_us: u32,
        /// Reserved: always 0 (no stage sits between pickup and the engine
        /// call). Kept for the wire layout.
        linger_us: u32,
        /// Microseconds this request's engine call took.
        exec_us: u32,
        /// Engine step 1 (2D k-NN seeding) wall time for this request.
        knn2d_us: u32,
        /// Engine step 2 (radius estimation) wall time for this request.
        radius_us: u32,
        /// Engine step 3 (planar range query) wall time for this request.
        range_us: u32,
        /// Engine step 4 (iterative ranking) wall time for this request.
        rank_us: u32,
        /// Pager stall wall time of this request's own reads.
        stall_us: u32,
        /// Reserved: always 1 (a request is executed on its own). Kept for
        /// the wire layout.
        batch: u16,
    }
}

// ---------------------------------------------------------------------------
// The frames
// ---------------------------------------------------------------------------

/// The ids a payload carries by its kind in the table.
enum Ids {
    /// A request's correlation id, trace id and relative deadline (ms).
    Request(u64, u64, u32),
    /// The correlation id a reply answers.
    Reply(u64),
}

/// A request frame, paired with the frame that answers it when it
/// succeeds ([`ErrorFrame`] may answer any request).
pub trait Request: Into<Frame> {
    /// The successful reply.
    type Reply: TryFrom<Frame, Error = Frame>;
}

/// Declares the protocol: one row per frame, `tag => Variant` for an
/// empty payload or `tag => Variant(Payload: kind { fields })` — a
/// [`wire_record!`] with an optional kind, `request -> Reply` (the fields
/// include a correlation id, a trace id and a relative deadline, and
/// `Reply` answers it) or `reply` (they include the correlation id it
/// answers). Tags are dense from 1.
macro_rules! wire_table {
    ($(
        $(#[$vm:meta])*
        $tag:literal => $variant:ident $((
            $(#[$pm:meta])*
            $payload:ident $(: $kind:ident $(-> $reply:ident)?)? { $($fields:tt)* }
        ))?
    ),* $(,)?) => {
        $($(
            wire_record! { $(#[$pm])* pub struct $payload { $($fields)* } }
            $($( impl Request for $payload { type Reply = $reply; } )?)?

            impl From<$payload> for Frame {
                fn from(payload: $payload) -> Frame {
                    Frame::$variant(payload)
                }
            }

            impl TryFrom<Frame> for $payload {
                type Error = Frame;
                /// The payload if `frame` is this kind, `frame` back if not.
                fn try_from(frame: Frame) -> Result<Self, Frame> {
                    match frame {
                        Frame::$variant(payload) => Ok(payload),
                        other => Err(other),
                    }
                }
            }
        )?)*

        /// Any protocol frame.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Frame {
            $( $(#[$vm])* $variant $(($payload))?, )*
        }

        /// The highest frame type tag; every tag in `1..=MAX_TAG` is a frame.
        const MAX_TAG: u8 = [$($tag),*].len() as u8;

        impl Frame {
            fn tag(&self) -> u8 {
                match self {
                    $( Frame::$variant { .. } => $tag, )*
                }
            }

            fn put_payload(&self, w: &mut Enc) {
                match self {
                    $($( Frame::$variant(payload) => $payload::put(payload, w), )?)*
                    _ => {}
                }
            }

            fn ids(&self) -> Option<Ids> {
                match self {
                    $($($( Frame::$variant(p) => Some(wire_table!(@ids p $kind)), )?)?)*
                    _ => None,
                }
            }
        }

        /// Decodes a validated-header payload into a frame. The payload must be
        /// consumed exactly; trailing bytes are malformed (they would silently
        /// desynchronize a stream under a future layout change).
        pub fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
            let mut rd = Rd { buf: payload, pos: 0 };
            let frame = match tag {
                $( $tag => Frame::$variant $(($payload::get(&mut rd)?))?, )*
                other => return Err(ProtocolError::UnknownFrameType(other)),
            };
            if rd.pos != payload.len() {
                return Err(ProtocolError::Malformed("trailing bytes in payload"));
            }
            Ok(frame)
        }
    };
    (@ids $p:ident request) => { Ids::Request($p.req_id, $p.trace_id, $p.deadline_ms) };
    (@ids $p:ident reply) => { Ids::Reply($p.req_id) };
}

wire_table! {
    /// Client → server: a k-NN request.
    1 => Query(
        /// A surface k-NN request.
        QueryFrame: request -> ResponseFrame {
            /// Client-chosen correlation id, echoed verbatim in the reply. Replies
            /// may arrive out of order (requests run concurrently and finish at
            /// different times), so clients match on this, not on arrival order.
            req_id: u64,
            /// Containing facet of the query point, or [`LOCATE_TRI`] to have the
            /// server locate it from `(x, y)`.
            tri: u32,
            /// Query point x (bit-exact f64).
            x: f64,
            /// Query point y.
            y: f64,
            /// Query point z (surface height; ignored when `tri` is [`LOCATE_TRI`]).
            z: f64,
            /// Number of neighbors requested.
            k: u32,
            /// Per-request deadline in milliseconds from arrival; `0` means none.
            deadline_ms: u32,
            /// Client-supplied trace id stamping every obs record this request
            /// produces; `0` asks the server to mint one (echoed in the reply
            /// either way).
            trace_id: u64,
            /// The tile the answer must stay inside (`lo.x`, `lo.y`, `hi.x`,
            /// `hi.y`). [`Rect2::UNBOUNDED`] — what a direct client sends — is
            /// the full query. A router sends a home shard its open tile: the
            /// shard stops after step 2, and replies with no neighbours and
            /// the radius it reached, unless the step-2 circle stays strictly
            /// inside it (and the shard holds at least `k` objects). A NaN
            /// bound is a `BadRequest`.
            within: Rect2,
        }
    ),
    /// Server → client: a successful reply.
    2 => Response(
        /// A successful k-NN reply.
        ResponseFrame: reply {
            /// Echo of the request's correlation id.
            req_id: u64,
            /// The request's trace id (client-supplied or server-minted) — the
            /// key into metrics-endpoint slow-query dumps and server traces.
            trace_id: u64,
            /// The MR3 step-2 search radius this answer was computed under — or,
            /// for a query stopped at its tile's edge, the radius it reached.
            /// `0.0` when the engine reported none.
            radius: f64,
            /// Queue/execution timing and batch size for this request.
            timing: ServerTiming,
            /// Set when the result is valid but looser than a fault-free,
            /// deadline-free run would deliver (e.g. `"DeadlineExpired"`).
            degraded: Option<String>,
            /// The k nearest objects, ascending by distance estimate.
            neighbors: list16<WireNeighbor>,
        }
    ),
    /// Server → client: a typed failure reply.
    3 => Error(
        /// A typed error reply. Every admitted or rejected request gets exactly
        /// one reply — an error frame is the "no" that prevents client hangs.
        ErrorFrame: reply {
            /// Echo of the request's correlation id (0 when the error is not
            /// attributable to a specific request, e.g. a malformed frame).
            req_id: u64,
            /// Machine-readable reason.
            code: ErrorCode,
            /// Human-readable detail.
            detail: String,
        }
    ),
    /// Client → server: ask for a statistics snapshot.
    4 => StatsRequest,
    /// Server → client: the statistics snapshot.
    5 => Stats(
        /// A server statistics snapshot: ordered `(name, value)` counters.
        #[derive(Eq, Default)]
        StatsFrame {
            /// Counter name/value pairs, in server-defined order.
            entries: list16<(String, u64)>,
        }
    ),
    /// Client → server: ask for the slow-query JSONL dump.
    6 => TraceDumpRequest,
    /// Server → client: the slow-query JSONL dump.
    7 => TraceDump(
        /// The slow-query reservoir as JSONL, one object per captured request.
        /// The text is truncated at a char boundary if it would
        /// exceed [`MAX_PAYLOAD`]; each line is self-contained, so truncation
        /// loses whole oldest-entries, never syntax.
        #[derive(Eq, Default)]
        TraceDumpFrame {
            /// JSONL body: newline-separated JSON objects.
            jsonl: str32,
        }
    ),
    /// Router → shard: local 2D k-NN seeds.
    8 => SeedsRequest(
        /// Shard op: return the k nearest *live objects by 2D plan distance* to
        /// `(x, y)` (MR3 step 1 restricted to this shard's tile).
        #[derive(Copy)]
        SeedsRequestFrame: request -> SeedsFrame {
            /// Correlation id, echoed in the [`SeedsFrame`] reply.
            req_id: u64,
            /// Trace id stamping the shard's obs records for this leg.
            trace_id: u64,
            /// Query plan x.
            x: f64,
            /// Query plan y.
            y: f64,
            /// Number of seeds requested.
            k: u32,
            /// Per-request deadline in milliseconds from arrival; `0` means none.
            deadline_ms: u32,
        }
    ),
    /// Shard → router: the local seeds.
    9 => Seeds(
        /// Reply to [`SeedsRequestFrame`]: this shard's local 2D k-NN seeds,
        /// ascending by `(dist, id)` — the canonical order the router's merge
        /// preserves.
        SeedsFrame: reply {
            /// Echo of the request's correlation id.
            req_id: u64,
            /// Echo of the request's trace id.
            trace_id: u64,
            /// `(2D plan distance, object)` pairs, ascending by `(dist, id)`.
            seeds: list32<(f64, WireObject)>,
        }
    ),
    /// Router → shard: local 2D range collection.
    10 => RangeRequest(
        /// Shard op: return every live object within 2D plan distance `radius`
        /// of `(x, y)` (MR3 step 3 restricted to this shard's tile). A
        /// non-finite radius means "every live object" — the engine's degenerate
        /// fallback when radius estimation hit its deadline.
        #[derive(Copy)]
        RangeRequestFrame: request -> RangeFrame {
            /// Correlation id, echoed in the [`RangeFrame`] reply.
            req_id: u64,
            /// Trace id stamping the shard's obs records for this leg.
            trace_id: u64,
            /// Query plan x.
            x: f64,
            /// Query plan y.
            y: f64,
            /// 2D search radius (bit-exact; may be non-finite).
            radius: f64,
            /// Per-request deadline in milliseconds from arrival; `0` means none.
            deadline_ms: u32,
        }
    ),
    /// Shard → router: the in-range objects.
    11 => Range(
        /// Reply to [`RangeRequestFrame`]: the in-range objects ascending by id
        /// (canonical order; the router's k-way merge preserves it).
        RangeFrame: reply {
            /// Echo of the request's correlation id.
            req_id: u64,
            /// Echo of the request's trace id.
            trace_id: u64,
            /// In-range objects, ascending by id.
            objects: list32<WireObject>,
        }
    ),
    /// Router → home shard: coupled ranking over merged candidates; the
    /// reply is a [`Frame::Response`].
    12 => ExecRequest(
        /// Shard op: run MR3 steps 2+4 (radius + coupled ranking) on the home
        /// shard over explicit, router-merged seed and candidate lists, replying
        /// with a [`ResponseFrame`] whose neighbors carry up to `k + 1` entries
        /// so the router can re-check the `ub(p_k) ≤ lb(p_{k+1})` termination
        /// bound itself. Over no candidates the reply is the step-2 radius
        /// of the seeds alone, with no neighbors.
        ExecRequestFrame: request -> ResponseFrame {
            /// Correlation id, echoed in the reply.
            req_id: u64,
            /// Trace id stamping the shard's obs records.
            trace_id: u64,
            /// Containing facet of the query point, or [`LOCATE_TRI`].
            tri: u32,
            /// Query point x.
            x: f64,
            /// Query point y.
            y: f64,
            /// Query point z.
            z: f64,
            /// Number of neighbors requested.
            k: u32,
            /// Per-request deadline in milliseconds from arrival; `0` means none.
            deadline_ms: u32,
            /// The globally merged seeds, in canonical `(dist, id)` order.
            seeds: list32<WireObject>,
            /// The globally merged in-range candidates, ascending by id.
            cands: list32<WireObject>,
        }
    ),
}

impl Frame {
    /// A typed error reply to request `req_id`.
    pub fn error(req_id: u64, code: ErrorCode, detail: &str) -> Frame {
        Frame::Error(ErrorFrame { req_id, code, detail: detail.to_string() })
    }

    /// For a request frame, what admission needs of it whatever its
    /// payload: `(correlation id, trace id, relative deadline in
    /// milliseconds)`. `None` for every other frame.
    pub fn request_header(&self) -> Option<(u64, u64, u32)> {
        match self.ids()? {
            Ids::Request(req_id, trace_id, deadline) => Some((req_id, trace_id, deadline)),
            Ids::Reply(_) => None,
        }
    }

    /// For a reply frame, the correlation id of the request it answers.
    /// `None` for every other frame (`STATS` and `TRACE_DUMP` carry no
    /// id: they are matched by arrival order).
    pub fn reply_to(&self) -> Option<u64> {
        match self.ids()? {
            Ids::Reply(req_id) => Some(req_id),
            Ids::Request(..) => None,
        }
    }

    /// Serializes the frame (header at [`VERSION`] plus payload), a list
    /// that does not fit cut to what does (see the module doc).
    pub fn encode(&self) -> Vec<u8> {
        self.put().buf
    }

    /// The one check on a request's or reply's lists: its bytes whole, or
    /// — when a list would not fit [`MAX_PAYLOAD`] beside the rest of the
    /// frame — the typed `BadRequest` that names the list, addressed to
    /// the frame's correlation id. `STATS` and `TRACE_DUMP` carry no id
    /// and keep their documented cut.
    pub fn encode_whole(&self) -> Result<Vec<u8>, ErrorFrame> {
        let w = self.put();
        match (w.cut, self.ids()) {
            (Some(list), Some(Ids::Request(req_id, ..) | Ids::Reply(req_id))) => Err(ErrorFrame {
                req_id,
                code: ErrorCode::BadRequest,
                detail: format!("{list} list does not fit one frame"),
            }),
            _ => Ok(w.buf),
        }
    }

    fn put(&self) -> Enc {
        let mut w = Enc { buf: Vec::with_capacity(HEADER_LEN + 64), cut: None };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w.buf.push(self.tag());
        w.buf.push(0); // reserved
        w.buf.extend_from_slice(&0u32.to_le_bytes()); // length back-patched
        self.put_payload(&mut w);
        let len = (w.buf.len() - HEADER_LEN) as u32;
        w.buf[8..12].copy_from_slice(&len.to_le_bytes());
        w
    }

    /// Parses exactly one frame from the front of `bytes`, returning the
    /// frame and the number of bytes it occupied. Trailing bytes beyond
    /// the frame are the caller's business (the next frame, typically).
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), ProtocolError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtocolError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let (tag, len) = parse_header(&header)?;
        let total = HEADER_LEN + len as usize;
        if bytes.len() < total {
            return Err(ProtocolError::Truncated { needed: total, got: bytes.len() });
        }
        let frame = decode_payload(tag, &bytes[HEADER_LEN..total])?;
        Ok((frame, total))
    }
}

/// Validates a frame header, returning the frame type tag and payload
/// length. Shared by the one-shot [`Frame::decode`] and the incremental
/// socket readers (which need to size the payload read before it exists).
/// The version is checked right after the magic, so a foreign dialect is
/// a [`ProtocolError::BadVersion`] whatever its tag and length say.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), ProtocolError> {
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(ProtocolError::BadMagic(m));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let tag = header[6];
    if !(1..=MAX_TAG).contains(&tag) {
        return Err(ProtocolError::UnknownFrameType(tag));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    Ok((tag, len))
}

// ---------------------------------------------------------------------------
// Blocking socket I/O
// ---------------------------------------------------------------------------

/// Why a blocking frame read failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The transport failed (including read timeouts).
    Io(io::Error),
    /// Bytes arrived but were not a valid frame.
    Protocol(ProtocolError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("connection closed"),
            RecvError::Io(e) => write!(f, "i/o error: {e}"),
            RecvError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Writes one frame to `w` (single `write_all`, so concurrent writers
/// serialized by a mutex cannot interleave partial frames).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())
}

/// Blocking read of exactly one frame. EOF at a frame boundary is
/// [`RecvError::Closed`]; EOF mid-frame is a protocol truncation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, RecvError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    let (tag, len) = parse_header(&header).map_err(RecvError::Protocol)?;
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, false)?;
    decode_payload(tag, &payload).map_err(RecvError::Protocol)
}

/// `read_exact` that distinguishes clean EOF before the first byte
/// (`boundary` true → [`RecvError::Closed`]) from truncation mid-field.
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], boundary: bool) -> Result<(), RecvError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if boundary && filled == 0 {
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Protocol(ProtocolError::Truncated {
                        needed: buf.len(),
                        got: filled,
                    }))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let f = Frame::Query(QueryFrame {
            req_id: 7,
            tri: 3,
            x: 10.5,
            y: -2.25,
            z: 99.0,
            k: 4,
            deadline_ms: 250,
            trace_id: 0xDEAD_BEEF,
            within: Rect2::new(Point2::new(0.0, -1.5), Point2::new(20.0, f64::INFINITY)),
        });
        let bytes = f.encode();
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn nan_coordinates_round_trip_bit_exact() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let f = Frame::Query(QueryFrame {
            req_id: 1,
            tri: LOCATE_TRI,
            x: weird,
            y: f64::NEG_INFINITY,
            z: -0.0,
            k: 1,
            deadline_ms: 0,
            trace_id: 0,
            within: Rect2::UNBOUNDED,
        });
        let bytes = f.encode();
        let (back, _) = Frame::decode(&bytes).unwrap();
        // NaN != NaN, so compare the re-encoding byte-for-byte.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn shard_op_frames_round_trip_bit_exact() {
        let obj = |id: u32| WireObject {
            id,
            tri: id * 3,
            x: id as f64 + 0.25,
            y: -(id as f64),
            z: id as f64 * 0.5,
        };
        let frames = vec![
            Frame::SeedsRequest(SeedsRequestFrame {
                req_id: 1,
                trace_id: 2,
                x: 3.5,
                y: -4.5,
                k: 8,
                deadline_ms: 100,
            }),
            Frame::Seeds(SeedsFrame {
                req_id: 1,
                trace_id: 2,
                seeds: vec![(0.5, obj(7)), (f64::INFINITY, obj(9))],
            }),
            Frame::RangeRequest(RangeRequestFrame {
                req_id: 3,
                trace_id: 4,
                x: 1.0,
                y: 2.0,
                radius: f64::INFINITY,
                deadline_ms: 0,
            }),
            Frame::Range(RangeFrame { req_id: 3, trace_id: 4, objects: vec![obj(1), obj(2)] }),
            Frame::ExecRequest(ExecRequestFrame {
                req_id: 7,
                trace_id: 8,
                tri: LOCATE_TRI,
                x: 1.5,
                y: 2.5,
                z: 0.0,
                k: 3,
                deadline_ms: 250,
                seeds: vec![obj(1), obj(2)],
                cands: vec![obj(1), obj(2), obj(3)],
            }),
        ];
        for f in frames {
            let bytes = f.encode();
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back.encode(), bytes, "{f:?}");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn object_list_count_checked_before_reserve() {
        let f = Frame::Range(RangeFrame { req_id: 1, trace_id: 2, objects: vec![] });
        let mut bytes = f.encode();
        // Overwrite the count (after req_id + trace_id) with a huge value.
        let count_at = HEADER_LEN + 16;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(ProtocolError::Truncated { .. }) => {}
            other => panic!("expected truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_typed_without_allocation() {
        let mut bytes = Frame::StatsRequest.encode();
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(ProtocolError::Oversized { len: MAX_PAYLOAD + 1 }));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut bytes = Frame::StatsRequest.encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes.push(0xAB);
        assert_eq!(
            Frame::decode(&bytes),
            Err(ProtocolError::Malformed("trailing bytes in payload"))
        );
    }

    /// One fixed instance per frame type (some twice, to cover empty and
    /// non-empty lists and both `degraded` states), in tag order.
    fn golden_frames() -> Vec<Frame> {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let obj = |id: u32| WireObject { id, tri: id * 3, x: id as f64 + 0.25, y: -0.0, z: nan };
        let timing = ServerTiming {
            queue_us: 1,
            linger_us: 2,
            exec_us: 3,
            knn2d_us: 4,
            radius_us: 5,
            range_us: 6,
            rank_us: 7,
            stall_us: 8,
            batch: 9,
        };
        vec![
            Frame::Query(QueryFrame {
                req_id: 0x0102_0304_0506_0708,
                tri: LOCATE_TRI,
                x: nan,
                y: -0.0,
                z: 99.5,
                k: 4,
                deadline_ms: 250,
                trace_id: 0xDEAD_BEEF,
                within: Rect2::new(Point2::new(-1.5, -0.0), Point2::new(37.25, 64.0)),
            }),
            Frame::Response(ResponseFrame {
                req_id: 7,
                trace_id: 9,
                neighbors: vec![
                    WireNeighbor { id: 3, lb: 1.5, ub: 2.5 },
                    WireNeighbor { id: u32::MAX, lb: -0.0, ub: nan },
                ],
                degraded: Some("DeadlineExpired — 期限".to_string()),
                timing,
                radius: 12.25,
            }),
            Frame::Response(ResponseFrame {
                req_id: 8,
                trace_id: 10,
                neighbors: vec![],
                degraded: None,
                timing: ServerTiming::default(),
                radius: f64::INFINITY,
            }),
            Frame::error(11, ErrorCode::Internal, "détail ✓ 雪"),
            Frame::StatsRequest,
            Frame::Stats(StatsFrame {
                entries: vec![("accepted".to_string(), 12), ("größe".to_string(), u64::MAX)],
            }),
            Frame::Stats(StatsFrame::default()),
            Frame::TraceDumpRequest,
            Frame::TraceDump(TraceDumpFrame {
                jsonl: "{\"trace_id\":1}\n{\"détail\":\"✓\"}\n".into(),
            }),
            Frame::SeedsRequest(SeedsRequestFrame {
                req_id: 15,
                trace_id: 16,
                x: 3.5,
                y: -0.0,
                k: 8,
                deadline_ms: 100,
            }),
            Frame::Seeds(SeedsFrame {
                req_id: 15,
                trace_id: 16,
                seeds: vec![(0.5, obj(7)), (f64::INFINITY, obj(9))],
            }),
            Frame::Seeds(SeedsFrame { req_id: 17, trace_id: 18, seeds: vec![] }),
            Frame::RangeRequest(RangeRequestFrame {
                req_id: 19,
                trace_id: 20,
                x: nan,
                y: 2.0,
                radius: f64::INFINITY,
                deadline_ms: 0,
            }),
            Frame::Range(RangeFrame { req_id: 19, trace_id: 20, objects: vec![obj(1), obj(2)] }),
            Frame::Range(RangeFrame { req_id: 21, trace_id: 22, objects: vec![] }),
            Frame::ExecRequest(ExecRequestFrame {
                req_id: 25,
                trace_id: 26,
                tri: LOCATE_TRI,
                x: 1.5,
                y: 2.5,
                z: -0.0,
                k: 3,
                deadline_ms: 250,
                seeds: vec![obj(1)],
                cands: vec![obj(1), obj(5)],
            }),
            Frame::ExecRequest(ExecRequestFrame {
                req_id: 27,
                trace_id: 28,
                tri: 2,
                x: 1.5,
                y: 2.5,
                z: 3.5,
                k: 0,
                deadline_ms: 0,
                seeds: vec![],
                cands: vec![],
            }),
        ]
    }

    /// `encode()` of each [`golden_frames`] entry, generated at commit
    /// `372efae` (the hand-written codec) and carried to version 4 by
    /// hand: every header's version bytes, tags 9–15 down by one, the
    /// `Query` row's tile appended, the error row's code byte 6 → 7. To
    /// version 5 likewise: every header's version byte, the two `RADIUS`
    /// rows gone, the `ExecRequest` rows' tag 14 → 12. A field-order,
    /// count-width or tag change moves these bytes; a round-trip test
    /// cannot see one.
    #[rustfmt::skip]
    const GOLDEN_HEX: &[&str] = &[
        "534b4e4e05000100540000000807060504030201ffffffff0100efbeaddef87f00000000000000800000000000e0584004000000fa000000efbeadde00000000000000000000f8bf00000000000000800000000000a042400000000000005040",
        "534b4e4e050002008100000007000000000000000900000000000000000000000080284001000000020000000300000004000000050000000600000007000000080000000900011a00446561646c696e654578706972656420e2809420e69c9fe99990020003000000000000000000f83f0000000000000440ffffffff00000000000000800100efbeaddef87f",
        "534b4e4e050002003d00000008000000000000000a00000000000000000000000000f07f00000000000000000000000000000000000000000000000000000000000000000000000000",
        "534b4e4e050003001a0000000b00000000000000070f0064c3a97461696c20e29c9320e99baa",
        "534b4e4e0500040000000000",
        "534b4e4e05000500250000000200080061636365707465640c0000000000000007006772c3b6c39f65ffffffffffffffff",
        "534b4e4e05000500020000000000",
        "534b4e4e0500060000000000",
        "534b4e4e0500070025000000210000007b2274726163655f6964223a317d0a7b2264c3a97461696c223a22e29c93227d0a",
        "534b4e4e05000800280000000f0000000000000010000000000000000000000000000c4000000000000000800800000064000000",
        "534b4e4e05000900640000000f00000000000000100000000000000002000000000000000000e03f07000000150000000000000000001d4000000000000000800100efbeaddef87f000000000000f07f090000001b000000000000000080224000000000000000800100efbeaddef87f",
        "534b4e4e05000900140000001100000000000000120000000000000000000000",
        "534b4e4e05000a002c000000130000000000000014000000000000000100efbeaddef87f0000000000000040000000000000f07f00000000",
        "534b4e4e05000b005400000013000000000000001400000000000000020000000100000003000000000000000000f43f00000000000000800100efbeaddef87f0200000006000000000000000000024000000000000000800100efbeaddef87f",
        "534b4e4e05000b00140000001500000000000000160000000000000000000000",
        "534b4e4e05000c009c00000019000000000000001a00000000000000ffffffff000000000000f83f0000000000000440000000000000008003000000fa000000010000000100000003000000000000000000f43f00000000000000800100efbeaddef87f020000000100000003000000000000000000f43f00000000000000800100efbeaddef87f050000000f000000000000000000154000000000000000800100efbeaddef87f",
        "534b4e4e05000c003c0000001b000000000000001c0000000000000002000000000000000000f83f00000000000004400000000000000c4000000000000000000000000000000000",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_wire_bytes() {
        let frames = golden_frames();
        assert_eq!(frames.len(), GOLDEN_HEX.len());
        for (frame, want) in frames.iter().zip(GOLDEN_HEX) {
            let bytes = frame.encode();
            assert_eq!(hex(&bytes), *want, "{frame:?}");
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            // NaN != NaN, so compare the re-encoding byte-for-byte.
            assert_eq!(back.encode(), bytes, "{frame:?}");
        }
    }

    /// Every tag the header check admits is a frame with a golden entry,
    /// and the first tag past the table is not — so a thirteenth row
    /// cannot be added without `parse_header` and the fixture following.
    #[test]
    fn every_tag_up_to_max_decodes_and_the_next_is_unknown() {
        assert_eq!(MAX_TAG, 12);
        let golden = golden_frames();
        for tag in 1..=MAX_TAG {
            let frame = golden.iter().find(|f| f.tag() == tag);
            let bytes = frame.unwrap_or_else(|| panic!("no golden frame for tag {tag}")).encode();
            assert_eq!(bytes[6], tag);
            let payload = &bytes[HEADER_LEN..];
            assert_eq!(decode_payload(tag, payload).unwrap().encode(), bytes, "tag {tag}");
        }
        let mut bytes = Frame::StatsRequest.encode();
        bytes[6] = MAX_TAG + 1;
        assert_eq!(Frame::decode(&bytes), Err(ProtocolError::UnknownFrameType(MAX_TAG + 1)));
        let past = MAX_TAG + 1;
        assert_eq!(decode_payload(past, &[]), Err(ProtocolError::UnknownFrameType(past)));
    }

    /// A list is clamped against what is left of *this frame's* payload,
    /// not against the cap on its own (and an object is 32 bytes, not the
    /// 28 the hand-written clamp divided by): each of these used to encode
    /// to more than `MAX_PAYLOAD`, and must come out decodable, holding a
    /// prefix of what went in.
    #[test]
    fn over_long_lists_are_clamped_to_what_the_frame_can_still_hold() {
        const CAP: usize = MAX_PAYLOAD as usize;
        let obj = |id: u32| WireObject { id, tri: 0, x: id as f64, y: 0.0, z: 0.0 };
        let objs = |n: usize| (0..n as u32).map(obj).collect::<Vec<_>>();
        let decoded = |f: Frame| {
            let bytes = f.encode();
            assert!(bytes.len() <= HEADER_LEN + CAP, "{} bytes", bytes.len());
            Frame::decode(&bytes).unwrap_or_else(|e| panic!("undecodable: {e}")).0
        };
        // Two ids and the count, then 32 bytes an object.
        let Frame::Range(r) =
            decoded(Frame::Range(RangeFrame { req_id: 1, trace_id: 2, objects: objs(149_796) }))
        else {
            panic!("not a RANGE")
        };
        assert!(r.objects == objs((CAP - 20) / 32), "{} objects", r.objects.len());
        let seeds: Vec<_> = objs(116_508).into_iter().map(|o| (o.x, o)).collect();
        let Frame::Seeds(s) =
            decoded(Frame::Seeds(SeedsFrame { req_id: 1, trace_id: 2, seeds: seeds.clone() }))
        else {
            panic!("not a SEEDS")
        };
        assert!(s.seeds[..] == seeds[..(CAP - 20) / 40], "{} seeds", s.seeds.len());
        // 60 fixed bytes (both counts included); the seeds go in full and
        // the candidates get what is left.
        let Frame::ExecRequest(e) = decoded(Frame::ExecRequest(ExecRequestFrame {
            req_id: 1,
            trace_id: 2,
            tri: 3,
            x: 0.0,
            y: 0.0,
            z: 0.0,
            k: 4,
            deadline_ms: 5,
            seeds: objs(74_898),
            cands: objs(74_898),
        })) else {
            panic!("not an EXEC")
        };
        assert_eq!((e.seeds.len(), e.k), (74_898, 4));
        assert!(e.cands == objs((CAP - 60) / 32 - 74_898), "{} cands", e.cands.len());
        // u16::MAX entries is what the count can state; at 70 bytes each
        // they do not fit, and the entry that would cross the cap is
        // dropped whole.
        let entries: Vec<_> = (0..u16::MAX as u64).map(|i| ("x".repeat(60), i)).collect();
        let Frame::Stats(s) = decoded(Frame::Stats(StatsFrame { entries: entries.clone() })) else {
            panic!("not a STATS")
        };
        assert!(s.entries[..] == entries[..(CAP - 2) / 70], "{} entries", s.entries.len());
    }

    /// A request or reply is never cut: `encode_whole` names the list
    /// that would not fit, addressed to the frame's own id. A list that
    /// fits — and `STATS`, which carries no id — encodes as `encode` does.
    #[test]
    fn encode_whole_names_the_list_it_would_have_to_cut() {
        let fits = (MAX_PAYLOAD as usize - 20) / 32;
        let objs = |n: usize| {
            (0..n as u32).map(|id| WireObject { id, tri: 0, x: 0.0, y: 0.0, z: 0.0 }).collect()
        };
        let range = |n| Frame::Range(RangeFrame { req_id: 7, trace_id: 2, objects: objs(n) });
        assert_eq!(range(fits).encode_whole(), Ok(range(fits).encode()));
        let refused = |f: Frame| f.encode_whole().map(|_| ()).unwrap_err();
        let want = |req_id, list: &str| ErrorFrame {
            req_id,
            code: ErrorCode::BadRequest,
            detail: format!("{list} list does not fit one frame"),
        };
        assert_eq!(refused(range(fits + 1)), want(7, "objects"));
        let exec = Frame::ExecRequest(ExecRequestFrame {
            req_id: 9,
            trace_id: 2,
            tri: 3,
            x: 0.0,
            y: 0.0,
            z: 0.0,
            k: 4,
            deadline_ms: 5,
            seeds: objs(1),
            cands: objs(fits),
        });
        assert_eq!(refused(exec), want(9, "cands"));
        let entries = (0..=u16::MAX as u64).map(|i| ("x".to_string(), i)).collect();
        let stats = Frame::Stats(StatsFrame { entries });
        assert_eq!(stats.encode_whole(), Ok(stats.encode()));
    }
}
