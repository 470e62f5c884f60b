//! The `sknn` wire protocol: length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"SKNN"
//!      4     2  protocol version (little-endian u16, must be 3)
//!      6     1  frame type tag
//!      7     1  reserved (must be 0 on send, ignored on receive)
//!      8     4  payload length (little-endian u32, <= MAX_PAYLOAD)
//! ```
//!
//! All integers are little-endian; `f64` values travel as their IEEE-754
//! bit patterns (`to_bits`/`from_bits`), so a decoded frame re-encodes to
//! the identical byte string — the property the round-trip proptests pin
//! down, and what makes the end-to-end "server result == direct engine
//! call" comparison exact rather than approximate.
//!
//! # Versioning
//!
//! The version travels per frame and exactly one is spoken:
//! [`MIN_VERSION`]` = `[`VERSION`]` = 3`. [`parse_header`] rejects every
//! other version with a typed [`ProtocolError::BadVersion`] before looking
//! at the tag or the payload, and a server answers it with one
//! [`ErrorCode::BadRequest`] frame before hanging up — a foreign peer gets
//! a reason, never a hang or a misparse. (Versions 1 and 2 — no trace
//! ids, three-field timing, no shard ops — had no deployed client left
//! and their encode/decode branches are gone.)
//!
//! Decoding is total: any byte string produces either a frame or a typed
//! [`ProtocolError`], never a panic. The payload-length cap bounds every
//! allocation before it happens, including the per-list counts inside
//! payloads (a claimed element count is checked against the bytes actually
//! present before a vector is reserved).

use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SKNN";

/// The protocol version every frame is encoded at. Frames carrying any
/// version in [`MIN_VERSION`]`..=VERSION` are accepted; others are
/// rejected with [`ProtocolError::BadVersion`].
pub const VERSION: u16 = 3;

/// Oldest protocol version still decoded — the current one.
pub const MIN_VERSION: u16 = VERSION;

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

const TAG_QUERY: u8 = 1;
const TAG_RESPONSE: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_STATS_REQUEST: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_TRACE_DUMP_REQUEST: u8 = 6;
const TAG_TRACE_DUMP: u8 = 7;
const TAG_CANCEL: u8 = 8;
const TAG_SEEDS_REQUEST: u8 = 9;
const TAG_SEEDS: u8 = 10;
const TAG_RANGE_REQUEST: u8 = 11;
const TAG_RANGE: u8 = 12;
const TAG_RADIUS_REQUEST: u8 = 13;
const TAG_RADIUS: u8 = 14;
const TAG_EXEC_REQUEST: u8 = 15;

/// A surface k-NN request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrame {
    /// Client-chosen correlation id, echoed verbatim in the reply. Replies
    /// may arrive out of order (requests run concurrently and finish at
    /// different times), so clients match on this, not on arrival order.
    pub req_id: u64,
    /// Containing facet of the query point, or [`LOCATE_TRI`] to have the
    /// server locate it from `(x, y)`.
    pub tri: u32,
    /// Query point x (bit-exact f64).
    pub x: f64,
    /// Query point y.
    pub y: f64,
    /// Query point z (surface height; ignored when `tri` is [`LOCATE_TRI`]).
    pub z: f64,
    /// Number of neighbors requested.
    pub k: u32,
    /// Per-request deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
    /// Client-supplied trace id stamping every obs record this request
    /// produces; `0` asks the server to mint one (echoed in the reply
    /// either way).
    pub trace_id: u64,
}

/// One ranked neighbor on the wire: object id plus its surface-distance
/// range `[lb, ub]`, bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireNeighbor {
    /// Object id.
    pub id: u32,
    /// Surface distance lower bound.
    pub lb: f64,
    /// Surface distance upper bound.
    pub ub: f64,
}

/// Server-side timing attached to every successful response: queue +
/// exec partition the request's time in the server. The four
/// engine-stage fields are per-request wall time inside the engine call;
/// `stall_us` is the pager's shared stall clock differenced around it
/// (stalls of concurrent requests overlap, so per-request attribution is
/// not defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerTiming {
    /// Microseconds the request waited in the admission queue (arrival to
    /// worker pickup).
    pub queue_us: u32,
    /// Reserved: always 0 (no stage sits between pickup and the engine
    /// call). Kept for the wire layout.
    pub linger_us: u32,
    /// Microseconds this request's engine call took.
    pub exec_us: u32,
    /// Engine step 1 (2D k-NN seeding) wall time for this request.
    pub knn2d_us: u32,
    /// Engine step 2 (radius estimation) wall time for this request.
    pub radius_us: u32,
    /// Engine step 3 (planar range query) wall time for this request.
    pub range_us: u32,
    /// Engine step 4 (iterative ranking) wall time for this request.
    pub rank_us: u32,
    /// Pager stall wall time that passed during this request's engine call.
    pub stall_us: u32,
    /// Reserved: always 1 (a request is executed on its own). Kept for
    /// the wire layout.
    pub batch: u16,
}

/// A successful k-NN reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub req_id: u64,
    /// The request's trace id (client-supplied or server-minted) — the
    /// key into metrics-endpoint slow-query dumps and server traces.
    pub trace_id: u64,
    /// The k nearest objects, ascending by distance estimate.
    pub neighbors: Vec<WireNeighbor>,
    /// Set when the result is valid but looser than a fault-free,
    /// deadline-free run would deliver (e.g. `"DeadlineExpired"`).
    pub degraded: Option<String>,
    /// Queue/execution timing and batch size for this request.
    pub timing: ServerTiming,
    /// The MR3 step-2 search radius this answer was computed under — the
    /// router's straddle test (a query whose radius-circle stays inside
    /// one tile is fully answered by that tile's shard). `0.0` when the
    /// engine reported none.
    pub radius: f64,
}

/// One object on the wire: id plus its located surface point, enough for
/// a peer to rebuild the engine's candidate without a local object table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireObject {
    /// Object id (global across the fleet — shards keep genesis ids).
    pub id: u32,
    /// Containing facet of the object's surface point.
    pub tri: u32,
    /// Surface point x (bit-exact f64).
    pub x: f64,
    /// Surface point y.
    pub y: f64,
    /// Surface point z.
    pub z: f64,
}

const WIRE_OBJECT_LEN: usize = 28;

/// Withdraw a queued request. The target removes the request
/// from its admission lanes if still queued and answers it with
/// [`ErrorCode::Cancelled`]; a request already executing runs to
/// completion (a cancel miss — counted, not an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelFrame {
    /// Correlation id of the request to withdraw.
    pub req_id: u64,
    /// Trace id the request carried — both must match for the cancel to
    /// land, so a recycled `req_id` cannot kill a stranger's request.
    pub trace_id: u64,
}

/// Shard op: return the k nearest *live objects by 2D plan distance* to
/// `(x, y)` (MR3 step 1 restricted to this shard's tile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedsRequestFrame {
    /// Correlation id, echoed in the [`SeedsFrame`] reply.
    pub req_id: u64,
    /// Trace id stamping the shard's obs records for this leg.
    pub trace_id: u64,
    /// Query plan x.
    pub x: f64,
    /// Query plan y.
    pub y: f64,
    /// Number of seeds requested.
    pub k: u32,
    /// Per-request deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
}

/// Reply to [`SeedsRequestFrame`]: this shard's local 2D k-NN seeds,
/// ascending by `(dist, id)` — the canonical order the router's merge
/// preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedsFrame {
    /// Echo of the request's correlation id.
    pub req_id: u64,
    /// Echo of the request's trace id.
    pub trace_id: u64,
    /// `(2D plan distance, object)` pairs, ascending by `(dist, id)`.
    pub seeds: Vec<(f64, WireObject)>,
}

/// Shard op: return every live object within 2D plan distance `radius`
/// of `(x, y)` (MR3 step 3 restricted to this shard's tile). A
/// non-finite radius means "every live object" — the engine's degenerate
/// fallback when radius estimation hit its deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeRequestFrame {
    /// Correlation id, echoed in the [`RangeFrame`] reply.
    pub req_id: u64,
    /// Trace id stamping the shard's obs records for this leg.
    pub trace_id: u64,
    /// Query plan x.
    pub x: f64,
    /// Query plan y.
    pub y: f64,
    /// 2D search radius (bit-exact; may be non-finite).
    pub radius: f64,
    /// Per-request deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
}

/// Reply to [`RangeRequestFrame`]: the in-range objects ascending by id
/// (canonical order; the router's k-way merge preserves it).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeFrame {
    /// Echo of the request's correlation id.
    pub req_id: u64,
    /// Echo of the request's trace id.
    pub trace_id: u64,
    /// In-range objects, ascending by id.
    pub objects: Vec<WireObject>,
}

/// Shard op: run MR3 step 2 (radius estimation) on the home shard with
/// an explicit, already-merged seed list — the candidate population and
/// order are the router's, so the estimate is bit-identical to a single
/// engine seeded the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusRequestFrame {
    /// Correlation id, echoed in the [`RadiusFrame`] reply.
    pub req_id: u64,
    /// Trace id stamping the shard's obs records.
    pub trace_id: u64,
    /// Containing facet of the query point, or [`LOCATE_TRI`].
    pub tri: u32,
    /// Query point x.
    pub x: f64,
    /// Query point y.
    pub y: f64,
    /// Query point z.
    pub z: f64,
    /// Per-request deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
    /// The globally merged seeds, in canonical `(dist, id)` order.
    pub seeds: Vec<WireObject>,
}

/// Reply to [`RadiusRequestFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusFrame {
    /// Echo of the request's correlation id.
    pub req_id: u64,
    /// Echo of the request's trace id.
    pub trace_id: u64,
    /// The estimated search radius (bit-exact; may be non-finite).
    pub radius: f64,
}

/// Shard op: run MR3 steps 2+4 (radius + coupled ranking) on the home
/// shard over explicit, router-merged seed and candidate lists, replying
/// with a [`ResponseFrame`] whose neighbors carry up to `k + 1` entries
/// so the router can re-check the `ub(p_k) ≤ lb(p_{k+1})` termination
/// bound itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRequestFrame {
    /// Correlation id, echoed in the reply.
    pub req_id: u64,
    /// Trace id stamping the shard's obs records.
    pub trace_id: u64,
    /// Containing facet of the query point, or [`LOCATE_TRI`].
    pub tri: u32,
    /// Query point x.
    pub x: f64,
    /// Query point y.
    pub y: f64,
    /// Query point z.
    pub z: f64,
    /// Number of neighbors requested.
    pub k: u32,
    /// Per-request deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
    /// The globally merged seeds, in canonical `(dist, id)` order.
    pub seeds: Vec<WireObject>,
    /// The globally merged in-range candidates, ascending by id.
    pub cands: Vec<WireObject>,
}

/// Why a request was answered with an [`ErrorFrame`] instead of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue was full; the request was shed without being
    /// executed. Retry against a less-loaded server (or later).
    Overloaded,
    /// The deadline expired while the request was still queued; it was
    /// dropped at dequeue without being executed.
    DeadlineExpired,
    /// The query ran but storage faults exceeded the engine's per-query
    /// budget (`QueryError::FaultBudgetExceeded`).
    FaultBudgetExceeded,
    /// The server is draining and no longer admits new requests.
    ShuttingDown,
    /// The frame was well-formed but semantically invalid (facet id out of
    /// range, non-finite coordinates, point outside the terrain, or an
    /// unexpected frame type).
    BadRequest,
    /// The request was withdrawn by a [`CancelFrame`] while still queued;
    /// it was never executed (a router cancelling a losing fan-out leg
    /// is the expected producer).
    Cancelled,
    /// The request's engine call panicked. Only this request failed: the
    /// server caught the panic, counted it (`sknn_serve_panics_total`)
    /// and keeps serving.
    Internal,
}

impl ErrorCode {
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::DeadlineExpired => 2,
            ErrorCode::FaultBudgetExceeded => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::BadRequest => 5,
            ErrorCode::Cancelled => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExpired,
            3 => ErrorCode::FaultBudgetExceeded,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Cancelled,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "Overloaded",
            ErrorCode::DeadlineExpired => "DeadlineExpired",
            ErrorCode::FaultBudgetExceeded => "FaultBudgetExceeded",
            ErrorCode::ShuttingDown => "ShuttingDown",
            ErrorCode::BadRequest => "BadRequest",
            ErrorCode::Cancelled => "Cancelled",
            ErrorCode::Internal => "Internal",
        };
        f.write_str(s)
    }
}

/// A typed error reply. Every admitted or rejected request gets exactly
/// one reply — an error frame is the "no" that prevents client hangs.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Echo of the request's correlation id (0 when the error is not
    /// attributable to a specific request, e.g. a malformed frame).
    pub req_id: u64,
    /// Machine-readable reason.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

/// A server statistics snapshot: ordered `(name, value)` counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsFrame {
    /// Counter name/value pairs, in server-defined order.
    pub entries: Vec<(String, u64)>,
}

/// The slow-query reservoir as JSONL, one object per captured request
///. The text is truncated at a char boundary if it would
/// exceed [`MAX_PAYLOAD`]; each line is self-contained, so truncation
/// loses whole oldest-entries, never syntax.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDumpFrame {
    /// JSONL body: newline-separated JSON objects.
    pub jsonl: String,
}

/// Any protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: a k-NN request.
    Query(QueryFrame),
    /// Server → client: a successful reply.
    Response(ResponseFrame),
    /// Server → client: a typed failure reply.
    Error(ErrorFrame),
    /// Client → server: ask for a statistics snapshot.
    StatsRequest,
    /// Server → client: the statistics snapshot.
    Stats(StatsFrame),
    /// Client → server: ask for the slow-query JSONL dump.
    TraceDumpRequest,
    /// Server → client: the slow-query JSONL dump.
    TraceDump(TraceDumpFrame),
    /// Client → server: withdraw a queued request.
    Cancel(CancelFrame),
    /// Router → shard: local 2D k-NN seeds.
    SeedsRequest(SeedsRequestFrame),
    /// Shard → router: the local seeds.
    Seeds(SeedsFrame),
    /// Router → shard: local 2D range collection.
    RangeRequest(RangeRequestFrame),
    /// Shard → router: the in-range objects.
    Range(RangeFrame),
    /// Router → home shard: radius estimation over merged seeds.
    RadiusRequest(RadiusRequestFrame),
    /// Home shard → router: the estimated radius.
    Radius(RadiusFrame),
    /// Router → home shard: coupled ranking over merged candidates; the
    /// reply is a [`Frame::Response`].
    ExecRequest(ExecRequestFrame),
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version field was outside [`MIN_VERSION`]`..=`[`VERSION`].
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
                write!(f, "unsupported protocol version {v} (supported {MIN_VERSION}..={VERSION})")
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
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Writes `s` as a u16 length prefix plus UTF-8 bytes, truncating at a
/// char boundary if it exceeds the prefix's range (our strings are short
/// degradation reasons and error details; truncation is a non-event).
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u16(out, end as u16);
    out.extend_from_slice(&s.as_bytes()[..end]);
}

/// Writes `s` as a u32 length prefix plus UTF-8 bytes, truncating at a
/// char boundary so the payload stays within [`MAX_PAYLOAD`] (used by the
/// JSONL trace dump, whose lines are independently parseable — dropping a
/// tail loses entries, never syntax).
fn put_str32(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_PAYLOAD as usize - 4);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u32(out, end as u32);
    out.extend_from_slice(&s.as_bytes()[..end]);
}

fn put_object(out: &mut Vec<u8>, o: &WireObject) {
    put_u32(out, o.id);
    put_u32(out, o.tri);
    put_f64(out, o.x);
    put_f64(out, o.y);
    put_f64(out, o.z);
}

/// Writes a u32 count followed by the objects. Lists this long only occur
/// inside frames whose totals stay under [`MAX_PAYLOAD`]; the count is
/// nevertheless clamped so encoding can never produce an undecodable
/// frame.
fn put_objects(out: &mut Vec<u8>, objs: &[WireObject]) {
    let n = objs.len().min((MAX_PAYLOAD as usize - 4) / WIRE_OBJECT_LEN);
    put_u32(out, n as u32);
    for o in &objs[..n] {
        put_object(out, o);
    }
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Query(_) => TAG_QUERY,
            Frame::Response(_) => TAG_RESPONSE,
            Frame::Error(_) => TAG_ERROR,
            Frame::StatsRequest => TAG_STATS_REQUEST,
            Frame::Stats(_) => TAG_STATS,
            Frame::TraceDumpRequest => TAG_TRACE_DUMP_REQUEST,
            Frame::TraceDump(_) => TAG_TRACE_DUMP,
            Frame::Cancel(_) => TAG_CANCEL,
            Frame::SeedsRequest(_) => TAG_SEEDS_REQUEST,
            Frame::Seeds(_) => TAG_SEEDS,
            Frame::RangeRequest(_) => TAG_RANGE_REQUEST,
            Frame::Range(_) => TAG_RANGE,
            Frame::RadiusRequest(_) => TAG_RADIUS_REQUEST,
            Frame::Radius(_) => TAG_RADIUS,
            Frame::ExecRequest(_) => TAG_EXEC_REQUEST,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Query(q) => {
                put_u64(out, q.req_id);
                put_u32(out, q.tri);
                put_f64(out, q.x);
                put_f64(out, q.y);
                put_f64(out, q.z);
                put_u32(out, q.k);
                put_u32(out, q.deadline_ms);
                put_u64(out, q.trace_id);
            }
            Frame::Response(r) => {
                put_u64(out, r.req_id);
                put_u64(out, r.trace_id);
                put_f64(out, r.radius);
                put_u32(out, r.timing.queue_us);
                put_u32(out, r.timing.linger_us);
                put_u32(out, r.timing.exec_us);
                put_u32(out, r.timing.knn2d_us);
                put_u32(out, r.timing.radius_us);
                put_u32(out, r.timing.range_us);
                put_u32(out, r.timing.rank_us);
                put_u32(out, r.timing.stall_us);
                put_u16(out, r.timing.batch);
                match &r.degraded {
                    Some(s) => {
                        out.push(1);
                        put_str(out, s);
                    }
                    None => out.push(0),
                }
                let n = r.neighbors.len().min(u16::MAX as usize);
                put_u16(out, n as u16);
                for nb in &r.neighbors[..n] {
                    put_u32(out, nb.id);
                    put_f64(out, nb.lb);
                    put_f64(out, nb.ub);
                }
            }
            Frame::Error(e) => {
                put_u64(out, e.req_id);
                out.push(e.code.as_u8());
                put_str(out, &e.detail);
            }
            Frame::StatsRequest => {}
            Frame::Stats(s) => {
                let n = s.entries.len().min(u16::MAX as usize);
                put_u16(out, n as u16);
                for (name, value) in &s.entries[..n] {
                    put_str(out, name);
                    put_u64(out, *value);
                }
            }
            Frame::TraceDumpRequest => {}
            Frame::TraceDump(t) => put_str32(out, &t.jsonl),
            Frame::Cancel(c) => {
                put_u64(out, c.req_id);
                put_u64(out, c.trace_id);
            }
            Frame::SeedsRequest(s) => {
                put_u64(out, s.req_id);
                put_u64(out, s.trace_id);
                put_f64(out, s.x);
                put_f64(out, s.y);
                put_u32(out, s.k);
                put_u32(out, s.deadline_ms);
            }
            Frame::Seeds(s) => {
                put_u64(out, s.req_id);
                put_u64(out, s.trace_id);
                let n = s.seeds.len().min((MAX_PAYLOAD as usize - 4) / (WIRE_OBJECT_LEN + 8));
                put_u32(out, n as u32);
                for (dist, obj) in &s.seeds[..n] {
                    put_f64(out, *dist);
                    put_object(out, obj);
                }
            }
            Frame::RangeRequest(r) => {
                put_u64(out, r.req_id);
                put_u64(out, r.trace_id);
                put_f64(out, r.x);
                put_f64(out, r.y);
                put_f64(out, r.radius);
                put_u32(out, r.deadline_ms);
            }
            Frame::Range(r) => {
                put_u64(out, r.req_id);
                put_u64(out, r.trace_id);
                put_objects(out, &r.objects);
            }
            Frame::RadiusRequest(r) => {
                put_u64(out, r.req_id);
                put_u64(out, r.trace_id);
                put_u32(out, r.tri);
                put_f64(out, r.x);
                put_f64(out, r.y);
                put_f64(out, r.z);
                put_u32(out, r.deadline_ms);
                put_objects(out, &r.seeds);
            }
            Frame::Radius(r) => {
                put_u64(out, r.req_id);
                put_u64(out, r.trace_id);
                put_f64(out, r.radius);
            }
            Frame::ExecRequest(e) => {
                put_u64(out, e.req_id);
                put_u64(out, e.trace_id);
                put_u32(out, e.tri);
                put_f64(out, e.x);
                put_f64(out, e.y);
                put_f64(out, e.z);
                put_u32(out, e.k);
                put_u32(out, e.deadline_ms);
                put_objects(out, &e.seeds);
                put_objects(out, &e.cands);
            }
        }
    }

    /// A typed error reply to request `req_id`.
    pub fn error(req_id: u64, code: ErrorCode, detail: &str) -> Frame {
        Frame::Error(ErrorFrame { req_id, code, detail: detail.to_string() })
    }

    /// Serializes the frame (header at [`VERSION`] plus payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.tag());
        out.push(0); // reserved
        out.extend_from_slice(&0u32.to_le_bytes()); // length back-patched
        self.encode_payload(&mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[8..12].copy_from_slice(&len.to_le_bytes());
        out
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
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(ProtocolError::BadVersion(version));
    }
    let tag = header[6];
    if !(TAG_QUERY..=TAG_EXEC_REQUEST).contains(&tag) {
        return Err(ProtocolError::UnknownFrameType(tag));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len });
    }
    Ok((tag, len))
}

/// Cursor over a payload with bounds-checked little-endian reads.
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

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str16(&mut self) -> Result<String, ProtocolError> {
        let len = self.u16()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("invalid utf-8 in string"))
    }

    fn str32(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("invalid utf-8 in string"))
    }

    fn object(&mut self) -> Result<WireObject, ProtocolError> {
        Ok(WireObject {
            id: self.u32()?,
            tri: self.u32()?,
            x: self.f64()?,
            y: self.f64()?,
            z: self.f64()?,
        })
    }

    /// Reads a u32-counted object list, rejecting counts the remaining
    /// payload cannot hold before reserving anything.
    fn objects(&mut self) -> Result<Vec<WireObject>, ProtocolError> {
        let n = self.u32()? as usize;
        if self.remaining() < n * WIRE_OBJECT_LEN {
            return Err(ProtocolError::Truncated {
                needed: n * WIRE_OBJECT_LEN,
                got: self.remaining(),
            });
        }
        let mut objs = Vec::with_capacity(n);
        for _ in 0..n {
            objs.push(self.object()?);
        }
        Ok(objs)
    }
}

/// Decodes a validated-header payload into a frame. The payload must be
/// consumed exactly; trailing bytes are malformed (they would silently
/// desynchronize a stream under a future layout change).
pub fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut rd = Rd { buf: payload, pos: 0 };
    let frame = match tag {
        TAG_QUERY => Frame::Query(QueryFrame {
            req_id: rd.u64()?,
            tri: rd.u32()?,
            x: rd.f64()?,
            y: rd.f64()?,
            z: rd.f64()?,
            k: rd.u32()?,
            deadline_ms: rd.u32()?,
            trace_id: rd.u64()?,
        }),
        TAG_RESPONSE => {
            let req_id = rd.u64()?;
            let trace_id = rd.u64()?;
            let radius = rd.f64()?;
            let timing = ServerTiming {
                queue_us: rd.u32()?,
                linger_us: rd.u32()?,
                exec_us: rd.u32()?,
                knn2d_us: rd.u32()?,
                radius_us: rd.u32()?,
                range_us: rd.u32()?,
                rank_us: rd.u32()?,
                stall_us: rd.u32()?,
                batch: rd.u16()?,
            };
            let degraded = match rd.u8()? {
                0 => None,
                1 => Some(rd.str16()?),
                _ => return Err(ProtocolError::Malformed("bad degraded flag")),
            };
            let n = rd.u16()? as usize;
            // Each neighbor is 20 bytes; reject counts the payload cannot
            // hold before reserving anything.
            if rd.remaining() < n * 20 {
                return Err(ProtocolError::Truncated { needed: n * 20, got: rd.remaining() });
            }
            let mut neighbors = Vec::with_capacity(n);
            for _ in 0..n {
                neighbors.push(WireNeighbor { id: rd.u32()?, lb: rd.f64()?, ub: rd.f64()? });
            }
            Frame::Response(ResponseFrame { req_id, trace_id, neighbors, degraded, timing, radius })
        }
        TAG_ERROR => {
            let req_id = rd.u64()?;
            let code = ErrorCode::from_u8(rd.u8()?)
                .ok_or(ProtocolError::Malformed("unknown error code"))?;
            let detail = rd.str16()?;
            Frame::Error(ErrorFrame { req_id, code, detail })
        }
        TAG_STATS_REQUEST => Frame::StatsRequest,
        TAG_STATS => {
            let n = rd.u16()? as usize;
            // Each entry is at least 10 bytes (empty name + u64 value).
            if rd.remaining() < n * 10 {
                return Err(ProtocolError::Truncated { needed: n * 10, got: rd.remaining() });
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let name = rd.str16()?;
                let value = rd.u64()?;
                entries.push((name, value));
            }
            Frame::Stats(StatsFrame { entries })
        }
        TAG_TRACE_DUMP_REQUEST => Frame::TraceDumpRequest,
        TAG_TRACE_DUMP => Frame::TraceDump(TraceDumpFrame { jsonl: rd.str32()? }),
        TAG_CANCEL => Frame::Cancel(CancelFrame { req_id: rd.u64()?, trace_id: rd.u64()? }),
        TAG_SEEDS_REQUEST => Frame::SeedsRequest(SeedsRequestFrame {
            req_id: rd.u64()?,
            trace_id: rd.u64()?,
            x: rd.f64()?,
            y: rd.f64()?,
            k: rd.u32()?,
            deadline_ms: rd.u32()?,
        }),
        TAG_SEEDS => {
            let req_id = rd.u64()?;
            let trace_id = rd.u64()?;
            let n = rd.u32()? as usize;
            if rd.remaining() < n * (WIRE_OBJECT_LEN + 8) {
                return Err(ProtocolError::Truncated {
                    needed: n * (WIRE_OBJECT_LEN + 8),
                    got: rd.remaining(),
                });
            }
            let mut seeds = Vec::with_capacity(n);
            for _ in 0..n {
                let dist = rd.f64()?;
                seeds.push((dist, rd.object()?));
            }
            Frame::Seeds(SeedsFrame { req_id, trace_id, seeds })
        }
        TAG_RANGE_REQUEST => Frame::RangeRequest(RangeRequestFrame {
            req_id: rd.u64()?,
            trace_id: rd.u64()?,
            x: rd.f64()?,
            y: rd.f64()?,
            radius: rd.f64()?,
            deadline_ms: rd.u32()?,
        }),
        TAG_RANGE => Frame::Range(RangeFrame {
            req_id: rd.u64()?,
            trace_id: rd.u64()?,
            objects: rd.objects()?,
        }),
        TAG_RADIUS_REQUEST => Frame::RadiusRequest(RadiusRequestFrame {
            req_id: rd.u64()?,
            trace_id: rd.u64()?,
            tri: rd.u32()?,
            x: rd.f64()?,
            y: rd.f64()?,
            z: rd.f64()?,
            deadline_ms: rd.u32()?,
            seeds: rd.objects()?,
        }),
        TAG_RADIUS => {
            Frame::Radius(RadiusFrame { req_id: rd.u64()?, trace_id: rd.u64()?, radius: rd.f64()? })
        }
        TAG_EXEC_REQUEST => Frame::ExecRequest(ExecRequestFrame {
            req_id: rd.u64()?,
            trace_id: rd.u64()?,
            tri: rd.u32()?,
            x: rd.f64()?,
            y: rd.f64()?,
            z: rd.f64()?,
            k: rd.u32()?,
            deadline_ms: rd.u32()?,
            seeds: rd.objects()?,
            cands: rd.objects()?,
        }),
        other => return Err(ProtocolError::UnknownFrameType(other)),
    };
    if rd.pos != payload.len() {
        return Err(ProtocolError::Malformed("trailing bytes in payload"));
    }
    Ok(frame)
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
            Frame::RadiusRequest(RadiusRequestFrame {
                req_id: 5,
                trace_id: 6,
                tri: 11,
                x: 0.0,
                y: -0.0,
                z: 9.0,
                deadline_ms: 50,
                seeds: vec![obj(4)],
            }),
            Frame::Radius(RadiusFrame { req_id: 5, trace_id: 6, radius: 12.25 }),
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
            Frame::error(11, ErrorCode::Cancelled, "détail ✓ 雪"),
            Frame::StatsRequest,
            Frame::Stats(StatsFrame {
                entries: vec![("accepted".to_string(), 12), ("größe".to_string(), u64::MAX)],
            }),
            Frame::Stats(StatsFrame::default()),
            Frame::TraceDumpRequest,
            Frame::TraceDump(TraceDumpFrame {
                jsonl: "{\"trace_id\":1}\n{\"détail\":\"✓\"}\n".into(),
            }),
            Frame::Cancel(CancelFrame { req_id: 13, trace_id: 14 }),
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
            Frame::RadiusRequest(RadiusRequestFrame {
                req_id: 23,
                trace_id: 24,
                tri: 11,
                x: 0.0,
                y: -0.0,
                z: 9.0,
                deadline_ms: 50,
                seeds: vec![obj(4)],
            }),
            Frame::Radius(RadiusFrame { req_id: 23, trace_id: 24, radius: nan }),
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
    /// `372efae` (the hand-written codec). A field-order, count-width or
    /// tag change moves these bytes; a round-trip test cannot see one.
    #[rustfmt::skip]
    const GOLDEN_HEX: &[&str] = &[
        "534b4e4e03000100340000000807060504030201ffffffff0100efbeaddef87f00000000000000800000000000e0584004000000fa000000efbeadde00000000",
        "534b4e4e030002008100000007000000000000000900000000000000000000000080284001000000020000000300000004000000050000000600000007000000080000000900011a00446561646c696e654578706972656420e2809420e69c9fe99990020003000000000000000000f83f0000000000000440ffffffff00000000000000800100efbeaddef87f",
        "534b4e4e030002003d00000008000000000000000a00000000000000000000000000f07f00000000000000000000000000000000000000000000000000000000000000000000000000",
        "534b4e4e030003001a0000000b00000000000000060f0064c3a97461696c20e29c9320e99baa",
        "534b4e4e0300040000000000",
        "534b4e4e03000500250000000200080061636365707465640c0000000000000007006772c3b6c39f65ffffffffffffffff",
        "534b4e4e03000500020000000000",
        "534b4e4e0300060000000000",
        "534b4e4e0300070025000000210000007b2274726163655f6964223a317d0a7b2264c3a97461696c223a22e29c93227d0a",
        "534b4e4e03000800100000000d000000000000000e00000000000000",
        "534b4e4e03000900280000000f0000000000000010000000000000000000000000000c4000000000000000800800000064000000",
        "534b4e4e03000a00640000000f00000000000000100000000000000002000000000000000000e03f07000000150000000000000000001d4000000000000000800100efbeaddef87f000000000000f07f090000001b000000000000000080224000000000000000800100efbeaddef87f",
        "534b4e4e03000a00140000001100000000000000120000000000000000000000",
        "534b4e4e03000b002c000000130000000000000014000000000000000100efbeaddef87f0000000000000040000000000000f07f00000000",
        "534b4e4e03000c005400000013000000000000001400000000000000020000000100000003000000000000000000f43f00000000000000800100efbeaddef87f0200000006000000000000000000024000000000000000800100efbeaddef87f",
        "534b4e4e03000c00140000001500000000000000160000000000000000000000",
        "534b4e4e03000d0054000000170000000000000018000000000000000b0000000000000000000000000000000000008000000000000022403200000001000000040000000c000000000000000000114000000000000000800100efbeaddef87f",
        "534b4e4e03000e0018000000170000000000000018000000000000000100efbeaddef87f",
        "534b4e4e03000f009c00000019000000000000001a00000000000000ffffffff000000000000f83f0000000000000440000000000000008003000000fa000000010000000100000003000000000000000000f43f00000000000000800100efbeaddef87f020000000100000003000000000000000000f43f00000000000000800100efbeaddef87f050000000f000000000000000000154000000000000000800100efbeaddef87f",
        "534b4e4e03000f003c0000001b000000000000001c0000000000000002000000000000000000f83f00000000000004400000000000000c4000000000000000000000000000000000",
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
}
