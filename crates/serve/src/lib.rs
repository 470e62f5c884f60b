#![warn(missing_docs)]
//! Networked surface k-NN query service (`sknn-serve`).
//!
//! The MR3 engine answers concurrent queries with bit-identical results
//! regardless of interleaving. A network service receives requests one at
//! a time, on independent connections, at whatever rate clients feel
//! like. This crate puts the engine behind a socket with four pieces:
//!
//! * [`protocol`] — a length-prefixed binary protocol (versioned header,
//!   query/response/error/stats frames, `f64` as IEEE bit patterns so
//!   round trips are exact). Decoding is total: malformed input yields
//!   typed errors, never panics or unbounded allocations.
//! * [`edge`] — the serving edge, shared with the shard router in
//!   `sknn-shard`: accept loop, per-connection readers, admission
//!   control over the lanes (one bounded FIFO; a full queue is an
//!   immediate typed `Overloaded`, never a hang), the metrics endpoint,
//!   the worker loop (`workers × (pop → serve → reply)`, a
//!   deadline spent in the queue refused at dequeue, a panicking job
//!   answered `Internal`), and graceful drain: shutdown stops admission,
//!   answers everything already admitted, then returns. The lanes, the
//!   interruptible frame reader, the mutex'd reply writer and the
//!   `/metrics` + `/healthz` listener are its internals.
//! * `ops` (internal) — engine ops: one `JobOp` → one engine call →
//!   one reply frame.
//! * [`server`] — the shard server: an edge whose jobs are engine ops,
//!   with per-request deadlines also enforced between refinement
//!   iterations inside the engine.
//! * [`stats`] — the one stats path: each metric is one table row from
//!   which its field, `STATS` key and `/metrics` family are generated.
//! * [`client`] / [`loadgen`] — a blocking client and a closed/open-loop
//!   load generator that measures latency percentiles and verifies
//!   responses bit-for-bit against direct engine calls.
//!
//! Request telemetry rides on top:
//!
//! * [`slowlog`] — an always-on bounded reservoir of slow / degraded /
//!   failed requests, dumped as JSONL via the `TRACE_DUMP` frame and at
//!   drain.
//! * [`promtext`] — client-side Prometheus text parsing and quantile
//!   estimation, powering `sknn top` and the CI scrape check.
//!
//! Everything is `std` — `TcpListener`, scoped threads, a mutex and a
//! condvar — matching the workspace's no-new-dependencies rule.

pub mod client;
pub mod edge;
pub mod loadgen;
pub mod pool;
pub mod promtext;
pub mod protocol;
pub mod server;
pub mod slowlog;
pub mod stats;

mod conn;
mod lanes;
mod metrics_http;
mod ops;

pub use client::Client;
pub use edge::Handle;
pub use loadgen::{LoadgenConfig, RunReport};
pub use protocol::{
    ErrorCode, ErrorFrame, Frame, ProtocolError, QueryFrame, RecvError, ResponseFrame,
    ServerTiming, StatsFrame, TraceDumpFrame, WireNeighbor,
};
pub use server::{ServeConfig, Server};
pub use slowlog::{SlowEntry, SlowOutcome, SlowQueryLog};
pub use stats::ServeStats;
