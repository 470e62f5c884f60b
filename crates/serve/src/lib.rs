#![warn(missing_docs)]
//! Networked surface k-NN query service (`sknn-serve`).
//!
//! The MR3 engine (PR 2/3) answers batches of queries on a thread pool
//! with bit-identical results regardless of interleaving — but only for
//! callers that already *have* a batch. A network service receives
//! requests one at a time, on independent connections, at whatever rate
//! clients feel like. This crate closes that gap with four pieces:
//!
//! * [`protocol`] — a length-prefixed binary protocol (versioned header,
//!   query/response/error/stats frames, `f64` as IEEE bit patterns so
//!   round trips are exact). Decoding is total: malformed input yields
//!   typed errors, never panics or unbounded allocations.
//! * `batch` (internal) — the adaptive micro-batcher: one dispatcher
//!   thread drains the bounded admission [`lanes`], coalescing concurrent
//!   arrivals into single parallel engine batches (up to `max_batch`,
//!   with a short `max_wait` linger under light load).
//! * [`lanes`] / [`conn`] — the EDF admission queue, the interruptible
//!   frame reader and the mutex'd reply writer, shared with the shard
//!   router in `sknn-shard`.
//! * [`server`] — accept loop, per-connection readers, admission
//!   control (bounded queue; a full queue is an immediate typed
//!   `Overloaded`, never a hang), per-request deadlines enforced at
//!   dequeue and between refinement iterations inside the engine, and
//!   graceful drain: shutdown stops admission, answers everything
//!   already admitted, then returns.
//! * [`client`] / [`loadgen`] — a blocking client and a closed/open-loop
//!   load generator that measures latency percentiles and verifies
//!   responses bit-for-bit against direct engine calls.
//!
//! Request telemetry rides on top:
//!
//! * [`slowlog`] — an always-on bounded reservoir of slow / degraded /
//!   failed requests, dumped as JSONL via the `TRACE_DUMP` frame and at
//!   drain.
//! * [`metrics_http`] — a std-only HTTP listener serving Prometheus
//!   text (`/metrics`) and drain-aware health (`/healthz`), shared with
//!   the shard router in `sknn-shard`.
//! * [`promtext`] — client-side Prometheus text parsing and quantile
//!   estimation, powering `sknn top` and the CI scrape check.
//!
//! Everything is `std` — `TcpListener`, scoped threads, and
//! `sync_channel` — matching the workspace's no-new-dependencies rule.

pub mod client;
pub mod conn;
pub mod lanes;
pub mod loadgen;
pub mod metrics_http;
pub mod pool;
pub mod promtext;
pub mod protocol;
pub mod server;
pub mod slowlog;
pub mod stats;

mod batch;

pub use client::Client;
pub use loadgen::{LoadgenConfig, RunReport};
pub use protocol::{
    ErrorCode, ErrorFrame, Frame, ProtocolError, QueryFrame, RecvError, ResponseFrame,
    ServerTiming, StatsFrame, TraceDumpFrame, WireNeighbor,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use slowlog::{SlowEntry, SlowOutcome, SlowQueryLog};
pub use stats::ServeStats;
