//! Spatially sharded surface k-NN serving.
//!
//! A deployment splits the terrain into tiles (vertical slabs by
//! default), gives each tile to its own engine shard (`sknn-serve`
//! [`Server`](sknn_serve::Server) over that tile's mesh and objects),
//! and fronts the fleet with a [`Router`] that speaks the ordinary query
//! protocol. The router's contract is exactness: the final top-k ids,
//! `lb`/`ub` intervals, and termination guarantee are **bit-identical**
//! to a single engine over the union terrain — for interior queries via
//! a one-round-trip fast path, and for boundary-straddling queries via
//! the decomposed seed/radius/range/exec plan merged across shards (see
//! [`router`] for the orchestration and [`map`] for the geometric
//! predicates that make it sound).

#![warn(missing_docs)]

pub mod map;
pub mod router;
pub mod stats;

pub use map::{ShardMap, ShardSpec};
pub use router::{Router, RouterConfig};
pub use stats::RouterStats;
