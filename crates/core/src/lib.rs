#![warn(missing_docs)]
//! Surface k-NN query processing — the MR3 algorithm of Deng, Zhou, Shen,
//! Xu & Lin, *"Surface k-NN Query Processing"*, ICDE 2006.
//!
//! A surface k-NN (sk-NN) query returns the `k` objects nearest a query
//! point by **surface distance** — shortest-path length along a terrain.
//! Computing surface distances exactly is prohibitively expensive, so MR3
//! (Multi-Resolution Range Ranking) ranks candidates by *distance ranges*
//! `[lb, ub]` estimated from two multiresolution structures —
//! upper bounds from the DMTM (`sknn-multires`), lower bounds from the
//! MSDN (`sknn-sdn`) — escalating resolution and shrinking per-candidate
//! regions only until the ranking resolves (`ub(p_k) <= lb(p_{k+1})`,
//! the VA-file termination test the paper adopts from Weber et al.).
//!
//! The four-step pipeline (paper §4.1):
//!
//! 1. **2D k-NN** on the objects' planar projections (R-tree best-first);
//! 2. **surface distance ranking** of those seeds to obtain a safe radius
//!    `ub(q, b)` for the k-th neighbour;
//! 3. **2D range query** with that radius — the candidate set `C2`;
//! 4. **surface distance ranking** of `C2` until the top `k` separate.
//!
//! Baselines implemented alongside: [`ea`] (the paper's benchmark —
//! Kanai–Suzuki upper bounds at full resolution + 100 % SDN lower bounds,
//! same filters, no multiresolution) and [`ch`] (exact surface distances
//! for ground truth, playing Chen–Han's role).

pub mod bounds;
pub mod ch;
pub mod cluster;
pub mod config;
pub mod constrained;
pub mod ea;
pub mod metrics;
pub mod mr3;
pub mod objects;
pub mod pairs;
pub mod persist;
mod ranking;
mod regions;
pub mod resilience;
pub mod workload;

pub use bounds::DistRange;
pub use ch::ChEngine;
pub use cluster::{assign_sightings, surface_dbscan, Clustering, DbscanConfig};
pub use config::{CutCacheConfig, Mr3Config, StepSchedule};
pub use constrained::{ConstrainedEngine, ObstacleMask};
pub use ea::EaEngine;
pub use metrics::{QueryResult, QueryStats};
pub use mr3::{CutCacheSnapshot, Mr3Engine, QueryOpts, RangeResult};
pub use objects::{ObjOp, ObjectSnapshot, ObjectStore, RecoveryReport, WriteStats};
pub use pairs::ClosestPair;
pub use persist::Structures;
pub use resilience::{Degraded, QueryError};
pub use workload::{Scene, SceneBuilder, SurfacePoint};
