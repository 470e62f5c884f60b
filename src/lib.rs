//! # surface-knn
//!
//! A full reproduction of **"Surface k-NN Query Processing"** (Ke Deng,
//! Xiaofang Zhou, Heng Tao Shen, Kai Xu, Xuemin Lin — ICDE 2006): efficient
//! k-nearest-neighbour queries where distance is the *shortest path along a
//! terrain surface*, answered via distance-range ranking over two
//! multiresolution structures (DMTM and MSDN) by the MR3 algorithm.
//!
//! This facade crate re-exports the workspace's public API. See the
//! individual crates for the substrates:
//!
//! * [`geom`] — geometric kernel (points, boxes, triangles, planes, ellipses)
//! * [`terrain`] — synthetic DEMs and triangulated terrain meshes
//! * [`spatial`] — R-tree and grid indexes
//! * [`store`] — simulated paged storage with I/O accounting
//! * [`multires`] — the DMTM: QEM collapse tree, fronts, pathnet
//! * [`geodesic`] — Dijkstra, exact window propagation, Kanai–Suzuki
//! * [`sdn`] — the MSDN lower-bound networks
//! * [`core`] — MR3, the EA benchmark and CH baseline, workloads, metrics
//! * [`obs`] — query tracing and metrics: recorders, histograms, JSONL traces
//! * [`exec`] — the scoped thread pool behind batch queries
//! * [`serve`] — the networked query service: wire protocol, serving edge,
//!   shard server, client, and load generator
//! * [`shard`] — spatially sharded serving: the shard map, the router
//!   process, and the boundary fan-out / exact ranked merge
//!
//! ## Quickstart
//!
//! ```
//! use surface_knn::prelude::*;
//!
//! // A small rugged terrain, deterministic.
//! let mesh = TerrainConfig::bh().with_grid(33).build_mesh(42);
//! let scene = SceneBuilder::new(&mesh)
//!     .object_count(20)
//!     .seed(7)
//!     .build();
//! let engine = Mr3Engine::build(&mesh, &scene, &Mr3Config::default());
//! let q = scene.random_query(1);
//! let result = engine.try_query(q, 3).expect("sknn query failed");
//! assert_eq!(result.neighbors.len(), 3);
//! ```

pub use sknn_core as core;
pub use sknn_exec as exec;
pub use sknn_geodesic as geodesic;
pub use sknn_geom as geom;
pub use sknn_multires as multires;
pub use sknn_obs as obs;
pub use sknn_sdn as sdn;
pub use sknn_serve as serve;
pub use sknn_shard as shard;
pub use sknn_spatial as spatial;
pub use sknn_store as store;
pub use sknn_terrain as terrain;

/// Convenience re-exports covering the common workflow: generate terrain,
/// place objects, build an engine, run queries.
pub mod prelude {
    pub use sknn_core::ch::ChEngine;
    pub use sknn_core::cluster::{surface_dbscan, DbscanConfig};
    pub use sknn_core::config::{Mr3Config, StepSchedule};
    pub use sknn_core::constrained::{ConstrainedEngine, ObstacleMask};
    pub use sknn_core::ea::EaEngine;
    pub use sknn_core::mr3::Mr3Engine;
    pub use sknn_core::persist::Structures;
    pub use sknn_core::resilience::{Degraded, QueryError};
    pub use sknn_core::workload::{Scene, SceneBuilder, SurfacePoint};
    pub use sknn_geom::{Point2, Point3};
    pub use sknn_store::{FaultInjector, FaultProfile};
    pub use sknn_terrain::dem::TerrainConfig;
    pub use sknn_terrain::mesh::TerrainMesh;
}
