#![warn(missing_docs)]
//! DMTM — the Distance Multiresolution Terrain Mesh (paper §3.2).
//!
//! The DMTM unifies two structures into one multiresolution model of the
//! terrain:
//!
//! * a **DDM** (Distance Direct Mesh): the Direct-Mesh binary collapse tree
//!   [Xu, Zhou, Lin — ICDE'04] built by quadric-error-metric edge collapse
//!   [Garland–Heckbert], *decorated with distance information*: every node
//!   carries a representative vertex of the original mesh, and every
//!   recorded adjacency carries the length of an original-surface network
//!   path between the two representatives. Extracting the "front" of the
//!   tree after `m` collapses yields an approximate terrain at any
//!   resolution from one vertex up to the original mesh, and Dijkstra over
//!   that front yields a surface-distance **upper bound** that improves
//!   monotonically with resolution;
//! * a **pathnet** above the original resolution (Steiner points, built by
//!   `sknn-geodesic`), used for the >100 % levels where the upper bound
//!   converges to the true surface distance.
//!
//! Module map: [`quadric`] (error metric), [`simplify`] (collapse driver),
//! [`tree`] (the decorated collapse tree), [`front`] (cut extraction, ROI
//! filtering, query-point embedding), [`units`] (MR3's storage layout:
//! one page run per schedule step holding every tile's cut-cache unit),
//! [`cache`] (the shared cut cache over it), [`paged`] (the node
//! payloads in Morton order on a heap file: the oracle the units are
//! tested against).

//! ```
//! use sknn_multires::{build_dmtm, FrontGraph};
//! use sknn_terrain::TerrainConfig;
//!
//! let mesh = TerrainConfig::bh().with_grid(17).build_mesh(1);
//! let tree = build_dmtm(&mesh);
//! // The front after 0 collapses is the original mesh ...
//! let full = FrontGraph::extract(&tree, 0, None);
//! assert_eq!(full.num_nodes(), mesh.num_vertices());
//! // ... and coarser fronts shrink towards a single node.
//! let coarse = FrontGraph::extract(&tree, tree.step_for_fraction(0.1), None);
//! assert!(coarse.num_nodes() < full.num_nodes() / 5);
//! ```

pub mod cache;
pub mod front;
pub mod io;
pub mod paged;
pub mod quadric;
pub mod simplify;
pub mod tree;
pub mod units;

pub use cache::{CutCache, CutGrid, TileSpan, UnitKey, UnitLoad};
pub use front::{FetchScratch, FrontGraph, FrontUnit};
pub use paged::PagedDmtm;
pub use simplify::build_dmtm;
pub use tree::{DmtmNode, DmtmTree};
pub use units::UnitStore;
