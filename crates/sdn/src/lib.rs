#![warn(missing_docs)]
//! MSDN — the Multiresolution Support Distance Network (paper §3.3).
//!
//! The MSDN supports *lower-bound* estimation of surface distances, the
//! counterpart of the DMTM's upper bounds. It is "inspired by the
//! plane-sweep algorithm": vertical planes `x = c` / `y = c` cut the
//! terrain into *crossing lines* (polylines on the surface). Any surface
//! path between two points separated by a plane must cross that plane's
//! line at least once, so chaining minimum distances between consecutive
//! crossing lines lower-bounds the path length — and unlike the Euclidean
//! lower bound, this one tightens as resolution grows.
//!
//! * [`crossing`] — plane sweep: TIN × plane → chained polylines;
//! * [`simplify`] — resolution reduction that keeps `r%` of each line's
//!   points while guaranteeing each simplified segment's MBR encloses the
//!   MBRs of all original segments it replaces (the property the
//!   lower-bound proof needs);
//! * [`network`] — the support distance network: segment nodes, edges
//!   between *neighbouring* crossing lines weighted by minimum MBR-to-MBR
//!   distance, query-point embedding, Dijkstra lower bounds run in place
//!   over the layers (the network is never materialised), and the
//!   corridor-restricted "dummy lower bound" optimisation (§4.2.2);
//! * [`msdn`] — the resolution stack over both axes with the plane-set
//!   selection heuristic;
//! * [`paged`] — heap-file storage with page-accurate region retrieval.

//! ```
//! use sknn_sdn::{Msdn, MsdnConfig};
//! use sknn_terrain::TerrainConfig;
//!
//! let mesh = TerrainConfig::bh().with_grid(17).build_mesh(2);
//! let msdn = Msdn::build(&mesh, &MsdnConfig::default());
//! let a = mesh.vertex(5);
//! let b = mesh.vertex(250);
//! // The SDN lower bound always at least matches the Euclidean distance,
//! // and the top resolution level is at least as tight as the bottom one
//! // up to the non-nested-plane wobble.
//! let lo = msdn.lower_bound(0, a, b, None).value;
//! let hi = msdn.lower_bound(msdn.num_levels() - 1, a, b, None).value;
//! assert!(lo >= a.dist(b) - 1e-9);
//! assert!(hi >= lo * 0.98);
//! ```

pub mod cache;
pub mod crossing;
pub mod io;
pub mod msdn;
pub mod network;
pub mod paged;
pub mod simplify;

pub use cache::{LineBand, LineCutCache, LineKey, LineLoad};
pub use crossing::CrossingLine;
pub use msdn::{Msdn, MsdnConfig};
pub use network::{lower_bound, LowerBound};
pub use paged::{LineRead, PagedMsdn};
pub use simplify::{simplify_line, SimplifiedLine, SimplifiedSegment};
