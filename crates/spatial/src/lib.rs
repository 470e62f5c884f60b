#![warn(missing_docs)]
//! Spatial indexing substrate.
//!
//! The paper's MR3 algorithm issues two classic 2-D spatial queries against
//! the object table `Dxy` (projections of the objects onto the (x, y)
//! plane): a k-NN query (step 1) and a range query (step 3). Both are served
//! by [`rtree::RTree`], an R-tree with STR bulk loading, Guttman quadratic
//! insertion, window queries and best-first incremental k-NN
//! (Hjaltason–Samet). Node accesses are counted so the storage layer can
//! charge them as page I/O, as the paper's Oracle-backed setup did.

//! ```
//! use sknn_spatial::RTree;
//! use sknn_geom::{Point2, Rect2};
//!
//! let pts: Vec<(Rect2, u32)> = (0..100)
//!     .map(|i| (Rect2::from_point(Point2::new(i as f64, (i * 7 % 100) as f64)), i))
//!     .collect();
//! let tree = RTree::bulk_load(pts);
//! let nearest = tree.knn(Point2::new(50.0, 50.0), 3);
//! assert_eq!(nearest.len(), 3);
//! assert!(nearest[0].0 <= nearest[2].0); // ascending by distance
//! ```

pub mod kernel;
pub mod rtree;

pub use rtree::RTree;
