//! Proximity-based hierarchical clustering with the one-label-per-cluster
//! constraint (§IV-C of the GRAFICS paper), plus nearest-centroid floor
//! prediction (§V-B).
//!
//! Every embedding starts as its own cluster. The two closest clusters are
//! merged repeatedly — *unless both already contain a floor-labelled
//! sample*, in which case that pair may never merge. The process stops when
//! every cluster contains exactly one labelled sample; the cluster inherits
//! that sample's floor. Distance between clusters is the average pairwise
//! ℓ2 distance (Eq. (11)), maintained incrementally via the Lance–Williams
//! recurrence; a per-cluster nearest-partner cache finds each merge, so
//! memory stays at the condensed O(n²/2) distance matrix.
//!
//! The O(n²·d) *initial* dissimilarity matrix — the dominant cost at the
//! embedding dimensions the paper uses — runs over the workspace's flat
//! [`grafics_types::RowMatrix`] with cache-blocked tiling, and can be
//! built on a worker pool via [`ClusteringConfig::threads`] (or directly
//! through [`dissimilarity_matrix`]); the fitted model is bit-identical
//! for any thread count and to the historical nested-`Vec` build.
//! Prediction compares squared distances and pays the `sqrt` only for
//! winners; [`MatchScratch`] lets serving sessions reuse the candidate
//! buffers across a batch.
//!
//! # Examples
//!
//! ```
//! use grafics_cluster::{ClusteringConfig, ClusterModel};
//! use grafics_types::{FloorId, RowMatrix};
//!
//! // Two well-separated blobs; one labelled point in each.
//! let points = RowMatrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],   // floor 0
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],   // floor 1
//! ]);
//! let labels = vec![
//!     Some(FloorId(0)), None, None,
//!     Some(FloorId(1)), None, None,
//! ];
//! let model = ClusterModel::fit(&points, &labels, &ClusteringConfig::default()).unwrap();
//! assert_eq!(model.clusters().len(), 2);
//! assert_eq!(model.predict(&[0.05, 0.05]).unwrap().floor, FloorId(0));
//! assert_eq!(model.predict(&[4.9, 5.2]).unwrap().floor, FloorId(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agglomerative;
mod model;

pub use agglomerative::{dissimilarity_matrix, ClusterError, ClusteringConfig, Linkage, MergeStep};
pub use model::{Cluster, ClusterModel, MatchPrecision, MatchScratch, Prediction};
