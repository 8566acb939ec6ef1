//! Vertex programs: the paper's workloads (PageRank, Connected Components,
//! and the label propagation its introduction names) plus BFS/SSSP for
//! wider coverage. Each module ships a sequential reference implementation
//! used by the correctness tests.

pub mod bfs;
pub mod connected_components;
pub mod label_propagation;
pub mod pagerank;

pub use bfs::{sequential_bfs_levels, Bfs};
pub use connected_components::{sequential_components, ConnectedComponents};
pub use label_propagation::{sequential_label_propagation, LabelPropagation};
pub use pagerank::{sequential_pagerank, PageRank};
