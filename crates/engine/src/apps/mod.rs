//! Vertex programs: PageRank, the one workload the paper's system figures
//! (Fig. 4(b), Fig. 8) run, with the sequential reference its correctness
//! tests compare against.

pub mod pagerank;

pub use pagerank::{sequential_pagerank, PageRank};
