//! Graph substrate for the CLUGP reproduction.
//!
//! This crate provides everything the partitioners in the `clugp` crate and
//! the GAS engine in `clugp-engine` need from a graph layer:
//!
//! * [`types`] — compact vertex/edge primitives (`u32` vertex ids, 8-byte
//!   edges).
//! * [`csr`] — immutable compressed-sparse-row adjacency used by generators,
//!   analysis, and the execution engine.
//! * [`stream`] — the edge-streaming model of the paper (Definition 1):
//!   single-pass [`stream::EdgeStream`]s and resettable
//!   [`stream::RestreamableStream`]s for CLUGP's three-pass architecture,
//!   with a chunked-pull ABI ([`stream::EdgeStream::next_chunk`] /
//!   [`stream::for_each_chunk`]) so hot loops pay one virtual dispatch per
//!   block of edges, not one per edge (see DESIGN.md §2).
//! * [`idmap`] — the id-space layer: [`idmap::IdMap`] compacts sparse
//!   64-bit external ids (hashed URLs, crawl ids) onto the dense internal
//!   `u32` space in first-appearance order, under a raw stream through
//!   [`idmap::RemappedStream`], and caps growth at a configurable
//!   `max_vertices` (see DESIGN.md §5).
//! * [`order`] — BFS crawl order (the paper's assumed web-graph stream
//!   order), random order, and vertex relabeling.
//! * [`gen`] — synthetic web/social graph generators substituting for the
//!   WebGraph corpora of Table III (see DESIGN.md §4).
//! * [`io`] — text edge-list and binary formats, each with one
//!   file-backed stream as its reader, plus magic-based format detection
//!   ([`io::sniff_format`] / [`io::open_edge_stream`]).
//! * [`pack`] — `CLUGPZ`, the block-compressed on-disk graph storage layer:
//!   varint + gap encoding in independently decodable checksummed blocks
//!   with a trailing index, a bounded-memory external-sort writer, a
//!   chunked [`pack::PackedEdgeStream`] reader over a whole pack or a block
//!   range of one (see DESIGN.md §6).
//! * [`analysis`] — degree distributions, power-law exponent estimation,
//!   connected components.
//! * [`sampling`] — nested edge samples (Figure 5's sampled UK graphs).
//!
//! # Example
//!
//! ```
//! use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
//! use clugp_graph::order::bfs_edge_order;
//!
//! let graph = generate_web_crawl(&WebCrawlConfig {
//!     vertices: 1_000,
//!     mean_out_degree: 8.0,
//!     seed: 42,
//!     ..Default::default()
//! });
//! let stream = bfs_edge_order(&graph);
//! assert_eq!(stream.len() as u64, graph.num_edges());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod csr;
pub mod error;
pub mod gen;
pub mod idmap;
pub mod io;
pub mod order;
pub mod pack;
pub mod sampling;
pub mod stream;
pub mod types;

pub use csr::CsrGraph;
pub use error::{GraphError, Result};
pub use idmap::{IdMap, RawEdgeStream, RawInMemoryStream, RemappedStream};
pub use pack::PackedEdgeStream;
pub use stream::{EdgeStream, InMemoryStream, RestreamableStream};
pub use types::{Edge, ExternalId, RawEdge, VertexId};
