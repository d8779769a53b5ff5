//! # hyperline
//!
//! Parallel computation and analysis of **high-order (s-)line graphs of
//! non-uniform hypergraphs** — a from-scratch Rust reproduction of
//! Liu et al., *"High-order Line Graphs of Non-uniform Hypergraphs:
//! Algorithms, Applications, and Experimental Analysis"* (IPDPS 2022,
//! arXiv:2201.11326).
//!
//! Two hyperedges of a hypergraph `H = (V, E)` are *s-incident* when they
//! share at least `s` vertices. The s-line graph `L_s(H)` connects
//! s-incident hyperedge pairs; it is a drastically smaller stand-in for
//! the clique expansion that still carries the high-order connectivity
//! structure of `H` (s-walks, s-components, s-centralities, spectra).
//!
//! ## Quick start
//!
//! ```
//! use hyperline::prelude::*;
//!
//! // The paper's running example: 6 vertices a..f, 4 hyperedges.
//! let h = Hypergraph::paper_example();
//!
//! // Construct the 2-line graph with the paper's overlap-counting algorithm.
//! let result = algo2_slinegraph(&h, 2, &Strategy::default());
//! assert_eq!(result.edges, vec![(0, 1), (0, 2), (1, 2)]);
//!
//! // Or run the full five-stage pipeline and query s-metrics.
//! let run = run_pipeline(&h, &PipelineConfig::new(2));
//! assert_eq!(run.line_graph.connected_components(), vec![vec![0, 1, 2]]);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`hypergraph`] | `hyperline-hypergraph` | CSR hypergraph, I/O, preprocessing, toplexes |
//! | [`slinegraph`] | `hyperline-slinegraph` | the s-line-graph algorithms + framework |
//! | [`graph`] | `hyperline-graph` | s-metric kernels (CC, betweenness, PageRank, spectral) |
//! | [`sparse`] | `hyperline-sparse` | SpGEMM baseline |
//! | [`gen`] | `hyperline-gen` | synthetic dataset profiles |
//! | [`server`] | `hyperline-server` | concurrent HTTP query server with an s-line-graph cache |
//! | [`util`] | `hyperline-util` | hashing, bitsets, timers, stats, scoped-thread parallelism |

#![warn(missing_docs)]

pub use hyperline_gen as gen;
pub use hyperline_graph as graph;
pub use hyperline_hypergraph as hypergraph;
pub use hyperline_server as server;
pub use hyperline_slinegraph as slinegraph;
pub use hyperline_sparse as sparse;
pub use hyperline_util as util;

/// The most common imports in one place.
pub mod prelude {
    pub use hyperline_gen::{CommunityModel, Profile};
    pub use hyperline_graph::{Graph, WeightedGraph};
    pub use hyperline_hypergraph::{Hypergraph, RelabelOrder};
    pub use hyperline_slinegraph::{
        algo1_slinegraph, algo2_slinegraph, algo2_slinegraph_weighted, clique_expansion,
        ensemble_slinegraphs, naive_slinegraph, run_pipeline, sclique_graph, spgemm_slinegraph,
        Algo1Heuristics, Algorithm, CounterKind, Partition, PipelineConfig, SLineGraph, Strategy,
        TriangleSide,
    };
}
