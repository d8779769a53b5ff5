//! Parallel computation of high-order (s-)line graphs of non-uniform
//! hypergraphs — the core contribution of the reproduced paper.
//!
//! Two hyperedges are *s-incident* when they share at least `s` vertices;
//! the **s-line graph** `L_s(H)` has the hyperedges as vertices and the
//! s-incident pairs as edges. This crate implements:
//!
//! * [`algorithms`] — the naive baseline, the HiPC'21 set-intersection
//!   algorithm (Algorithm 1) and the paper's overlap-counting algorithm
//!   (Algorithm 2, zero set intersections);
//! * [`ensemble`] — Algorithm 3: all requested `s` values from one
//!   counting pass;
//! * [`sclique`] — the dual, vertex-centric s-clique graphs (the `s = 1`
//!   case is the clique expansion);
//! * [`spgemm_baseline`] — the SpGEMM + filtration comparator;
//! * [`partition`] / [`strategy`] / [`counter`] — the workload
//!   distribution, relabeling and accumulator design space the paper
//!   sweeps (Table III, Figures 7–10);
//! * [`framework`] — the five-stage end-to-end pipeline with per-stage
//!   timing (Table I);
//! * [`linegraph`] — the queryable [`SLineGraph`] with Stage-5 s-metrics
//!   (components, betweenness, s-distance, algebraic connectivity).
//!
//! ```
//! use hyperline_hypergraph::Hypergraph;
//! use hyperline_slinegraph::{algo2_slinegraph, Strategy};
//!
//! let h = Hypergraph::paper_example();
//! let r = algo2_slinegraph(&h, 2, &Strategy::default());
//! assert_eq!(r.edges, vec![(0, 1), (0, 2), (1, 2)]);
//! assert_eq!(r.stats.total().set_intersections, 0);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod counter;
pub mod ensemble;
pub mod framework;
pub mod linegraph;
pub mod partition;
pub mod sclique;
pub mod spgemm_baseline;
pub mod stats;
pub mod strategy;
pub mod walks;

pub use algorithms::{
    algo1_slinegraph, algo2_slinegraph, algo2_slinegraph_weighted, naive_slinegraph, OverlapResult,
};
pub use counter::CounterKind;
pub use ensemble::{
    edge_counts_from_overlaps, edge_counts_over_s, ensemble_slinegraphs, EnsembleResult,
};
pub use framework::{run_pipeline, PipelineConfig, PipelineRun};
pub use linegraph::SLineGraph;
pub use partition::Partition;
pub use sclique::{clique_expansion, sclique_edge_counts, sclique_graph};
pub use spgemm_baseline::{spgemm_slinegraph, SpgemmResult};
pub use stats::{AlgoStats, WorkerStats};
pub use strategy::{table3_grid, Algo1Heuristics, Algorithm, Strategy, TriangleSide};
