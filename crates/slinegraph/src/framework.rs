//! The five-stage s-line-graph framework (§IV).
//!
//! Stage 1 — preprocessing: relabel hyperedges by degree (optional).
//! Stage 2 — toplexes: simplify to maximal edges (optional).
//! Stage 3 — s-overlap: construct the s-line-graph edge list (the
//!            compute-bound stage; algorithm + strategy selectable).
//! Post-processing ("postprocess" in the stage times): restore original
//!            IDs, normalize orientation, re-sort — all parallel, so the
//!            Amdahl tail after the counting pass stays off one core.
//! Stage 4 — ID squeezing: compact the hypersparse ID space (optional)
//!            and build the CSR s-line graph.
//! Stage 5 — s-metrics: connected components, centrality, spectral
//!            measures (exposed on [`SLineGraph`]; the framework times a
//!            connected-components pass the way the paper's Table I does).
//!
//! Edges are always reported on **original** hyperedge IDs regardless of
//! relabeling or simplification, so downstream analysis is unaffected by
//! the performance knobs.

use crate::algorithms::{algo1_slinegraph, algo2_slinegraph, naive_slinegraph};
use crate::linegraph::SLineGraph;
use crate::spgemm_baseline::spgemm_slinegraph;
use crate::stats::AlgoStats;
use crate::strategy::{Algorithm, Strategy};
use hyperline_hypergraph::{prep, toplex, Hypergraph};
use hyperline_util::parallel::{par_for_each_mut, par_sort_unstable};
use hyperline_util::timer::StageTimes;

/// Configuration of one end-to-end pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The overlap threshold `s ≥ 1`.
    pub s: u32,
    /// Which construction algorithm runs Stage 3.
    pub algorithm: Algorithm,
    /// Partitioning / relabeling / counter strategy.
    pub strategy: Strategy,
    /// Run Stage 2 (toplex simplification).
    pub compute_toplexes: bool,
    /// Run Stage 4 ID squeezing (recommended; the paper calls the
    /// unsqueezed matrix hypersparse).
    pub squeeze: bool,
    /// Time a Stage-5 connected-components pass (Table I's last row).
    pub run_components: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            s: 2,
            algorithm: Algorithm::Algo2,
            strategy: Strategy::default(),
            compute_toplexes: false,
            squeeze: true,
            run_components: true,
        }
    }
}

impl PipelineConfig {
    /// Convenience constructor for the common case.
    pub fn new(s: u32) -> Self {
        Self {
            s,
            ..Default::default()
        }
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The constructed s-line graph (original hyperedge IDs).
    pub line_graph: SLineGraph,
    /// Wall time per stage, in execution order.
    pub times: StageTimes,
    /// Worker statistics from Stage 3.
    pub stats: AlgoStats,
    /// s-connected components if `run_components` was set.
    pub components: Option<Vec<Vec<u32>>>,
    /// Number of toplexes if Stage 2 ran.
    pub num_toplexes: Option<usize>,
}

/// Runs the five-stage pipeline on `h`.
pub fn run_pipeline(h: &Hypergraph, config: &PipelineConfig) -> PipelineRun {
    assert!(config.s >= 1, "s must be at least 1");
    let mut times = StageTimes::new();
    let original_m = h.num_edges();

    // Stage 2 (optional, before relabeling so the relabel permutation is
    // over the simplified edge set): toplexes.
    let (working, toplex_ids, num_toplexes) = if config.compute_toplexes {
        let t = times.run("toplexes", || toplex::toplexes(h));
        let count = t.toplex_ids.len();
        (t.simplified, Some(t.toplex_ids), Some(count))
    } else {
        (h.clone(), None, None)
    };

    // Coordinator-side cancellation points between stages: when the
    // request's deadline has expired (flag set when the server's event
    // loop fires it), unwind to the single-flight cache's catch_unwind
    // instead of starting the next stage. Flag checks only — no clocks
    // (HL004).
    hyperline_util::cancel::checkpoint();

    // Stage 1: preprocessing (relabel-by-degree).
    let relabeled = times.run("preprocessing", || {
        prep::relabel_edges_by_degree(&working, config.strategy.relabel)
    });

    // Stage 3: s-overlap.
    let (mut edges, stats) = times.run("s-overlap", || match config.algorithm {
        Algorithm::Naive => {
            let r = naive_slinegraph(&relabeled.hypergraph, config.s, &config.strategy);
            (r.edges, r.stats)
        }
        Algorithm::Algo1 => {
            let r = algo1_slinegraph(&relabeled.hypergraph, config.s, &config.strategy);
            (r.edges, r.stats)
        }
        Algorithm::Algo2 => {
            let r = algo2_slinegraph(&relabeled.hypergraph, config.s, &config.strategy);
            (r.edges, r.stats)
        }
        Algorithm::SpGemm { upper } => {
            let r = spgemm_slinegraph(&relabeled.hypergraph, config.s, upper);
            let stats = r.stats();
            (r.edges, stats)
        }
    });

    hyperline_util::cancel::checkpoint();

    // Post-processing tail, timed as its own stage: restore original IDs
    // (undo relabeling, then simplification) and normalize orientation in
    // one parallel pass, then re-sort in parallel. The sorted multiset of
    // restored pairs is unique, so the output is byte-identical for every
    // worker count.
    times.run("postprocess", || {
        let new_to_old = &relabeled.new_to_old;
        let restore = |pair: &mut (u32, u32)| {
            let mut a = new_to_old[pair.0 as usize];
            let mut b = new_to_old[pair.1 as usize];
            if let Some(ids) = &toplex_ids {
                a = ids[a as usize];
                b = ids[b as usize];
            }
            *pair = if a <= b { (a, b) } else { (b, a) };
        };
        // Tiny results (high s, small datasets) restore serially: worker
        // spawn would dwarf the loop.
        if edges.len() < (1 << 15) {
            edges.iter_mut().for_each(restore);
        } else {
            par_for_each_mut(&mut edges, restore);
        }
        par_sort_unstable(&mut edges);
    });

    hyperline_util::cancel::checkpoint();

    // Stage 4: squeeze + construction.
    let line_graph = times.run("squeeze", || {
        if config.squeeze {
            SLineGraph::new_squeezed(config.s, original_m, edges)
        } else {
            SLineGraph::new_unsqueezed(config.s, original_m, edges)
        }
    });

    // Stage 5 (representative metric, timed like the paper's Table I).
    let components = if config.run_components {
        Some(times.run("s-connected-components", || {
            line_graph.connected_components()
        }))
    } else {
        None
    };

    PipelineRun {
        line_graph,
        times,
        stats,
        components,
        num_toplexes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperline_hypergraph::RelabelOrder;

    #[test]
    fn default_pipeline_on_paper_example() {
        let h = Hypergraph::paper_example();
        let run = run_pipeline(&h, &PipelineConfig::new(2));
        assert_eq!(run.line_graph.edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(run.components.as_ref().unwrap(), &vec![vec![0, 1, 2]]);
        assert!(run.times.get("s-overlap").is_some());
        assert!(run.times.get("preprocessing").is_some());
        assert!(run.times.get("postprocess").is_some());
        assert!(run.times.get("squeeze").is_some());
        assert!(run.times.get("s-connected-components").is_some());
    }

    #[test]
    fn all_algorithms_through_pipeline_agree() {
        let h = Hypergraph::paper_example();
        for s in 1..=4u32 {
            let reference = run_pipeline(
                &h,
                &PipelineConfig {
                    s,
                    ..Default::default()
                },
            )
            .line_graph
            .edges;
            for algorithm in [
                Algorithm::Naive,
                Algorithm::Algo1,
                Algorithm::SpGemm { upper: false },
                Algorithm::SpGemm { upper: true },
            ] {
                let run = run_pipeline(
                    &h,
                    &PipelineConfig {
                        s,
                        algorithm,
                        ..Default::default()
                    },
                );
                assert_eq!(run.line_graph.edges, reference, "{algorithm:?} s={s}");
            }
        }
    }

    #[test]
    fn relabeling_is_transparent_in_output() {
        let h = Hypergraph::paper_example();
        let base = run_pipeline(&h, &PipelineConfig::new(2)).line_graph.edges;
        for relabel in RelabelOrder::ALL {
            let config = PipelineConfig {
                strategy: Strategy::default().with_relabel(relabel),
                ..PipelineConfig::new(2)
            };
            let run = run_pipeline(&h, &config);
            assert_eq!(run.line_graph.edges, base, "{relabel:?}");
        }
    }

    #[test]
    fn toplex_stage_shrinks_input_but_keeps_toplex_edges() {
        // Edges 0, 1 are subsets of edge 2; at s = 1, the simplified
        // hypergraph's line graph has the toplexes {2, 3} joined via e.
        let h = Hypergraph::paper_example();
        let config = PipelineConfig {
            compute_toplexes: true,
            ..PipelineConfig::new(1)
        };
        let run = run_pipeline(&h, &config);
        assert_eq!(run.num_toplexes, Some(2));
        assert_eq!(
            run.line_graph.edges,
            vec![(2, 3)],
            "IDs restored to original space"
        );
    }

    #[test]
    fn unsqueezed_pipeline_keeps_id_space() {
        let h = Hypergraph::paper_example();
        let config = PipelineConfig {
            squeeze: false,
            ..PipelineConfig::new(3)
        };
        let run = run_pipeline(&h, &config);
        assert_eq!(run.line_graph.num_vertices(), 4);
        assert!(!run.line_graph.is_squeezed());
    }

    #[test]
    fn component_skip_flag() {
        let h = Hypergraph::paper_example();
        let config = PipelineConfig {
            run_components: false,
            ..PipelineConfig::new(2)
        };
        let run = run_pipeline(&h, &config);
        assert!(run.components.is_none());
        assert!(run.times.get("s-connected-components").is_none());
    }

    #[test]
    fn stage_total_covers_all_stages() {
        let h = Hypergraph::paper_example();
        let run = run_pipeline(&h, &PipelineConfig::new(2));
        assert_eq!(run.times.len(), 5);
        assert!(run.times.total() >= run.times.get("s-overlap").unwrap());
    }
}
