//! Worker-count sweep: the whole pipeline must be byte-identical for
//! every worker count.
//!
//! The parallel post-processing rewrite (sorted-run merges, parallel
//! restore/sort, parallel CSR construction) promises results independent
//! of the ambient thread count. This suite drives `run_pipeline` and
//! `Graph::from_edges` with workers ∈ {1, 2, 7, cores} over inputs big
//! enough to exercise the parallel paths and asserts exact equality.

use hyperline_graph::graph::Graph;
use hyperline_hypergraph::{Hypergraph, RelabelOrder};
use hyperline_slinegraph::{
    algo2_slinegraph_weighted, ensemble_slinegraphs, run_pipeline, PipelineConfig, Strategy,
};
use hyperline_util::parallel::with_threads;
use rand::prelude::*;

fn sweep_workers() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut ws = vec![1usize, 2, 7, cores];
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// A random hypergraph dense enough that the s = 1 line graph has tens
/// of thousands of edges (well past the parallel-path thresholds).
fn dense_hypergraph(seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 300usize;
    let lists: Vec<Vec<u32>> = (0..1000)
        .map(|_| {
            let k = rng.gen_range(2..15usize);
            let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    Hypergraph::from_edge_lists(&lists, n)
}

#[test]
fn pipeline_byte_identical_across_worker_counts() {
    let h = dense_hypergraph(11);
    for relabel in [RelabelOrder::None, RelabelOrder::Ascending] {
        // s = 1 keeps the line graph dense (any shared vertex), well
        // past the parallel-sort threshold.
        let config = PipelineConfig {
            strategy: Strategy::default().with_relabel(relabel),
            ..PipelineConfig::new(1)
        };
        let reference = with_threads(1, || run_pipeline(&h, &config));
        assert!(
            reference.line_graph.num_edges() > 30_000,
            "input too small to exercise the parallel paths: {}",
            reference.line_graph.num_edges()
        );
        for workers in sweep_workers() {
            let run = with_threads(workers, || run_pipeline(&h, &config));
            assert_eq!(
                run.line_graph.edges, reference.line_graph.edges,
                "edges diverged ({relabel:?}, workers={workers})"
            );
            assert_eq!(
                run.components, reference.components,
                "components diverged ({relabel:?}, workers={workers})"
            );
        }
    }
}

#[test]
fn graph_construction_byte_identical_across_worker_counts() {
    // A shuffled, duplicate-laden edge list through the general builder,
    // and its cleaned form through the sorted fast path.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 800usize;
    let edges: Vec<(u32, u32)> = (0..120_000)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    let reference = with_threads(1, || Graph::from_edges(n, &edges));
    let mut clean: Vec<(u32, u32)> = edges
        .iter()
        .filter(|&&(a, b)| a != b)
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    clean.sort_unstable();
    clean.dedup();
    for workers in sweep_workers() {
        let g = with_threads(workers, || Graph::from_edges(n, &edges));
        assert_eq!(g, reference, "general builder diverged (workers={workers})");
        let fast = with_threads(workers, || Graph::from_sorted_edges(n, &clean));
        assert_eq!(fast, reference, "fast path diverged (workers={workers})");
    }
}

/// One snapshot of every Stage-5 metric, with f64 scores captured as
/// raw bits so "byte-identical" means exactly that.
type Stage5Snapshot = (
    Vec<Vec<u32>>,   // connected components
    u32,             // s-diameter
    (u64, bool),     // λ₂ bits and its convergence flag
    Vec<(u32, u64)>, // closeness ranking (score bits)
    Vec<(u32, u64)>, // sampled betweenness ranking (score bits)
);

fn stage5_snapshot(slg: &hyperline_slinegraph::SLineGraph) -> Stage5Snapshot {
    let bits = |ranking: Vec<(u32, f64)>| -> Vec<(u32, u64)> {
        ranking.into_iter().map(|(e, s)| (e, s.to_bits())).collect()
    };
    let lambda2 = slg.lambda2();
    (
        slg.connected_components(),
        slg.s_diameter(),
        (lambda2.value.to_bits(), lambda2.converged),
        bits(slg.closeness()),
        bits(slg.betweenness_sampled(64, 7)),
    )
}

#[test]
fn stage5_metrics_byte_identical_across_worker_counts() {
    // A mid-size hypergraph: the s = 1 line graph is dense enough that
    // the frontier engine's parallel push/pull paths and the batched
    // sweeps all engage, small enough for an exact-betweenness-free
    // debug-mode run.
    let mut rng = StdRng::seed_from_u64(41);
    let n = 200usize;
    let lists: Vec<Vec<u32>> = (0..600)
        .map(|_| {
            let k = rng.gen_range(2..12usize);
            let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let h = Hypergraph::from_edge_lists(&lists, n);
    let run = with_threads(1, || run_pipeline(&h, &PipelineConfig::new(1)));
    let slg = &run.line_graph;
    assert!(
        slg.num_edges() > 10_000,
        "input too small to exercise the parallel frontier paths: {}",
        slg.num_edges()
    );
    let reference = with_threads(1, || stage5_snapshot(slg));
    assert!(reference.2 .1, "λ₂ did not converge");
    for workers in sweep_workers() {
        let got = with_threads(workers, || stage5_snapshot(slg));
        assert_eq!(
            got, reference,
            "stage-5 metrics diverged (workers={workers})"
        );
    }
}

#[test]
fn weighted_and_ensemble_byte_identical_across_worker_counts() {
    let h = dense_hypergraph(23);
    let st = Strategy::default();
    let (ref_weighted, _) = with_threads(1, || algo2_slinegraph_weighted(&h, 2, &st));
    let ref_ensemble = with_threads(1, || ensemble_slinegraphs(&h, &[1, 2, 3, 4], &st));
    for workers in sweep_workers() {
        let (weighted, _) = with_threads(workers, || algo2_slinegraph_weighted(&h, 2, &st));
        assert_eq!(
            weighted, ref_weighted,
            "weighted diverged (workers={workers})"
        );
        let ens = with_threads(workers, || ensemble_slinegraphs(&h, &[1, 2, 3, 4], &st));
        assert_eq!(
            ens.per_s, ref_ensemble.per_s,
            "ensemble diverged (workers={workers})"
        );
    }
}
