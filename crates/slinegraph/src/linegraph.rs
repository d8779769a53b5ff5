//! The s-line graph as a queryable object (Stages 4–5).
//!
//! After the overlap stage produces an edge list over hyperedge IDs, the
//! ID space is usually hypersparse (most hyperedges have no s-deep
//! neighbor). [`SLineGraph`] squeezes the surviving IDs, builds a CSR
//! graph on the dense space, and exposes the Stage-5 metrics with results
//! reported against **original** hyperedge IDs.

use hyperline_graph::{
    betweenness, cc,
    graph::Graph,
    spectral::{self, Lambda2, SpectralOptions},
};
use hyperline_util::cancel;
use hyperline_util::telemetry::Span;
use hyperline_util::IdSqueezer;

/// Sorts a `(hyperedge ID, score)` ranking by descending score, ties by
/// ascending ID. NaN-safe: scores compare under [`f64::total_cmp`], so a
/// NaN score lands at a deterministic rank (total order puts NaN above
/// `+∞`, hence first in a descending ranking) instead of panicking the
/// worker mid-sort — these rankings are served over HTTP.
fn sort_ranking(out: &mut [(u32, f64)]) {
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// A constructed s-line graph `L_s(H)`.
#[derive(Debug, Clone)]
pub struct SLineGraph {
    /// The `s` this graph was filtered at.
    pub s: u32,
    /// Size of the original hyperedge ID space.
    pub num_hyperedges: usize,
    /// Edges on original hyperedge IDs (`i < j`, sorted).
    pub edges: Vec<(u32, u32)>,
    /// Present when IDs were squeezed (Stage 4).
    squeezer: Option<IdSqueezer>,
    /// CSR graph on squeezed IDs (or original IDs when not squeezed).
    graph: Graph,
}

impl SLineGraph {
    /// Builds with ID squeezing (Stage 4): the graph's vertex set is the
    /// set of hyperedges incident to at least one s-line edge.
    ///
    /// Checks the ambient cancel token on entry and between the squeeze
    /// and the CSR build: a request whose deadline fired after counting
    /// unwinds here with [`hyperline_util::cancel::Cancelled`] instead
    /// of finishing both stages.
    pub fn new_squeezed(s: u32, num_hyperedges: usize, edges: Vec<(u32, u32)>) -> Self {
        cancel::checkpoint();
        // Bounded build: one presence pass over the hyperedge ID space
        // plus a dense rename table — no endpoint sort, no hashmap probes
        // in the bulk remap.
        let postprocess = Span::enter("postprocess");
        let mut squeezer = IdSqueezer::from_edges_bounded(&edges, num_hyperedges);
        let mut squeezed = edges.clone();
        squeezer.squeeze_edges(&mut squeezed);
        // Drop the O(num_hyperedges) rename scratch before this squeezer
        // gets stored (possibly inside a server cache artifact): point
        // lookups fall back to binary search, memory back to
        // O(surviving IDs).
        squeezer.compact();
        drop(postprocess);
        cancel::checkpoint();
        // Squeezing is strictly monotone, so a sorted upper-triangle edge
        // list (every pipeline output) stays sorted and `from_edges`
        // detects it with one cheap parallel scan, skipping the
        // clean/sort/dedup pass. Unsorted callers still work — they just
        // pay for the sort they need.
        let csr = Span::enter("csr");
        let graph = Graph::from_edges(squeezer.len(), &squeezed);
        drop(csr);
        Self {
            s,
            num_hyperedges,
            edges,
            squeezer: Some(squeezer),
            graph,
        }
    }

    /// Builds without squeezing: the graph keeps the full hyperedge ID
    /// space (hypersparse; wasteful for large `m`, as the paper notes).
    pub fn new_unsqueezed(s: u32, num_hyperedges: usize, edges: Vec<(u32, u32)>) -> Self {
        let csr = Span::enter("csr");
        let graph = Graph::from_edges(num_hyperedges, &edges);
        drop(csr);
        Self {
            s,
            num_hyperedges,
            edges,
            squeezer: None,
            graph,
        }
    }

    /// The underlying CSR graph (on squeezed IDs if squeezed).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether Stage 4 squeezing was applied.
    pub fn is_squeezed(&self) -> bool {
        self.squeezer.is_some()
    }

    /// Number of graph vertices (squeezed count, or `num_hyperedges`).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of s-line-graph edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Maps a graph vertex back to its original hyperedge ID.
    pub fn original_id(&self, graph_vertex: u32) -> u32 {
        match &self.squeezer {
            Some(sq) => sq.unsqueeze(graph_vertex),
            None => graph_vertex,
        }
    }

    /// Maps an original hyperedge ID to its graph vertex, if present.
    pub fn graph_vertex(&self, original: u32) -> Option<u32> {
        match &self.squeezer {
            Some(sq) => sq.squeeze(original),
            None => ((original as usize) < self.num_hyperedges).then_some(original),
        }
    }

    /// s-connected components (Stage 5), as sets of **original** hyperedge
    /// IDs, largest first. Hyperedges with no s-line edges form singleton
    /// components only in the unsqueezed view and are omitted here.
    ///
    /// Computed by the frontier-parallel BFS engine
    /// ([`cc::components_parallel`]); output is byte-identical to the
    /// serial reference for every worker count.
    pub fn connected_components(&self) -> Vec<Vec<u32>> {
        let _span = Span::enter("components");
        let labels = cc::components_parallel(&self.graph);
        cc::components_as_sets(&labels)
            .into_iter()
            .map(|comp| comp.into_iter().map(|v| self.original_id(v)).collect())
            .filter(|comp: &Vec<u32>| {
                // In the unsqueezed view, drop isolated vertices to match
                // the squeezed semantics.
                self.is_squeezed() || comp.len() > 1 || {
                    let v = comp[0];
                    self.graph.degree(v) > 0
                }
            })
            .collect()
    }

    /// s-betweenness centrality (Stage 5): `(original hyperedge ID,
    /// score)`, sorted by descending score. Scores are normalized to
    /// `[0, 1]` over the squeezed vertex set.
    pub fn betweenness(&self) -> Vec<(u32, f64)> {
        let _span = Span::enter("betweenness");
        let mut scores = betweenness::betweenness_parallel(&self.graph);
        betweenness::normalize(&mut scores);
        let mut out: Vec<(u32, f64)> = scores
            .into_iter()
            .enumerate()
            .map(|(v, score)| (self.original_id(v as u32), score))
            .collect();
        sort_ranking(&mut out);
        out
    }

    /// Approximate s-betweenness centrality from `samples` sampled BFS
    /// sources (Brandes–Pich), deterministic in `(samples, seed)`:
    /// `(original hyperedge ID, score)`, sorted by descending score.
    /// Scores estimate the exact normalized values; sampling all sources
    /// matches [`SLineGraph::betweenness`] up to floating-point
    /// summation order (not bit-identically — the sampled sweep sums
    /// over a permuted source list).
    pub fn betweenness_sampled(&self, samples: usize, seed: u64) -> Vec<(u32, f64)> {
        let _span = Span::enter("betweenness");
        let mut scores = betweenness::betweenness_sampled(&self.graph, samples, seed);
        betweenness::normalize(&mut scores);
        let mut out: Vec<(u32, f64)> = scores
            .into_iter()
            .enumerate()
            .map(|(v, score)| (self.original_id(v as u32), score))
            .collect();
        sort_ranking(&mut out);
        out
    }

    /// s-distance between two hyperedges (original IDs): length of the
    /// shortest s-walk, `None` if not s-connected (or either hyperedge
    /// has no s-line edges).
    pub fn s_distance(&self, e: u32, f: u32) -> Option<u32> {
        let (ge, gf) = (self.graph_vertex(e)?, self.graph_vertex(f)?);
        hyperline_graph::bfs::distance(&self.graph, ge, gf)
    }

    /// Normalized algebraic connectivity λ₂ of the largest component
    /// (Figure 6's y-axis): [`SLineGraph::lambda2`]'s value, for callers
    /// that only plot it.
    pub fn algebraic_connectivity(&self) -> f64 {
        self.lambda2().value
    }

    /// λ₂ of the largest component together with whether its Lanczos
    /// run met the residual bound of the default
    /// [`SpectralOptions`]; anything served or printed reports the flag.
    /// Opens a `spectral` span with one `step` child per Lanczos step.
    pub fn lambda2(&self) -> Lambda2 {
        let _span = Span::enter("spectral");
        spectral::normalized_algebraic_connectivity(&self.graph, SpectralOptions::default())
    }

    /// s-harmonic-closeness centrality: `(original hyperedge ID, score)`,
    /// sorted by descending score. Source-parallel over the frontier
    /// engine's batched sweeps; bit-identical for every worker count.
    pub fn closeness(&self) -> Vec<(u32, f64)> {
        let _span = Span::enter("closeness");
        let scores = hyperline_graph::closeness::harmonic_closeness(&self.graph);
        let mut out: Vec<(u32, f64)> = scores
            .into_iter()
            .enumerate()
            .map(|(v, score)| (self.original_id(v as u32), score))
            .collect();
        sort_ranking(&mut out);
        out
    }

    /// s-diameter: the largest finite s-distance between any two
    /// s-connected hyperedges (0 for empty line graphs). Exact, from
    /// eccentricity bounds per component ([`hyperline_graph::frontier::diameter`]):
    /// a few BFS sweeps on small-world line graphs. Opens a `diameter`
    /// span with one `sweep` child per BFS.
    pub fn s_diameter(&self) -> u32 {
        let _span = Span::enter("diameter");
        hyperline_graph::frontier::diameter(&self.graph)
    }

    /// Average local clustering coefficient of the s-line graph.
    pub fn average_clustering(&self) -> f64 {
        hyperline_graph::closeness::average_clustering(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s = 2 line graph of the paper example: triangle on edges {0,1,2};
    /// hyperedge 3 is isolated.
    fn paper_s2() -> Vec<(u32, u32)> {
        vec![(0, 1), (0, 2), (1, 2)]
    }

    #[test]
    fn cancelled_token_unwinds_the_squeezed_build() {
        let token = cancel::CancelToken::new();
        token.cancel();
        let built = std::panic::catch_unwind(|| {
            cancel::with_token(Some(token), || SLineGraph::new_squeezed(2, 4, paper_s2()))
        });
        let payload = built.expect_err("a cancelled build must unwind");
        assert!(payload.downcast_ref::<cancel::Cancelled>().is_some());
    }

    #[test]
    fn squeezed_compacts_ids() {
        // Use IDs far apart to exercise squeezing.
        let edges = vec![(5u32, 900u32), (900, 2000), (5, 2000)];
        let slg = SLineGraph::new_squeezed(2, 3000, edges.clone());
        assert_eq!(slg.num_vertices(), 3);
        assert_eq!(slg.num_edges(), 3);
        assert!(slg.is_squeezed());
        assert_eq!(slg.original_id(0), 5);
        assert_eq!(slg.graph_vertex(900), Some(1));
        assert_eq!(slg.graph_vertex(7), None);
        assert_eq!(slg.edges, edges);
    }

    #[test]
    fn unsqueezed_keeps_full_space() {
        let slg = SLineGraph::new_unsqueezed(2, 4, paper_s2());
        assert_eq!(slg.num_vertices(), 4);
        assert!(!slg.is_squeezed());
        assert_eq!(slg.graph_vertex(3), Some(3));
        assert_eq!(slg.original_id(3), 3);
    }

    #[test]
    fn components_report_original_ids() {
        let slg = SLineGraph::new_squeezed(2, 4, paper_s2());
        let comps = slg.connected_components();
        assert_eq!(comps, vec![vec![0, 1, 2]]);
        // Unsqueezed drops the isolated hyperedge 3 as well.
        let slg = SLineGraph::new_unsqueezed(2, 4, paper_s2());
        assert_eq!(slg.connected_components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn betweenness_on_path() {
        // Path 10-20-30 in original IDs: 20 is the center.
        let slg = SLineGraph::new_squeezed(1, 100, vec![(10, 20), (20, 30)]);
        let bc = slg.betweenness();
        assert_eq!(bc[0].0, 20);
        assert!(bc[0].1 > 0.0);
        assert_eq!(bc[1].1, 0.0);
    }

    #[test]
    fn sampled_betweenness_full_sampling_is_exact() {
        let slg = SLineGraph::new_squeezed(
            1,
            100,
            vec![(10, 20), (20, 30), (30, 40), (40, 50), (20, 40)],
        );
        let exact = slg.betweenness();
        let sampled = slg.betweenness_sampled(slg.num_vertices(), 7);
        assert_eq!(exact.len(), sampled.len());
        for ((e1, s1), (e2, s2)) in exact.iter().zip(&sampled) {
            assert_eq!(e1, e2);
            assert!((s1 - s2).abs() < 1e-9, "{e1}: {s1} vs {s2}");
        }
        // Deterministic in (samples, seed).
        assert_eq!(slg.betweenness_sampled(2, 9), slg.betweenness_sampled(2, 9));
    }

    #[test]
    fn ranking_sort_survives_nan_scores() {
        // Regression: these rankings used partial_cmp().unwrap(), so one
        // NaN score panicked the serving worker instead of returning a
        // ranked result.
        let mut scores = vec![(7u32, 0.25), (3, f64::NAN), (9, 0.5), (1, 0.25)];
        sort_ranking(&mut scores);
        // NaN > +inf under total_cmp: deterministic first place; ties
        // break by ascending ID; no panic.
        assert_eq!(scores[0].0, 3);
        assert!(scores[0].1.is_nan());
        assert_eq!(scores[1], (9, 0.5));
        assert_eq!(scores[2], (1, 0.25));
        assert_eq!(scores[3], (7, 0.25));
    }

    #[test]
    fn s_distance_through_squeezed_ids() {
        let slg = SLineGraph::new_squeezed(1, 100, vec![(10, 20), (20, 30)]);
        assert_eq!(slg.s_distance(10, 30), Some(2));
        assert_eq!(slg.s_distance(10, 10), Some(0));
        assert_eq!(slg.s_distance(10, 99), None, "99 has no s-line edges");
    }

    #[test]
    fn algebraic_connectivity_of_triangle() {
        let slg = SLineGraph::new_squeezed(2, 4, paper_s2());
        // K3: λ₂ of normalized Laplacian = 3/2.
        assert!((slg.algebraic_connectivity() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn empty_line_graph() {
        let slg = SLineGraph::new_squeezed(4, 4, vec![]);
        assert_eq!(slg.num_vertices(), 0);
        assert!(slg.connected_components().is_empty());
        assert_eq!(slg.algebraic_connectivity(), 0.0);
        assert_eq!(slg.s_diameter(), 0);
        assert_eq!(slg.average_clustering(), 0.0);
    }

    #[test]
    fn closeness_and_diameter() {
        // Path 10-20-30-40: diameter 3; 20/30 most central.
        let slg = SLineGraph::new_squeezed(1, 100, vec![(10, 20), (20, 30), (30, 40)]);
        assert_eq!(slg.s_diameter(), 3);
        let cl = slg.closeness();
        assert!(cl[0].0 == 20 || cl[0].0 == 30);
        assert!(cl[0].1 > cl[3].1);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let slg = SLineGraph::new_squeezed(2, 4, paper_s2());
        assert!((slg.average_clustering() - 1.0).abs() < 1e-12);
    }
}
