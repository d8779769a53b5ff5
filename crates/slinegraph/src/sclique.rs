//! s-clique graphs: the vertex-centric dual of s-line graphs (§III-H).
//!
//! The weighted clique expansion `W = H·Hᵀ − D_V` connects vertices `u, v`
//! with weight equal to the number of hyperedges containing both. The
//! *s-clique graph* keeps pairs with weight ≥ s — and is exactly the
//! s-line graph of the **dual** hypergraph, so the same machinery applies
//! without ever materializing the (possibly very dense) `W`. The 1-clique
//! graph is the classic clique expansion / 2-section.

use crate::algorithms::{algo2_slinegraph, OverlapResult};
use crate::ensemble::edge_counts_over_s;
use crate::strategy::Strategy;
use hyperline_hypergraph::Hypergraph;

/// Computes the s-clique graph edge list of `h`: vertex pairs appearing
/// together in at least `s` hyperedges. Runs Algorithm 2 on the dual.
pub fn sclique_graph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    algo2_slinegraph(&h.dual(), s, strategy)
}

/// Edge counts of the s-clique graph for each `s` (Figure 4's y-axis):
/// [`edge_counts_over_s`] on the dual.
pub fn sclique_edge_counts(
    h: &Hypergraph,
    s_values: &[u32],
    strategy: &Strategy,
) -> Vec<(u32, usize)> {
    edge_counts_over_s(&h.dual(), s_values, strategy)
}

/// The clique expansion (2-section) edge list: the `s = 1` special case.
pub fn clique_expansion(h: &Hypergraph, strategy: &Strategy) -> OverlapResult {
    sclique_graph(h, 1, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2section() {
        // Figure 3 (right): the 2-section of the example hypergraph —
        // a,b,c,d,e form a clique (all co-occur in edge 3), e-f from edge 4.
        let h = Hypergraph::paper_example();
        let r = clique_expansion(&h, &Strategy::default());
        let mut expect: Vec<(u32, u32)> = vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4), // a-b, a-c, a-d, a-e
            (1, 2),
            (1, 3),
            (1, 4), // b-c, b-d, b-e
            (2, 3),
            (2, 4), // c-d, c-e
            (3, 4), // d-e
            (4, 5), // e-f
        ];
        expect.sort_unstable();
        assert_eq!(r.edges, expect);
    }

    #[test]
    fn sclique_weights_are_adj_counts() {
        // adj(b, c) = 3 in the example, so {b, c} survives s = 3.
        let h = Hypergraph::paper_example();
        let r = sclique_graph(&h, 3, &Strategy::default());
        assert_eq!(r.edges, vec![(1, 2)]);
        // s = 2: pairs in >= 2 common edges: (a,b)=2,(a,c)=2,(b,c)=3,
        // (b,d)=2,(c,d)=2.
        let r = sclique_graph(&h, 2, &Strategy::default());
        assert_eq!(r.edges, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn sclique_equals_slinegraph_of_dual() {
        let h = Hypergraph::paper_example();
        let st = Strategy::default();
        for s in 1..=3 {
            assert_eq!(
                sclique_graph(&h, s, &st).edges,
                algo2_slinegraph(&h.dual(), s, &st).edges
            );
        }
    }

    #[test]
    fn edge_counts_decrease_in_s() {
        let h = Hypergraph::paper_example();
        let counts = sclique_edge_counts(&h, &[1, 2, 3, 4], &Strategy::default());
        for w in counts.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(counts[0].1, 11);
        assert_eq!(counts[2].1, 1);
    }
}
