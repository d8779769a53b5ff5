//! Property tests for the Stage-5 metric kernels on generated s-line
//! graphs: invariants that must hold regardless of input shape.

use hyperline::graph::{betweenness, cc, closeness, kcore, pagerank, spectral};
use hyperline::prelude::*;
use hyperline::slinegraph::walks;
use hyperline::slinegraph::{SLineGraph, Strategy};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn hypergraph_gen() -> impl PropStrategy<Value = Hypergraph> {
    (2usize..25).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0..n as u32, 0..=n.min(8)), 1..30)
            .prop_map(move |lists| Hypergraph::from_edge_lists(&lists, n))
    })
}

fn slg_of(h: &Hypergraph, s: u32) -> SLineGraph {
    let r = algo2_slinegraph(h, s, &Strategy::default());
    SLineGraph::new_squeezed(s, h.num_edges(), r.edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn components_partition_the_vertex_set(h in hypergraph_gen(), s in 1u32..4) {
        let slg = slg_of(&h, s);
        let comps = slg.connected_components();
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for comp in &comps {
            for &e in comp {
                prop_assert!(seen.insert(e), "hyperedge {e} in two components");
                total += 1;
            }
        }
        prop_assert_eq!(total, slg.num_vertices());
    }

    #[test]
    fn s_distance_is_a_metric_on_components(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let comps = slg.connected_components();
        if let Some(comp) = comps.first() {
            let sample: Vec<u32> = comp.iter().take(5).copied().collect();
            for &a in &sample {
                prop_assert_eq!(slg.s_distance(a, a), Some(0));
                for &b in &sample {
                    let dab = slg.s_distance(a, b);
                    prop_assert_eq!(dab, slg.s_distance(b, a), "symmetry");
                    for &c in &sample {
                        if let (Some(ab), Some(bc), Some(ac)) =
                            (dab, slg.s_distance(b, c), slg.s_distance(a, c))
                        {
                            prop_assert!(ac <= ab + bc, "triangle inequality");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn betweenness_nonnegative_and_leaves_zero(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let bc = slg.betweenness();
        for &(e, score) in &bc {
            prop_assert!(score >= 0.0);
            if let Some(v) = slg.graph_vertex(e) {
                if slg.graph().degree(v) == 1 {
                    prop_assert_eq!(score, 0.0, "degree-1 vertex {} must have zero betweenness", e);
                }
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        if slg.num_vertices() > 0 {
            let pr = pagerank::pagerank(slg.graph(), pagerank::PageRankOptions::default());
            let total: f64 = pr.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "sum {total}");
            prop_assert!(pr.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn core_numbers_bounded_by_degree_and_monotone(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let g = slg.graph();
        let core = kcore::core_numbers(g);
        for v in 0..g.num_vertices() as u32 {
            prop_assert!(core[v as usize] as usize <= g.degree(v));
        }
        // k-core vertex sets shrink as k grows.
        let d = kcore::degeneracy(g);
        let mut prev = g.num_vertices();
        for k in 0..=d {
            let cur = kcore::k_core_vertices(g, k).len();
            prop_assert!(cur <= prev);
            prev = cur;
        }
    }

    #[test]
    fn closeness_bounded_and_zero_for_isolated(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let c = closeness::harmonic_closeness(slg.graph());
        for (v, &score) in c.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&score));
            if slg.graph().degree(v as u32) == 0 {
                prop_assert_eq!(score, 0.0);
            }
        }
    }

    #[test]
    fn spectral_lambda2_within_bounds(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let lambda = slg.algebraic_connectivity();
        prop_assert!((0.0..=2.0 + 1e-9).contains(&lambda), "λ₂ = {lambda}");
    }

    #[test]
    fn shortest_walks_are_valid_s_walks(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let comps = slg.connected_components();
        if let Some(comp) = comps.first() {
            let sample: Vec<u32> = comp.iter().take(4).copied().collect();
            for &a in &sample {
                for &b in &sample {
                    if let Some(walk) = walks::shortest_s_walk(&slg, a, b) {
                        prop_assert!(walks::is_s_path(&h, s, &walk), "walk {walk:?}");
                        prop_assert_eq!(walk.first().copied(), Some(a));
                        prop_assert_eq!(walk.last().copied(), Some(b));
                    }
                }
            }
        }
    }

    #[test]
    fn label_prop_union_find_bfs_agree_on_slg(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let g = slg.graph();
        let bfs = cc::components_bfs(g);
        prop_assert_eq!(&cc::components_label_prop(g), &bfs);
        let edges: Vec<(u32, u32)> = g.iter_edges().collect();
        prop_assert_eq!(&cc::components_union_find(g.num_vertices(), &edges), &bfs);
    }

    #[test]
    fn sampled_betweenness_full_sampling_matches_exact(h in hypergraph_gen(), s in 1u32..3) {
        let slg = slg_of(&h, s);
        let g = slg.graph();
        if g.num_vertices() > 0 {
            let exact = betweenness::betweenness_parallel(g);
            let sampled = betweenness::betweenness_sampled(g, g.num_vertices(), 1);
            for (a, b) in exact.iter().zip(&sampled) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dense_and_iterative_spectra_agree_on_small_slgs(h in hypergraph_gen()) {
        let slg = slg_of(&h, 2);
        let g = slg.graph();
        if (2..=30).contains(&g.num_vertices()) {
            let labels = cc::components_bfs(g);
            let comp = cc::largest_component(&labels);
            if comp.len() >= 2 {
                let (sub, _) = g.induced(&comp);
                let iterative = spectral::algebraic_connectivity(&sub, Default::default());
                prop_assert!(iterative.converged, "{iterative:?}");
                let dense = spectral::normalized_laplacian_dense(&sub).eigenvalues()[1];
                prop_assert!((iterative.value - dense).abs() < 1e-8, "{iterative:?} vs {dense}");
            }
        }
    }
}
