//! Cross-crate equivalence properties of every s-line-graph construction.
//!
//! The four constructions (naive, Algorithm 1, Algorithm 2, SpGEMM+Filter)
//! and the ensemble must agree exactly on arbitrary hypergraphs, across
//! partitions, counters, worker counts and relabel orders. Property-based
//! tests generate the hypergraphs.

use hyperline::hypergraph::relabel_edges_by_degree;
use hyperline::prelude::*;
use proptest::prelude::*;
// Both globs export a `Strategy`; explicit imports disambiguate — the
// execution strategy by name, proptest's trait under an alias.
use hyperline::slinegraph::Strategy;
use proptest::strategy::Strategy as PropStrategy;

/// Proptest generator: a random hypergraph as (edge lists, num_vertices).
fn hypergraph_strategy() -> impl PropStrategy<Value = Hypergraph> {
    (1usize..30).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0..n as u32, 0..=n.min(10)), 0..40)
            .prop_map(move |lists| Hypergraph::from_edge_lists(&lists, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_constructions_agree(h in hypergraph_strategy(), s in 1u32..6) {
        let st = Strategy::default();
        let expect = naive_slinegraph(&h, s, &st).edges;
        prop_assert_eq!(&algo1_slinegraph(&h, s, &st).edges, &expect);
        prop_assert_eq!(&algo2_slinegraph(&h, s, &st).edges, &expect);
        prop_assert_eq!(&spgemm_slinegraph(&h, s, false).edges, &expect);
        prop_assert_eq!(&spgemm_slinegraph(&h, s, true).edges, &expect);
    }

    #[test]
    fn ensemble_matches_single_runs(h in hypergraph_strategy()) {
        let st = Strategy::default();
        let s_values = [1u32, 2, 3, 4, 5];
        let ens = ensemble_slinegraphs(&h, &s_values, &st);
        for (s, edges) in &ens.per_s {
            prop_assert_eq!(edges, &algo2_slinegraph(&h, *s, &st).edges);
        }
    }

    #[test]
    fn filtration_is_monotone(h in hypergraph_strategy(), s in 1u32..5) {
        // L_{s+1} ⊆ L_s: raising the threshold can only remove edges.
        let st = Strategy::default();
        let lo: std::collections::HashSet<(u32, u32)> =
            algo2_slinegraph(&h, s, &st).edges.into_iter().collect();
        let hi = algo2_slinegraph(&h, s + 1, &st).edges;
        for e in &hi {
            prop_assert!(lo.contains(e), "edge {e:?} in L_{} but not L_{}", s + 1, s);
        }
    }

    #[test]
    fn edges_match_pairwise_inc(h in hypergraph_strategy(), s in 1u32..5) {
        // Every emitted pair really has inc >= s; every omitted pair does not.
        let edges = algo2_slinegraph(&h, s, &Strategy::default()).edges;
        let set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        let m = h.num_edges() as u32;
        for i in 0..m {
            for j in (i + 1)..m {
                let inc = h.inc(i, j) as u32;
                prop_assert_eq!(set.contains(&(i, j)), inc >= s, "pair ({},{}) inc={}", i, j, inc);
            }
        }
    }

    #[test]
    fn relabeling_transparent(h in hypergraph_strategy(), s in 1u32..5) {
        let st = Strategy::default();
        let expect = algo2_slinegraph(&h, s, &st).edges;
        for relabel in RelabelOrder::ALL {
            let rel = relabel_edges_by_degree(&h, relabel);
            let mut edges = algo2_slinegraph(&rel.hypergraph, s, &st).edges;
            rel.restore_edge_ids(&mut edges);
            for pair in edges.iter_mut() {
                if pair.0 > pair.1 {
                    *pair = (pair.1, pair.0);
                }
            }
            edges.sort_unstable();
            prop_assert_eq!(&edges, &expect);
        }
    }

    #[test]
    fn sclique_is_dual_slinegraph(h in hypergraph_strategy(), s in 1u32..4) {
        let st = Strategy::default();
        prop_assert_eq!(
            sclique_graph(&h, s, &st).edges,
            algo2_slinegraph(&h.dual(), s, &st).edges
        );
    }

    #[test]
    fn dual_is_involutive(h in hypergraph_strategy()) {
        prop_assert_eq!(h.dual().dual(), h);
    }

    #[test]
    fn sclique_matches_weighted_clique_expansion(h in hypergraph_strategy(), s in 1u32..4) {
        // §III-H: thresholding W = H·Hᵀ − D_V at s equals running the
        // s-line-graph algorithm on the dual.
        prop_assert_eq!(
            hyperline::sparse::sclique_via_w(&h, s),
            sclique_graph(&h, s, &Strategy::default()).edges
        );
    }

    #[test]
    fn weighted_weights_equal_inc(h in hypergraph_strategy(), s in 1u32..4) {
        let (edges, _) = algo2_slinegraph_weighted(&h, s, &Strategy::default());
        for (i, j, w) in edges {
            prop_assert_eq!(w as usize, h.inc(i, j));
            prop_assert!(w >= s);
        }
    }
}

#[test]
fn strategies_agree_on_profile_data() {
    // Heavier, deterministic cross-check on a generated profile. The
    // references share no code with the counting kernel: SpGEMM (HᵀH
    // plus filtration) for the edge lists and pairwise `inc` for the
    // weights, so the check holds whichever counter is the default.
    let h = Profile::EmailEuAll.generate(9);
    let s = 3;
    let reference = spgemm_slinegraph(&h, s, true).edges;
    assert_eq!(
        algo1_slinegraph(&h, s, &Strategy::default()).edges,
        reference
    );
    let ensemble_s = [1u32, 3];
    let ensemble_reference: Vec<(u32, Vec<(u32, u32)>)> = ensemble_s
        .iter()
        .map(|&s| (s, spgemm_slinegraph(&h, s, true).edges))
        .collect();
    for partition in [
        Partition::Blocked,
        Partition::Cyclic,
        Partition::Dynamic { chunk: 64 },
    ] {
        for counter in CounterKind::ALL {
            for side in [TriangleSide::Upper, TriangleSide::Lower] {
                let st = Strategy::default()
                    .with_partition(partition)
                    .with_counter(counter)
                    .with_triangle(side)
                    .with_workers(5);
                let label = format!("{partition:?}/{counter:?}/{side:?}");
                assert_eq!(
                    algo2_slinegraph(&h, s, &st).edges,
                    reference,
                    "algo2 {label}"
                );
                let (weighted, _) = algo2_slinegraph_weighted(&h, s, &st);
                let pairs: Vec<(u32, u32)> = weighted.iter().map(|&(i, j, _)| (i, j)).collect();
                assert_eq!(pairs, reference, "weighted {label}");
                for &(i, j, w) in &weighted {
                    assert_eq!(w as usize, h.inc(i, j), "weight of ({i},{j}) {label}");
                }
                assert_eq!(
                    ensemble_slinegraphs(&h, &ensemble_s, &st).per_s,
                    ensemble_reference,
                    "ensemble {label}"
                );
            }
        }
    }
}
