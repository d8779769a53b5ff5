//! Property tests cross-checking the parallel frontier engine against
//! the serial reference kernels on random graphs.
//!
//! Each case draws a random graph (size, density and worker count all
//! generated), computes every Stage-5 kernel through the engine and
//! asserts exact agreement with the serial implementations — distances
//! with `bfs::bfs_distances`, components with `cc::components_bfs` *and*
//! LPCC, eccentricities with `bfs::eccentricity`, closeness with the
//! direct Σ 1/d definition (bit-exactness is not required there, only
//! 1e-12 agreement: the engine accumulates per level).

use hyperline_graph::{bfs, cc, frontier, Graph};
use hyperline_util::parallel::with_threads;
use proptest::prelude::*;

/// Decodes `codes` into an edge list over `n` vertices (one u64 per
/// edge; self loops and duplicates are allowed and exercised).
fn decode_edges(n: usize, codes: &[u64]) -> Vec<(u32, u32)> {
    codes
        .iter()
        .map(|&c| ((c % n as u64) as u32, ((c >> 17) % n as u64) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_bfs_and_cc_match_serial_references(
        n in 1usize..70,
        codes in proptest::collection::vec(0u64..u64::MAX, 0..220),
        workers in 1usize..9,
    ) {
        let g = Graph::from_edges(n, &decode_edges(n, &codes));
        let (dists, labels, lpcc, eccs, closeness) = with_threads(workers, || {
            (
                (0..n as u32)
                    .step_by((n / 4).max(1))
                    .map(|s| frontier::bfs_distances_parallel(&g, s))
                    .collect::<Vec<_>>(),
                frontier::components(&g),
                cc::components_label_prop(&g),
                frontier::eccentricities(&g),
                frontier::harmonic_closeness(&g),
            )
        });
        for (i, d) in dists.iter().enumerate() {
            let s = (i * (n / 4).max(1)) as u32;
            prop_assert_eq!(d, &bfs::bfs_distances(&g, s), "source {}", s);
        }
        let reference = cc::components_bfs(&g);
        prop_assert_eq!(&labels, &reference, "frontier CC vs serial BFS CC");
        prop_assert_eq!(&lpcc, &reference, "LPCC cross-check");
        for v in 0..n as u32 {
            prop_assert_eq!(eccs[v as usize], bfs::eccentricity(&g, v), "ecc {}", v);
        }
        prop_assert_eq!(frontier::diameter(&g), bfs::diameter(&g));
        for v in 0..n as u32 {
            let dist = bfs::bfs_distances(&g, v);
            let expect: f64 = dist
                .iter()
                .filter(|&&d| d != bfs::UNREACHABLE && d > 0)
                .map(|&d| 1.0 / d as f64)
                .sum::<f64>()
                / (n as f64 - 1.0).max(1.0);
            let got = if n <= 1 { 0.0 } else { closeness[v as usize] };
            prop_assert!((got - expect).abs() < 1e-12, "closeness {}: {} vs {}", v, got, expect);
        }
    }

    #[test]
    fn component_count_single_pass_matches_set_semantics(
        n in 1usize..60,
        codes in proptest::collection::vec(0u64..u64::MAX, 0..150),
    ) {
        let g = Graph::from_edges(n, &decode_edges(n, &codes));
        let labels = frontier::components(&g);
        let distinct: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
        prop_assert_eq!(cc::component_count(&labels), distinct.len());
    }
}
