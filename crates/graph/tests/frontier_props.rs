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
//!
//! The diameter gets a second property over structured unions, where
//! eccentricity bounds and the component order actually matter.

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

/// Deterministic xorshift draws for the structured generator.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// A disjoint union of a clique, a path, a cycle, a star, a complete
/// bipartite graph and a random graph, with sizes from `sizes` and
/// vertices relabelled by a seeded shuffle. The path and the cycle
/// often hold the diameter while the clique or the random graph is the
/// largest component.
fn structured_union(sizes: &[usize], seed: u64) -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut next = 0u32;
    let mut block = |n: usize| {
        let base = next;
        next += n as u32;
        base
    };
    let (clique, path, cycle, star, left, right, random) = (
        sizes[0], sizes[1], sizes[2], sizes[3], sizes[4], sizes[5], sizes[6],
    );
    let b = block(clique);
    for i in 0..clique as u32 {
        for j in i + 1..clique as u32 {
            edges.push((b + i, b + j));
        }
    }
    let b = block(path);
    edges.extend((1..path as u32).map(|i| (b + i - 1, b + i)));
    let b = block(cycle);
    edges.extend((0..cycle as u32).map(|i| (b + i, b + (i + 1) % cycle as u32)));
    let b = block(star + 1);
    edges.extend((1..=star as u32).map(|i| (b, b + i)));
    let b = block(left + right);
    for i in 0..left as u32 {
        for j in 0..right as u32 {
            edges.push((b + i, b + left as u32 + j));
        }
    }
    let b = block(random);
    let mut draws = Draws(seed | 1);
    for _ in 0..2 * random {
        let (u, v) = (draws.below(random), draws.below(random));
        edges.push((b + u as u32, b + v as u32));
    }
    let n = next as usize;
    let mut relabel: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        relabel.swap(i, draws.below(i + 1));
    }
    let edges: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(u, v)| (relabel[u as usize], relabel[v as usize]))
        .collect();
    Graph::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_diameter_matches_all_sources_on_structured_unions(
        sizes in proptest::collection::vec(1usize..24, 7),
        cycle_extra in 2usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let mut sizes = sizes;
        sizes[2] = cycle_extra + 1; // a cycle needs 3 vertices
        let g = structured_union(&sizes, seed);
        let expect = bfs::diameter(&g);
        for workers in [1usize, 2, 4] {
            let got = with_threads(workers, || frontier::diameter(&g));
            prop_assert_eq!(got, expect, "workers {} sizes {:?}", workers, sizes);
        }
    }

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
