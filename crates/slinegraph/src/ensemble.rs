//! Algorithm 3: computing an ensemble of s-line graphs in one traversal.
//!
//! Ensemble analyses (the paper's §V-B sweeps s = 1..16) would otherwise
//! re-run Algorithm 2 once per `s`. Algorithm 3 decouples counting from
//! filtration: one parallel counting pass stores every pair's overlap
//! count, then each requested `s` filters the stored counts in parallel.
//! The cost is memory proportional to the number of 1-overlapping pairs —
//! the paper reports this OOMs on large inputs, which is reproducible
//! here by feeding it a large profile (see `ensemble` benches).
//!
//! The counting pass is Algorithm 2's wedge-counting kernel with an emit
//! policy that keeps every `(i, j, count)` triple instead of filtering
//! by `s`. Edge counts alone ([`edge_counts_over_s`]) keep only each
//! pair's count, and need no per-`s` edge list.

use crate::algorithms::count_overlaps;
use crate::stats::AlgoStats;
use crate::strategy::Strategy;
use hyperline_hypergraph::Hypergraph;
use hyperline_util::parallel::{par_filter_map, par_map_slice, par_sort_unstable};

/// Result of an ensemble run: one edge list per requested `s`, in input
/// order, plus counting-phase statistics.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// `(s, edges)` pairs, edges sorted ascending with `i < j`.
    pub per_s: Vec<(u32, Vec<(u32, u32)>)>,
    /// Work counters from the counting phase.
    pub stats: AlgoStats,
    /// Number of stored overlap pairs (the memory footprint driver).
    pub stored_pairs: usize,
}

/// Computes the s-line graphs for every `s` in `s_values` with a single
/// overlap-counting pass (Algorithm 3).
///
/// Degree pruning uses the *smallest* requested `s` during counting; each
/// filtration step then applies its own `s` exactly.
///
/// # Panics
/// Panics if `s_values` is empty or contains 0.
pub fn ensemble_slinegraphs(
    h: &Hypergraph,
    s_values: &[u32],
    strategy: &Strategy,
) -> EnsembleResult {
    assert!(!s_values.is_empty(), "need at least one s value");
    assert!(s_values.iter().all(|&s| s >= 1), "s must be at least 1");
    let s_min = *s_values.iter().min().unwrap();

    // Phase 1: counting (parallel over source edges). Every pair with a
    // shared vertex is stored, normalized to `(min, max, count)`.
    let locals = count_overlaps(h, s_min, strategy, |i, j, n| Some((i, j, n)));

    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    let mut per_worker = Vec::with_capacity(locals.len());
    for (mut local, stats) in locals {
        triples.append(&mut local);
        per_worker.push(stats);
    }
    let stored_pairs = triples.len();

    // Phase 2: one parallel sort of the stored counts by (i, j) — each
    // pair is stored exactly once, so this is a full order — then per-s
    // filtration, which preserves the order. Appending rather than
    // merging the worker runs keeps a single copy of the stored pairs;
    // the kernel's presorted runs reduce the sort to its sortedness
    // check under the upper triangle.
    par_sort_unstable(&mut triples);
    let per_s: Vec<(u32, Vec<(u32, u32)>)> = if s_values.len() == 1 {
        // A single-s call gets its parallelism from chunked
        // filtration instead of the s sweep.
        let s = s_values[0];
        vec![(
            s,
            par_filter_map(&triples, |&(i, j, n)| (n >= s).then_some((i, j))),
        )]
    } else {
        // Serial filter per s here: the s sweep is already parallel and
        // nesting would oversubscribe.
        par_map_slice(s_values, |&s| (s, filter_pairs(&triples, s)))
    };

    EnsembleResult {
        per_s,
        stats: AlgoStats::new(per_worker),
        stored_pairs,
    }
}

/// Pairs with overlap count `>= s`, preserving the (sorted) input order.
fn filter_pairs(triples: &[(u32, u32, u32)], s: u32) -> Vec<(u32, u32)> {
    triples
        .iter()
        .filter(|&&(_, _, n)| n >= s)
        .map(|&(i, j, _)| (i, j))
        .collect()
}

/// Number of s-line-graph edges for each `s` in `s_values`, in input
/// order — the quantity plotted (log-log) in the paper's Figure 4. One
/// counting pass at the smallest `s` keeps only each pair's overlap, and
/// [`edge_counts_from_overlaps`] counts those reaching each `s`; no edge
/// list is built.
///
/// # Panics
/// Panics if `s_values` is empty or contains 0.
pub fn edge_counts_over_s(
    h: &Hypergraph,
    s_values: &[u32],
    strategy: &Strategy,
) -> Vec<(u32, usize)> {
    assert!(!s_values.is_empty(), "need at least one s value");
    assert!(s_values.iter().all(|&s| s >= 1), "s must be at least 1");
    let s_min = *s_values.iter().min().expect("s_values is non-empty");
    let locals = count_overlaps(h, s_min, strategy, |_, _, n| (n >= s_min).then_some(n));
    edge_counts_from_overlaps(
        locals
            .iter()
            .flat_map(|(overlaps, _)| overlaps.iter().copied()),
        s_values,
    )
}

/// `(s, #{k : overlaps[k] ≥ s})` for each `s` in `s_values`, in input
/// order: the edge count of every `L_s` read off the overlaps of one
/// `L_{s0}` with `s0 ≤ s` (or of all counted pairs), in one pass. The
/// pass builds a histogram of the overlaps capped at the largest `s`,
/// grown only as far as the largest overlap seen, so a huge `s` costs
/// no memory.
pub fn edge_counts_from_overlaps(
    overlaps: impl IntoIterator<Item = u32>,
    s_values: &[u32],
) -> Vec<(u32, usize)> {
    let cap = s_values.iter().copied().max().unwrap_or(0);
    // `at_least[b]` first holds #{n : min(n, cap) = b}; the suffix sum
    // below turns it into #{n : n ≥ b} for every b ≤ cap.
    let mut at_least: Vec<usize> = Vec::new();
    for n in overlaps {
        let b = n.min(cap) as usize;
        if b >= at_least.len() {
            at_least.resize(b + 1, 0);
        }
        at_least[b] += 1;
    }
    for b in (1..at_least.len()).rev() {
        at_least[b - 1] += at_least[b];
    }
    s_values
        .iter()
        .map(|&s| (s, at_least.get(s as usize).copied().unwrap_or(0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::algo2_slinegraph;
    use rand::prelude::*;

    #[test]
    fn matches_repeated_algo2_on_paper_example() {
        let h = Hypergraph::paper_example();
        let st = Strategy::default();
        let s_values = [1u32, 2, 3, 4];
        let ens = ensemble_slinegraphs(&h, &s_values, &st);
        assert_eq!(ens.per_s.len(), 4);
        for (s, edges) in &ens.per_s {
            let single = algo2_slinegraph(&h, *s, &st);
            assert_eq!(edges, &single.edges, "s={s}");
        }
    }

    #[test]
    fn matches_repeated_algo2_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let n = rng.gen_range(1..30usize);
            let m = rng.gen_range(1..50usize);
            let lists: Vec<Vec<u32>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(0..=n.min(10));
                    let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let h = Hypergraph::from_edge_lists(&lists, n);
            let s_values = [1u32, 2, 3, 5];
            let st = Strategy::default();
            let ens = ensemble_slinegraphs(&h, &s_values, &st);
            for (s, edges) in &ens.per_s {
                assert_eq!(edges, &algo2_slinegraph(&h, *s, &st).edges, "s={s}");
            }
            let unsorted = [5u32, 1, 3, 2, 3];
            for (s, count) in edge_counts_over_s(&h, &unsorted, &st) {
                assert_eq!(count, algo2_slinegraph(&h, s, &st).edges.len(), "s={s}");
            }
        }
    }

    #[test]
    fn counts_from_overlaps_keep_input_order() {
        let overlaps = [1u32, 3, 2, 3, 7];
        assert_eq!(
            edge_counts_from_overlaps(overlaps, &[3, 1, u32::MAX, 3, 8, 7]),
            vec![(3, 3), (1, 5), (u32::MAX, 0), (3, 3), (8, 0), (7, 1)]
        );
        // Overlaps above the largest s land in its bucket.
        assert_eq!(edge_counts_from_overlaps([9, 2], &[2]), vec![(2, 2)]);
        assert_eq!(edge_counts_from_overlaps([], &[1, 2]), vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn ensemble_preserves_s_order_and_counts_decrease() {
        let h = Hypergraph::paper_example();
        let counts = edge_counts_over_s(&h, &[1, 2, 3, 4], &Strategy::default());
        assert_eq!(
            counts.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        for w in counts.windows(2) {
            assert!(w[0].1 >= w[1].1, "edge counts must be non-increasing in s");
        }
        assert_eq!(counts[0].1, 4);
        assert_eq!(counts[3].1, 0);
    }

    #[test]
    fn stored_pairs_counts_one_overlaps() {
        let h = Hypergraph::paper_example();
        // Pairs with >= 1 common vertex: (0,1),(0,2),(1,2),(2,3) = 4.
        let ens = ensemble_slinegraphs(&h, &[2], &Strategy::default());
        assert_eq!(ens.stored_pairs, 4);
    }

    #[test]
    fn pruning_by_smallest_s() {
        // With s_values = [3, 4], edges smaller than 3 are pruned at the
        // counting phase but results stay exact.
        let h = Hypergraph::paper_example();
        let st = Strategy::default();
        let ens = ensemble_slinegraphs(&h, &[3, 4], &st);
        assert_eq!(ens.per_s[0].1, algo2_slinegraph(&h, 3, &st).edges);
        assert_eq!(ens.per_s[1].1, algo2_slinegraph(&h, 4, &st).edges);
    }

    #[test]
    #[should_panic(expected = "at least one s value")]
    fn rejects_empty_s_list() {
        ensemble_slinegraphs(&Hypergraph::paper_example(), &[], &Strategy::default());
    }

    #[test]
    fn no_set_intersections_in_ensemble() {
        let h = Hypergraph::paper_example();
        let ens = ensemble_slinegraphs(&h, &[1, 2], &Strategy::default());
        assert_eq!(ens.stats.total().set_intersections, 0);
    }
}
