//! The s-line-graph construction algorithms (§III).
//!
//! Three constructions of the edge list of `L_s(H)`:
//!
//! * [`naive_slinegraph`] — all-pairs set intersection (the §I strawman);
//! * [`algo1_slinegraph`] — Algorithm 1 of the paper: wedge-driven
//!   candidate generation plus explicit short-circuited set intersections
//!   with degree pruning and visited-skipping (the HiPC'21 baseline);
//! * [`algo2_slinegraph`] — Algorithm 2, the paper's contribution: wedge-
//!   driven *overlap counting* in per-worker accumulators — **zero** set
//!   intersections.
//!
//! All three return pairs `(i, j)` with `i < j` on the hypergraph's
//! current edge IDs, sorted, plus per-worker work counters.
//!
//! Every variant traverses each wedge `(e_i, v_k, e_j)` once, from the
//! smaller edge ID to the larger (`i < j`) — the upper-triangle
//! optimization the relabel-by-degree orders interact with (§IV).
//!
//! Algorithm 2, its weighted variant and Algorithm 3
//! ([`crate::ensemble`]) share one wedge-counting kernel,
//! `count_overlaps`; they differ only in what each drained
//! `(i, j, count)` emits.

use crate::counter::{
    CounterKind, DenseArrayCounter, DynamicMapCounter, OverlapCounter, ReusedMapCounter,
};
use crate::partition::execute;
use crate::stats::{AlgoStats, WorkerStats};
use crate::strategy::{Strategy, TriangleSide};
use hyperline_hypergraph::csr::{intersection_at_least, intersection_size};
use hyperline_hypergraph::Hypergraph;
use hyperline_util::parallel::{merge_sorted_runs, par_for_each_mut};
use hyperline_util::telemetry::Span;
use hyperline_util::Timer;

/// The wedge targets `e_j` reachable from source `e_i` through one vertex
/// neighbor list, restricted to the traversed triangle (`j > i` for
/// Upper, `j < i` for Lower). Neighbor lists are sorted, so both are
/// contiguous slices.
#[inline]
fn wedge_targets(nbrs: &[u32], i: u32, side: TriangleSide) -> &[u32] {
    match side {
        TriangleSide::Upper => &nbrs[nbrs.partition_point(|&j| j <= i)..],
        TriangleSide::Lower => &nbrs[..nbrs.partition_point(|&j| j < i)],
    }
}

/// Normalizes freshly-emitted pairs to `(min, max)` order (needed when
/// traversing the lower triangle, where targets satisfy `j < i`).
#[inline]
fn normalize_pairs(pairs: &mut [(u32, u32)]) {
    for p in pairs {
        if p.0 > p.1 {
            *p = (p.1, p.0);
        }
    }
}

/// Result of an s-overlap computation.
#[derive(Debug, Clone)]
pub struct OverlapResult {
    /// s-line-graph edges `(i, j)`, `i < j`, sorted ascending.
    pub edges: Vec<(u32, u32)>,
    /// Per-worker work counters.
    pub stats: AlgoStats,
}

/// Merges per-worker emissions into the final sorted list.
///
/// Under the static partitions each worker's output is a near-sorted run
/// (sources ascend within a worker), so each run sorts cheaply — in
/// parallel across runs — and a parallel k-way merge replaces the old
/// single-core `sort_unstable` over the concatenation. The result is the
/// sorted multiset of all emissions, so it is byte-identical for every
/// worker count and partition.
fn merge_worker_outputs<T: Ord + Clone + Send + Sync>(
    locals: Vec<(Vec<T>, WorkerStats)>,
) -> (Vec<T>, AlgoStats) {
    let _span = Span::enter("merge");
    let timer = Timer::start();
    let mut runs = Vec::with_capacity(locals.len());
    let mut per_worker = Vec::with_capacity(locals.len());
    for (local_edges, mut stats) in locals {
        stats.edges_emitted = local_edges.len() as u64;
        runs.push(local_edges);
        per_worker.push(stats);
    }
    par_for_each_mut(&mut runs, |r| r.sort_unstable());
    let edges = merge_sorted_runs(runs);
    (
        edges,
        AlgoStats::new(per_worker).with_merge_seconds(timer.seconds()),
    )
}

/// Naive all-pairs construction: intersect every pair of hyperedge vertex
/// lists. O(m²) pairs — only sensible for small inputs and as a test
/// oracle. Parallelized over source edges with the strategy's partition.
pub fn naive_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let m = h.num_edges();
    let counting = Span::enter("counting");
    let locals = execute(
        m,
        strategy.workers(),
        strategy.partition,
        |_| (Vec::new(), WorkerStats::default()),
        |i, (out, stats): &mut (Vec<(u32, u32)>, WorkerStats)| {
            if strategy.degree_pruning && (h.edge_size(i) as u32) < s {
                return;
            }
            stats.edges_processed += 1;
            let mine = h.edge_vertices(i);
            for j in (i + 1)..m as u32 {
                stats.set_intersections += 1;
                if intersection_size(mine, h.edge_vertices(j)) as u32 >= s {
                    out.push((i, j));
                }
            }
        },
    );
    drop(counting);
    let (edges, stats) = merge_worker_outputs(locals);
    OverlapResult { edges, stats }
}

/// Algorithm 1 (the HiPC'21 set-intersection algorithm): for each wedge
/// `(e_i, v_k, e_j)` with `i < j`, run one short-circuited sorted-set
/// intersection per *distinct* candidate `e_j` (a per-worker stamp array
/// skips already-visited candidates), applying degree-based pruning.
pub fn algo1_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let m = h.num_edges();
    struct Local {
        out: Vec<(u32, u32)>,
        stats: WorkerStats,
        /// stamp[j] == i means candidate j was already intersected for
        /// source i ("skipping already visited hyperedges").
        stamp: Vec<u32>,
    }
    let counting = Span::enter("counting");
    let locals = execute(
        m,
        strategy.workers(),
        strategy.partition,
        |_| Local {
            out: Vec::new(),
            stats: WorkerStats::default(),
            stamp: vec![u32::MAX; m],
        },
        |i, local: &mut Local| {
            let size_i = h.edge_size(i) as u32;
            if strategy.degree_pruning && size_i < s {
                return;
            }
            local.stats.edges_processed += 1;
            let mine = h.edge_vertices(i);
            let heuristics = strategy.algo1_heuristics;
            let before = local.out.len();
            for &v in mine {
                for &j in wedge_targets(h.vertex_edges(v), i, strategy.triangle) {
                    local.stats.wedge_visits += 1;
                    if heuristics.skip_visited {
                        if local.stamp[j as usize] == i {
                            continue;
                        }
                        local.stamp[j as usize] = i;
                    }
                    // Degree-based pruning on the candidate side.
                    if strategy.degree_pruning && (h.edge_size(j) as u32) < s {
                        continue;
                    }
                    local.stats.set_intersections += 1;
                    let hit = if heuristics.short_circuit {
                        intersection_at_least(mine, h.edge_vertices(j), s as usize)
                    } else {
                        intersection_size(mine, h.edge_vertices(j)) as u32 >= s
                    };
                    if hit {
                        local.out.push((i, j));
                    }
                }
            }
            if !heuristics.skip_visited {
                // Without visited-skipping the same pair is re-found once
                // per shared vertex; deduplicate this source's emissions.
                local.out[before..].sort_unstable();
                let mut write = before;
                for k in before..local.out.len() {
                    if write == before || local.out[write - 1] != local.out[k] {
                        local.out[write] = local.out[k];
                        write += 1;
                    }
                }
                local.out.truncate(write);
            }
            normalize_pairs(&mut local.out[before..]);
            // Presort this source's emissions (small groups): sources
            // ascend within every partition, so under the upper triangle
            // each worker's whole run comes out sorted and the final
            // merge degrades to a cheap verification instead of a full
            // sort of the concatenation.
            local.out[before..].sort_unstable();
        },
    );
    drop(counting);
    let (edges, stats) =
        merge_worker_outputs(locals.into_iter().map(|l| (l.out, l.stats)).collect());
    OverlapResult { edges, stats }
}

/// The one wedge-counting kernel, behind Algorithm 2, its weighted
/// variant and Algorithm 3. Per source edge `e_i` not pruned by
/// `s_prune`, bumps a per-worker counter once per wedge on the
/// strategy's triangle side, then drains it through
/// `emit(min(i, j), max(i, j), count)` and presorts the items kept.
/// The counter kind is matched once per call, so each arm runs a loop
/// monomorphized over its counter. Returns each worker's emissions and
/// work counters.
pub(crate) fn count_overlaps<T, E>(
    h: &Hypergraph,
    s_prune: u32,
    strategy: &Strategy,
    emit: E,
) -> Vec<(Vec<T>, WorkerStats)>
where
    T: Ord + Send,
    E: Fn(u32, u32, u32) -> Option<T> + Sync,
{
    let m = h.num_edges();
    match strategy.counter {
        CounterKind::DynamicMap => count_with(h, s_prune, strategy, DynamicMapCounter::new, emit),
        CounterKind::ReusedMap => count_with(h, s_prune, strategy, ReusedMapCounter::new, emit),
        CounterKind::DenseArray => {
            count_with(h, s_prune, strategy, || DenseArrayCounter::new(m), emit)
        }
    }
}

/// [`count_overlaps`] for one counter type.
fn count_with<C, T, E>(
    h: &Hypergraph,
    s_prune: u32,
    strategy: &Strategy,
    new_counter: impl Fn() -> C + Sync,
    emit: E,
) -> Vec<(Vec<T>, WorkerStats)>
where
    C: OverlapCounter + Send,
    T: Ord + Send,
    E: Fn(u32, u32, u32) -> Option<T> + Sync,
{
    let locals = execute(
        h.num_edges(),
        strategy.workers(),
        strategy.partition,
        |_| (Vec::new(), WorkerStats::default(), new_counter()),
        |i, (out, stats, counter): &mut (Vec<T>, WorkerStats, C)| {
            if strategy.degree_pruning && (h.edge_size(i) as u32) < s_prune {
                return;
            }
            stats.edges_processed += 1;
            for &v in h.edge_vertices(i) {
                for &j in wedge_targets(h.vertex_edges(v), i, strategy.triangle) {
                    counter.bump(j);
                    stats.wedge_visits += 1;
                }
            }
            let before = out.len();
            counter.drain(|j, n| {
                if let Some(item) = emit(i.min(j), i.max(j), n) {
                    out.push(item);
                }
            });
            // Presort per source: drain order is arbitrary, but sorted
            // small groups make each worker's run globally sorted under
            // the upper triangle. O(Σ k·log k) here beats O(E·log E) in
            // the merge — and runs inside the parallel counting stage.
            out[before..].sort_unstable();
        },
    );
    locals
        .into_iter()
        .map(|(out, stats, _)| (out, stats))
        .collect()
}

/// Algorithm 2 (the paper's contribution): per source edge, bump a
/// per-worker overlap counter for every wedge endpoint `j > i`, then emit
/// pairs whose running count reached `s`. No set intersections at all.
pub fn algo2_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let counting = Span::enter("counting");
    let locals = count_overlaps(h, s, strategy, |i, j, n| (n >= s).then_some((i, j)));
    drop(counting);
    let (edges, stats) = merge_worker_outputs(locals);
    OverlapResult { edges, stats }
}

/// Weighted variant of Algorithm 2: emits `(i, j, inc(e_i, e_j))`, the
/// overlap size as the s-line-graph edge weight (the "strength of
/// connection" drawn as line width in the paper's Figure 2).
///
/// The triples come back with `i < j` on either triangle side and in
/// strictly ascending order (each pair appears once), exactly like
/// [`algo2_slinegraph`]'s pairs; callers need no re-normalization or
/// re-sort.
pub fn algo2_slinegraph_weighted(
    h: &Hypergraph,
    s: u32,
    strategy: &Strategy,
) -> (Vec<(u32, u32, u32)>, AlgoStats) {
    assert!(s >= 1, "s must be at least 1");
    let counting = Span::enter("counting");
    let locals = count_overlaps(h, s, strategy, |i, j, n| (n >= s).then_some((i, j, n)));
    drop(counting);
    merge_worker_outputs(locals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterKind;
    use crate::partition::Partition;
    use rand::prelude::*;

    fn paper_h() -> Hypergraph {
        Hypergraph::paper_example()
    }

    /// Expected s-line graphs of the paper's Figure 2.
    fn paper_expected(s: u32) -> Vec<(u32, u32)> {
        match s {
            1 => vec![(0, 1), (0, 2), (1, 2), (2, 3)],
            2 => vec![(0, 1), (0, 2), (1, 2)],
            3 => vec![(0, 2), (1, 2)],
            4 => vec![],
            _ => unreachable!(),
        }
    }

    #[test]
    fn paper_figure2_all_algorithms() {
        let h = paper_h();
        let st = Strategy::default();
        for s in 1..=4u32 {
            let expect = paper_expected(s);
            assert_eq!(naive_slinegraph(&h, s, &st).edges, expect, "naive s={s}");
            assert_eq!(algo1_slinegraph(&h, s, &st).edges, expect, "algo1 s={s}");
            assert_eq!(algo2_slinegraph(&h, s, &st).edges, expect, "algo2 s={s}");
        }
    }

    #[test]
    fn algo2_performs_zero_set_intersections() {
        let h = paper_h();
        let r = algo2_slinegraph(&h, 2, &Strategy::default());
        assert_eq!(r.stats.total().set_intersections, 0);
        let r1 = algo1_slinegraph(&h, 2, &Strategy::default());
        assert!(r1.stats.total().set_intersections > 0);
    }

    #[test]
    fn weighted_emits_overlap_counts() {
        let h = paper_h();
        let (edges, _) = algo2_slinegraph_weighted(&h, 1, &Strategy::default());
        // inc values from the example: (0,1)=2, (0,2)=3, (1,2)=3, (2,3)=1
        assert_eq!(edges, vec![(0, 1, 2), (0, 2, 3), (1, 2, 3), (2, 3, 1)]);
    }

    fn random_hypergraph(rng: &mut StdRng) -> Hypergraph {
        let n = rng.gen_range(1..40usize);
        let m = rng.gen_range(1..60usize);
        let lists: Vec<Vec<u32>> = (0..m)
            .map(|_| {
                let k = rng.gen_range(0..=n.min(12));
                let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        Hypergraph::from_edge_lists(&lists, n)
    }

    #[test]
    fn algorithms_agree_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..6u32);
            let st = Strategy::default();
            let expect = naive_slinegraph(&h, s, &st).edges;
            assert_eq!(algo1_slinegraph(&h, s, &st).edges, expect, "algo1 s={s}");
            assert_eq!(algo2_slinegraph(&h, s, &st).edges, expect, "algo2 s={s}");
        }
    }

    /// Brute-force weighted s-line graph: `(i, j, inc)` for every pair
    /// `i < j` sharing at least `s` vertices, in ascending order.
    fn brute_force_weighted(h: &Hypergraph, s: u32) -> Vec<(u32, u32, u32)> {
        let m = h.num_edges() as u32;
        (0..m)
            .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
            .map(|(i, j)| {
                let n = intersection_size(h.edge_vertices(i), h.edge_vertices(j)) as u32;
                (i, j, n)
            })
            .filter(|&(_, _, n)| n >= s)
            .collect()
    }

    /// Every partition × counter × worker count {1, 2, 7} × triangle
    /// side × degree-pruning toggle.
    fn sweep_strategies() -> Vec<Strategy> {
        use crate::strategy::TriangleSide;
        let mut out = Vec::new();
        for partition in [
            Partition::Blocked,
            Partition::Cyclic,
            Partition::Dynamic { chunk: 4 },
        ] {
            for counter in CounterKind::ALL {
                for workers in [1usize, 2, 7] {
                    for side in [TriangleSide::Upper, TriangleSide::Lower] {
                        for pruning in [true, false] {
                            out.push(
                                Strategy::default()
                                    .with_partition(partition)
                                    .with_counter(counter)
                                    .with_workers(workers)
                                    .with_triangle(side)
                                    .with_pruning(pruning),
                            );
                        }
                    }
                }
            }
        }
        out
    }

    /// Every counter through every emit policy of the counting kernel
    /// (Algorithm 2 pairs, weighted triples, Algorithm 3's raw counts)
    /// under every sweep strategy, against a brute-force oracle —
    /// including an `s` above every overlap. The oracle lists `i < j` in
    /// strictly ascending order, which pins that contract of
    /// `algo2_slinegraph_weighted` on both triangle sides.
    #[test]
    fn partitions_and_counters_agree() {
        use crate::ensemble::ensemble_slinegraphs;
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..4 {
            let h = random_hypergraph(&mut rng);
            // One s above every overlap: without degree pruning, sources
            // still count and every drain emits nothing.
            let s_high = brute_force_weighted(&h, 1)
                .iter()
                .map(|&(_, _, n)| n + 1)
                .max()
                .unwrap_or(1);
            let s_values = [1, 2, 3, s_high];
            let expected: Vec<_> = s_values
                .iter()
                .map(|&s| brute_force_weighted(&h, s))
                .collect();
            assert!(expected[3].is_empty());
            for st in sweep_strategies() {
                let ensemble = ensemble_slinegraphs(&h, &s_values, &st);
                for (k, &s) in s_values.iter().enumerate() {
                    let pairs: Vec<_> = expected[k].iter().map(|&(i, j, _)| (i, j)).collect();
                    assert_eq!(
                        algo2_slinegraph(&h, s, &st).edges,
                        pairs,
                        "algo2 s={s} {st:?}"
                    );
                    assert_eq!(
                        algo2_slinegraph_weighted(&h, s, &st).0,
                        expected[k],
                        "weighted s={s} {st:?}"
                    );
                    assert_eq!(ensemble.per_s[k], (s, pairs), "ensemble s={s} {st:?}");
                }
            }
        }
    }

    #[test]
    fn pruning_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..10 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(2..5u32);
            let pruned = Strategy::default();
            let unpruned = Strategy::default().with_pruning(false);
            assert_eq!(
                algo2_slinegraph(&h, s, &pruned).edges,
                algo2_slinegraph(&h, s, &unpruned).edges
            );
            assert_eq!(
                algo1_slinegraph(&h, s, &pruned).edges,
                algo1_slinegraph(&h, s, &unpruned).edges
            );
        }
    }

    #[test]
    fn pruning_reduces_work() {
        // One big edge, many small ones: at s=3 the small edges are pruned.
        let mut lists = vec![vec![0u32, 1, 2, 3, 4]];
        for i in 0..20u32 {
            lists.push(vec![i % 5, (i + 1) % 5]);
        }
        let h = Hypergraph::from_edge_lists(&lists, 5);
        let with = algo2_slinegraph(&h, 3, &Strategy::default());
        let without = algo2_slinegraph(&h, 3, &Strategy::default().with_pruning(false));
        assert_eq!(with.edges, without.edges);
        assert!(
            with.stats.total().edges_processed < without.stats.total().edges_processed,
            "pruning should skip small edges"
        );
    }

    #[test]
    fn edges_are_upper_triangular_and_sorted() {
        let mut rng = StdRng::seed_from_u64(80);
        let h = random_hypergraph(&mut rng);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        for w in r.edges.windows(2) {
            assert!(w[0] < w[1], "sorted");
        }
        for &(i, j) in &r.edges {
            assert!(i < j, "upper triangular");
        }
    }

    #[test]
    fn lower_triangle_matches_upper() {
        use crate::strategy::TriangleSide;
        let mut rng = StdRng::seed_from_u64(90);
        for _ in 0..15 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..5u32);
            let upper = Strategy::default();
            let lower = Strategy::default().with_triangle(TriangleSide::Lower);
            let expect = algo2_slinegraph(&h, s, &upper).edges;
            assert_eq!(algo2_slinegraph(&h, s, &lower).edges, expect, "algo2 s={s}");
            assert_eq!(algo1_slinegraph(&h, s, &lower).edges, expect, "algo1 s={s}");
        }
    }

    #[test]
    fn lower_triangle_weighted_matches() {
        use crate::strategy::TriangleSide;
        let h = paper_h();
        let upper = algo2_slinegraph_weighted(&h, 1, &Strategy::default()).0;
        let lower = algo2_slinegraph_weighted(
            &h,
            1,
            &Strategy::default().with_triangle(TriangleSide::Lower),
        )
        .0;
        assert_eq!(upper, lower);
    }

    #[test]
    fn algo1_heuristics_off_still_exact() {
        use crate::strategy::Algo1Heuristics;
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..10 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..5u32);
            let expect = algo1_slinegraph(&h, s, &Strategy::default()).edges;
            for skip_visited in [false, true] {
                for short_circuit in [false, true] {
                    let st = Strategy::default().with_algo1_heuristics(Algo1Heuristics {
                        skip_visited,
                        short_circuit,
                    });
                    assert_eq!(
                        algo1_slinegraph(&h, s, &st).edges,
                        expect,
                        "skip={skip_visited} sc={short_circuit} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_visited_reduces_intersections() {
        use crate::strategy::Algo1Heuristics;
        let h = paper_h();
        let on = algo1_slinegraph(&h, 2, &Strategy::default());
        let off = algo1_slinegraph(
            &h,
            2,
            &Strategy::default().with_algo1_heuristics(Algo1Heuristics {
                skip_visited: false,
                short_circuit: true,
            }),
        );
        assert_eq!(on.edges, off.edges);
        assert!(
            on.stats.total().set_intersections < off.stats.total().set_intersections,
            "visited-skipping must save intersections"
        );
    }

    #[test]
    fn s_zero_rejected() {
        let h = paper_h();
        let result = std::panic::catch_unwind(|| algo2_slinegraph(&h, 0, &Strategy::default()));
        assert!(result.is_err());
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_edge_lists(&[], 0);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        assert!(r.edges.is_empty());
    }

    #[test]
    fn duplicate_edges_fully_overlap() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2], vec![0, 1, 2]], 3);
        let r = algo2_slinegraph(&h, 3, &Strategy::default());
        assert_eq!(r.edges, vec![(0, 1)]);
    }

    #[test]
    fn emitted_counts_match_output() {
        let mut rng = StdRng::seed_from_u64(81);
        let h = random_hypergraph(&mut rng);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        assert_eq!(r.stats.total().edges_emitted as usize, r.edges.len());
    }
}
