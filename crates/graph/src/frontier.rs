//! Parallel frontier engine for the Stage-5 BFS kernels.
//!
//! Everything Stage 5 computes over the squeezed s-line graph reduces to
//! breadth-first expansion: s-connected components, s-distance /
//! s-diameter (per-source eccentricities) and s-harmonic-closeness
//! (per-source distance sums). This module provides the shared engine:
//!
//! * [`ParBfs`] — a level-synchronous **parallel single-source BFS** over
//!   an atomic visit bitmap, direction-optimizing in the Beamer sense:
//!   sparse levels *push* (workers expand disjoint frontier chunks,
//!   claiming vertices with one atomic `fetch_or`, and the per-worker
//!   discovery buffers are merged into one deterministically sorted next
//!   frontier), dense levels *pull* (workers own disjoint vertex ranges
//!   and scan each unvisited vertex's neighbors for the current level,
//!   bailing at the first hit). The push↔pull switch is driven by the
//!   frontier-to-unexplored-edge ratio — a function of the traversal
//!   state alone, never of the worker count.
//! * [`SweepScratch`] — the **batched multi-source** form: one serial
//!   direction-optimizing sweep per source with fully reused scratch
//!   (no per-source allocation, distance resets proportional to the
//!   reached set), driven source-parallel by [`eccentricities`] /
//!   [`harmonic_closeness`].
//! * [`diameter`] — the exact s-diameter from **eccentricity bounds**
//!   (Takes & Kosters' BoundingDiameters) per component: a handful of
//!   sweeps on small-world graphs instead of one per vertex, finishing
//!   on the source-parallel sweep when the bounds stop pruning.
//! * [`components`] — frontier-parallel connected components: unvisited
//!   start vertices are seeded in ascending ID order, so every label is
//!   the smallest member ID (canonical) by construction and the result
//!   is byte-identical to [`crate::cc::components_bfs`] for every worker
//!   count.
//!
//! **Determinism.** All outputs are worker-count independent: vertex
//! claims are set-valued (the set of vertices discovered at level `d` is
//! exactly the unvisited neighborhood of level `d-1`, no matter which
//! worker wins each claim), per-worker push buffers are sorted into one
//! canonical frontier, pull discoveries concatenate in vertex order, and
//! the serial/parallel execution cutoffs are functions of the frontier
//! alone. This is the same discipline as the `par_sort` primitives: the
//! worker count only decides how much of a fixed schedule runs
//! concurrently.

use crate::bfs::UNREACHABLE;
use crate::graph::Graph;
use hyperline_util::parallel::{
    num_threads, par_for_each_range, par_map_range, par_map_range_init, par_sort_unstable,
};
use hyperline_util::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use hyperline_util::telemetry::Span;

/// Beamer's α: switch push→pull when the frontier's out-edges exceed
/// `unexplored_edges / ALPHA`.
const ALPHA: usize = 14;

/// Beamer's β: switch pull→push when the frontier shrinks below
/// `num_vertices / BETA`.
const BETA: usize = 24;

/// Below this much level work (frontier out-edges + frontier size) a push
/// level runs serially — thread spawn would dwarf the expansion. A
/// function of the frontier alone, so every worker count takes the same
/// serial/parallel decisions.
const SERIAL_LEVEL_WORK: usize = 1 << 13;

/// Fixed chunk sizes for parallel push (frontier entries) and pull
/// (vertex range) levels; functions of nothing but the input.
const PUSH_CHUNK: usize = 1 << 10;
const PULL_CHUNK: usize = 1 << 12;

/// Below this many entries a frontier labeling/collection pass runs
/// serially inside [`components`].
const SERIAL_LABEL_MIN: usize = 1 << 14;

/// A shared atomic visit bitmap: the claim `fetch_or` is the only
/// synchronization the push phase needs — exactly one worker sees the
/// bit flip and emits the vertex.
///
/// Public so the model-checked frontier unit (`tests/sched_frontier.rs`)
/// can exhaustively verify first-parent uniqueness of [`claim`]
/// (`AtomicBits::claim`) across every bounded interleaving.
pub struct AtomicBits {
    words: Vec<AtomicU64>,
}

impl AtomicBits {
    /// A bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Sets bit `i`; returns true if this call flipped it (the claim).
    #[inline]
    pub fn claim(&self, i: u32) -> bool {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        self.words[(i / 64) as usize].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }
}

/// What one [`ParBfs::run_with`] traversal covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Greatest level reached (the source's eccentricity within its
    /// component).
    pub eccentricity: u32,
    /// Number of vertices visited, including the source.
    pub visited: usize,
}

/// A reusable parallel direction-optimizing BFS over a shared visit
/// bitmap.
///
/// The bitmap and distance array persist across [`ParBfs::run_with`]
/// calls, which is what lets [`components`] sweep one traversal per
/// component without O(V) resets in between: a later run only ever
/// touches vertices no earlier run reached.
pub struct ParBfs<'g> {
    g: &'g Graph,
    visited: AtomicBits,
    dist: Vec<AtomicU32>,
    /// Upper bound on edge endpoints incident to unvisited vertices
    /// (Beamer's m_u), maintained across runs.
    unexplored: usize,
}

impl<'g> ParBfs<'g> {
    /// A fresh engine over `g`: nothing visited, all distances
    /// [`UNREACHABLE`].
    pub fn new(g: &'g Graph) -> Self {
        let n = g.num_vertices();
        Self {
            g,
            visited: AtomicBits::new(n),
            dist: (0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect(),
            unexplored: 2 * g.num_edges(),
        }
    }

    /// Whether `v` has been visited by any run so far.
    #[inline]
    pub fn is_visited(&self, v: u32) -> bool {
        self.visited.get(v)
    }

    /// Runs one BFS from `source` (which must not be visited yet),
    /// invoking `on_level(level, frontier)` for every level — including
    /// level 0, whose frontier is `[source]`. Frontiers are ascending
    /// vertex lists, identical for every worker count.
    ///
    /// # Panics
    /// Panics if `source` is out of range or already visited.
    pub fn run_with(&mut self, source: u32, mut on_level: impl FnMut(u32, &[u32])) -> RunStats {
        let n = self.g.num_vertices();
        assert!((source as usize) < n, "source out of range");
        assert!(self.visited.claim(source), "source already visited");
        self.dist[source as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![source];
        let mut level = 0u32;
        let mut visited_count = 0usize;
        let mut dense = false;
        loop {
            visited_count += frontier.len();
            on_level(level, &frontier);
            let frontier_edges: usize = frontier.iter().map(|&v| self.g.degree(v)).sum();
            // Direction heuristic with hysteresis (Beamer): grow dense
            // when the frontier's out-edges dominate what is left to
            // explore, fall back to sparse once the frontier has shrunk.
            if !dense && frontier_edges * ALPHA > self.unexplored {
                dense = true;
            } else if dense && frontier.len() * BETA < n {
                dense = false;
            }
            self.unexplored = self.unexplored.saturating_sub(frontier_edges);
            let next = if dense {
                pull_level(self.g, &self.visited, &self.dist, level)
            } else {
                push_level(
                    self.g,
                    &self.visited,
                    &self.dist,
                    &frontier,
                    frontier_edges,
                    level,
                )
            };
            if next.is_empty() {
                break;
            }
            level += 1;
            frontier = next;
        }
        RunStats {
            eccentricity: level,
            visited: visited_count,
        }
    }

    /// Consumes the engine, returning the distance array (vertices no
    /// run reached keep [`UNREACHABLE`]).
    pub fn into_distances(self) -> Vec<u32> {
        self.dist.into_iter().map(AtomicU32::into_inner).collect()
    }
}

/// Sparse push expansion of one level: claim unvisited neighbors of the
/// frontier. Per-worker buffers collect each chunk's claims; sorting the
/// concatenation yields the canonical ascending next frontier (the
/// claimed *set* is worker-count independent, so the sorted list is
/// too). Small levels run serially — same output, no spawns.
fn push_level(
    g: &Graph,
    visited: &AtomicBits,
    dist: &[AtomicU32],
    frontier: &[u32],
    frontier_edges: usize,
    level: u32,
) -> Vec<u32> {
    let expand = |out: &mut Vec<u32>, u: u32| {
        for &v in g.neighbors(u) {
            if !visited.get(v) && visited.claim(v) {
                dist[v as usize].store(level + 1, Ordering::Relaxed);
                out.push(v);
            }
        }
    };
    let mut next = if frontier_edges + frontier.len() < SERIAL_LEVEL_WORK {
        let mut out = Vec::new();
        for &u in frontier {
            expand(&mut out, u);
        }
        out
    } else {
        let nchunks = frontier.len().div_ceil(PUSH_CHUNK);
        let parts: Vec<Vec<u32>> = par_map_range(nchunks, |c| {
            let mut out = Vec::new();
            for &u in &frontier[c * PUSH_CHUNK..((c + 1) * PUSH_CHUNK).min(frontier.len())] {
                expand(&mut out, u);
            }
            out
        });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for mut p in parts {
            out.append(&mut p);
        }
        out
    };
    par_sort_unstable(&mut next);
    next
}

/// Dense pull expansion of one level: every unvisited vertex scans its
/// neighbors for one at the current level and bails at the first hit.
/// Workers own disjoint ascending vertex ranges, so the concatenated
/// discoveries arrive sorted and no claim can race.
fn pull_level(g: &Graph, visited: &AtomicBits, dist: &[AtomicU32], level: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let nchunks = n.div_ceil(PULL_CHUNK).max(1);
    let parts: Vec<Vec<u32>> = par_map_range(nchunks, |c| {
        let mut out = Vec::new();
        for v in (c * PULL_CHUNK) as u32..((c + 1) * PULL_CHUNK).min(n) as u32 {
            if visited.get(v) {
                continue;
            }
            // A neighbor at `level` was claimed by the *previous* level's
            // expansion, which this worker observes through the scope
            // join between levels; same-level claims store `level + 1`
            // and can never false-positive.
            for &w in g.neighbors(v) {
                if dist[w as usize].load(Ordering::Relaxed) == level {
                    visited.claim(v);
                    dist[v as usize].store(level + 1, Ordering::Relaxed);
                    out.push(v);
                    break;
                }
            }
        }
        out
    });
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut p in parts {
        out.append(&mut p);
    }
    out
}

/// Parallel single-source BFS distances; unreachable vertices get
/// [`UNREACHABLE`]. Identical output to [`crate::bfs::bfs_distances`],
/// computed with the direction-optimizing parallel engine.
pub fn bfs_distances_parallel(g: &Graph, source: u32) -> Vec<u32> {
    assert!((source as usize) < g.num_vertices(), "source out of range");
    let _span = Span::enter("frontier-bfs");
    let mut bfs = ParBfs::new(g);
    bfs.run_with(source, |_, _| {});
    bfs.into_distances()
}

/// Frontier-parallel connected components with **canonical labels**
/// (each vertex labeled with the smallest ID in its component).
///
/// Start vertices are seeded in ascending ID order, so the seed of every
/// traversal is its component's minimum; the per-level frontiers label
/// in parallel. Byte-identical to [`crate::cc::components_bfs`] for
/// every worker count; [`crate::cc::components_label_prop`] (LPCC)
/// cross-checks it in the test suite.
pub fn components(g: &Graph) -> Vec<u32> {
    let _span = Span::enter("frontier-cc");
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut bfs = ParBfs::new(g);
    for start in 0..n as u32 {
        if bfs.is_visited(start) {
            continue;
        }
        bfs.run_with(start, |_, frontier| {
            if frontier.len() < SERIAL_LABEL_MIN {
                for &v in frontier {
                    labels[v as usize].store(start, Ordering::Relaxed);
                }
            } else {
                par_for_each_range(frontier.len(), |i| {
                    labels[frontier[i] as usize].store(start, Ordering::Relaxed)
                });
            }
        });
    }
    labels.into_iter().map(AtomicU32::into_inner).collect()
}

/// What one [`SweepScratch::sweep`] traversal found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepResult {
    /// Greatest finite BFS distance from the source (0 if isolated).
    pub eccentricity: u32,
    /// Vertices reached, including the source.
    pub reached: usize,
    /// `Σ_{v ≠ source reached} 1 / d(source, v)` — the unnormalized
    /// harmonic closeness contribution, accumulated per level (count of
    /// the level divided by its depth), a fixed summation order for any
    /// worker count.
    pub harmonic_sum: f64,
}

/// Reusable scratch for serial direction-optimizing BFS sweeps — the
/// per-source unit of the batched multi-source kernels.
///
/// One scratch per worker (allocated by `par_map_range_init`) turns the
/// eccentricity/diameter and closeness sweeps into pure compute:
/// no per-source allocation, and distance resets cost O(reached), not
/// O(V).
pub struct SweepScratch {
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    touched: Vec<u32>,
}

impl SweepScratch {
    /// Scratch sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![UNREACHABLE; n],
            frontier: Vec::new(),
            next: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// One full BFS from `source`: eccentricity, reach count and the
    /// harmonic distance sum, in a single direction-optimizing pass.
    ///
    /// # Panics
    /// Panics if `source` is out of range or the scratch was sized for a
    /// different graph.
    pub fn sweep(&mut self, g: &Graph, source: u32) -> SweepResult {
        let n = g.num_vertices();
        assert_eq!(self.dist.len(), n, "scratch sized for a different graph");
        assert!((source as usize) < n, "source out of range");
        for &v in &self.touched {
            self.dist[v as usize] = UNREACHABLE;
        }
        self.touched.clear();
        self.frontier.clear();
        self.dist[source as usize] = 0;
        self.frontier.push(source);
        self.touched.push(source);
        let mut result = SweepResult {
            eccentricity: 0,
            reached: 1,
            harmonic_sum: 0.0,
        };
        let mut unexplored = 2 * g.num_edges();
        let mut dense = false;
        let mut level = 0u32;
        while !self.frontier.is_empty() {
            let frontier_edges: usize = self.frontier.iter().map(|&v| g.degree(v)).sum();
            if !dense && frontier_edges * ALPHA > unexplored {
                dense = true;
            } else if dense && self.frontier.len() * BETA < n {
                dense = false;
            }
            unexplored = unexplored.saturating_sub(frontier_edges);
            self.next.clear();
            if dense {
                // Pull: each unvisited vertex looks for a parent at the
                // current level and stops at the first one.
                for v in 0..n as u32 {
                    if self.dist[v as usize] != UNREACHABLE {
                        continue;
                    }
                    for &w in g.neighbors(v) {
                        if self.dist[w as usize] == level {
                            self.dist[v as usize] = level + 1;
                            self.next.push(v);
                            break;
                        }
                    }
                }
            } else {
                for &u in &self.frontier {
                    for &v in g.neighbors(u) {
                        if self.dist[v as usize] == UNREACHABLE {
                            self.dist[v as usize] = level + 1;
                            self.next.push(v);
                        }
                    }
                }
            }
            if self.next.is_empty() {
                break;
            }
            level += 1;
            result.eccentricity = level;
            result.reached += self.next.len();
            result.harmonic_sum += self.next.len() as f64 / level as f64;
            self.touched.extend_from_slice(&self.next);
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        result
    }
}

/// All eccentricities, source-parallel over reused per-worker scratch.
/// Identical to mapping [`crate::bfs::eccentricity`] over every vertex.
pub fn eccentricities(g: &Graph) -> Vec<u32> {
    let _span = Span::enter("frontier-sweeps");
    let n = g.num_vertices();
    par_map_range_init(
        n,
        || SweepScratch::new(n),
        |scratch, v| scratch.sweep(g, v as u32).eccentricity,
    )
}

/// Sweeps per stall check in [`diameter`]: every this many bound
/// sweeps, the candidates they removed are compared with what a
/// source-parallel sweep would settle in the same time.
const STALL_WINDOW: usize = 16;

/// Exact s-diameter: the maximum finite eccentricity, the same value as
/// [`crate::bfs::diameter`] (the serial all-sources reference), from
/// eccentricity bounds instead of a sweep per vertex.
///
/// Components are visited largest first; one whose size − 1 cannot
/// beat the diameter found so far is skipped, and so is every smaller
/// one. Inside a component, Takes & Kosters' *BoundingDiameters*
/// ("Determining the diameter of small world networks", CIKM 2011)
/// keeps a lower and an upper eccentricity bound per candidate vertex.
/// A sweep from `v` with `ε = ecc(v)` raises each candidate `w`'s lower
/// bound to `max(d, ε − d)` and cuts its upper bound to `ε + d`, where
/// `d = d(v, w)`; the diameter lies in `[max ε, min 2ε]`. Sources
/// alternate between the largest upper bound and the smallest lower
/// bound (ties: higher degree, then lower ID). A candidate is dropped
/// once its eccentricity is known, or once it can neither raise the
/// lower bound (upper bound ≤ it) nor lower the upper bound (twice its
/// lower bound ≥ it). The component is settled when the bounds meet or
/// no candidate's upper bound exceeds the lower bound.
///
/// When pruning stalls — a window of [`STALL_WINDOW`] sweeps removed
/// no more than one candidate per sweep per worker, the rate at which
/// the source-parallel sweep settles them — the remaining candidates
/// are swept source-parallel (`par_map_range_init` over
/// [`SweepScratch`]). Every sweep removes at least its own source, so
/// with one worker this happens only when the bounds settle nothing
/// else, and the plain sweep skips their bookkeeping.
///
/// Every sweep runs on a reused [`SweepScratch`] and opens one `sweep`
/// span, so a traced run counts the sweeps the diameter took. Scratch
/// is O(V) per call. The value is worker-count independent; only the
/// number of sweeps can differ, through the stall rule.
pub fn diameter(g: &Graph) -> u32 {
    let n = g.num_vertices();
    let mut bounds = EccentricityBounds {
        lower: vec![0; n],
        upper: vec![0; n],
        scratch: SweepScratch::new(n),
        candidates: Vec::new(),
    };
    let mut best = 0u32;
    // Largest first, so the first component too small to matter ends
    // the search.
    for comp in crate::cc::components_as_sets(&components(g)) {
        if comp.len() as u32 - 1 <= best {
            break;
        }
        best = bounds.settle(g, &comp, best);
    }
    best
}

/// Per-call scratch of [`diameter`]'s bound search.
struct EccentricityBounds {
    lower: Vec<u32>,
    upper: Vec<u32>,
    scratch: SweepScratch,
    candidates: Vec<u32>,
}

impl EccentricityBounds {
    /// `max(best, diameter of the component)`, for one connected
    /// component `comp` of `g` with at least two vertices.
    fn settle(&mut self, g: &Graph, comp: &[u32], best: u32) -> u32 {
        let Self {
            lower,
            upper,
            scratch,
            candidates,
        } = self;
        for &v in comp {
            lower[v as usize] = 0;
            upper[v as usize] = comp.len() as u32 - 1;
        }
        candidates.clear();
        candidates.extend_from_slice(comp);
        // `dl ≤ max(best, diam) ≤ max(dl, du)` holds throughout.
        let mut dl = best;
        let mut du = u32::MAX;
        let mut pick_high = true;
        let mut window_sweeps = 0usize;
        let mut window_removed = 0usize;
        let workers = num_threads();
        while !candidates.is_empty() && dl < du {
            let v = if pick_high {
                *candidates
                    .iter()
                    .max_by_key(|&&w| (upper[w as usize], g.degree(w), std::cmp::Reverse(w)))
                    .expect("candidates are non-empty")
            } else {
                *candidates
                    .iter()
                    .min_by_key(|&&w| (lower[w as usize], std::cmp::Reverse(g.degree(w)), w))
                    .expect("candidates are non-empty")
            };
            pick_high = !pick_high;
            let ecc = {
                let _span = Span::enter("sweep");
                scratch.sweep(g, v).eccentricity
            };
            dl = dl.max(ecc);
            du = du.min(ecc.saturating_mul(2));
            let before = candidates.len();
            let mut top = 0u32;
            candidates.retain(|&w| {
                let i = w as usize;
                let d = scratch.dist[i];
                lower[i] = lower[i].max(d).max(ecc - d);
                upper[i] = upper[i].min(ecc + d);
                // Any vertex's eccentricity bounds the diameter by twice it.
                du = du.min(upper[i].saturating_mul(2));
                let settled =
                    lower[i] == upper[i] || (upper[i] <= dl && lower[i].saturating_mul(2) >= du);
                if !settled {
                    top = top.max(upper[i]);
                }
                !settled
            });
            // Every vertex outside the candidates has a known
            // eccentricity ≤ dl or an upper bound ≤ dl.
            if top <= dl {
                break;
            }
            window_sweeps += 1;
            window_removed += before - candidates.len();
            if window_sweeps == STALL_WINDOW {
                if window_removed <= STALL_WINDOW * workers {
                    let eccs = par_map_range_init(
                        candidates.len(),
                        || SweepScratch::new(g.num_vertices()),
                        |scratch, i| {
                            let _span = Span::enter("sweep");
                            scratch.sweep(g, candidates[i]).eccentricity
                        },
                    );
                    return eccs.into_iter().fold(dl, u32::max);
                }
                window_sweeps = 0;
                window_removed = 0;
            }
        }
        dl
    }
}

/// Parallel harmonic closeness: per-source sweeps with reused scratch,
/// normalized by `n - 1`. Values are bit-identical for every worker
/// count (each source's sum has a fixed per-level accumulation order).
pub fn harmonic_closeness(g: &Graph) -> Vec<f64> {
    let _span = Span::enter("frontier-sweeps");
    let n = g.num_vertices();
    if n <= 1 {
        return vec![0.0; n];
    }
    par_map_range_init(
        n,
        || SweepScratch::new(n),
        |scratch, v| scratch.sweep(g, v as u32).harmonic_sum / (n - 1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::cc;
    use hyperline_util::parallel::with_threads;

    /// Deterministic xorshift edge stream (graph has no rand dep in
    /// non-dev builds; tests keep it self-contained anyway).
    fn random_edges(seed: u64, n: usize, m: usize) -> Vec<(u32, u32)> {
        let mut x = seed | 1;
        (0..m)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % n as u64) as u32, ((x >> 20) % n as u64) as u32)
            })
            .collect()
    }

    #[test]
    fn parallel_distances_match_serial() {
        for (seed, n, m) in [(3u64, 40usize, 60usize), (7, 200, 900), (11, 64, 0)] {
            let g = Graph::from_edges(n, &random_edges(seed, n, m));
            for source in [0u32, (n / 2) as u32, (n - 1) as u32] {
                assert_eq!(
                    bfs_distances_parallel(&g, source),
                    bfs::bfs_distances(&g, source),
                    "seed={seed} source={source}"
                );
            }
        }
    }

    #[test]
    fn dense_graph_exercises_pull() {
        // A near-complete graph: the level-1 frontier's out-edges dwarf
        // what's unexplored, forcing the dense pull path in both the
        // parallel engine and the serial sweep.
        let n = 300usize;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| (a + 1..n as u32).map(move |b| (a, b)))
            .filter(|&(a, b)| (a + b) % 7 != 0)
            .collect();
        let g = Graph::from_edges(n, &edges);
        assert_eq!(bfs_distances_parallel(&g, 5), bfs::bfs_distances(&g, 5));
        let mut scratch = SweepScratch::new(n);
        for v in [0u32, 5, 299] {
            assert_eq!(scratch.sweep(&g, v).eccentricity, bfs::eccentricity(&g, v));
        }
        assert_eq!(diameter(&g), bfs::diameter(&g));
    }

    #[test]
    fn components_match_serial_references() {
        for (seed, n, m) in [(5u64, 50usize, 30usize), (9, 400, 2000), (13, 10, 0)] {
            let g = Graph::from_edges(n, &random_edges(seed, n, m));
            let expect = cc::components_bfs(&g);
            assert_eq!(components(&g), expect, "seed={seed}");
            assert_eq!(cc::components_label_prop(&g), expect, "LPCC seed={seed}");
        }
        assert!(components(&Graph::from_edges(0, &[])).is_empty());
    }

    #[test]
    fn sweep_matches_per_source_serial_kernels() {
        let g = Graph::from_edges(9, &random_edges(21, 9, 14));
        let n = g.num_vertices();
        let mut scratch = SweepScratch::new(n);
        for v in 0..n as u32 {
            let r = scratch.sweep(&g, v);
            let dist = bfs::bfs_distances(&g, v);
            assert_eq!(r.eccentricity, bfs::eccentricity(&g, v), "v={v}");
            assert_eq!(
                r.reached,
                dist.iter().filter(|&&d| d != UNREACHABLE).count(),
                "v={v}"
            );
            let expect: f64 = dist
                .iter()
                .filter(|&&d| d != UNREACHABLE && d > 0)
                .map(|&d| 1.0 / d as f64)
                .sum();
            assert!((r.harmonic_sum - expect).abs() < 1e-12, "v={v}");
        }
    }

    #[test]
    fn closeness_and_diameter_match_definitions() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(diameter(&g), 4);
        assert_eq!(eccentricities(&g), vec![4, 3, 2, 3, 4]);
        let c = harmonic_closeness(&g);
        assert!((c[2] - (1.0 + 1.0 + 0.5 + 0.5) / 4.0).abs() < 1e-12);
        // Tiny graphs.
        assert!(harmonic_closeness(&Graph::from_edges(0, &[])).is_empty());
        assert_eq!(harmonic_closeness(&Graph::from_edges(1, &[])), vec![0.0]);
        assert_eq!(diameter(&Graph::from_edges(0, &[])), 0);
    }

    #[test]
    fn outputs_bit_identical_across_worker_counts() {
        let n = 500usize;
        let g = Graph::from_edges(n, &random_edges(17, n, 6_000));
        let reference = with_threads(1, || {
            (
                bfs_distances_parallel(&g, 3),
                components(&g),
                eccentricities(&g),
                harmonic_closeness(&g)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect::<Vec<_>>(),
            )
        });
        for workers in [2usize, 3, 7, 16] {
            let got = with_threads(workers, || {
                (
                    bfs_distances_parallel(&g, 3),
                    components(&g),
                    eccentricities(&g),
                    harmonic_closeness(&g)
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>(),
                )
            });
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn many_small_components() {
        // 300 disjoint triangles: the engine must stay cheap per
        // component and keep canonical labels.
        let edges: Vec<(u32, u32)> = (0..300u32)
            .flat_map(|t| {
                let b = 3 * t;
                [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
            })
            .collect();
        let g = Graph::from_edges(900, &edges);
        let labels = components(&g);
        assert_eq!(labels, cc::components_bfs(&g));
        assert_eq!(cc::component_count(&labels), 300);
        assert_eq!(diameter(&g), 1);
    }

    /// Sweeps [`diameter`] takes on `g` at one worker, and its value.
    fn counted_diameter(g: &Graph) -> (u32, u64) {
        let (d, report) = hyperline_util::telemetry::collect(|| with_threads(1, || diameter(g)));
        (d, report.get("sweep").map_or(0, |s| s.count))
    }

    #[test]
    fn bounds_settle_in_few_sweeps() {
        // Pinned sweep counts: a bound update that is valid but looser
        // (or tighter and wrong) changes them even where the value holds.
        let grid: Vec<(u32, u32)> = (0..400u32)
            .flat_map(|v| {
                let mut e = Vec::new();
                if v % 20 != 19 {
                    e.push((v, v + 1));
                }
                if v + 20 < 400 {
                    e.push((v, v + 20));
                }
                e
            })
            .collect();
        let path: Vec<(u32, u32)> = (1..50u32).map(|i| (i - 1, i)).collect();
        let cases = [
            ("path", Graph::from_edges(50, &path), 3),
            ("grid", Graph::from_edges(400, &grid), 10),
            (
                "sparse random",
                Graph::from_edges(500, &random_edges(17, 500, 700)),
                8,
            ),
            // Every eccentricity is 3: no bound can settle a vertex but
            // its own sweep, so this is the stall case.
            (
                "dense random",
                Graph::from_edges(500, &random_edges(19, 500, 6_000)),
                500,
            ),
        ];
        for (name, g, expect) in &cases {
            let (d, sweeps) = counted_diameter(g);
            assert_eq!(d, bfs::diameter(g), "{name}");
            assert_eq!(sweeps, *expect, "{name}");
        }
    }

    #[test]
    fn stalled_bounds_finish_source_parallel() {
        // A cycle is eccentricity-uniform: no bound settles a vertex but
        // its own sweep, so from two workers on the bounds stall after
        // one window and the remaining vertices are swept in parallel.
        let cycle: Vec<(u32, u32)> = (0..64u32).map(|i| (i, (i + 1) % 64)).collect();
        let g = Graph::from_edges(64, &cycle);
        for workers in [1usize, 2, 4] {
            let (d, report) =
                hyperline_util::telemetry::collect(|| with_threads(workers, || diameter(&g)));
            assert_eq!(d, 32, "workers={workers}");
            // Every vertex of a cycle needs its own sweep either way.
            assert_eq!(report.get("sweep").map(|s| s.count), Some(64));
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn parallel_distances_bounds_checked() {
        bfs_distances_parallel(&Graph::from_edges(2, &[(0, 1)]), 5);
    }

    #[test]
    fn run_stats_report_reach() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        let mut bfs = ParBfs::new(&g);
        let stats = bfs.run_with(0, |_, _| {});
        assert_eq!(stats.eccentricity, 2);
        assert_eq!(stats.visited, 3);
        assert!(bfs.is_visited(2));
        assert!(!bfs.is_visited(3));
        let stats = bfs.run_with(3, |_, _| {});
        assert_eq!(stats.visited, 1);
        let d = bfs.into_distances();
        assert_eq!(d, vec![0, 1, 2, 0, UNREACHABLE]);
    }
}
