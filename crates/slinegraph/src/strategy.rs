//! Execution strategies: the paper's Table III notation grid.
//!
//! A strategy combines a workload partition (Blocked/Cyclic/Dynamic), a
//! relabel-by-degree order (None/Ascending/Descending), a worker count,
//! an overlap-counter kind and the degree-pruning toggle. The notation
//! `2BA` reads: Algorithm 2, Blocked partitioning, relabel Ascending.

use crate::counter::CounterKind;
use crate::partition::Partition;
use hyperline_hypergraph::RelabelOrder;

/// Which s-line-graph construction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// All-pairs set intersection (no wedge traversal) — the naive
    /// baseline of §I.
    Naive,
    /// Set-intersection over wedge-connected pairs with heuristics — the
    /// HiPC'21 algorithm the paper compares against (Algorithm 1).
    Algo1,
    /// Wedge-driven overlap counting, no set intersections — the paper's
    /// contribution (Algorithm 2).
    Algo2,
    /// SpGEMM (`HᵀH`) followed by filtration (§III-G baseline). `upper`
    /// restricts the product to the upper triangle.
    SpGemm {
        /// Compute only the upper triangle of the (symmetric) product.
        upper: bool,
    },
}

impl Algorithm {
    /// Digit used in the paper's notation (`1`/`2`); baselines get letters.
    pub fn code(self) -> &'static str {
        match self {
            Algorithm::Naive => "N",
            Algorithm::Algo1 => "1",
            Algorithm::Algo2 => "2",
            Algorithm::SpGemm { upper: false } => "S",
            Algorithm::SpGemm { upper: true } => "Su",
        }
    }
}

/// Which triangle of the (symmetric) overlap matrix the wedge traversal
/// covers. Each unordered hyperedge pair is visited exactly once either
/// way; the paper pairs ascending relabeling with the upper triangle and
/// descending with the lower (§IV, "Relabeling").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TriangleSide {
    /// Traverse wedges `(e_i, v, e_j)` with `j > i` (the default).
    #[default]
    Upper,
    /// Traverse wedges with `j < i`.
    Lower,
}

/// Algorithm 1's heuristic toggles (§III-A lists them; all default on).
/// Turning them off reproduces progressively more naive variants for the
/// heuristics-ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Algo1Heuristics {
    /// Mark candidates already intersected for the current source edge
    /// ("skipping already visited hyperedges"). Off = one intersection
    /// per *wedge* instead of per *pair*.
    pub skip_visited: bool,
    /// Stop an intersection as soon as `s` matches are found or become
    /// unreachable ("short-circuiting set intersection").
    pub short_circuit: bool,
}

impl Default for Algo1Heuristics {
    fn default() -> Self {
        Self {
            skip_visited: true,
            short_circuit: true,
        }
    }
}

/// A full execution strategy for the s-overlap stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strategy {
    /// Outer-loop workload partition.
    pub partition: Partition,
    /// Hyperedge relabel-by-degree order applied in preprocessing.
    pub relabel: RelabelOrder,
    /// Worker count; 0 means "use the ambient pool size"
    /// ([`hyperline_util::parallel::num_threads`]).
    pub num_workers: usize,
    /// Overlap-counter implementation (Algorithm 2/3 only).
    pub counter: CounterKind,
    /// Skip hyperedges with size < s (on by default; §III-E).
    pub degree_pruning: bool,
    /// Which triangle of the overlap matrix to traverse.
    pub triangle: TriangleSide,
    /// Algorithm 1's heuristic toggles.
    pub algo1_heuristics: Algo1Heuristics,
}

impl Default for Strategy {
    fn default() -> Self {
        Self {
            partition: Partition::Blocked,
            relabel: RelabelOrder::None,
            num_workers: 0,
            counter: CounterKind::default(),
            degree_pruning: true,
            triangle: TriangleSide::default(),
            algo1_heuristics: Algo1Heuristics::default(),
        }
    }
}

impl Strategy {
    /// Builder: sets the partition.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partition = p;
        self
    }

    /// Builder: sets the relabel order.
    pub fn with_relabel(mut self, r: RelabelOrder) -> Self {
        self.relabel = r;
        self
    }

    /// Builder: sets the worker count (0 = ambient default).
    pub fn with_workers(mut self, w: usize) -> Self {
        self.num_workers = w;
        self
    }

    /// Builder: sets the counter kind.
    pub fn with_counter(mut self, c: CounterKind) -> Self {
        self.counter = c;
        self
    }

    /// Builder: toggles degree pruning.
    pub fn with_pruning(mut self, on: bool) -> Self {
        self.degree_pruning = on;
        self
    }

    /// Builder: sets the traversed triangle.
    pub fn with_triangle(mut self, t: TriangleSide) -> Self {
        self.triangle = t;
        self
    }

    /// Builder: sets Algorithm 1's heuristic toggles.
    pub fn with_algo1_heuristics(mut self, h: Algo1Heuristics) -> Self {
        self.algo1_heuristics = h;
        self
    }

    /// Resolved worker count.
    pub fn workers(&self) -> usize {
        if self.num_workers == 0 {
            hyperline_util::parallel::num_threads()
        } else {
            self.num_workers
        }
    }

    /// Paper notation for this strategy under `algorithm`, e.g. `2BA`.
    pub fn notation(&self, algorithm: Algorithm) -> String {
        format!(
            "{}{}{}",
            algorithm.code(),
            self.partition.code(),
            self.relabel.code()
        )
    }
}

/// The paper's 12-variant grid (Table III): Algorithms 1 and 2 × Blocked /
/// Cyclic × relabel None / Ascending / Descending, in the order of
/// Figure 7's x-axis.
pub fn table3_grid() -> Vec<(Algorithm, Strategy)> {
    let mut grid = Vec::with_capacity(12);
    for algorithm in [Algorithm::Algo1, Algorithm::Algo2] {
        for partition in [Partition::Blocked, Partition::Cyclic] {
            for relabel in RelabelOrder::ALL {
                grid.push((
                    algorithm,
                    Strategy::default()
                        .with_partition(partition)
                        .with_relabel(relabel),
                ));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_matches_paper() {
        let s = Strategy::default()
            .with_partition(Partition::Blocked)
            .with_relabel(RelabelOrder::Ascending);
        assert_eq!(s.notation(Algorithm::Algo2), "2BA");
        let s = Strategy::default()
            .with_partition(Partition::Cyclic)
            .with_relabel(RelabelOrder::None);
        assert_eq!(s.notation(Algorithm::Algo1), "1CN");
        assert_eq!(s.notation(Algorithm::SpGemm { upper: true }), "SuCN");
    }

    #[test]
    fn grid_has_twelve_unique_variants() {
        let grid = table3_grid();
        assert_eq!(grid.len(), 12);
        let notations: std::collections::HashSet<String> =
            grid.iter().map(|(a, s)| s.notation(*a)).collect();
        assert_eq!(notations.len(), 12);
        assert!(notations.contains("1BN"));
        assert!(notations.contains("2CD"));
    }

    #[test]
    fn workers_resolves_zero_to_pool_size() {
        let s = Strategy::default();
        assert_eq!(s.workers(), hyperline_util::parallel::num_threads());
        let s = s.with_workers(3);
        assert_eq!(s.workers(), 3);
    }

    #[test]
    fn builder_chain() {
        let s = Strategy::default()
            .with_partition(Partition::Dynamic { chunk: 64 })
            .with_counter(CounterKind::ReusedMap)
            .with_pruning(false)
            .with_triangle(TriangleSide::Lower)
            .with_algo1_heuristics(Algo1Heuristics {
                skip_visited: false,
                short_circuit: true,
            })
            .with_workers(2);
        assert_eq!(s.partition, Partition::Dynamic { chunk: 64 });
        assert_eq!(s.counter, CounterKind::ReusedMap);
        assert!(!s.degree_pruning);
        assert_eq!(s.triangle, TriangleSide::Lower);
        assert!(!s.algo1_heuristics.skip_visited);
        assert_eq!(s.num_workers, 2);
    }

    #[test]
    fn default_counter_is_dense_array() {
        assert_eq!(CounterKind::default(), CounterKind::DenseArray);
        assert_eq!(Strategy::default().counter, CounterKind::default());
    }

    #[test]
    fn heuristics_default_all_on() {
        let h = Algo1Heuristics::default();
        assert!(h.skip_visited && h.short_circuit);
    }
}
