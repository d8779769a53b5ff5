//! Overlap-count accumulators — the paper's "main performance criterion"
//! data structure (§III-F).
//!
//! Algorithm 2 maintains, per source hyperedge `e_i`, a running count of
//! shared vertices with every 2-hop neighbor `e_j`. The paper discusses
//! the trade-off between *dynamically allocated* hashmaps (fresh per
//! iteration; its choice for most datasets) and *pre-allocated
//! thread-local* storage (reset between iterations; its choice for
//! dense-overlap inputs like Web). Both appear here, plus a dense-array
//! counter with a touched list, which is this repository's default (see
//! [`CounterKind`]); `benches/counter_ablation` measures all three.
//!
//! A counter only bumps and drains. The one wedge-counting kernel in
//! [`crate::algorithms`] picks the implementation from [`CounterKind`]
//! once per call, and each caller's emit policy decides what a drained
//! `(j, count)` becomes: a pair, a weighted triple or a raw count.

use hyperline_util::fxhash::FxHashMap;

/// Accumulates counts for one source edge at a time.
///
/// Usage per source edge `i`: any number of [`OverlapCounter::bump`]
/// calls, then one [`OverlapCounter::drain`], which visits every counted
/// neighbor and resets the counter for the next source edge.
pub trait OverlapCounter {
    /// Increments the overlap count of 2-hop neighbor `j`.
    fn bump(&mut self, j: u32);

    /// Calls `visit(j, count)` for every bumped `j`, in no particular
    /// order, then resets.
    fn drain(&mut self, visit: impl FnMut(u32, u32));
}

/// Which counter implementation an algorithm run uses.
///
/// The default is [`CounterKind::DenseArray`]. Timing Algorithm 2 at
/// s = 2 on all 14 generator profiles (2 workers), it was faster than
/// both hashmap kinds on every profile and 1.4–3.3× faster than
/// [`CounterKind::DynamicMap`] (genomics 26.4 → 13.8 ms, IMDB 130.4 →
/// 45.7 ms), so one default serves sparse- and dense-overlap inputs
/// alike. A bump is one indexed increment, with no hashing and no
/// allocation per source hyperedge.
///
/// Memory bound of the default: per worker, for the length of one
/// counting call, `4·m` bytes of counts (`m` hyperedges) plus a touched
/// list of at most `m` `u32` entries; both are freed when the call
/// returns. On IMDB (60,011 hyperedges) that is 240 KB of counts per
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterKind {
    /// A fresh hashmap is allocated for every source hyperedge and dropped
    /// after its drain — the paper's recommendation for most of its
    /// datasets, not this repository's default.
    DynamicMap,
    /// One thread-local hashmap, cleared (capacity kept) between source
    /// hyperedges — the paper's pre-allocated TLS choice for dense inputs.
    ReusedMap,
    /// A dense `u32` array indexed by hyperedge ID with a touched list —
    /// O(1) bumps with no hashing at the cost of O(m) memory per worker.
    /// The default.
    #[default]
    DenseArray,
}

impl CounterKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [CounterKind; 3] = [
        CounterKind::DynamicMap,
        CounterKind::ReusedMap,
        CounterKind::DenseArray,
    ];

    /// Short label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            CounterKind::DynamicMap => "dynamic-map",
            CounterKind::ReusedMap => "reused-map",
            CounterKind::DenseArray => "dense-array",
        }
    }
}

/// Fresh hashmap per source edge (see [`CounterKind::DynamicMap`]).
#[derive(Debug, Default)]
pub struct DynamicMapCounter {
    map: FxHashMap<u32, u32>,
}

impl DynamicMapCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OverlapCounter for DynamicMapCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        *self.map.entry(j).or_insert(0) += 1;
    }

    fn drain(&mut self, mut visit: impl FnMut(u32, u32)) {
        // Dynamic semantics: the map is taken and dropped, so the next
        // source edge starts from a fresh allocation.
        for (j, n) in std::mem::take(&mut self.map) {
            visit(j, n);
        }
    }
}

/// One reused hashmap, cleared between source edges (see
/// [`CounterKind::ReusedMap`]).
#[derive(Debug, Default)]
pub struct ReusedMapCounter {
    map: FxHashMap<u32, u32>,
}

impl ReusedMapCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OverlapCounter for ReusedMapCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        *self.map.entry(j).or_insert(0) += 1;
    }

    fn drain(&mut self, mut visit: impl FnMut(u32, u32)) {
        // `drain` keeps the capacity for the next source edge.
        for (j, n) in self.map.drain() {
            visit(j, n);
        }
    }
}

/// Dense array + touched list (see [`CounterKind::DenseArray`]).
#[derive(Debug)]
pub struct DenseArrayCounter {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl DenseArrayCounter {
    /// Creates a counter over hyperedge IDs `0..num_edges`.
    pub fn new(num_edges: usize) -> Self {
        Self {
            counts: vec![0; num_edges],
            touched: Vec::new(),
        }
    }
}

impl OverlapCounter for DenseArrayCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        let slot = &mut self.counts[j as usize];
        if *slot == 0 {
            self.touched.push(j);
        }
        *slot += 1;
    }

    fn drain(&mut self, mut visit: impl FnMut(u32, u32)) {
        for j in self.touched.drain(..) {
            visit(j, std::mem::take(&mut self.counts[j as usize]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `counter` into a sorted `(j, count)` list.
    fn drained<C: OverlapCounter>(counter: &mut C) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        counter.drain(|j, n| out.push((j, n)));
        out.sort_unstable();
        out
    }

    fn exercise<C: OverlapCounter>(mut counter: C) {
        // Source edge 7 sees: j=3 twice, j=5 once, j=9 three times.
        for j in [3u32, 5, 9, 3, 9, 9] {
            counter.bump(j);
        }
        assert_eq!(drained(&mut counter), vec![(3, 2), (5, 1), (9, 3)]);

        // The drain reset the counter: only the next source's bumps show,
        // and an untouched counter drains nothing.
        for j in [3u32, 0, 3] {
            counter.bump(j);
        }
        assert_eq!(drained(&mut counter), vec![(0, 1), (3, 2)]);
        assert_eq!(drained(&mut counter), vec![]);
    }

    #[test]
    fn dynamic_map_counter() {
        exercise(DynamicMapCounter::new());
    }

    #[test]
    fn reused_map_counter() {
        exercise(ReusedMapCounter::new());
    }

    #[test]
    fn dense_array_counter() {
        exercise(DenseArrayCounter::new(10));
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<&str> =
            CounterKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
