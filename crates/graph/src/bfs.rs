//! Breadth-first search and distance queries.
//!
//! In an s-line graph, the BFS distance between two vertices is exactly
//! the paper's *s-distance* between the corresponding hyperedges (length
//! of the shortest s-walk), so these kernels implement the s-distance and
//! s-diameter metrics of Stage 5.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances; unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest-path distance between two vertices, or `None` if disconnected.
///
/// Early-exits as soon as `target` is settled.
///
/// # Panics
/// Panics if either endpoint is `>= g.num_vertices()` — including
/// `distance(v, v)` with `v` out of range, which used to answer
/// `Some(0)` before ever validating `v`.
pub fn distance(g: &Graph, source: u32, target: u32) -> Option<u32> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!((target as usize) < n, "target out of range");
    if source == target {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                if v == target {
                    return Some(du + 1);
                }
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// Eccentricity of `v`: the greatest finite BFS distance from `v`.
/// Returns 0 for an isolated vertex.
///
/// # Panics
/// Panics if `v >= g.num_vertices()`.
pub fn eccentricity(g: &Graph, v: u32) -> u32 {
    assert!((v as usize) < g.num_vertices(), "source out of range");
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Diameter of the graph restricted to reachable pairs: the maximum finite
/// eccentricity over all vertices. This is the paper's *s-diameter* when
/// run on an s-line graph. O(V·E): one sequential sweep per vertex. Kept
/// as the oracle: Stage 5 routes through [`crate::frontier::diameter`],
/// which reaches the same value from eccentricity bounds in a few
/// sweeps, and the proptests and `kernel_smoke` compare the two.
pub fn diameter(g: &Graph) -> u32 {
    (0..g.num_vertices() as u32)
        .map(|v| eccentricity(g, v))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn distances_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn pairwise_distance() {
        let g = path5();
        assert_eq!(distance(&g, 0, 4), Some(4));
        assert_eq!(distance(&g, 3, 3), Some(0));
        let g2 = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(distance(&g2, 0, 2), None);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path5();
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
        assert_eq!(diameter(&g), 4);
        // Cycle of 6: diameter 3.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(diameter(&c6), 3);
    }

    #[test]
    fn isolated_vertex_eccentricity_zero() {
        let g = Graph::from_edges(2, &[]);
        assert_eq!(eccentricity(&g, 0), 0);
        assert_eq!(diameter(&g), 0);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn distance_same_out_of_range_vertex_panics() {
        // Used to early-return Some(0) without ever validating `v`.
        distance(&path5(), 9, 9);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn distance_target_bounds_checked() {
        distance(&path5(), 0, 17);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn eccentricity_bounds_checked() {
        eccentricity(&path5(), 8);
    }

    #[test]
    fn distance_symmetry() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (2, 5)]);
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(distance(&g, u, v), distance(&g, v, u));
            }
        }
    }
}
