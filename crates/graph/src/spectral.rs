//! Spectral analysis: normalized Laplacian and algebraic connectivity.
//!
//! The paper's Figure 6 plots the *normalized algebraic connectivity* —
//! the second-smallest eigenvalue λ₂ of the normalized Laplacian
//! `L̃ = I − D^{-1/2} A D^{-1/2}` — of s-line graphs for s = 1..16. Larger
//! values mean the (s-line) graph is better connected, which is how the
//! paper reads collaboration strength off the spectrum.
//!
//! **Method.** λ₂ is computed matrix-free by the Lanczos method (Paige,
//! "Computational variants of the Lanczos method for the eigenproblem",
//! 1972) on the shifted operator `B = 2I − L̃ = I + D^{-1/2} A D^{-1/2}`.
//! B's spectrum lies in `[0, 2]` and its top eigenpair is known:
//! `μ₁ = 2` with eigenvector `D^{1/2}·1`. Every new Lanczos vector is
//! deflated against `D^{1/2}·1`, so the recurrence runs on the
//! complement, whose largest eigenvalue is `μ₂ = 2 − λ₂` — an extreme
//! eigenvalue, which Lanczos finds in tens of matrix-vector products
//! where power iteration needs thousands. After step `k` the largest
//! eigenvalue θ of the tridiagonal `T_k` is updated by safeguarded
//! Newton steps on the last LDLᵀ pivot of `θI − T_k` (a handful of O(k)
//! passes), and the last component `y_k` of its unit eigenvector follows
//! from the same pivots. The run stops when the residual estimate
//! `β_k·|y_k|` — the norm of `Bz − θz` for the Ritz vector `z` — is at
//! most [`SpectralOptions::tolerance`], and reports in
//! [`Lambda2::converged`] whether it got there within the step cap.
//!
//! **Reorthogonalization: deflation only.** This is the cheapest variant
//! that meets the oracles (within 1e-8 of the dense Jacobi solver in
//! [`crate::dense`] and of long-run reference values, in tests), and the
//! only one that keeps the scratch at O(V): four vectors plus the
//! tridiagonal. Full reorthogonalization costs O(k·V) per step, and full
//! or partial reorthogonalization (Simon, 1984) stores every Lanczos
//! vector, O(k·V) memory. Without reorthogonalization the vectors stay
//! semi-orthogonal until the top Ritz pair's residual reaches about
//! `√ε·‖B‖ ≈ 3e-8` (Simon); below that a duplicate ("ghost") copy of μ₂
//! forms in `T_k` and the estimate for the top pair stops falling. On 40
//! graphs measured it bottomed out between 3e-10 and 1.5e-8. The
//! default bound 1e-7 therefore sits above that floor. The eigenvalue
//! error is at most the residual and typically its square over the gap
//! to λ₃: at most 2e-12 on every graph measured. The one eigenvalue
//! rounding must not bring back is the deflated 2, which would take over
//! the top of `T_k` — hence the deflation at every step.
//!
//! **Determinism.** The matrix-vector product runs row by row in CSR
//! order and every dot product is a serial sum in index order, so λ₂ is
//! bit-identical for every worker count.

use crate::cc::{components_parallel, largest_component};
use crate::dense::SymMatrix;
use crate::graph::Graph;
use hyperline_util::telemetry::Span;

/// Knobs of the Lanczos run behind [`algebraic_connectivity`].
#[derive(Debug, Clone, Copy)]
pub struct SpectralOptions {
    /// Residual bound: the run stops once the residual estimate
    /// `β_k·|y_k|` of the top Ritz pair is at most this. λ₂'s error is at
    /// most the residual, and typically its square over the gap to λ₃.
    /// The default 1e-7 sits above the ~√ε·‖B‖ floor that the estimate
    /// of deflation-only Lanczos can reach (see the module docs).
    pub tolerance: f64,
    /// Cap on Lanczos steps (matrix-vector products). The run also
    /// never takes more steps than the graph has vertices, and always
    /// takes at least one.
    pub max_iterations: usize,
    /// Seed for the deterministic pseudo-random start vector.
    pub seed: u64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-7,
            max_iterations: 5000,
            seed: 0x5eed,
        }
    }
}

/// λ₂ together with whether the Lanczos run that produced it met its
/// residual bound. An unconverged value is the best Ritz estimate at
/// the step cap; callers must not pass it on as exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambda2 {
    /// The second-smallest eigenvalue of the normalized Laplacian.
    pub value: f64,
    /// True when the residual estimate reached
    /// [`SpectralOptions::tolerance`] (or the value is exact, as for
    /// graphs with fewer than two vertices).
    pub converged: bool,
}

/// Applies `y = (I + D^{-1/2} A D^{-1/2}) x`, i.e. `B = 2I − L̃`, for a
/// graph with all degrees ≥ 1. `scaled` is scratch for `D^{-1/2} x`.
fn apply_shifted(g: &Graph, inv_sqrt_deg: &[f64], x: &[f64], scaled: &mut [f64], y: &mut [f64]) {
    for ((s, &xv), &f) in scaled.iter_mut().zip(x).zip(inv_sqrt_deg) {
        *s = xv * f;
    }
    for v in 0..g.num_vertices() {
        let acc: f64 = g
            .neighbors(v as u32)
            .iter()
            .map(|&u| scaled[u as usize])
            .sum();
        y[v] = x[v] + inv_sqrt_deg[v] * acc;
    }
}

/// Deterministic xorshift for reproducible start vectors.
fn xorshift(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
    norm
}

fn orthogonalize_against(v: &mut [f64], unit: &[f64]) {
    let d = dot(v, unit);
    v.iter_mut().zip(unit).for_each(|(a, b)| *a -= d * b);
}

/// Smallest pivot accepted as positive in the LDLᵀ recurrences below.
const PIVMIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// The Lanczos tridiagonal `T_k` (diagonal `alpha`, off-diagonal
/// `beta`) and its largest eigenvalue `theta`, grown one step at a time.
#[derive(Default)]
struct Tridiagonal {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    theta: f64,
    /// Scratch: the LDLᵀ pivots of `θI − T_k`.
    pivots: Vec<f64>,
}

impl Tridiagonal {
    /// The last pivot `f(x)` of `xI − T_k` and its derivative, or `None`
    /// when an earlier pivot is not positive — exactly when `x` is not
    /// above the largest eigenvalue of `T_{k−1}`. Above it, `f` is
    /// increasing and concave and its root is `T_k`'s largest eigenvalue.
    fn last_pivot(&mut self, x: f64) -> Option<(f64, f64)> {
        self.pivots.clear();
        let (mut d, mut slope) = (1.0f64, 0.0f64);
        for (j, &a) in self.alpha.iter().enumerate() {
            if j > 0 {
                if d < PIVMIN {
                    return None;
                }
                let inv = 1.0 / d;
                let coupling = self.beta[j - 1] * self.beta[j - 1] * inv;
                d = x - a - coupling;
                slope = 1.0 + coupling * inv * slope;
            } else {
                d = x - a;
                slope = 1.0;
            }
            self.pivots.push(d);
        }
        Some((d, slope))
    }

    /// Appends `α_k` (and the `β_{k−1}` coupling it to the previous
    /// step), updates θ, and returns `|y_k|`, the last component of θ's
    /// unit eigenvector.
    ///
    /// θ is the root of the last pivot above the previous θ (interlacing
    /// puts it there), below Weyl's bound `max(θ_{k−1}, α_k) + β_{k−1}`.
    /// Newton steps on the concave pivot approach it monotonically from
    /// below; a step that leaves the bracket bisects instead. `y` then
    /// follows from `y_k = 1`, `y_j = (β_j / d_j)·y_{j+1}` with positive
    /// pivots, so nothing cancels.
    fn push(&mut self, a: f64, b_prev: Option<f64>) -> f64 {
        let Some(b) = b_prev else {
            self.alpha.push(a);
            self.theta = a;
            return 1.0;
        };
        self.beta.push(b);
        self.alpha.push(a);
        let mut lo = self.theta;
        let mut hi = self.theta.max(a) + b;
        hi += 4.0 * f64::EPSILON * hi.abs() + PIVMIN;
        let mut x = hi;
        for _ in 0..200 {
            let next = match self.last_pivot(x) {
                None => {
                    lo = x;
                    0.5 * (lo + hi)
                }
                Some((f, slope)) => {
                    if f >= 0.0 {
                        hi = x;
                    } else {
                        lo = x;
                    }
                    let newton = x - f / slope;
                    if f == 0.0 || (newton - x).abs() <= 2.0 * f64::EPSILON * x.abs() {
                        break;
                    }
                    if newton > lo && newton < hi {
                        newton
                    } else {
                        0.5 * (lo + hi)
                    }
                }
            };
            if next <= lo || next >= hi || next == x {
                break;
            }
            x = next;
        }
        // Evaluate the pivots at the final θ for the eigenvector.
        if self.last_pivot(x).is_none() {
            x = hi;
            self.last_pivot(x);
        }
        self.theta = x;
        let k = self.alpha.len();
        let (mut last, mut y, mut sum) = (1.0f64, 1.0f64, 1.0f64);
        for j in (0..k - 1).rev() {
            y *= self.beta[j] / self.pivots[j].max(PIVMIN);
            // Rescale so long runs of large ratios cannot overflow.
            if y > 1e100 {
                y *= 1e-100;
                last *= 1e-100;
                sum *= 1e-200;
            }
            sum += y * y;
        }
        last / sum.sqrt()
    }
}

/// λ₂ of the normalized Laplacian of a **connected** graph, by Lanczos
/// with deflation (see the module docs).
///
/// Graphs with fewer than two vertices give 0 (converged). A graph with
/// a degree-0 vertex and at least two vertices is disconnected, so its
/// λ₂ is 0 as well — the convention of [`normalized_laplacian_dense`],
/// where an isolated vertex's row is zero; it is returned as exact
/// without running Lanczos, whose `D^{-1/2}` would be singular there.
/// Any other disconnected graph converges to ~0, the repeated zero
/// eigenvalue. Callers normally pass one component, as
/// [`normalized_algebraic_connectivity`] does.
///
/// Each Lanczos step opens one `step` span, so a traced run counts the
/// matrix-vector products it took.
pub fn algebraic_connectivity(g: &Graph, opts: SpectralOptions) -> Lambda2 {
    let n = g.num_vertices();
    if n < 2 || (0..n as u32).any(|v| g.degree(v) == 0) {
        return Lambda2 {
            value: 0.0,
            converged: true,
        };
    }
    let inv_sqrt_deg: Vec<f64> = (0..n as u32)
        .map(|v| 1.0 / (g.degree(v) as f64).sqrt())
        .collect();
    // Known top eigenvector of B: D^{1/2}·1, normalized.
    let mut top: Vec<f64> = (0..n as u32).map(|v| (g.degree(v) as f64).sqrt()).collect();
    normalize(&mut top);

    let mut state = opts.seed | 1;
    let mut q: Vec<f64> = (0..n).map(|_| xorshift(&mut state)).collect();
    orthogonalize_against(&mut q, &top);
    if normalize(&mut q) == 0.0 {
        // Degenerate start: fall back to a unit vector.
        q = vec![0.0; n];
        q[0] = 1.0;
        orthogonalize_against(&mut q, &top);
        normalize(&mut q);
    }
    let mut q_prev = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];
    let mut scaled = vec![0.0f64; n];
    let mut t = Tridiagonal::default();
    let mut b_prev = None;
    for _ in 0..opts.max_iterations.clamp(1, n) {
        let _span = Span::enter("step");
        apply_shifted(g, &inv_sqrt_deg, &q, &mut scaled, &mut w);
        let a = dot(&q, &w);
        let b_old = b_prev.unwrap_or(0.0);
        for ((wi, &qi), &pi) in w.iter_mut().zip(&q).zip(&q_prev) {
            *wi -= a * qi + b_old * pi;
        }
        // Deflate every step: rounding would otherwise grow the
        // eigenvalue-2 direction back into the basis.
        orthogonalize_against(&mut w, &top);
        let b = dot(&w, &w).sqrt();
        let last = t.push(a, b_prev);
        if b * last <= opts.tolerance || b == 0.0 {
            return Lambda2 {
                value: (2.0 - t.theta).max(0.0),
                converged: true,
            };
        }
        b_prev = Some(b);
        std::mem::swap(&mut q_prev, &mut q);
        for (qi, &wi) in q.iter_mut().zip(&w) {
            *qi = wi / b;
        }
    }
    Lambda2 {
        value: (2.0 - t.theta).max(0.0),
        converged: false,
    }
}

/// The paper's Figure-6 quantity: λ₂ of the normalized Laplacian of the
/// **largest connected component** of `g`, with its convergence flag.
/// Components of size < 2 give 0 (converged).
pub fn normalized_algebraic_connectivity(g: &Graph, opts: SpectralOptions) -> Lambda2 {
    let labels = components_parallel(g);
    let comp = largest_component(&labels);
    let (sub, _) = g.induced(&comp);
    algebraic_connectivity(&sub, opts)
}

/// Dense normalized Laplacian of a graph (isolated vertices produce a
/// zero row/column). For tests and tiny graphs.
pub fn normalized_laplacian_dense(g: &Graph) -> SymMatrix {
    let n = g.num_vertices();
    let mut m = SymMatrix::zeros(n);
    for v in 0..n {
        if g.degree(v as u32) > 0 {
            m.set(v, v, 1.0);
        }
    }
    for (u, v) in g.iter_edges() {
        let w = -1.0 / ((g.degree(u) * g.degree(v)) as f64).sqrt();
        m.set(u as usize, v as usize, w);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
            .collect();
        Graph::from_edges(n, &edges)
    }

    /// λ₂ with the default options, asserting the run converged.
    fn lambda2(g: &Graph) -> f64 {
        let got = algebraic_connectivity(g, SpectralOptions::default());
        assert!(got.converged, "unconverged: {got:?}");
        got.value
    }

    #[test]
    fn complete_graph_connectivity() {
        // λ₂ of normalized Laplacian of K_n is n/(n-1).
        for n in [3usize, 5, 8] {
            let lam = lambda2(&complete_graph(n));
            let expect = n as f64 / (n as f64 - 1.0);
            assert!((lam - expect).abs() < 1e-8, "K_{n}: {lam} vs {expect}");
        }
    }

    #[test]
    fn path_graph_connectivity_matches_dense() {
        for n in [2usize, 3, 5, 10, 17] {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let g = Graph::from_edges(n, &edges);
            let iterative = lambda2(&g);
            let eigs = normalized_laplacian_dense(&g).eigenvalues();
            let dense = eigs[1];
            assert!(
                (iterative - dense).abs() < 1e-8,
                "path n={n}: {iterative} vs dense {dense}"
            );
        }
    }

    #[test]
    fn disconnected_graph_is_zero() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let lam = lambda2(&g);
        assert!(
            lam.abs() < 1e-8,
            "λ₂ of disconnected graph should be ~0, got {lam}"
        );
        // An isolated vertex disconnects the graph: exactly 0, like the
        // dense Laplacian's zero row.
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(lambda2(&g), 0.0);
        assert!(normalized_laplacian_dense(&g).eigenvalues()[1].abs() < 1e-12);
    }

    #[test]
    fn largest_component_variant() {
        // Triangle (well connected) + isolated pair: λ computed on triangle.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let lam = normalized_algebraic_connectivity(&g, SpectralOptions::default());
        assert!(lam.converged);
        assert!((lam.value - 1.5).abs() < 1e-8, "{lam:?}");
    }

    #[test]
    fn tiny_graphs() {
        let exact_zero = Lambda2 {
            value: 0.0,
            converged: true,
        };
        let g = Graph::from_edges(1, &[]);
        assert_eq!(
            algebraic_connectivity(&g, SpectralOptions::default()),
            exact_zero
        );
        let g = Graph::from_edges(0, &[]);
        assert_eq!(
            normalized_algebraic_connectivity(&g, SpectralOptions::default()),
            exact_zero
        );
        // K2: normalized Laplacian eigenvalues {0, 2}.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let lam = lambda2(&g);
        assert!((lam - 2.0).abs() < 1e-8, "K2: {lam}");
    }

    #[test]
    fn random_graphs_match_dense() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        let mut tested = 0;
        while tested < 8 {
            let n = rng.gen_range(4..25usize);
            let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect(); // ensure connected
            for _ in 0..rng.gen_range(0..2 * n) {
                edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
            }
            let g = Graph::from_edges(n, &edges);
            let iterative = lambda2(&g);
            let dense = normalized_laplacian_dense(&g).eigenvalues()[1];
            assert!(
                (iterative - dense).abs() < 1e-8,
                "n={n}: iterative {iterative} vs dense {dense}"
            );
            tested += 1;
        }
    }

    #[test]
    fn larger_random_graphs_match_dense() {
        // Up to ~150 vertices, where Lanczos takes tens of steps and
        // loses orthogonality without reorthogonalization; the dense
        // Jacobi solver stays affordable in a debug build.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(29);
        for n in [60usize, 110, 150] {
            let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            for _ in 0..3 * n {
                edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
            }
            let g = Graph::from_edges(n, &edges);
            let iterative = lambda2(&g);
            let dense = normalized_laplacian_dense(&g).eigenvalues()[1];
            assert!(
                (iterative - dense).abs() < 1e-8,
                "n={n}: iterative {iterative} vs dense {dense}"
            );
        }
    }

    #[test]
    fn step_cap_reports_unconverged() {
        let edges: Vec<(u32, u32)> = (0..39u32).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(40, &edges);
        let capped = algebraic_connectivity(
            &g,
            SpectralOptions {
                max_iterations: 3,
                ..Default::default()
            },
        );
        assert!(!capped.converged, "{capped:?}");
        let dense = normalized_laplacian_dense(&g).eigenvalues()[1];
        assert!(
            capped.value >= dense - 1e-12,
            "a Ritz value bounds μ₂ below"
        );
    }

    #[test]
    fn steps_are_spans() {
        let g = complete_graph(6);
        let (lam, report) = hyperline_util::telemetry::collect(|| lambda2(&g));
        assert!((lam - 1.2).abs() < 1e-8);
        // K_n's complement of D^{1/2}·1 is one eigenspace: one step.
        assert_eq!(report.get("step").map(|s| s.count), Some(1));
    }

    #[test]
    fn tridiagonal_top_eigenpair_matches_dense() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let k = rng.gen_range(1..40usize);
            let alpha: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..2.0)).collect();
            let beta: Vec<f64> = (1..k).map(|_| rng.gen_range(1e-3..1.0)).collect();
            let mut t = Tridiagonal::default();
            for j in 0..k {
                let last = t.push(alpha[j], (j > 0).then(|| beta[j - 1]));
                let mut m = SymMatrix::zeros(j + 1);
                for i in 0..=j {
                    m.set(i, i, alpha[i]);
                    if i > 0 {
                        m.set(i, i - 1, beta[i - 1]);
                    }
                }
                let top = *m.eigenvalues().last().unwrap();
                assert!(
                    (t.theta - top).abs() < 1e-12,
                    "k={} {} vs {top}",
                    j + 1,
                    t.theta
                );
                assert!((0.0..=1.0).contains(&last));
            }
        }
    }

    #[test]
    fn dense_laplacian_spectrum_bounds() {
        let g = complete_graph(6);
        let eigs = normalized_laplacian_dense(&g).eigenvalues();
        assert!(eigs[0].abs() < 1e-9, "λ₁ = 0");
        assert!(eigs.iter().all(|&l| l > -1e-9 && l < 2.0 + 1e-9));
    }

    #[test]
    fn star_graph_is_bipartite_with_lambda_max_2() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let eigs = normalized_laplacian_dense(&g).eigenvalues();
        assert!((eigs.last().unwrap() - 2.0).abs() < 1e-9);
        // λ₂ of a star's normalized Laplacian is 1.
        let lam = lambda2(&g);
        assert!((lam - 1.0).abs() < 1e-8, "star λ₂: {lam}");
    }
}
