//! λ₂ from the Lanczos kernel against pinned reference values, on
//! s-line graphs too large for a live dense solve in a debug build (the
//! Jacobi solver takes seconds there from ~280 vertices on).
//!
//! Every graph is the Algorithm-2 s-line graph of a generator profile at
//! seed 1, and λ₂ is taken on its largest component, as
//! `SLineGraph::lambda2` does. The references were made once, in a
//! release build:
//!
//! - genomics L16 (278 vertices), lesMis L1 (400) and lesMis L2 (350),
//!   each a single component: the dense Jacobi solver,
//!   `normalized_laplacian_dense(..).eigenvalues()[1]`;
//! - IMDB L4 (largest component 2,885 of 2,906 vertices): the power
//!   iteration the Lanczos kernel replaced, run at tolerance 1e-15 with
//!   up to 40,000 iterations. With its defaults (tolerance 1e-10 on the
//!   eigenvalue change, 5,000 iterations) it stopped at the cap and
//!   served 0.291922522691791, 1.6e-4 off.

use hyperline::prelude::*;
use hyperline::slinegraph::{SLineGraph, Strategy};

fn slg(profile: &str, s: u32) -> SLineGraph {
    let h = Profile::from_name(profile).expect("profile").generate(1);
    let r = algo2_slinegraph(&h, s, &Strategy::default());
    SLineGraph::new_squeezed(s, h.num_edges(), r.edges)
}

fn assert_lambda2(profile: &str, s: u32, vertices: usize, reference: f64) {
    let slg = slg(profile, s);
    assert_eq!(slg.num_vertices(), vertices, "{profile} L{s} changed shape");
    let lambda2 = slg.lambda2();
    assert!(lambda2.converged, "{profile} L{s}: {lambda2:?}");
    assert!(
        (lambda2.value - reference).abs() < 1e-8,
        "{profile} L{s}: {} vs reference {reference}",
        lambda2.value
    );
}

#[test]
fn lambda2_matches_dense_references() {
    assert_lambda2("genomics", 16, 278, 0.299780552316440);
    assert_lambda2("lesMis", 1, 400, 0.540553810421367);
    assert_lambda2("lesMis", 2, 350, 0.198314433337949);
}

#[test]
fn imdb_l4_lambda2_converges_to_the_long_run_value() {
    assert_lambda2("IMDB", 4, 2906, 0.291761323545380);
}
