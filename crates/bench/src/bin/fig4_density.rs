//! Figure 4: number of edges in the s-clique graph vs s (log-log decay).
//!
//! Counts the edges of the s-clique graphs (s-line graphs of the dual)
//! of the disGeNet, condMat, compBoard and lesMis profiles with one
//! overlap-counting pass each, and prints the edge count per s. The
//! paper's observation: density drops off roughly exponentially in s
//! across domains.
//!
//! `cargo run -p hyperline-bench --release --bin fig4_density`
//! Options: `--seed=42 --max-s=128`

use hyperline_bench::{arg, print_header};
use hyperline_gen::Profile;
use hyperline_slinegraph::{sclique_edge_counts, Strategy};
use hyperline_util::table::Table;

fn main() {
    print_header("Figure 4: #edges in the s-clique graph vs s");
    let seed: u64 = arg("seed", 42);
    let max_s: u32 = arg("max-s", 128);
    // Log-spaced s values, like the paper's log-log axes.
    let mut s_values: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    s_values.retain(|&s| s <= max_s);

    let profiles = [
        Profile::DisGeNet,
        Profile::CondMat,
        Profile::CompBoard,
        Profile::LesMis,
    ];
    let mut table = Table::new(
        std::iter::once("s".to_string()).chain(profiles.iter().map(|p| p.name().to_string())),
    );

    let counts: Vec<Vec<(u32, usize)>> = profiles
        .iter()
        .map(|p| {
            let h = p.generate(seed);
            sclique_edge_counts(&h, &s_values, &Strategy::default())
        })
        .collect();

    for (si, &s) in s_values.iter().enumerate() {
        let mut cells = vec![s.to_string()];
        for c in &counts {
            cells.push(c[si].1.to_string());
        }
        table.row(cells);
    }
    table.print();

    // Decay-rate summary: the paper's point is rapid (near-exponential)
    // sparsification; report the s at which each dataset loses 99% of its
    // clique-expansion edges.
    println!();
    for (p, c) in profiles.iter().zip(&counts) {
        let base = c[0].1.max(1);
        let s99 = c
            .iter()
            .find(|&&(_, n)| n * 100 <= base)
            .map(|&(s, _)| s.to_string())
            .unwrap_or_else(|| format!("> {}", s_values.last().unwrap()));
        println!(
            "{:<22} 99% of clique-expansion edges gone by s = {}",
            p.name(),
            s99
        );
    }
}
