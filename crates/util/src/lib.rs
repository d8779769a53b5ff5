//! Shared low-level utilities for the `hyperline` workspace.
//!
//! This crate holds the infrastructure that every other crate leans on:
//!
//! * [`fxhash`] — a fast, non-cryptographic hasher (FxHash) plus
//!   [`FxHashMap`]/[`FxHashSet`] aliases. Overlap counting in the s-line
//!   graph algorithms is hashmap-bound, so hashing speed matters
//!   (see the Rust Performance Book's "Hashing" chapter).
//! * [`bitset`] — a compact fixed-size bitset used for visited sets.
//! * [`timer`] — wall-clock timing helpers used by the experiment harness.
//! * [`stats`] — summary statistics and histograms for workload
//!   characterization (per-thread visit counts, degree distributions).
//! * [`table`] — plain-text table rendering for experiment outputs that
//!   mirror the paper's tables.
//! * [`idmap`] — dense re-mapping of sparse ID spaces ("ID squeezing",
//!   Stage 4 of the paper's framework).
//! * [`parallel`] — structured parallelism on scoped threads (the
//!   workspace's zero-dependency replacement for rayon).
//! * [`telemetry`] — lock-free latency histograms and RAII pipeline
//!   spans (the server's observability layer).
//! * [`sync`] — the sync seam: re-exports `std::sync` primitives
//!   normally, or the `hyperline-sched` model-checker shims under
//!   `--cfg hyperline_sched`.
//! * [`cancel`] — request-lifecycle cancellation: request deadlines,
//!   interest-counted cancel tokens, and the ambient per-thread token
//!   kernel chunk loops poll (flag-only, so kernels stay clock-free).
//! * [`failpoint`] — deterministic fault injection at I/O seams,
//!   compiled to no-ops in release builds (the chaos-test harness).

#![warn(missing_docs)]

pub mod bitset;
pub mod cancel;
pub mod csv;
pub mod failpoint;
pub mod fxhash;
pub mod idmap;
pub mod parallel;
pub mod stats;
pub mod sync;
pub mod table;
pub mod telemetry;
pub mod timer;

pub use bitset::BitSet;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use idmap::IdSqueezer;
pub use stats::Summary;
pub use table::Table;
pub use timer::Timer;
