//! Compute-kernel smoke benchmark: the compute-side perf trajectory.
//!
//! `server_smoke` records wire/cache numbers; this binary records what
//! the paper is actually about — cold per-stage timings of the s-line
//! graph pipeline (Stage 3 s-overlap, the post-processing tail, Stage 4
//! CSR construction, Stage 5 components) with a **counting-vs-tail**
//! breakdown, per dataset profile and worker count, written to
//! `BENCH_kernels.json`. "Tail" is everything after the parallel
//! counting pass: merging per-worker emissions, ID restoration +
//! normalize + final sort (the `postprocess` stage), and the squeezed
//! CSR build. The same run records the serial (1-worker) baseline, so
//! the tail speedup at ≥4 workers is a self-contained number, and the
//! line-graph edge lists are asserted byte-identical across all
//! measured worker counts. Each run also records the overlap counter
//! the default strategy used, the exact wedge count of the counting
//! pass and the resulting per-core counting rate (`wedges_per_sec`).
//!
//! The `stage5` section does the same for the Stage-5 frontier engine:
//! cold per-worker-count medians of connected components, s-diameter
//! and harmonic closeness on the constructed s-line graph, the pre-PR
//! kernels re-measured in the same run at their original parallelism
//! (queue-based BFS components and the O(V·E) diameter sweep were
//! serial; the old closeness was already source-parallel and runs at
//! the comparison worker count), and the combined `stage5_speedup` at
//! the ≥4-worker point. Each run also times λ₂ (`lambda2_ms`, outside
//! `stage5_ms` so that sum stays comparable across the trajectory).
//! Outputs are asserted byte-identical across all worker counts
//! (closeness and λ₂ compared bit-for-bit), and the bounded diameter is
//! asserted equal to the serial all-sources `bfs::diameter`.
//!
//! Before overwriting an existing `BENCH_kernels.json` the binary
//! prints a warn-only comparison: any stage whose cold median regressed
//! by more than 20% versus the previous file gets a `WARN` line (never
//! a failure — machines differ; the trajectory is for eyeballs). Each
//! run is also **appended** to `BENCH_history.jsonl` (one line per run:
//! commit, unix timestamp, the full report), so the trajectory survives
//! the snapshot overwrite as a per-commit series.
//!
//! `cargo run -p hyperline-bench --release --bin kernel_smoke`
//! Options: `--profiles=genomics --s=2 --seed=42 --reps=5
//! --out=BENCH_kernels.json --history=BENCH_history.jsonl` (empty
//! `--history=` skips the append).

use hyperline_bench::{arg, print_header, with_pool};
use hyperline_gen::Profile;
use hyperline_graph::{bfs, cc};
use hyperline_server::json::Json;
use hyperline_slinegraph::{run_pipeline, PipelineConfig, SLineGraph};
use hyperline_util::FxHashMap;
use std::time::Instant;

/// The pre-PR serial tail, re-implemented verbatim and measured in the
/// same run so the tail speedup is self-contained: (1) one single-core
/// `sort_unstable` over the concatenated worker emissions, (2) serial
/// ID-restore + normalize + re-sort, (3) hashmap ID squeezing (sorted
/// endpoint dedup + per-endpoint map probes) and the old CSR build
/// (clean/sort/dedup + counting scatter + per-row sorts).
struct SerialBaseline {
    merge_ms: f64,
    postprocess_ms: f64,
    csr_ms: f64,
}

impl SerialBaseline {
    fn tail_ms(&self) -> f64 {
        self.merge_ms + self.postprocess_ms + self.csr_ms
    }
}

/// Deterministic xorshift for the emission-order reconstruction.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn measure_serial_baseline(
    edges: &[(u32, u32)],
    num_hyperedges: usize,
    reps: usize,
) -> SerialBaseline {
    // Reconstruct emission order: ascending sources (workers walk their
    // partitions in order) with arbitrary order within each source's
    // drained group (hashmap drain order) — a deterministic in-group
    // Fisher–Yates stands in for the arbitrariness.
    let mut emission: Vec<(u32, u32)> = edges.to_vec();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut lo = 0;
    while lo < emission.len() {
        let mut hi = lo + 1;
        while hi < emission.len() && emission[hi].0 == emission[lo].0 {
            hi += 1;
        }
        for k in (lo + 1..hi).rev() {
            let j = lo + (xorshift(&mut rng) as usize) % (k - lo + 1);
            emission.swap(k, j);
        }
        lo = hi;
    }
    let mut merge = Vec::with_capacity(reps);
    let mut postprocess = Vec::with_capacity(reps);
    let mut csr = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        // (1) Old merge: single-core sort of the concatenation.
        let mut work = emission.clone();
        let t = Instant::now();
        work.sort_unstable();
        merge.push(t.elapsed().as_secs_f64() * 1e3);
        // (2) Old postprocess: serial restore (identity relabeling) +
        // normalize + full re-sort.
        let identity: Vec<u32> = (0..num_hyperedges as u32).collect();
        let t = Instant::now();
        for (a, b) in work.iter_mut() {
            *a = identity[*a as usize];
            *b = identity[*b as usize];
        }
        for pair in work.iter_mut() {
            if pair.0 > pair.1 {
                *pair = (pair.1, pair.0);
            }
        }
        work.sort_unstable();
        postprocess.push(t.elapsed().as_secs_f64() * 1e3);
        // (3) Old squeeze + CSR build.
        let t = Instant::now();
        let mut ids: Vec<u32> = work.iter().flat_map(|&(a, b)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        let forward: FxHashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        let squeezed: Vec<(u32, u32)> = work
            .iter()
            .map(|&(a, b)| (forward[&a], forward[&b]))
            .collect();
        let nv = ids.len();
        let mut counts = vec![0usize; nv + 1];
        let mut clean: Vec<(u32, u32)> = Vec::with_capacity(squeezed.len());
        for &(a, b) in &squeezed {
            if a != b {
                clean.push(if a < b { (a, b) } else { (b, a) });
            }
        }
        clean.sort_unstable();
        clean.dedup();
        for &(a, b) in &clean {
            counts[a as usize + 1] += 1;
            counts[b as usize + 1] += 1;
        }
        for i in 0..nv {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut targets = vec![0u32; clean.len() * 2];
        let mut cursor = counts;
        for &(a, b) in &clean {
            targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..nv {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        std::hint::black_box(&targets);
        csr.push(t.elapsed().as_secs_f64() * 1e3);
    }
    SerialBaseline {
        merge_ms: median(merge),
        postprocess_ms: median(postprocess),
        csr_ms: median(csr),
    }
}

/// Median of a sample (ms).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One worker count's cold Stage-5 kernel medians (ms).
#[derive(Clone, Copy)]
struct Stage5Medians {
    components_ms: f64,
    diameter_ms: f64,
    closeness_ms: f64,
    /// λ₂ of the largest component; not part of [`Self::stage5_ms`].
    lambda2_ms: f64,
}

impl Stage5Medians {
    /// Combined time of components, diameter and closeness.
    fn stage5_ms(&self) -> f64 {
        self.components_ms + self.diameter_ms + self.closeness_ms
    }

    fn fields() -> [&'static str; 5] {
        [
            "components_ms",
            "diameter_ms",
            "closeness_ms",
            "lambda2_ms",
            "stage5_ms",
        ]
    }

    fn get(&self, field: &str) -> f64 {
        match field {
            "components_ms" => self.components_ms,
            "diameter_ms" => self.diameter_ms,
            "closeness_ms" => self.closeness_ms,
            "lambda2_ms" => self.lambda2_ms,
            "stage5_ms" => self.stage5_ms(),
            _ => unreachable!(),
        }
    }
}

/// Everything the Stage-5 kernels produced, with closeness scores and
/// λ₂ as raw bits so the cross-worker-count identity check is bit-exact.
#[derive(PartialEq, Eq)]
struct Stage5Outputs {
    components: Vec<Vec<u32>>,
    diameter: u32,
    closeness_bits: Vec<(u32, u64)>,
    lambda2_bits: u64,
}

/// Runs the Stage-5 frontier-engine kernels `reps` times cold under the
/// ambient worker count.
fn measure_stage5(slg: &SLineGraph, reps: usize) -> (Stage5Medians, Stage5Outputs) {
    let mut components = Vec::with_capacity(reps);
    let mut diameter = Vec::with_capacity(reps);
    let mut closeness = Vec::with_capacity(reps);
    let mut lambda2 = Vec::with_capacity(reps);
    let mut outputs = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let comps = slg.connected_components();
        components.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let diam = slg.s_diameter();
        diameter.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let close = slg.closeness();
        closeness.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let lam = slg.lambda2();
        lambda2.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(lam.converged, "λ₂ did not converge: {lam:?}");
        outputs = Some(Stage5Outputs {
            components: comps,
            diameter: diam,
            closeness_bits: close.into_iter().map(|(e, s)| (e, s.to_bits())).collect(),
            lambda2_bits: lam.value.to_bits(),
        });
    }
    (
        Stage5Medians {
            components_ms: median(components),
            diameter_ms: median(diameter),
            closeness_ms: median(closeness),
            lambda2_ms: median(lambda2),
        },
        outputs.expect("at least one rep ran"),
    )
}

/// The pre-PR Stage-5 kernels, re-implemented verbatim at **their
/// original parallelism** and measured in the same run: queue-based BFS
/// components ([`cc::components_bfs`] — the old `connected_components`
/// call) and the O(V·E) eccentricity sweep ([`bfs::diameter`]) were
/// genuinely serial; the old closeness was already source-parallel
/// (`par_map_range` with a fresh distance allocation per source), so it
/// runs under the *ambient* worker count — callers pin that to the same
/// count as the parallel point, keeping `stage5_speedup` an honest
/// user-visible number on multi-core machines rather than a
/// single-thread strawman. Also returns the all-sources diameter, the
/// oracle for the bounded one.
fn measure_stage5_baseline(slg: &SLineGraph, reps: usize) -> (Stage5Medians, u32) {
    let g = slg.graph();
    let n = g.num_vertices();
    let mut components = Vec::with_capacity(reps);
    let mut diameter = Vec::with_capacity(reps);
    let mut closeness = Vec::with_capacity(reps);
    let mut all_sources_diameter = 0;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let labels = cc::components_bfs(g);
        let comps: Vec<Vec<u32>> = cc::components_as_sets(&labels)
            .into_iter()
            .map(|c| c.into_iter().map(|v| slg.original_id(v)).collect())
            .collect();
        std::hint::black_box(&comps);
        components.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        all_sources_diameter = std::hint::black_box(bfs::diameter(g));
        diameter.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let scores: Vec<f64> = hyperline_util::parallel::par_map_range(n, |v| {
            let dist = bfs::bfs_distances(g, v as u32);
            let sum: f64 = dist
                .iter()
                .enumerate()
                .filter(|&(u, &d)| u != v && d != bfs::UNREACHABLE && d > 0)
                .map(|(_, &d)| 1.0 / d as f64)
                .sum();
            if n <= 1 {
                0.0
            } else {
                sum / (n - 1) as f64
            }
        });
        let mut out: Vec<(u32, f64)> = scores
            .into_iter()
            .enumerate()
            .map(|(v, score)| (slg.original_id(v as u32), score))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        std::hint::black_box(&out);
        closeness.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        Stage5Medians {
            components_ms: median(components),
            diameter_ms: median(diameter),
            closeness_ms: median(closeness),
            lambda2_ms: 0.0,
        },
        all_sources_diameter,
    )
}

/// One worker count's cold medians, all in milliseconds, plus the
/// counting pass's counter kind and exact wedge count.
#[derive(Clone, Copy)]
struct StageMedians {
    counter: &'static str,
    wedges: u64,
    counting_ms: f64,
    merge_ms: f64,
    postprocess_ms: f64,
    csr_ms: f64,
    components_ms: f64,
    total_ms: f64,
}

impl StageMedians {
    /// The post-counting tail: merge + restore/sort + CSR build.
    fn tail_ms(&self) -> f64 {
        self.merge_ms + self.postprocess_ms + self.csr_ms
    }

    /// Wedges counted per second of (median) counting time.
    fn wedges_per_sec(&self) -> f64 {
        self.wedges as f64 / (self.counting_ms / 1e3)
    }

    fn fields() -> [&'static str; 6] {
        [
            "counting_ms",
            "merge_ms",
            "postprocess_ms",
            "csr_ms",
            "components_ms",
            "total_ms",
        ]
    }

    fn get(&self, field: &str) -> f64 {
        match field {
            "counting_ms" => self.counting_ms,
            "merge_ms" => self.merge_ms,
            "postprocess_ms" => self.postprocess_ms,
            "csr_ms" => self.csr_ms,
            "components_ms" => self.components_ms,
            "total_ms" => self.total_ms,
            _ => unreachable!(),
        }
    }
}

/// Runs the pipeline `reps` times cold and returns stage medians plus
/// the (stable) edge list for the cross-worker-count identity check.
fn measure(
    h: &hyperline_hypergraph::Hypergraph,
    s: u32,
    reps: usize,
) -> (StageMedians, Vec<(u32, u32)>) {
    let config = PipelineConfig::new(s);
    let stage_ms = |run: &hyperline_slinegraph::PipelineRun, stage: &str| {
        run.times.get(stage).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let mut counting = Vec::with_capacity(reps);
    let mut merge = Vec::with_capacity(reps);
    let mut postprocess = Vec::with_capacity(reps);
    let mut csr = Vec::with_capacity(reps);
    let mut components = Vec::with_capacity(reps);
    let mut total = Vec::with_capacity(reps);
    let mut edges = Vec::new();
    let mut wedges = 0;
    for _ in 0..reps.max(1) {
        let run = run_pipeline(h, &config);
        wedges = run.stats.total().wedge_visits;
        let merge_ms = run.stats.merge_seconds * 1e3;
        counting.push(stage_ms(&run, "s-overlap") - merge_ms);
        merge.push(merge_ms);
        postprocess.push(stage_ms(&run, "postprocess"));
        csr.push(stage_ms(&run, "squeeze"));
        components.push(stage_ms(&run, "s-connected-components"));
        total.push(run.times.total().as_secs_f64() * 1e3);
        edges = run.line_graph.edges;
    }
    (
        StageMedians {
            counter: config.strategy.counter.label(),
            wedges,
            counting_ms: median(counting),
            merge_ms: median(merge),
            postprocess_ms: median(postprocess),
            csr_ms: median(csr),
            components_ms: median(components),
            total_ms: median(total),
        },
        edges,
    )
}

/// Numeric field lookup in a parsed JSON object.
fn num(obj: &Json, key: &str) -> Option<f64> {
    match obj.get(key)? {
        Json::Int(i) => Some(*i as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// The previous run's medians for `(profile, workers)`, if the old
/// report has them.
fn previous_medians(previous: Option<&Json>, profile: &str, workers: usize) -> Option<Json> {
    let profiles = previous?.get("profiles")?.as_array()?;
    let entry = profiles
        .iter()
        .find(|p| p.get("profile").and_then(Json::as_str) == Some(profile))?;
    entry
        .get("runs")?
        .as_array()?
        .iter()
        .find(|r| num(r, "workers") == Some(workers as f64))
        .cloned()
}

/// Like [`previous_medians`] for the `stage5` section.
fn previous_stage5_medians(previous: Option<&Json>, profile: &str, workers: usize) -> Option<Json> {
    let profiles = previous?.get("profiles")?.as_array()?;
    let entry = profiles
        .iter()
        .find(|p| p.get("profile").and_then(Json::as_str) == Some(profile))?;
    entry
        .get("stage5")?
        .get("runs")?
        .as_array()?
        .iter()
        .find(|r| num(r, "workers") == Some(workers as f64))
        .cloned()
}

fn main() {
    print_header("kernel smoke: cold stage timings, counting vs post-processing tail");
    let profiles_arg: String = arg("profiles", "genomics".to_string());
    let s: u32 = arg("s", 2);
    let seed: u64 = arg("seed", 42);
    let reps: usize = arg("reps", 5);
    let out: String = arg("out", "BENCH_kernels.json".to_string());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The new-code serial point, the ≥4-worker point of the acceptance
    // numbers (measured even on narrower machines — the threads then
    // time-share, which is the honest number for this host), and the
    // whole machine.
    let mut worker_counts = vec![1usize, 4, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    let previous = std::fs::read_to_string(&out)
        .ok()
        .and_then(|t| Json::parse(&t).ok());

    let mut profile_reports: Vec<Json> = Vec::new();
    let mut warnings = 0usize;
    for name in profiles_arg.split(',').filter(|p| !p.is_empty()) {
        let profile = Profile::from_name(name).expect("unknown profile");
        let h = profile.generate(seed);
        println!(
            "\n{}: {} vertices, {} hyperedges, s = {s}",
            profile.name(),
            h.num_vertices(),
            h.num_edges()
        );
        println!(
            "{:>8} {:>12} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10}",
            "workers", "counting", "merge", "postprocess", "csr", "components", "tail", "wedges/s"
        );
        let mut rows: Vec<(usize, StageMedians)> = Vec::new();
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for &w in &worker_counts {
            let (meds, edges) = with_pool(w, || measure(&h, s, reps));
            match &reference {
                None => reference = Some(edges),
                Some(r) => assert_eq!(
                    &edges, r,
                    "line-graph edges diverged between worker counts (w={w})"
                ),
            }
            println!(
                "{:>8} {:>10.2}ms {:>8.2}ms {:>10.2}ms {:>8.2}ms {:>10.2}ms {:>8.2}ms {:>9.1}M",
                w,
                meds.counting_ms,
                meds.merge_ms,
                meds.postprocess_ms,
                meds.csr_ms,
                meds.components_ms,
                meds.tail_ms(),
                meds.wedges_per_sec() / 1e6
            );
            // Warn-only trajectory check against the previous report.
            if let Some(prev) = previous_medians(previous.as_ref(), profile.name(), w) {
                for field in StageMedians::fields() {
                    if let Some(old) = num(&prev, field) {
                        let new = meds.get(field);
                        // Sub-half-millisecond stages are timer noise;
                        // warning on them would make the trajectory cry
                        // wolf.
                        if old > 0.5 && new > old * 1.2 {
                            warnings += 1;
                            println!(
                                "  WARN {} w={w} {field}: {old:.2}ms -> {new:.2}ms (+{:.0}%)",
                                profile.name(),
                                (new / old - 1.0) * 100.0
                            );
                        }
                    }
                }
            }
            rows.push((w, meds));
        }
        // The ≥4-worker point (or the widest available on small machines).
        let (par_workers, par_meds) = rows
            .iter()
            .rev()
            .find(|(w, _)| *w >= 4)
            .unwrap_or(rows.last().unwrap());
        let reference_edges = reference.as_ref().expect("at least one worker count ran");
        let baseline = measure_serial_baseline(reference_edges, h.num_edges(), reps);
        let tail_speedup = baseline.tail_ms() / par_meds.tail_ms();
        let edges_out = reference_edges.len();
        println!(
            "{:>8} {:>12} {:>8.2}ms {:>10.2}ms {:>8.2}ms {:>12} {:>8.2}ms {:>10}   (pre-PR serial tail)",
            "baseline",
            "-",
            baseline.merge_ms,
            baseline.postprocess_ms,
            baseline.csr_ms,
            "-",
            baseline.tail_ms(),
            "-"
        );
        println!(
            "tail: {:.2}ms serial baseline -> {:.2}ms at {} workers = {:.2}x speedup  \
             ({} line-graph edges, byte-identical across worker counts)",
            baseline.tail_ms(),
            par_meds.tail_ms(),
            par_workers,
            tail_speedup,
            edges_out,
        );
        // Stage 5: frontier-engine kernels on the constructed s-line
        // graph — cold medians per worker count, byte-identity asserted,
        // plus the pre-PR serial kernels measured in the same run.
        let slg = SLineGraph::new_squeezed(s, h.num_edges(), reference_edges.clone());
        println!(
            "\nstage 5 ({} vertices, {} edges):",
            slg.num_vertices(),
            slg.num_edges()
        );
        println!(
            "{:>8} {:>12} {:>10} {:>11} {:>10} {:>10}",
            "workers", "components", "diameter", "closeness", "stage5", "lambda2"
        );
        let mut s5_rows: Vec<(usize, Stage5Medians)> = Vec::new();
        let mut s5_reference: Option<Stage5Outputs> = None;
        for &w in &worker_counts {
            let (meds, outputs) = with_pool(w, || measure_stage5(&slg, reps));
            match &s5_reference {
                None => s5_reference = Some(outputs),
                Some(r) => assert!(
                    &outputs == r,
                    "stage-5 outputs diverged between worker counts (w={w})"
                ),
            }
            println!(
                "{:>8} {:>10.2}ms {:>8.2}ms {:>9.2}ms {:>8.2}ms {:>8.2}ms",
                w,
                meds.components_ms,
                meds.diameter_ms,
                meds.closeness_ms,
                meds.stage5_ms(),
                meds.lambda2_ms
            );
            if let Some(prev) = previous_stage5_medians(previous.as_ref(), profile.name(), w) {
                for field in Stage5Medians::fields() {
                    if let Some(old) = num(&prev, field) {
                        let new = meds.get(field);
                        if old > 0.5 && new > old * 1.2 {
                            warnings += 1;
                            println!(
                                "  WARN {} w={w} stage5.{field}: {old:.2}ms -> {new:.2}ms (+{:.0}%)",
                                profile.name(),
                                (new / old - 1.0) * 100.0
                            );
                        }
                    }
                }
            }
            s5_rows.push((w, meds));
        }
        let (s5_workers, s5_meds) = s5_rows
            .iter()
            .rev()
            .find(|(w, _)| *w >= 4)
            .unwrap_or(s5_rows.last().unwrap());
        // Components/diameter were serial pre-PR; closeness was already
        // source-parallel, so the baseline runs it under the same worker
        // count as the parallel point (an honest comparison, not a
        // single-thread strawman).
        let (s5_baseline, all_sources_diameter) =
            with_pool(*s5_workers, || measure_stage5_baseline(&slg, reps));
        let s5_outputs = s5_reference
            .as_ref()
            .expect("at least one worker count ran");
        assert_eq!(
            s5_outputs.diameter, all_sources_diameter,
            "bounded s-diameter differs from the all-sources sweep"
        );
        let stage5_speedup = s5_baseline.stage5_ms() / s5_meds.stage5_ms();
        println!(
            "{:>8} {:>10.2}ms {:>8.2}ms {:>9.2}ms {:>8.2}ms   (pre-PR kernels: serial CC/diameter, source-parallel closeness)",
            "baseline",
            s5_baseline.components_ms,
            s5_baseline.diameter_ms,
            s5_baseline.closeness_ms,
            s5_baseline.stage5_ms()
        );
        println!(
            "stage5: {:.2}ms pre-PR kernels -> {:.2}ms at {} workers = {:.2}x speedup  \
             (outputs byte-identical across worker counts)",
            s5_baseline.stage5_ms(),
            s5_meds.stage5_ms(),
            s5_workers,
            stage5_speedup,
        );
        let stage5_runs_json: Vec<Json> = s5_rows
            .iter()
            .map(|(w, m)| {
                Json::obj()
                    .set("workers", *w)
                    .set("components_ms", m.components_ms)
                    .set("diameter_ms", m.diameter_ms)
                    .set("closeness_ms", m.closeness_ms)
                    .set("stage5_ms", m.stage5_ms())
                    .set("lambda2_ms", m.lambda2_ms)
            })
            .collect();
        let stage5_json = Json::obj()
            .set("runs", Json::Arr(stage5_runs_json))
            .set(
                "baseline",
                Json::obj()
                    .set("components_ms", s5_baseline.components_ms)
                    .set("diameter_ms", s5_baseline.diameter_ms)
                    .set("closeness_ms", s5_baseline.closeness_ms)
                    .set("closeness_workers", *s5_workers)
                    .set("stage5_ms", s5_baseline.stage5_ms()),
            )
            .set("stage5_baseline_ms", s5_baseline.stage5_ms())
            .set("stage5_parallel_ms", s5_meds.stage5_ms())
            .set("stage5_parallel_workers", *s5_workers)
            .set("stage5_speedup", stage5_speedup)
            .set("identical_across_workers", true);
        let runs_json: Vec<Json> = rows
            .iter()
            .map(|(w, m)| {
                Json::obj()
                    .set("workers", *w)
                    .set("counter", m.counter)
                    .set("wedges", m.wedges)
                    .set("wedges_per_sec", m.wedges_per_sec())
                    .set("counting_ms", m.counting_ms)
                    .set("merge_ms", m.merge_ms)
                    .set("postprocess_ms", m.postprocess_ms)
                    .set("csr_ms", m.csr_ms)
                    .set("components_ms", m.components_ms)
                    .set("tail_ms", m.tail_ms())
                    .set("total_ms", m.total_ms)
            })
            .collect();
        profile_reports.push(
            Json::obj()
                .set("profile", profile.name())
                .set("s", s)
                .set("line_graph_edges", edges_out)
                .set("runs", Json::Arr(runs_json))
                .set(
                    "serial_baseline",
                    Json::obj()
                        .set("merge_ms", baseline.merge_ms)
                        .set("postprocess_ms", baseline.postprocess_ms)
                        .set("csr_ms", baseline.csr_ms)
                        .set("tail_ms", baseline.tail_ms()),
                )
                .set("tail_serial_baseline_ms", baseline.tail_ms())
                .set("tail_parallel_ms", par_meds.tail_ms())
                .set("tail_parallel_workers", *par_workers)
                .set("tail_speedup", tail_speedup)
                .set("identical_across_workers", true)
                .set("stage5", stage5_json),
        );
    }

    let report = Json::obj()
        .set("seed", seed)
        .set("reps", reps)
        .set("cores", cores)
        .set(
            "worker_counts",
            Json::Arr(
                worker_counts
                    .iter()
                    .map(|&w| Json::Int(w as i128))
                    .collect(),
            ),
        )
        .set("profiles", Json::Arr(profile_reports));
    std::fs::write(&out, report.render()).expect("write report");
    let history: String = arg("history", "BENCH_history.jsonl".to_string());
    let appended = if history.is_empty() {
        String::new()
    } else {
        append_history(&history, &report);
        format!(", appended to {history}")
    };
    println!(
        "\nwrote {out}{appended}{}",
        if warnings > 0 {
            format!(" ({warnings} warn-only regressions vs previous run)")
        } else {
            String::new()
        }
    );
}

/// Appends one `{commit, timestamp_unix, report}` line to the JSONL
/// history file, so the per-commit series survives the snapshot
/// overwrite of `BENCH_kernels.json`.
fn append_history(path: &str, report: &Json) {
    use std::io::Write;
    let mut commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    // A run from an uncommitted tree is attributed to its parent commit;
    // mark it so the series stays honest. The BENCH_* outputs are
    // excluded from the check — this binary (and server_smoke before it
    // in check.sh) just rewrote them, which would otherwise tag every
    // entry dirty.
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain", "-uno", "--", ":(exclude)BENCH_*"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        commit.push_str("-dirty");
    }
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = Json::obj()
        .set("commit", commit)
        .set("timestamp_unix", timestamp)
        .set("report", report.clone())
        .render();
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = result {
        eprintln!("warning: could not append history to {path}: {e}");
    }
}
