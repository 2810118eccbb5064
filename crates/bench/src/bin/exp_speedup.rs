//! Distance-matrix speedup experiment — the acceptance benchmark for
//! the optimized DTW path (wavefront kernels + the wp-runtime pool).
//!
//! Simulates 60 workload runs, builds their MTS fingerprints, and times
//! the Independent-DTW pairwise distance matrix three ways:
//!
//! 1. **naive sequential** — the textbook rolling-row kernels from
//!    [`wp_similarity::dtw::naive`] in a plain double loop (the
//!    pre-optimization implementation, kept as the reference oracle);
//! 2. **optimized sequential** — the production anti-diagonal wavefront
//!    kernels with `WP_THREADS=1`, isolating the kernel speedup;
//! 3. **optimized parallel** — the production path on the full pool
//!    (the calling thread plus the persistent `wp-runtime` helpers),
//!    what the pipeline actually runs.
//!
//! All three matrices must be bit-identical. The headline `speedup` is
//! naive-sequential over optimized-parallel — the user-visible win on
//! the production path — and is what the CI `perf` job gates on.
//!
//! Timings on a shared host are noisy, so after one warm-up pass every
//! sequential-vs-parallel comparison is [`TRIALS`] interleaved trials,
//! alternating which side runs first. A size sweep repeats that at
//! several input sizes; the largest is the headline input. Below
//! [`wp_runtime::SEQUENTIAL_FALLBACK_TASKS`] pairs the pool takes its
//! sequential fallback, so both timed paths execute the exact same loop
//! and the parallel factor is reported as its structural value of 1.0
//! (`"fallback": true`) rather than as timing jitter. Above the
//! threshold each point reports the median of its per-trial seq/par
//! factors as `parallel_factor` and their lower quartile as
//! `parallel_factor_q1`.
//!
//! The run **fails** (non-zero exit) when:
//! * any matrix differs from the naive reference (`bit_identical`), or
//! * at any size, `parallel_factor_q1` is below 1.0 *on a multi-core
//!   machine*: parallelism lost in at least a quarter of the trials, a
//!   pool scheduling regression rather than one noisy sample. On a
//!   single-core machine parallelism cannot win, so the check is
//!   reported but not enforced.

use std::time::Instant;

use wp_bench::{default_sim, standardized_workloads};
use wp_json::{obj, Json};
use wp_linalg::stats::{median, quantile};
use wp_linalg::Matrix;
use wp_similarity::measure::{try_distance_matrix, Measure};
use wp_similarity::repr::{extract, mts};
use wp_telemetry::FeatureSet;
use wp_workloads::engine::paper_terminals;
use wp_workloads::Sku;

const N_RUNS: usize = 60;
const OUT_PATH: &str = "BENCH_runtime.json";

/// Input sizes for the sequential-vs-parallel sweep: 6, 28, 120 and
/// 1770 pairs — two below the pool's sequential-fallback threshold,
/// two above it. The last is the headline input.
const SWEEP_RUNS: [usize; 4] = [4, 8, 16, N_RUNS];

/// Interleaved sequential/parallel trials per sweep point.
const TRIALS: usize = 7;

/// The naive baseline: sequential double loop over the reference
/// rolling-row kernels. No pool, no wavefront, no scratch reuse — the
/// implementation the optimized path is measured against.
fn naive_distance_matrix(fps: &[Matrix]) -> Matrix {
    let n = fps.len();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let v = wp_similarity::dtw::naive::dtw_independent(&fps[i], &fps[j]);
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

/// Wall time of `f` in milliseconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The optimized distance matrix on one thread and on the full pool.
fn sequential(fps: &[Matrix]) -> Matrix {
    wp_runtime::with_thread_count(1, || parallel(fps))
}

fn parallel(fps: &[Matrix]) -> Matrix {
    try_distance_matrix(fps, Measure::DtwIndependent).expect("equal-shape MTS fingerprints")
}

/// One sweep point: [`TRIALS`] interleaved trials, alternating which
/// side runs first so neither always meets a warmer cache.
struct Point {
    seq_ms: Vec<f64>,
    par_ms: Vec<f64>,
    /// The sequential result, for the bit-identity checks.
    matrix: Matrix,
}

fn trials(fps: &[Matrix]) -> Point {
    let mut seq_ms = Vec::with_capacity(TRIALS);
    let mut par_ms = Vec::with_capacity(TRIALS);
    let mut matrix = None;
    for trial in 0..TRIALS {
        let ((seq, s), (par, p)) = if trial % 2 == 0 {
            let seq = timed(|| sequential(fps));
            (seq, timed(|| parallel(fps)))
        } else {
            let par = timed(|| parallel(fps));
            (timed(|| sequential(fps)), par)
        };
        assert_eq!(
            seq,
            par,
            "{}-run parallel distance matrix must be bit-identical to sequential",
            fps.len()
        );
        seq_ms.push(s);
        par_ms.push(p);
        matrix = Some(seq);
    }
    Point {
        seq_ms,
        par_ms,
        matrix: matrix.expect("TRIALS > 0"),
    }
}

fn main() {
    let mut sim = default_sim();
    sim.config.samples = 120;
    let sku = Sku::new("cpu8", 8, 64.0);
    let specs = standardized_workloads();
    let features = FeatureSet::ResourceOnly.features();

    // 60 runs: cycle workloads, their paper terminal counts, and run
    // indices so the fingerprints are heterogeneous.
    let mut data = Vec::with_capacity(N_RUNS);
    let mut i = 0;
    'outer: loop {
        for spec in &specs {
            for &t in &paper_terminals(spec) {
                if data.len() == N_RUNS {
                    break 'outer;
                }
                let run = sim.simulate(spec, &sku, t, i, i % 3);
                data.push(extract(&run, &features));
            }
        }
        i += 1;
    }
    let fps = mts(&data);
    println!(
        "{} MTS fingerprints of {} samples x {} features",
        fps.len(),
        fps[0].rows(),
        fps[0].cols()
    );

    // Warm-up: page in the inputs and kernels, and start the pool's
    // helper threads, before anything is timed.
    assert_eq!(sequential(&fps), parallel(&fps), "warm-up runs disagree");

    let (naive, naive_ms) = timed(|| naive_distance_matrix(&fps));

    let threads = wp_runtime::thread_count();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let enforced = cores > 1 && threads > 1;

    // Size sweep: the pool must help on big inputs and get out of the
    // way on small ones. Under the fallback threshold both timed paths
    // run the identical sequential loop, so the parallel factor there
    // is 1.0 by construction, not a measurement.
    println!(
        "size sweep, {TRIALS} interleaved trials per point \
         (parallel factor = sequential ms / parallel ms, median and lower quartile):"
    );
    let mut sweep = Vec::new();
    let mut regression = false;
    let mut headline = None;
    for n in SWEEP_RUNS {
        let subset = &fps[..n];
        let pairs = n * (n - 1) / 2;
        let fallback = pairs < wp_runtime::SEQUENTIAL_FALLBACK_TASKS;
        let point = trials(subset);
        let factors: Vec<f64> = point
            .seq_ms
            .iter()
            .zip(&point.par_ms)
            .map(|(s, p)| s / p)
            .collect();
        let (factor, factor_q1) = if fallback {
            (1.0, 1.0)
        } else {
            (median(&factors), quantile(&factors, 0.25))
        };
        let (seq_ms, par_ms) = (median(&point.seq_ms), median(&point.par_ms));
        println!(
            "  {n:3} runs ({pairs:5} pairs): seq {seq_ms:8.1} ms  par {par_ms:8.1} ms  \
             factor {factor:5.2}x  q1 {factor_q1:5.2}x{}",
            if fallback {
                "  (sequential fallback)"
            } else {
                ""
            }
        );
        // ≥ 1.0 everywhere parallelism is in play: structural for
        // fallback sizes, enforced on the lower quartile on multi-core
        // machines otherwise. A single core is the one place the factor
        // may dip and that is not a regression.
        if factor_q1 < 1.0 && enforced {
            eprintln!(
                "FAIL: {n} runs ({pairs} pairs): parallel factor lower quartile \
                 {factor_q1:.2} < 1.0 on a {cores}-core machine (trials {factors:.2?})"
            );
            regression = true;
        }
        sweep.push(obj! {
            "runs" => n,
            "pairs" => pairs,
            "trials" => TRIALS,
            "seq_ms" => seq_ms,
            "par_ms" => par_ms,
            "parallel_factor" => factor,
            "parallel_factor_q1" => factor_q1,
            "fallback" => fallback,
        });
        if n == N_RUNS {
            headline = Some((point.matrix, seq_ms, par_ms, factor));
        }
    }
    let (opt_seq, opt_seq_ms, par_ms, parallel_speedup) =
        headline.expect("the sweep ends at the headline input");
    assert_eq!(
        naive, opt_seq,
        "wavefront kernels must be bit-identical to the naive reference"
    );

    let speedup = naive_ms / par_ms;
    let kernel_speedup = naive_ms / opt_seq_ms;
    println!("\nnaive sequential:     {naive_ms:9.1} ms  (rolling-row reference)");
    println!("optimized sequential: {opt_seq_ms:9.1} ms  ({kernel_speedup:.2}x kernel, median)");
    println!("optimized parallel:   {par_ms:9.1} ms  ({threads} threads, {cores} cores, median)");
    println!("speedup:              {speedup:9.2}x  (bit-identical output)");

    let doc = obj! {
        "experiment" => "distance_matrix_dtw_independent",
        "runs" => N_RUNS,
        "samples_per_run" => fps[0].rows(),
        "features" => fps[0].cols(),
        "threads" => threads,
        "cores" => cores,
        "trials" => TRIALS,
        "naive_seq_ms" => naive_ms,
        "seq_ms" => opt_seq_ms,
        "par_ms" => par_ms,
        "speedup" => speedup,
        "kernel_speedup" => kernel_speedup,
        "parallel_speedup" => parallel_speedup,
        "bit_identical" => true,
        "sequential_fallback_tasks" => wp_runtime::SEQUENTIAL_FALLBACK_TASKS,
        "sweep" => Json::Arr(sweep),
    };
    std::fs::write(OUT_PATH, doc.pretty() + "\n").expect("write BENCH_runtime.json");
    println!("wrote {OUT_PATH}");

    if regression {
        std::process::exit(1);
    }
    if !enforced {
        println!("note: parallel factors are not gated with {cores} core(s) / {threads} thread(s)");
    }
}
