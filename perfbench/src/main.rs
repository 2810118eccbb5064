//! `perfbench` — the repository benchmark: `wp serve` as its own
//! process, driven by seeded open-loop and closed-loop workloads, every
//! response checked against an in-process oracle.
//!
//! ```text
//! perfbench --wp <path to wp> --workload miss-compute|hit-serve|ingest-read
//!           --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` for the workloads and metrics.

mod bench;
mod client;
mod load;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;

use wp_json::{obj, Json};

use bench::{Inputs, Name, Outcome, Replay, RoundOut};
use client::Server;
use stats::{median, percentile, relative_iqr, StealMeter};

/// Client connections (and threads) per phase: the host's core count
/// the benchmark was defined on.
pub const CONNS: usize = 2;
/// Share of `--seconds` spent in the open loop; the closed loop takes
/// the rest. Tail latency needs more samples than a completion rate.
const OPEN_SHARE: f64 = 0.7;
/// `wp serve` start-ups timed before the first round; one more is
/// timed after each round, and `setup_s` is the median of all.
const SETUPS: usize = 5;

/// Parsed command line.
struct Args {
    wp: PathBuf,
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        wp: PathBuf::from(get("--wp").ok_or("--wp is required")?),
        workload: Name::parse(workload).ok_or_else(|| {
            format!("unknown workload '{workload}' (miss-compute|hit-serve|ingest-read)")
        })?,
        seed: get("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
    })
}

/// One named metric with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects a run's metrics, counts, and problems, then prints them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Printed for people, not part of the result object.
    notes: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Adds a metric to the result object.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a figure that is printed but not part of the result object.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints the spread of a metric's per-round values.
    pub fn spread(&mut self, name: &str, per_round: &[f64]) {
        let spread = relative_iqr(per_round).unwrap_or(0.0);
        self.note(format!("{name}.round_spread"), spread, "ratio");
    }

    /// Folds one execution's counts and problems in.
    pub fn absorb(&mut self, outcome: &mut Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.problems.append(&mut outcome.problems);
    }

    fn print(&self) {
        for m in self.metrics.iter().chain(&self.notes) {
            println!("metric {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj! { "value" => m.value, "unit" => m.unit },
                    )
                })
                .collect(),
        );
        let result = obj! {
            "correct" => self.failed == 0 && self.problems.is_empty(),
            "attempted" => self.attempted.max(1),
            "failed" => self.failed,
            "metrics" => metrics,
        };
        println!("{}", result.compact());
    }
}

/// Latency percentile of open-loop samples, milliseconds.
pub fn latency_ms(samples: &[load::Sample], p: f64) -> f64 {
    let mut ns: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    ns.sort_unstable();
    percentile(&ns, p) as f64 / 1e6
}

/// Completions per second pooled over closed-loop slices given as
/// `(correct completions, seconds)`.
fn rate(slices: &[(u64, f64)]) -> f64 {
    let ok: u64 = slices.iter().map(|s| s.0).sum();
    let secs: f64 = slices.iter().map(|s| s.1).sum();
    if secs > 0.0 {
        ok as f64 / secs
    } else {
        0.0
    }
}

/// p99 of how late the generator sent, milliseconds.
pub fn late_p99_ms(samples: &[load::Sample]) -> f64 {
    let mut ns: Vec<u64> = samples.iter().map(|s| s.late_ns).collect();
    ns.sort_unstable();
    percentile(&ns, 99.0) as f64 / 1e6
}

fn run_untraced(args: &Args, report: &mut Report) -> Result<String, String> {
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let inputs = Inputs::build(args.workload, args.seed, open_s, closed_s, CONNS)?;
    // Start-ups are timed before the run and once more after each round,
    // so a slow moment of the host moves few of them.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        let s = Server::spawn(&args.wp, false)?;
        setups.push(s.setup_s);
        server = Some(s); // the previous one is stopped here
    }
    let server = server.expect("SETUPS > 0");
    let mut between = || -> Result<(), String> {
        setups.push(Server::spawn(&args.wp, false)?.setup_s);
        Ok(())
    };
    let mut out = bench::execute(&inputs, &server, CONNS, closed_s, &mut between)?;
    let setup_s = median(&setups);
    if matches!(inputs.payload, bench::Payload::Stream { .. }) {
        let drift = server.get("/drift")?;
        Replay::new()?.check(&inputs, &mut out, drift)?;
    }
    // Latencies and rates pool the quieter half of the rounds; the
    // spread of their per-round values is printed beside each.
    let quiet = out.quiet_rounds();
    let rounds = |f: &dyn Fn(&RoundOut) -> f64| quiet.iter().map(|r| f(r)).collect::<Vec<_>>();
    let reads: Vec<load::Sample> = quiet.iter().flat_map(|r| r.reads.clone()).collect();
    let writes: Vec<load::Sample> = quiet.iter().flat_map(|r| r.writes.clone()).collect();
    report.metric("p50_ms", latency_ms(&reads, 50.0), "ms");
    report.spread("p50_ms", &rounds(&|r| latency_ms(&r.reads, 50.0)));
    // The tail is printed, not guarded: on a shared host it follows the
    // hypervisor's steal episodes more than the server.
    report.note("p95_ms", latency_ms(&reads, 95.0), "ms");
    report.note("p99_ms", latency_ms(&reads, 99.0), "ms");
    let closed: Vec<(u64, f64)> = quiet.iter().map(|r| r.closed()).collect();
    report.metric("saturated_rps", rate(&closed), "1/s");
    report.spread("saturated_rps", &rounds(&|r| rate(&[r.closed()])));
    report.metric("setup_s", setup_s, "s");
    report.metric("rss_mb", out.rss_mb, "MiB");
    if let Some(n) = out.indexed_runs {
        report.note("write_p95_ms", latency_ms(&writes, 95.0), "ms");
        report.note("index.corpus_runs", n, "count");
    }
    let steal = quiet.iter().map(|r| r.steal).fold(0.0, f64::max);
    report.note("host.steal_frac.kept_max", steal, "ratio");
    report.note("open_requests", reads.len() as f64, "count");
    report.note("gen.late_ms.p99", late_p99_ms(&out.all_reads()), "ms");
    report.absorb(&mut out);
    report.note(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(server.backend.clone())
}

/// A content hash of the sources the benchmark builds, so results from
/// checkouts without git history still name what they measured.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    // FNV-1a over paths and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let steal = StealMeter::start();
    let backend = if args.trace {
        trace::run(
            &args.wp,
            args.workload,
            args.seed,
            args.seconds,
            &mut report,
        )
    } else {
        run_untraced(&args, &mut report)
    };
    let backend = match backend {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // A loud neighbour on the host shows up here.
    report.note("host.steal_frac", steal.frac(), "ratio");
    let stamp = obj! {
        "workload" => args.workload.label(),
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "nproc" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "WP_THREADS" => std::env::var("WP_THREADS").unwrap_or_else(|_| "unset".to_string()),
        "backend" => backend,
        "git" => git_revision(),
        "source_hash" => source_hash(),
    };
    println!("stamp {}", stamp.compact());
    report.print();
}
