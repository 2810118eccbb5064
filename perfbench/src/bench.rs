//! Workload inputs and their execution against a running `wp serve`.
//!
//! A run alternates [`ROUNDS`] open-loop slices with closed-loop
//! slices; each metric is the median of its per-round values, so a
//! transient stall of the host moves one round, not the result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wp_json::Json;
use wp_server::service::{handle, ServiceState};

use crate::client::{Conn, Server};
use crate::load::{self, Lane, Sample, Tally};
use crate::oracle;
use crate::stats::{arrival_schedule, json_at, quiet_half, ratio, StealMeter};
use crate::workload::{self, Request, RunSource, TENANTS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Unique compute bodies: every `POST` misses the response cache.
    MissCompute,
    /// Sixteen cycled bodies: every `POST` after the first pass hits.
    HitServe,
    /// Zoo ingest batches beside indexed, tenant, and exact reads.
    IngestRead,
}

impl Name {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "miss-compute" => Some(Name::MissCompute),
            "hit-serve" => Some(Name::HitServe),
            "ingest-read" => Some(Name::IngestRead),
            _ => None,
        }
    }

    /// The `--workload` value.
    pub fn label(self) -> &'static str {
        match self {
            Name::MissCompute => "miss-compute",
            Name::HitServe => "hit-serve",
            Name::IngestRead => "ingest-read",
        }
    }

    /// Fixed open-loop rates per second: `(requests or reads, ingest
    /// batches)`. Constants set once when the benchmark was defined, not
    /// recomputed per commit; see `README.md` for how they were chosen.
    fn open_rates(self) -> (f64, f64) {
        match self {
            Name::MissCompute => (MISS_RATE_HZ, 0.0),
            Name::HitServe => (HIT_RATE_HZ, 0.0),
            Name::IngestRead => (READ_RATE_HZ, WRITE_RATE_HZ),
        }
    }
}

const MISS_RATE_HZ: f64 = 350.0;
const HIT_RATE_HZ: f64 = 6_000.0;
const READ_RATE_HZ: f64 = 55.0;
const WRITE_RATE_HZ: f64 = 8.0;
/// Closed-loop completion rates the input pools are sized for, with
/// head-room. A closed-loop worker whose round budget runs out stops
/// early, and its rate is taken over the time it ran.
const MISS_CLOSED_HZ: f64 = 2600.0;
const HIT_CLOSED_HZ: f64 = 50_000.0;
const READ_CLOSED_HZ: f64 = 400.0;
const WRITE_CLOSED_HZ: f64 = 2.0 * WRITE_RATE_HZ;
/// Open-loop plus closed-loop slices per run.
pub const ROUNDS: usize = 10;
/// Requests sent before timing, outside the measured phases.
const WARMUP: usize = 200;
/// Requests replayed one at a time for the per-layer trace.
const TRACE_SAMPLE: usize = 120;
/// Ingest batches in the `ingest-read` trace sample; reads follow each
/// batch in the open loop's read-to-write ratio.
const TRACE_SAMPLE_BATCHES: usize = 40;

/// A request with its wire bytes and, when known up front, the exact
/// body the oracle expects.
pub struct Prepared {
    /// The request.
    pub request: Request,
    /// Its wire bytes.
    pub wire: Vec<u8>,
    /// The `200` body the oracle computed for it.
    pub expected: Option<String>,
}

impl Prepared {
    fn new(request: Request, expected: Option<String>) -> Self {
        Self {
            wire: request.wire(),
            request,
            expected,
        }
    }
}

/// One round's open-loop arrival offsets, nanoseconds from its start.
pub struct RoundPlan {
    /// The request (or read) lane.
    pub reads: Vec<u64>,
    /// The ingest lane (`ingest-read` only).
    pub writes: Vec<u64>,
}

/// One step of the `ingest-read` trace sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The next ingest batch.
    Batch,
    /// The next read.
    Read,
}

/// What a run sends, by workload shape.
pub enum Payload {
    /// `miss-compute` and `hit-serve`: a table of requests with exact
    /// expected bodies, and the order in which each phase sends them.
    Exact {
        /// Distinct requests.
        table: Vec<Prepared>,
        /// Warm-up order (indices into `table`).
        warm: Vec<usize>,
        /// Open-loop order, all rounds back to back.
        open: Vec<usize>,
        /// Closed-loop order, one equal budget per round.
        closed: Vec<usize>,
        /// Requests replayed serially for the per-layer trace.
        sample: Vec<usize>,
    },
    /// `ingest-read`: one fixed batch stream plus unique reads, each
    /// consumed in order across all phases.
    Stream {
        /// Ingest batches in send order; the first `prefill` fill every
        /// tenant window before timing.
        batches: Vec<Prepared>,
        /// Batches sent before timing.
        prefill: usize,
        /// Unique reads.
        reads: Vec<Prepared>,
        /// Closed-loop budget per round: `(batches, reads)`.
        closed_budget: (usize, usize),
        /// Order of the trace sample's serial steps.
        sample: Vec<Step>,
    },
}

/// Everything a run sends, built from the seed before timing starts.
pub struct Inputs {
    /// Which workload.
    pub name: Name,
    /// Open-loop schedules, one per round.
    pub rounds: Vec<RoundPlan>,
    /// Requests and their checks.
    pub payload: Payload,
}

impl Inputs {
    /// Builds a workload's inputs for `open_s` seconds of open loop and
    /// `closed_s` seconds of closed loop in total, including the oracle's
    /// expected bodies (computed on `threads` threads).
    pub fn build(
        name: Name,
        seed: u64,
        open_s: f64,
        closed_s: f64,
        threads: usize,
    ) -> Result<Inputs, String> {
        let (rate, write_rate) = name.open_rates();
        let round_s = open_s / ROUNDS as f64;
        let rounds: Vec<RoundPlan> = (0..ROUNDS as u64)
            .map(|r| RoundPlan {
                reads: arrival_schedule(seed.wrapping_add(2 * r), rate, round_s),
                writes: if write_rate > 0.0 {
                    arrival_schedule(seed.wrapping_add(2 * r + 1), write_rate, round_s)
                } else {
                    Vec::new()
                },
            })
            .collect();
        let open_reads: usize = rounds.iter().map(|r| r.reads.len()).sum();
        let open_writes: usize = rounds.iter().map(|r| r.writes.len()).sum();
        let budget = |hz: f64| (hz * closed_s / ROUNDS as f64).ceil() as usize;
        let payload = match name {
            Name::MissCompute => {
                let closed = budget(MISS_CLOSED_HZ) * ROUNDS;
                let n = WARMUP + open_reads + closed + TRACE_SAMPLE;
                let requests = workload::generate(seed, n, threads, workload::miss_request)?;
                let table = checked(requests, threads)?;
                let mut order = 0..n;
                let mut take = |k: usize| order.by_ref().take(k).collect::<Vec<_>>();
                Payload::Exact {
                    warm: take(WARMUP),
                    open: take(open_reads),
                    closed: take(closed),
                    sample: take(TRACE_SAMPLE),
                    table,
                }
            }
            Name::HitServe => {
                let mut source = RunSource::new(seed);
                let table = checked(workload::hit_table(&mut source), threads)?;
                // The first pass sends every distinct request once, so
                // every later `POST` can hit.
                let mut warm: Vec<usize> = (0..table.len()).collect();
                warm.extend(workload::hit_sequence(&mut source, WARMUP));
                let open = workload::hit_sequence(&mut source, open_reads);
                let closed = workload::hit_sequence(&mut source, budget(HIT_CLOSED_HZ) * ROUNDS);
                let sample = workload::hit_sequence(&mut source, TRACE_SAMPLE);
                Payload::Exact {
                    table,
                    warm,
                    open,
                    closed,
                    sample,
                }
            }
            Name::IngestRead => {
                let closed_budget = (budget(WRITE_CLOSED_HZ), budget(READ_CLOSED_HZ));
                let reads_per_batch = ((rate / write_rate).round() as usize).max(1);
                let mut sample = Vec::new();
                for _ in 0..TRACE_SAMPLE_BATCHES {
                    sample.push(Step::Batch);
                    sample.extend(std::iter::repeat_n(Step::Read, reads_per_batch));
                }
                let prefill = TENANTS * workload::PREFILL_BATCHES_PER_TENANT;
                let n_batches =
                    prefill + open_writes + closed_budget.0 * ROUNDS + TRACE_SAMPLE_BATCHES;
                let n_reads =
                    open_reads + closed_budget.1 * ROUNDS + TRACE_SAMPLE_BATCHES * reads_per_batch;
                let batches = workload::ingest_batches(seed, n_batches.div_ceil(TENANTS), threads);
                let reads = workload::generate(seed, n_reads, threads, RunSource::read)?;
                Payload::Stream {
                    batches: batches
                        .into_iter()
                        .map(|r| Prepared::new(r, None))
                        .collect(),
                    prefill,
                    reads: reads.into_iter().map(|r| Prepared::new(r, None)).collect(),
                    closed_budget,
                    sample,
                }
            }
        };
        Ok(Inputs {
            name,
            rounds,
            payload,
        })
    }
}

fn checked(requests: Vec<Request>, threads: usize) -> Result<Vec<Prepared>, String> {
    let expected = oracle::expected_bodies(&requests, threads)?;
    Ok(requests
        .into_iter()
        .zip(expected)
        .map(|(request, expected)| Prepared::new(request, Some(expected)))
        .collect())
}

/// One round's measurements.
#[derive(Default)]
pub struct RoundOut {
    /// Open-loop samples of the request (or read) lane.
    pub reads: Vec<Sample>,
    /// Open-loop samples of the ingest lane (`ingest-read` only).
    pub writes: Vec<Sample>,
    /// Closed-loop completions of the request (or read) connections.
    pub closed_reads: Vec<Tally>,
    /// Share of the host's CPU time stolen by other guests during the
    /// round.
    pub steal: f64,
}

impl RoundOut {
    /// Correct closed-loop completions on the request (or read) side and
    /// the slice's length in seconds (its longest-running worker).
    pub fn closed(&self) -> (u64, f64) {
        let ok = self.closed_reads.iter().map(|t| t.ok).sum();
        let secs = self
            .closed_reads
            .iter()
            .map(|t| t.active_s)
            .fold(0.0, f64::max);
        (ok, secs)
    }
}

/// What one execution against a server measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Per-round measurements.
    pub rounds: Vec<RoundOut>,
    /// Requests sent (or checks made), all phases.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// Guard violations, invalid phases, and the first failure; any
    /// makes the run incorrect.
    pub problems: Vec<String>,
    /// `/stats` after the warm-up (or prefill).
    pub stats_before: Option<Json>,
    /// `/stats` after the last phase.
    pub stats: Option<Json>,
    /// `/metrics` after the warm-up (or prefill), with `--obs`.
    pub metrics_before: Option<String>,
    /// `/metrics` after the last phase, with `--obs`.
    pub metrics: Option<String>,
    /// Peak RSS of the server, MiB.
    pub rss_mb: f64,
    /// `ingest-read`: each sent batch's response, by batch position.
    pub ingest_log: Vec<Option<(u16, String)>>,
    /// `ingest-read`: `(read position, status, body)` of each answered
    /// read.
    pub read_log: Vec<(usize, u16, String)>,
    /// Batches consumed (`ingest-read`).
    pub batches_sent: usize,
    /// Reads consumed (`ingest-read`).
    pub reads_sent: usize,
    /// Runs in the live index after the last checked batch.
    pub indexed_runs: Option<f64>,
}

impl Outcome {
    /// All open-loop samples of the request (or read) lane.
    pub fn all_reads(&self) -> Vec<Sample> {
        self.rounds.iter().flat_map(|r| r.reads.clone()).collect()
    }

    /// The rounds the metrics are taken from: the half during which the
    /// hypervisor stole the least CPU time from this machine. On a
    /// shared host, steal comes in episodes of several milliseconds
    /// that dominate every tail latency they overlap.
    pub fn quiet_rounds(&self) -> Vec<&RoundOut> {
        let steal: Vec<f64> = self.rounds.iter().map(|r| r.steal).collect();
        quiet_half(&steal)
            .into_iter()
            .map(|i| &self.rounds[i])
            .collect()
    }

    /// Counts a failure found after sending.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if !self.problems.iter().any(|p| p.starts_with("first failure")) {
            self.problems.push(format!("first failure: {what}"));
        }
    }
}

/// Failure accounting shared by the client threads.
#[derive(Default)]
struct Ledger {
    attempted: AtomicUsize,
    failed: AtomicUsize,
    first_failure: Mutex<Option<String>>,
}

impl Ledger {
    /// Counts one sent request; a wrong one also fails.
    fn record(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut first = self.first_failure.lock().expect("ledger lock");
            if first.is_none() {
                *first = Some(what());
            }
        }
        ok
    }

    fn close_into(self, out: &mut Outcome) {
        out.attempted += self.attempted.into_inner() as u64;
        out.failed += self.failed.into_inner() as u64;
        if let Some(first) = self.first_failure.into_inner().expect("ledger lock") {
            out.problems.push(format!("first failure: {first}"));
        }
    }
}

/// Sends one request and returns whether it was correct (`200` and,
/// when the oracle knows the answer, exactly its bytes) with the
/// response, if one arrived.
fn send(conn: &mut Conn, p: &Prepared, ledger: &Ledger) -> (bool, Option<(u16, String)>) {
    let result = conn.send(&p.wire);
    let ok = match (&result, &p.expected) {
        (Ok((200, body)), Some(expected)) => body == expected,
        (Ok((200, _)), None) => true,
        _ => false,
    };
    let path = p.request.kind.path();
    ledger.record(ok, || match &result {
        Ok((status, body)) => format!("{path}: status {status}, body {body:.200}"),
        Err(e) => format!("{path}: {e}"),
    });
    (ok, result.ok())
}

/// Reads `/stats` as JSON.
pub fn fetch_stats(server: &Server) -> Result<Json, String> {
    match server.get("/stats")? {
        (200, body) => Json::parse(&body).map_err(|e| format!("/stats: {e}")),
        (status, _) => Err(format!("/stats answered {status}")),
    }
}

/// Reads the Prometheus text of `/metrics` when the server has `--obs`.
fn fetch_metrics(server: &Server) -> Result<Option<String>, String> {
    if !server.obs {
        return Ok(None);
    }
    match server.get("/metrics")? {
        (200, body) => Ok(Some(body)),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

/// The counters of both scrapes taken around the measured phases.
fn scrape_before(server: &Server, out: &mut Outcome) -> Result<(), String> {
    out.stats_before = Some(fetch_stats(server)?);
    out.metrics_before = fetch_metrics(server)?;
    Ok(())
}

/// Drives the inputs at `server`: warm-up (or prefill), then
/// [`ROUNDS`] rounds of an open-loop slice followed by a closed loop of
/// `conns` connections (`closed_s` seconds in total; skipped when 0),
/// calling `between` after each round. Checks every response it can
/// check while sending; `ingest-read` batches and reads are checked
/// afterwards by [`Replay::check`].
pub fn execute(
    inputs: &Inputs,
    server: &Server,
    conns: usize,
    closed_s: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Outcome, String> {
    let ledger = Ledger::default();
    let mut out = Outcome::default();
    let closed_round_s = closed_s / ROUNDS as f64;
    match &inputs.payload {
        Payload::Exact {
            table,
            warm,
            open,
            closed,
            ..
        } => {
            let mut conn = Conn::new(&server.addr);
            for &i in warm {
                send(&mut conn, &table[i], &ledger);
            }
            drop(conn);
            scrape_before(server, &mut out)?;
            let mut open_at = 0;
            let budget = closed.len() / ROUNDS;
            for (r, plan) in inputs.rounds.iter().enumerate() {
                let steal = StealMeter::start();
                let base = open_at;
                let fire =
                    |i: usize, conn: &mut Conn| send(conn, &table[open[base + i]], &ledger).0;
                let lanes = [Lane {
                    schedule: plan.reads.clone(),
                    conns,
                    fire: &fire,
                }];
                let mut round = RoundOut {
                    reads: load::open_loop(&server.addr, &lanes).remove(0),
                    ..RoundOut::default()
                };
                open_at += plan.reads.len();
                if closed_round_s > 0.0 {
                    let pool = &closed[r * budget..(r + 1) * budget];
                    let cursor = AtomicUsize::new(0);
                    let next = |_w: usize, conn: &mut Conn| {
                        let i = *pool.get(cursor.fetch_add(1, Ordering::Relaxed))?;
                        Some(send(conn, &table[i], &ledger).0)
                    };
                    round.closed_reads =
                        load::closed_loop(&server.addr, conns, closed_round_s, &next);
                }
                round.steal = steal.frac();
                out.rounds.push(round);
                between()?;
            }
        }
        Payload::Stream {
            batches,
            prefill,
            reads,
            closed_budget,
            ..
        } => {
            let log: Mutex<Vec<Option<(u16, String)>>> = Mutex::new(vec![None; batches.len()]);
            let read_log = Mutex::new(Vec::new());
            let next_batch = AtomicUsize::new(0);
            let next_read = AtomicUsize::new(0);
            let send_batch = |conn: &mut Conn| -> Option<bool> {
                let b = next_batch.fetch_add(1, Ordering::Relaxed);
                let (ok, response) = send(conn, batches.get(b)?, &ledger);
                log.lock().expect("ingest log")[b] = response;
                Some(ok)
            };
            let send_read = |conn: &mut Conn| -> Option<bool> {
                let r = next_read.fetch_add(1, Ordering::Relaxed);
                let (ok, response) = send(conn, reads.get(r)?, &ledger);
                if let Some((status, body)) = response {
                    read_log.lock().expect("read log").push((r, status, body));
                }
                Some(ok)
            };
            let mut conn = Conn::new(&server.addr);
            for _ in 0..*prefill {
                send_batch(&mut conn);
            }
            drop(conn);
            scrape_before(server, &mut out)?;
            let exhausted = || ledger.record(false, || "inputs exhausted".to_string());
            for plan in &inputs.rounds {
                let steal = StealMeter::start();
                let write_fire =
                    |_i: usize, conn: &mut Conn| send_batch(conn).unwrap_or_else(exhausted);
                let read_fire =
                    |_i: usize, conn: &mut Conn| send_read(conn).unwrap_or_else(exhausted);
                let lanes = [
                    Lane {
                        schedule: plan.reads.clone(),
                        conns: 1,
                        fire: &read_fire,
                    },
                    Lane {
                        schedule: plan.writes.clone(),
                        conns: 1,
                        fire: &write_fire,
                    },
                ];
                let mut lanes_out = load::open_loop(&server.addr, &lanes);
                let mut round = RoundOut {
                    writes: lanes_out.remove(1),
                    reads: lanes_out.remove(0),
                    ..RoundOut::default()
                };
                if closed_round_s > 0.0 {
                    // One connection reads back to back while the other
                    // keeps ingesting at the open loop's batch rate: a
                    // saturating writer would turn the read rate into a
                    // race for the engine lock.
                    let start = Instant::now();
                    let end = start + Duration::from_secs_f64(closed_round_s);
                    let gap = Duration::from_secs_f64(1.0 / inputs.name.open_rates().1);
                    let paced = AtomicUsize::new(0);
                    let batch_end = next_batch.load(Ordering::Relaxed) + closed_budget.0;
                    let read_end = next_read.load(Ordering::Relaxed) + closed_budget.1;
                    let next = |w: usize, conn: &mut Conn| {
                        if w == 0 {
                            let k = paced.fetch_add(1, Ordering::Relaxed) as u32;
                            let due = start + gap * k;
                            if due >= end || next_batch.load(Ordering::Relaxed) >= batch_end {
                                return None;
                            }
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                            send_batch(conn)
                        } else {
                            if next_read.load(Ordering::Relaxed) >= read_end {
                                return None;
                            }
                            send_read(conn)
                        }
                    };
                    let tallies = load::closed_loop(&server.addr, 2, closed_round_s, &next);
                    round.closed_reads = vec![tallies[1]];
                }
                round.steal = steal.frac();
                out.rounds.push(round);
                between()?;
            }
            out.batches_sent = next_batch.into_inner().min(batches.len());
            out.reads_sent = next_read.into_inner().min(reads.len());
            out.ingest_log = log.into_inner().expect("ingest log");
            out.read_log = read_log.into_inner().expect("read log");
        }
    }
    out.stats = Some(fetch_stats(server)?);
    out.metrics = fetch_metrics(server)?;
    out.rss_mb = server.peak_rss_mb()?;
    let hits = json_at(out.stats.as_ref(), &["cache", "hits"]);
    let misses = json_at(out.stats.as_ref(), &["cache", "misses"]);
    let ratio = ratio(hits, hits + misses);
    match inputs.name {
        Name::MissCompute if ratio >= 0.01 => out.problems.push(format!(
            "guard: response-cache hit ratio {ratio:.4} on miss-compute (must stay below 0.01)"
        )),
        Name::HitServe if ratio < 0.99 => out.problems.push(format!(
            "guard: response-cache hit ratio {ratio:.4} on hit-serve (must be at least 0.99)"
        )),
        _ => {}
    }
    // A transient stall of the host can grow one round's backlog; an
    // offered rate above capacity grows it in every round.
    let grew = (out.rounds.iter())
        .filter(|r| load::backlog_grew(&r.reads, conns) || load::backlog_grew(&r.writes, 1))
        .count();
    if grew * 2 > out.rounds.len() {
        out.problems.push(format!(
            "invalid: the open-loop backlog grew through {grew} of {} rounds",
            out.rounds.len()
        ));
    }
    ledger.close_into(&mut out);
    Ok(out)
}

/// A sequential in-process replay of an `ingest-read` batch stream: the
/// oracle for `/ingest` responses and the `/drift` document.
pub struct Replay {
    state: ServiceState,
    expected: Vec<(u16, String)>,
}

impl Replay {
    /// A replay on a fresh service state.
    pub fn new() -> Result<Self, String> {
        Ok(Self {
            state: oracle::fresh_state(Some(1))?,
            expected: Vec::new(),
        })
    }

    /// Checks an `ingest-read` outcome: every sent batch's response and
    /// the server's final `/drift` document (`drift`) must equal the
    /// replay's bytes, every measured batch must evict runs, and every
    /// answered read must pass the structural check. Outcomes must be
    /// checked in order of growing `batches_sent`.
    pub fn check(
        &mut self,
        inputs: &Inputs,
        out: &mut Outcome,
        drift: (u16, String),
    ) -> Result<(), String> {
        let Payload::Stream {
            batches, prefill, ..
        } = &inputs.payload
        else {
            return Ok(());
        };
        let n = out.batches_sent;
        if n < self.expected.len() {
            return Err("replay: outcomes must be checked in order of batches sent".to_string());
        }
        while self.expected.len() < n {
            let b = self.expected.len();
            self.expected
                .push(handle(&self.state, &batches[b].request.to_http()));
        }
        for b in 0..n {
            match &out.ingest_log[b] {
                Some(served) if *served == self.expected[b] => {}
                // A failed send was counted when it happened.
                Some((200, _)) => out.fail(format!("/ingest batch {b} differs from the replay")),
                _ => {}
            }
            if b >= *prefill {
                let doc = Json::parse(&self.expected[b].1)
                    .map_err(|e| format!("replayed ingest response: {e}"))?;
                let evicted = doc
                    .get("evicted_runs")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                if evicted <= 0.0 {
                    out.problems
                        .push(format!("guard: measured batch {b} evicted no runs"));
                }
                out.indexed_runs = doc.get("indexed_runs").and_then(Json::as_f64);
            }
        }
        let expected_drift = handle(
            &self.state,
            &wp_server::http::Request {
                method: "GET".to_string(),
                path: "/drift".to_string(),
                body: String::new(),
                keep_alive: false,
            },
        );
        out.attempted += 1;
        if drift != expected_drift {
            out.fail("/drift differs from the replay".to_string());
        }
        let known = oracle::known_references(&self.state);
        let reads = std::mem::take(&mut out.read_log);
        for (r, status, body) in &reads {
            // Non-200 reads were counted when they arrived.
            if *status == 200 && !oracle::read_is_valid(*status, body, &known) {
                out.fail(format!("read {r} failed the structural check"));
            }
        }
        out.read_log = reads;
        Ok(())
    }
}
