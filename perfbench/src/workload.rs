//! The three seeded workloads: their request kinds, bodies, and mixes.
//!
//! Every body is built from `--seed` before any timing starts; the
//! server only ever sees the generated requests.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use wp_json::obj;
use wp_linalg::Rng64;
use wp_loadgen::{stream_bodies, StreamerConfig};
use wp_telemetry::io::run_to_json;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku, WorkloadSpec};

/// Resource samples per simulated run: the length `wp serve` builds its
/// default corpus with, so posted runs have the corpus' shape.
const SAMPLES: usize = 120;
/// Target runs per `POST` body.
const RUNS_PER_BODY: usize = 2;
/// Runs per `/ingest` batch.
const RUNS_PER_BATCH: usize = 2;
/// Distinct `POST` bodies `hit-serve` cycles through.
const HIT_BODIES: usize = 16;
/// Streaming tenants on `ingest-read` (the engine's default cap).
pub const TENANTS: usize = 32;
/// Batches per tenant that fill its sliding window before timing starts
/// (window 6 runs, 2 runs per batch), so every measured batch evicts.
pub const PREFILL_BATCHES_PER_TENANT: usize = 3;
/// `k` of the indexed `/similar` reads.
const INDEXED_K: usize = 5;
/// First simulator run index of posted target runs; keeps them apart
/// from the run indices the default corpus was simulated with.
const FIRST_TARGET_RUN: usize = 1000;
/// Run indices reserved per [`RunSource`] stream.
const RUNS_PER_STREAM: usize = 100_000_000;

/// One kind of request a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /similar`, exact mode.
    Similar,
    /// `POST /predict`.
    Predict,
    /// `POST /recommend` with inline runs.
    Recommend,
    /// `POST /fingerprint` (Hist-FP or Phase-FP).
    Fingerprint,
    /// `POST /similar`, indexed mode over the live corpus.
    SimilarIndexed,
    /// `POST /recommend` on a streamed tenant's window.
    RecommendTenant,
    /// `POST /ingest`.
    Ingest,
    /// `GET /healthz`.
    Healthz,
    /// `GET /corpus`.
    Corpus,
}

impl Kind {
    /// Name used in per-layer metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Similar => "similar",
            Kind::Predict => "predict",
            Kind::Recommend => "recommend",
            Kind::Fingerprint => "fingerprint",
            Kind::SimilarIndexed => "similar_indexed",
            Kind::RecommendTenant => "recommend_tenant",
            Kind::Ingest => "ingest",
            Kind::Healthz => "healthz",
            Kind::Corpus => "corpus",
        }
    }

    /// HTTP method.
    pub fn method(self) -> &'static str {
        match self {
            Kind::Healthz | Kind::Corpus => "GET",
            _ => "POST",
        }
    }

    /// HTTP path.
    pub fn path(self) -> &'static str {
        match self {
            Kind::Similar | Kind::SimilarIndexed => "/similar",
            Kind::Predict => "/predict",
            Kind::Recommend | Kind::RecommendTenant => "/recommend",
            Kind::Fingerprint => "/fingerprint",
            Kind::Ingest => "/ingest",
            Kind::Healthz => "/healthz",
            Kind::Corpus => "/corpus",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// What it exercises.
    pub kind: Kind,
    /// JSON body (empty for `GET`).
    pub body: String,
}

impl Request {
    fn get(kind: Kind) -> Self {
        Self {
            kind,
            body: String::new(),
        }
    }

    /// The request as `wp-server`'s parser produces it.
    pub fn to_http(&self) -> wp_server::http::Request {
        wp_server::http::Request {
            method: self.kind.method().to_string(),
            path: self.kind.path().to_string(),
            body: self.body.clone(),
            keep_alive: true,
        }
    }

    /// The bytes a keep-alive client puts on the wire.
    pub fn wire(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.kind.method(),
            self.kind.path(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Seeded source of unique target runs simulated from the standardized
/// workloads (TPC-C, TPC-H, Twitter, YCSB, TPC-DS) in turn: every run
/// gets a fresh simulator run index, so no target run repeats.
pub struct RunSource {
    sim: Simulator,
    specs: Vec<WorkloadSpec>,
    sku: Sku,
    rng: Rng64,
    next_run: usize,
    seen: HashSet<u64>,
    repeats: usize,
    fingerprints: usize,
}

impl RunSource {
    /// A source for one benchmark seed.
    pub fn new(seed: u64) -> Self {
        Self::stream(seed, 0)
    }

    /// Independent source number `stream` of a seed: its own mix draws
    /// and its own range of simulator run indices, so runs never repeat
    /// across streams.
    fn stream(seed: u64, stream: usize) -> Self {
        let mut sim = Simulator::new(seed);
        sim.config.samples = SAMPLES;
        Self {
            sim,
            specs: benchmarks::standardized(),
            sku: Sku::new("cpu2", 2, 64.0),
            rng: Rng64::new(
                seed ^ 0x7A26_E7C0_0000_0001 ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            next_run: FIRST_TARGET_RUN + stream * RUNS_PER_STREAM,
            seen: HashSet::new(),
            repeats: 0,
            fingerprints: 0,
        }
    }

    /// The next `RUNS_PER_BODY` runs as compact interchange JSON, plus
    /// their mean throughput.
    fn body_runs(&mut self) -> (Vec<String>, f64) {
        let mut throughput = 0.0;
        let runs = (0..RUNS_PER_BODY)
            .map(|_| {
                // Cycle through the workloads, so every seed posts them in
                // the same shares.
                let spec = &self.specs[self.next_run % self.specs.len()];
                let terminals = if matches!(spec.name.as_str(), "TPC-H" | "TPC-DS") {
                    1
                } else {
                    8
                };
                let run =
                    self.sim
                        .simulate(spec, &self.sku, terminals, self.next_run, self.next_run % 3);
                self.next_run += 1;
                throughput += run.throughput;
                let json = run_to_json(&run).compact();
                let mut hasher = DefaultHasher::new();
                json.hash(&mut hasher);
                if !self.seen.insert(hasher.finish()) {
                    self.repeats += 1;
                }
                json
            })
            .collect();
        (runs, throughput / RUNS_PER_BODY as f64)
    }

    /// A throughput SLO around the observed level, so recommendations
    /// land on different rungs of the SKU ladder.
    fn slo(&mut self, observed: f64) -> f64 {
        (observed * self.rng.range(0.8, 4.0)).round().max(1.0)
    }

    /// One compute request of `kind` over fresh target runs.
    fn request(&mut self, kind: Kind) -> Request {
        let (runs, observed) = self.body_runs();
        let rest = match kind {
            Kind::Similar => obj! {},
            Kind::Predict => obj! { "from_cpus" => 2.0, "to_cpus" => 8.0 },
            Kind::Recommend => obj! { "slo" => self.slo(observed) },
            Kind::Fingerprint => {
                // Alternate, so every source sends both in equal shares.
                self.fingerprints += 1;
                let repr = if self.fingerprints % 2 == 1 {
                    "hist"
                } else {
                    "phase"
                };
                obj! { "representation" => repr }
            }
            Kind::SimilarIndexed => obj! { "mode" => "indexed", "k" => INDEXED_K },
            other => panic!("{other:?} carries no target runs"),
        };
        // Splice the already serialized runs in front of the other
        // members instead of serializing them a second time.
        let rest = rest.compact();
        let sep = if rest == "{}" { "" } else { "," };
        Request {
            kind,
            body: format!("{{\"runs\":[{}]{sep}{}", runs.join(","), &rest[1..]),
        }
    }

    /// A `/recommend` read over one streamed tenant's window.
    fn tenant_recommend(&mut self) -> Request {
        let tenant = self.rng.below(TENANTS);
        let slo = self.rng.range(500.0, 4000.0).round();
        Request {
            kind: Kind::RecommendTenant,
            body: obj! { "slo" => slo, "tenant" => format!("tenant-{tenant}") }.compact(),
        }
    }

    /// Draws the `miss-compute` mix: `/similar` 40%, `/predict` 30%,
    /// `/recommend` 20%, `/fingerprint` 10%.
    fn compute_kind(&mut self) -> Kind {
        match self.rng.below(10) {
            0..=3 => Kind::Similar,
            4..=6 => Kind::Predict,
            7 | 8 => Kind::Recommend,
            _ => Kind::Fingerprint,
        }
    }

    /// Draws an `ingest-read` read: indexed `/similar`, tenant
    /// `/recommend`, and exact `/similar`, a third each.
    pub fn read(&mut self) -> Request {
        match self.rng.below(3) {
            0 => self.request(Kind::SimilarIndexed),
            1 => self.tenant_recommend(),
            _ => self.request(Kind::Similar),
        }
    }

    /// Uniform draw below `n` from the source's mix stream.
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }
}

/// One `miss-compute` draw.
pub fn miss_request(source: &mut RunSource) -> Request {
    let kind = source.compute_kind();
    source.request(kind)
}

/// `n` draws of `draw` over `threads` independent [`RunSource`] streams
/// of `seed`, one contiguous chunk per stream, generated in parallel.
/// The same `(seed, n, threads)` always yields the same requests. Fails
/// when any target run repeats.
pub fn generate(
    seed: u64,
    n: usize,
    threads: usize,
    draw: impl Fn(&mut RunSource) -> Request + Sync,
) -> Result<Vec<Request>, String> {
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let parts: Vec<(Vec<Request>, RunSource)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let draw = &draw;
                scope.spawn(move || {
                    let mut source = RunSource::stream(seed, t + 1);
                    let count = chunk.min(n.saturating_sub(t * chunk));
                    let reqs: Vec<Request> = (0..count).map(|_| draw(&mut source)).collect();
                    (reqs, source)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request generator panicked"))
            .collect()
    });
    let mut seen = HashSet::new();
    let mut repeats = 0;
    let mut out = Vec::with_capacity(n);
    for (reqs, source) in parts {
        repeats += source.repeats + source.seen.iter().filter(|h| !seen.insert(**h)).count();
        out.extend(reqs);
    }
    if repeats > 0 {
        return Err(format!(
            "guard: {repeats} target runs repeat within the run"
        ));
    }
    Ok(out)
}

/// Endpoint composition of the [`HIT_BODIES`] `hit-serve` bodies: the
/// `miss-compute` mix in whole requests, fixed so that every seed
/// serves the same response shapes.
const HIT_KINDS: [(Kind, usize); 4] = [
    (Kind::Similar, 6),
    (Kind::Predict, 5),
    (Kind::Recommend, 3),
    (Kind::Fingerprint, 2),
];

/// The `hit-serve` table: [`HIT_BODIES`] distinct compute requests in
/// the fixed [`HIT_KINDS`] composition, then `GET /healthz` and
/// `GET /corpus`.
pub fn hit_table(source: &mut RunSource) -> Vec<Request> {
    let mut table: Vec<Request> = HIT_KINDS
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .map(|kind| source.request(kind))
        .collect();
    table.push(Request::get(Kind::Healthz));
    table.push(Request::get(Kind::Corpus));
    table
}

/// `n` draws into the [`hit_table`]: nine in ten are a cached `POST`,
/// the rest split between the two `GET`s.
pub fn hit_sequence(source: &mut RunSource, n: usize) -> Vec<usize> {
    (0..n)
        .map(|_| match source.below(20) {
            0 => HIT_BODIES,
            1 => HIT_BODIES + 1,
            _ => source.below(HIT_BODIES),
        })
        .collect()
}

/// `per_tenant` zoo ingest batches for each of [`TENANTS`] tenants, in
/// the fixed batch-major order the sender streams them (every tenant
/// advances one batch per round). Tenants are simulated on `threads`
/// threads; each tenant's stream depends only on the seed.
pub fn ingest_batches(seed: u64, per_tenant: usize, threads: usize) -> Vec<Request> {
    let config = StreamerConfig {
        tenants: TENANTS,
        batches: per_tenant as u64,
        runs_per_batch: RUNS_PER_BATCH,
        samples: SAMPLES,
        seed,
        zoo: true,
        ..StreamerConfig::default()
    };
    let threads = threads.clamp(1, TENANTS);
    let per: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|first| {
                let config = &config;
                scope.spawn(move || {
                    (first..TENANTS)
                        .step_by(threads)
                        .map(|t| (t, stream_bodies(config, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut per: Vec<(usize, Vec<String>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch generator panicked"))
            .collect();
        per.sort_by_key(|(t, _)| *t);
        per.into_iter().map(|(_, bodies)| bodies).collect()
    });
    (0..per_tenant)
        .flat_map(|b| per.iter().map(move |bodies| bodies[b].clone()))
        .map(|body| Request {
            kind: Kind::Ingest,
            body,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_json::Json;

    fn miss_requests(source: &mut RunSource, n: usize) -> Vec<Request> {
        (0..n).map(|_| miss_request(source)).collect()
    }

    /// True when no target run appears in two bodies (or twice in one).
    fn runs_are_unique<'a>(bodies: impl IntoIterator<Item = &'a str>) -> bool {
        let mut seen = HashSet::new();
        for body in bodies {
            let Ok(doc) = Json::parse(body) else {
                return false;
            };
            let Some(runs) = doc.get("runs").and_then(Json::as_arr) else {
                continue;
            };
            for run in runs {
                if !seen.insert(run.compact()) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn bodies_are_deterministic_per_seed() {
        let a = miss_requests(&mut RunSource::new(3), 6);
        let b = miss_requests(&mut RunSource::new(3), 6);
        let c = miss_requests(&mut RunSource::new(4), 6);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.kind == y.kind));
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn parallel_generation_is_deterministic_and_unique() {
        let a = generate(21, 30, 2, miss_request).unwrap();
        let b = generate(21, 30, 2, miss_request).unwrap();
        assert_eq!(a.len(), 30);
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        assert!(runs_are_unique(a.iter().map(|r| r.body.as_str())));
    }

    #[test]
    fn miss_bodies_never_repeat_a_target_run() {
        let mut source = RunSource::new(11);
        let reqs = miss_requests(&mut source, 40);
        assert_eq!(source.repeats, 0);
        assert!(runs_are_unique(reqs.iter().map(|r| r.body.as_str())));
        let mut doubled: Vec<&str> = reqs.iter().map(|r| r.body.as_str()).collect();
        doubled.push(doubled[0]);
        assert!(!runs_are_unique(doubled));
    }

    #[test]
    fn hit_table_has_sixteen_distinct_posts() {
        let mut source = RunSource::new(5);
        let table = hit_table(&mut source);
        let posts: HashSet<&str> = table
            .iter()
            .filter(|r| r.kind.method() == "POST")
            .map(|r| r.body.as_str())
            .collect();
        assert_eq!(posts.len(), HIT_BODIES);
        let seq = hit_sequence(&mut source, 2000);
        assert!(seq.iter().all(|&i| i < table.len()));
        let gets = seq.iter().filter(|&&i| i >= HIT_BODIES).count();
        assert!((100..300).contains(&gets), "{gets}");
    }

    #[test]
    fn ingest_batches_cycle_tenants_in_fixed_order() {
        let batches = ingest_batches(9, 2, 2);
        assert_eq!(batches.len(), ingest_batches(9, 2, 1).len());
        assert_eq!(batches.len(), 2 * TENANTS);
        let tenant = |r: &Request| {
            Json::parse(&r.body)
                .unwrap()
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(tenant(&batches[0]), "tenant-0");
        assert_eq!(
            tenant(&batches[TENANTS - 1]),
            format!("tenant-{}", TENANTS - 1)
        );
        assert_eq!(tenant(&batches[TENANTS]), "tenant-0");
        assert!(runs_are_unique(batches.iter().map(|r| r.body.as_str())));
    }

    #[test]
    fn wire_bytes_parse_back_to_the_same_request() {
        let req = RunSource::new(2).request(Kind::Predict);
        match wp_server::http::parse_request(&req.wire(), false) {
            wp_server::http::Parsed::Request { request, consumed } => {
                assert_eq!(consumed, req.wire().len());
                assert_eq!(request, req.to_http());
            }
            _ => panic!("wire bytes must parse"),
        }
    }
}
