//! The traced run: per-layer metrics.
//!
//! The workload's open loop runs twice, against a plain `wp serve` and
//! one started with `--obs`; the difference of their medians is the
//! observability overhead, and the traced server's `/stats` and
//! `/metrics` counters give the cache, distance, runtime, and stream
//! ratios. A sample of requests is then sent one at a time to the
//! traced server and replayed in process on a fresh `ServiceState`,
//! timing `service::handle` and the public function of each layer it
//! calls. Spans inside the program are not used.

use std::collections::BTreeMap;
use std::time::Instant;

use wp_core::CorpusIndex;
use wp_index::IndexConfig;
use wp_json::Json;
use wp_predict::context::{PairwiseScalingModel, SingleScalingModel};
use wp_predict::evaluation::{pairwise_cv_nrmse, single_cv_nrmse, ScalingData};
use wp_server::service::{handle, ServiceState};
use wp_similarity::measure::normalize_distances;
use wp_similarity::repr::{extract, RunFeatureData};
use wp_similarity::{fingerprinter, try_distance_matrix, FingerprintConfig, Representation};
use wp_stream::{StreamConfig, StreamEngine};
use wp_telemetry::io::run_from_json;
use wp_telemetry::ExperimentRun;

use crate::bench::{self, Inputs, Name, Outcome, Payload, Prepared, Replay, Step};
use crate::client::{Conn, Server};
use crate::oracle::{self, SERVE_CORPUS_SAMPLES, SERVE_CORPUS_SEED};
use crate::stats::{json_at, median, percentile, ratio};
use crate::workload::{Kind, TENANTS};
use crate::{late_p99_ms, latency_ms, Report, CONNS};

/// Share of `--seconds` each of the two open loops runs.
const OPEN_SHARE: f64 = 0.4;
/// Repetitions of each set-up step and index build; the median counts.
const REPEATS: usize = 3;
/// CPU levels of the default corpus' aligned run pairs.
const CORPUS_CPUS: [f64; 2] = [2.0, 8.0];
/// Fold seed `/recommend` uses for its CV residuals.
const CV_SEED: u64 = 0xEDB7_2025;

/// Handle labels reported as `service.handle_us.<label>`.
const HANDLE_LABELS: [&str; 8] = [
    "similar",
    "predict",
    "recommend",
    "fingerprint",
    "similar_indexed",
    "recommend_tenant",
    "ingest",
    "hit",
];

/// Timed layers reported as mean microseconds per sampled request
/// (requests that skip a layer count as 0).
const REPORTED_LAYERS: [&str; 13] = [
    "http.parse_us",
    "http.render_us",
    "json.decode_us",
    "json.encode_us",
    "telemetry.run_decode_us",
    "similarity.extract_us",
    "similarity.fingerprint_us.hist",
    "similarity.fingerprint_us.phase",
    "similarity.distance_us",
    "index.search_us",
    "predict.fit_us",
    "predict.cv_us",
    "cache.lookup_us",
];

/// The layers timed inside `service::handle`: their sum over the sample
/// against the sum of the handle times is `trace.attributed_frac`.
const INNER_LAYERS: [&str; 12] = [
    "json.decode_us",
    "json.encode_us",
    "telemetry.run_decode_us",
    "similarity.extract_us",
    "similarity.fingerprint_us.hist",
    "similarity.fingerprint_us.phase",
    "similarity.distance_us",
    "index.search_us",
    "predict.fit_us",
    "predict.cv_us",
    "cache.lookup_us",
    "stream.ingest_us",
];

/// Nanoseconds spent per layer over the replayed sample.
#[derive(Default)]
struct Layers {
    ns: BTreeMap<&'static str, u64>,
    decoded_bytes: usize,
}

impl Layers {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        *self.ns.entry(layer).or_default() += started.elapsed().as_nanos() as u64;
        out
    }

    fn add(&mut self, layer: &'static str, ns: u64) {
        *self.ns.entry(layer).or_default() += ns;
    }

    fn get(&self, layer: &str) -> u64 {
        self.ns.get(layer).copied().unwrap_or(0)
    }
}

/// Runs the traced measurement and fills `report` with the per-layer
/// metrics. Returns the backend line the server printed.
pub fn run(
    wp: &std::path::Path,
    name: Name,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<String, String> {
    let inputs = Inputs::build(name, seed, seconds * OPEN_SHARE, 0.0, CONNS)?;
    let mut none = || Ok(());

    let plain = Server::spawn(wp, false)?;
    let mut base = bench::execute(&inputs, &plain, CONNS, 0.0, &mut none)?;
    let base_drift = plain.get("/drift")?;
    drop(plain);

    let traced = Server::spawn(wp, true)?;
    let mut out = bench::execute(&inputs, &traced, CONNS, 0.0, &mut none)?;
    let before: Vec<&Prepared> = match &inputs.payload {
        Payload::Exact { table, warm, .. } => warm.iter().map(|&i| &table[i]).collect(),
        Payload::Stream { batches, .. } => batches[..out.batches_sent].iter().collect(),
    };
    let sample = serial_sample(&inputs, &traced, &mut out)?;
    let traced_drift = traced.get("/drift")?;
    let backend = traced.backend.clone();
    drop(traced);

    if matches!(inputs.payload, Payload::Stream { .. }) {
        let mut replay = Replay::new()?;
        replay.check(&inputs, &mut base, base_drift)?;
        replay.check(&inputs, &mut out, traced_drift)?;
    }

    let p50 = |o: &Outcome| {
        let reads: Vec<_> = o
            .quiet_rounds()
            .iter()
            .flat_map(|r| r.reads.clone())
            .collect();
        latency_ms(&reads, 50.0)
    };
    let (p50_plain, p50_traced) = (p50(&base), p50(&out));

    let plan: Vec<&Prepared> = sample.iter().map(|(p, _)| *p).collect();
    let replayed = replay_sample(&inputs, &before, &plan, &mut out.problems)?;
    let layers = &replayed.layers;

    let mut handles: Vec<u64> = replayed.handle_ns.iter().map(|(_, ns)| *ns).collect();
    handles.sort_unstable();
    let mut rtts: Vec<u64> = sample.iter().map(|(_, ns)| *ns).collect();
    rtts.sort_unstable();
    report.metric(
        "server.transport_us",
        (percentile(&rtts, 50.0) as f64 - percentile(&handles, 50.0) as f64) / 1e3,
        "us",
    );
    let n = handles.len().max(1) as f64;
    for layer in REPORTED_LAYERS {
        report.metric(layer, layers.get(layer) as f64 / n / 1e3, "us");
    }
    for label in HANDLE_LABELS {
        let mut ns: Vec<u64> = replayed
            .handle_ns
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, t)| *t)
            .collect();
        ns.sort_unstable();
        let us = percentile(&ns, 50.0) as f64 / 1e3;
        report.metric(format!("service.handle_us.{label}"), us, "us");
    }
    let decode_ns = layers.get("json.decode_us") as f64;
    let decode_mb_s = if decode_ns > 0.0 {
        layers.decoded_bytes as f64 / (decode_ns / 1e9) / 1e6
    } else {
        0.0
    };
    report.metric("json.decode_mb_s", decode_mb_s, "MB/s");

    // Counters of the traced server over its measured phases.
    let stats = |path: &[&str]| {
        json_at(out.stats.as_ref(), path) - json_at(out.stats_before.as_ref(), path)
    };
    let prom = |name: &str| {
        prom_value(out.metrics.as_deref(), name) - prom_value(out.metrics_before.as_deref(), name)
    };
    let (hits, misses) = (stats(&["cache", "hits"]), stats(&["cache", "misses"]));
    report.metric(
        "cache.responses.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let ref_hits = prom("wp_server_cache_hits_total{cache=\"ref_data\"}");
    let ref_misses = prom("wp_server_cache_misses_total{cache=\"ref_data\"}");
    let ref_ratio = ratio(ref_hits, ref_hits + ref_misses);
    report.metric("cache.ref_data.hit_ratio", ref_ratio, "ratio");
    let measured: usize = out
        .rounds
        .iter()
        .map(|r| r.reads.len() + r.writes.len())
        .sum();
    let per_request = |name: &str| ratio(prom(name), measured as f64);
    let calls = per_request("wp_similarity_distance_calls_total");
    report.metric("similarity.distance_calls", calls, "count");
    let tasks = per_request("wp_runtime_tasks_total");
    report.metric("runtime.tasks_per_request", tasks, "count");
    let batches = per_request("wp_runtime_batches_total");
    report.metric("runtime.batches_per_request", batches, "count");

    let (pruned_frac, exact_per_query) = pruning(&inputs, &out);
    report.metric("index.pruned_frac", pruned_frac, "ratio");
    report.metric("index.exact_per_query", exact_per_query, "count");
    let (build_us, corpus_runs) = index_build(&inputs, out.batches_sent)?;
    report.metric("index.build_us", build_us, "us");
    report.metric("index.corpus_runs", corpus_runs, "count");

    let mut ingest_ns = replayed.stream_ns.clone();
    ingest_ns.sort_unstable();
    for p in [50.0, 99.0] {
        let us = percentile(&ingest_ns, p) as f64 / 1e3;
        report.metric(format!("stream.ingest_us.p{p}"), us, "us");
    }
    let rebuilds = stats(&["stream", "rebuilds"]);
    let ingested = stats(&["stream", "ingested_batches"]);
    report.metric("stream.rebuild_frac", ratio(rebuilds, ingested), "ratio");
    let drift_events = json_at(out.stats.as_ref(), &["stream", "drift_events"]);
    report.metric("stream.drift_events", drift_events, "count");

    let (corpus_ms, select_ms, state_ms) = setup_steps()?;
    report.metric("setup.corpus_ms", corpus_ms, "ms");
    report.metric("setup.select_ms", select_ms, "ms");
    report.metric("setup.state_ms", state_ms, "ms");

    report.metric(
        "obs.overhead_frac",
        if p50_plain > 0.0 {
            p50_traced / p50_plain - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    let inner: u64 = INNER_LAYERS.iter().map(|l| layers.get(l)).sum();
    let handled: u64 = handles.iter().sum();
    report.metric(
        "trace.attributed_frac",
        ratio(inner as f64, handled as f64),
        "ratio",
    );
    report.metric("gen.late_ms.p99", late_p99_ms(&out.all_reads()), "ms");

    report.absorb(&mut base);
    report.absorb(&mut out);
    Ok(backend)
}

/// The value of one exact series name in a Prometheus text scrape (0
/// when absent).
fn prom_value(text: Option<&str>, name: &str) -> f64 {
    text.into_iter()
        .flat_map(str::lines)
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            (series == name).then(|| value.parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// Sends the trace sample one request at a time over one connection to
/// the traced server, continuing the workload's streams. Returns the
/// requests in send order with each round trip in nanoseconds.
/// Responses are checked like the rest.
fn serial_sample<'a>(
    inputs: &'a Inputs,
    server: &Server,
    out: &mut Outcome,
) -> Result<Vec<(&'a Prepared, u64)>, String> {
    let mut conn = Conn::new(&server.addr);
    let mut sent = Vec::new();
    let mut exchange = |p: &'a Prepared, out: &mut Outcome| -> Option<(u16, String)> {
        let started = Instant::now();
        let result = conn.send(&p.wire);
        sent.push((p, started.elapsed().as_nanos() as u64));
        out.attempted += 1;
        match result {
            Ok((200, body)) if p.expected.as_ref().is_none_or(|e| *e == body) => Some((200, body)),
            Ok((status, body)) => {
                out.fail(format!(
                    "{}: status {status}, body {body:.200}",
                    p.request.kind.path()
                ));
                None
            }
            Err(e) => {
                out.fail(format!("{}: {e}", p.request.kind.path()));
                None
            }
        }
    };
    match &inputs.payload {
        Payload::Exact { table, sample, .. } => {
            for &i in sample {
                exchange(&table[i], out);
            }
        }
        Payload::Stream {
            batches,
            reads,
            sample,
            ..
        } => {
            for step in sample {
                match step {
                    Step::Batch => {
                        let b = out.batches_sent;
                        let p = batches.get(b).ok_or("trace sample ran out of batches")?;
                        out.ingest_log[b] = exchange(p, out);
                        out.batches_sent += 1;
                    }
                    Step::Read => {
                        let r = out.reads_sent;
                        let p = reads.get(r).ok_or("trace sample ran out of reads")?;
                        if let Some((status, body)) = exchange(p, out) {
                            out.read_log.push((r, status, body));
                        }
                        out.reads_sent += 1;
                    }
                }
            }
        }
    }
    Ok(sent)
}

/// What the in-process replay of the trace sample measured.
struct Replayed {
    /// `(handle label, ns)` of each sampled request.
    handle_ns: Vec<(&'static str, u64)>,
    /// Layer totals over the sample.
    layers: Layers,
    /// `StreamEngine::ingest` times of every batch after the prefill.
    stream_ns: Vec<u64>,
}

/// Replays the trace sample (`plan`) on a fresh `ServiceState`, after
/// bringing it to the state the server had (`before`, untimed), timing
/// `service::handle` per request and the layer functions it calls.
fn replay_sample(
    inputs: &Inputs,
    before: &[&Prepared],
    plan: &[&Prepared],
    problems: &mut Vec<String>,
) -> Result<Replayed, String> {
    let state = oracle::fresh_state(None)?;
    // A second, bare engine replays the same batches so each batch's
    // `StreamEngine::ingest` can be timed on the state the server had.
    let mut engine = StreamEngine::new(
        &state.corpus,
        &state.selected,
        &state.config,
        IndexConfig::default(),
        StreamConfig::default(),
    )?;
    let prefill = match &inputs.payload {
        Payload::Stream { prefill, .. } => *prefill,
        Payload::Exact { .. } => 0,
    };
    let mut stream_ns = Vec::new();
    let mut ingest_timed =
        |p: &Prepared, engine: &mut StreamEngine, measured: bool| -> Result<u64, String> {
            let (tenant, runs) = ingest_args(&p.request.body)?;
            let started = Instant::now();
            engine.ingest(&tenant, runs)?;
            let ns = started.elapsed().as_nanos() as u64;
            if measured {
                stream_ns.push(ns);
            }
            Ok(ns)
        };
    for (b, p) in before.iter().enumerate() {
        handle(&state, &p.request.to_http());
        if p.request.kind == Kind::Ingest {
            ingest_timed(p, &mut engine, b >= prefill)?;
        }
    }

    let reference_data: Vec<Vec<RunFeatureData>> = state
        .corpus
        .references
        .iter()
        .map(|r| {
            r.runs_from
                .iter()
                .map(|run| extract(run, &state.selected))
                .collect()
        })
        .collect();
    let mut layers = Layers::default();
    let mut handle_ns = Vec::with_capacity(plan.len());
    for p in plan.iter().copied() {
        let req = p.request.to_http();
        layers.time("http.parse_us", || {
            wp_server::http::parse_request(&p.wire, false)
        });
        let (hits_before, _) = state.response_cache_counters();
        let generation = state.generation();
        let started = Instant::now();
        let (status, body) = handle(&state, &req);
        let ns = started.elapsed().as_nanos() as u64;
        let hit = state.response_cache_counters().0 > hits_before;
        if status != 200 {
            problems.push(format!("trace replay: {} answered {status}", req.path));
            continue;
        }
        layers.time("http.render_us", || {
            wp_server::http::render_response(status, &body, true, &[])
        });
        let label = if hit { "hit" } else { p.request.kind.label() };
        handle_ns.push((label, ns));
        if hit {
            // The response-cache key `service::handle` builds: corpus
            // generation, path, and body.
            let key = format!("g{generation}\n{}\n{}", req.path, req.body);
            layers.time("cache.lookup_us", || state.shard(0).responses.get(&key));
            continue;
        }
        if p.request.kind == Kind::Ingest {
            let ns = ingest_timed(p, &mut engine, true)?;
            layers.add("stream.ingest_us", ns);
            let doc = layers.time("json.decode_us", || Json::parse(&req.body));
            layers.decoded_bytes += req.body.len();
            if let Ok(doc) = doc {
                decode_runs(&doc, &mut layers)?;
            }
        } else if p.request.kind.method() == "POST" {
            replay_compute(
                &state,
                p.request.kind,
                &req.body,
                &body,
                &reference_data,
                &mut layers,
            )?;
        }
        let response = Json::parse(&body).map_err(|e| format!("trace replay response: {e}"))?;
        layers.time("json.encode_us", || response.compact());
    }
    Ok(Replayed {
        handle_ns,
        layers,
        stream_ns,
    })
}

/// `(tenant, runs)` of an `/ingest` body.
fn ingest_args(body: &str) -> Result<(String, Vec<ExperimentRun>), String> {
    let doc = Json::parse(body)?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or("ingest body without tenant")?
        .to_string();
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("ingest body without runs")?
        .iter()
        .map(run_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((tenant, runs))
}

/// Times `io::run_from_json` on each run of a decoded body.
fn decode_runs(doc: &Json, layers: &mut Layers) -> Result<Vec<ExperimentRun>, String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| layers.time("telemetry.run_decode_us", || run_from_json(r)))
        .collect()
}

/// Replays the layer calls of one compute request's miss path.
fn replay_compute(
    state: &ServiceState,
    kind: Kind,
    body: &str,
    response: &str,
    reference_data: &[Vec<RunFeatureData>],
    layers: &mut Layers,
) -> Result<(), String> {
    let doc = layers.time("json.decode_us", || Json::parse(body))?;
    layers.decoded_bytes += body.len();
    let mut runs = decode_runs(&doc, layers)?;
    if kind == Kind::RecommendTenant {
        let tenant = doc.get("tenant").and_then(Json::as_str).unwrap_or_default();
        let engine = state
            .shard(0)
            .stream
            .read()
            .map_err(|_| "stream lock poisoned")?;
        runs = engine.tenant_runs(tenant).unwrap_or_default().to_vec();
    }
    if kind == Kind::SimilarIndexed {
        let k = doc.get("k").and_then(Json::as_usize).unwrap_or(5);
        let engine = state
            .shard(0)
            .stream
            .read()
            .map_err(|_| "stream lock poisoned")?;
        layers.time("index.search_us", || {
            engine.index().rank_references_with_stats(&runs, k)
        })?;
        return Ok(());
    }
    let mut data: Vec<RunFeatureData> = runs
        .iter()
        .map(|r| layers.time("similarity.extract_us", || extract(r, &state.selected)))
        .collect();
    let fp_layer = |repr: Representation| match repr {
        Representation::PhaseFp => "similarity.fingerprint_us.phase",
        _ => "similarity.fingerprint_us.hist",
    };
    let config = FingerprintConfig {
        nbins: state.config.nbins,
        ..FingerprintConfig::default()
    };
    if kind == Kind::Fingerprint {
        let repr = doc
            .get("representation")
            .and_then(Json::as_str)
            .and_then(Representation::parse)
            .unwrap_or(Representation::HistFp);
        layers.time(fp_layer(repr), || {
            fingerprinter(repr, &config).fingerprints(&data)
        });
        return Ok(());
    }
    for reference in reference_data {
        data.extend(reference.iter().cloned());
    }
    let repr = state.config.representation;
    let fps = layers.time(fp_layer(repr), || {
        fingerprinter(repr, &config).fingerprints(&data)
    });
    layers.time("similarity.distance_us", || {
        try_distance_matrix(&fps, state.config.measure).map(|d| normalize_distances(&d))
    })?;
    if kind == Kind::Similar {
        return Ok(());
    }
    let best = Json::parse(response)?
        .get("most_similar")
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or("compute response without most_similar")?;
    let reference = state
        .corpus
        .references
        .iter()
        .find(|r| r.name == best)
        .ok_or("most_similar is not a startup reference")?;
    let from: Vec<f64> = reference.runs_from.iter().map(|r| r.throughput).collect();
    let to: Vec<f64> = reference.runs_to.iter().map(|r| r.throughput).collect();
    let groups: Vec<usize> = reference
        .runs_from
        .iter()
        .map(|r| r.key.data_group)
        .collect();
    let model = state.config.model;
    layers.time("predict.fit_us", || {
        PairwiseScalingModel::fit(
            model,
            &CORPUS_CPUS,
            &[from.clone(), to.clone()],
            Some(&groups),
        )
    });
    if kind == Kind::Predict {
        return Ok(());
    }
    layers.time("predict.fit_us", || {
        let mut cpus = vec![CORPUS_CPUS[0]; from.len()];
        cpus.extend(std::iter::repeat_n(CORPUS_CPUS[1], to.len()));
        let values: Vec<f64> = from.iter().chain(&to).copied().collect();
        let single_groups: Vec<usize> = groups.iter().chain(&groups).copied().collect();
        SingleScalingModel::fit(model, &cpus, &values, Some(&single_groups))
    });
    // The CV residuals `/recommend` reports, on level-normalized data.
    let folds = from.len().min(5);
    if folds >= 2 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let scale = |v: &[f64], by: f64| v.iter().map(|x| x / by).collect::<Vec<_>>();
        let all: Vec<f64> = from.iter().chain(&to).copied().collect();
        let pair = ScalingData {
            levels: CORPUS_CPUS.to_vec(),
            values: vec![scale(&from, mean(&from)), scale(&to, mean(&to))],
            groups: groups.clone(),
        };
        let single = ScalingData {
            levels: CORPUS_CPUS.to_vec(),
            values: vec![scale(&from, mean(&all)), scale(&to, mean(&all))],
            groups,
        };
        layers.time("predict.cv_us", || {
            (
                pairwise_cv_nrmse(&pair, model, folds, CV_SEED),
                single_cv_nrmse(&single, model, folds, CV_SEED),
            )
        });
    }
    Ok(())
}

/// Pruned share of the cascade's candidates and exact comparisons per
/// indexed query, from the `pruning` objects of the traced server's
/// indexed `/similar` responses.
fn pruning(inputs: &Inputs, out: &Outcome) -> (f64, f64) {
    let Payload::Stream { reads, .. } = &inputs.payload else {
        return (0.0, 0.0);
    };
    let (mut candidates, mut pruned, mut exact, mut queries) = (0.0, 0.0, 0.0, 0.0);
    for (r, _, body) in &out.read_log {
        if reads[*r].request.kind != Kind::SimilarIndexed {
            continue;
        }
        let Some(p) = Json::parse(body)
            .ok()
            .and_then(|d| d.get("pruning").cloned())
        else {
            continue;
        };
        let get = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        candidates += get("candidates");
        exact += get("exact");
        pruned += [
            "pruned_pivot",
            "pruned_paa",
            "pruned_kim",
            "pruned_keogh",
            "pruned_lcss",
            "pruned_ea",
        ]
        .iter()
        .map(|k| get(k))
        .sum::<f64>();
        queries += 1.0;
    }
    (ratio(pruned, candidates), ratio(exact, queries))
}

/// Median time of building the live corpus index anew, µs, and
/// its size in runs: the startup references plus every tenant window
/// after the batches the traced server received.
fn index_build(inputs: &Inputs, batches: usize) -> Result<(f64, f64), String> {
    let state = oracle::fresh_state(None)?;
    if let Payload::Stream { batches: all, .. } = &inputs.payload {
        for p in &all[..batches] {
            handle(&state, &p.request.to_http());
        }
    }
    let engine = state
        .shard(0)
        .stream
        .read()
        .map_err(|_| "stream lock poisoned")?;
    let tenants: Vec<(String, Vec<ExperimentRun>)> = (0..TENANTS)
        .filter_map(|t| {
            let name = format!("tenant-{t}");
            let runs = engine.tenant_runs(&name)?.to_vec();
            Some((format!("live:{name}"), runs))
        })
        .collect();
    let mut refs: Vec<(String, &[ExperimentRun])> = state
        .corpus
        .references
        .iter()
        .map(|r| (r.name.clone(), r.runs_from.as_slice()))
        .collect();
    refs.extend(tenants.iter().map(|(n, runs)| (n.clone(), runs.as_slice())));
    let runs: usize = refs.iter().map(|(_, r)| r.len()).sum();
    let mut times = Vec::new();
    for _ in 0..REPEATS {
        let started = Instant::now();
        let index = CorpusIndex::from_reference_runs_with_fingerprinter(
            &refs,
            &state.selected,
            engine.index().fingerprinter(),
            &state.config,
            IndexConfig::default(),
        )?;
        std::hint::black_box(index);
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok((median(&times), runs as f64))
}

/// Median times of the three start-up steps of `wp serve`, ms: the
/// corpus simulation, feature selection, and the service state build.
fn setup_steps() -> Result<(f64, f64, f64), String> {
    let config = wp_server::ServerConfig::default();
    let (mut corpus_ms, mut select_ms, mut state_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let started = Instant::now();
        let corpus = wp_server::corpus::simulated_corpus(SERVE_CORPUS_SEED, SERVE_CORPUS_SAMPLES);
        corpus_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        std::hint::black_box(wp_core::offline::select_features_offline(
            &corpus,
            &config.pipeline,
        )?);
        select_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        std::hint::black_box(ServiceState::new(
            corpus,
            config.pipeline.clone(),
            None,
            config.cache_capacity,
            config.stream.clone(),
        )?);
        state_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&corpus_ms), median(&select_ms), median(&state_ms)))
}
