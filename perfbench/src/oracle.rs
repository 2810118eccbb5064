//! The in-process correctness oracle: the service `wp serve` runs, built
//! from the same corpus seed, answering through `service::handle`.

use std::collections::HashSet;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::service::{handle, ServiceState};
use wp_server::ServerConfig;

use crate::workload::{Request, TENANTS};

/// Seed of the corpus `wp serve` simulates when run with default flags.
pub const SERVE_CORPUS_SEED: u64 = 0xEDB7_2025;
/// Samples per run of that corpus.
pub const SERVE_CORPUS_SAMPLES: usize = 120;

/// A fresh service state equal to the one a default `wp serve` starts
/// with; `threads` pins its request computation to that many runtime
/// threads (`None` inherits `WP_THREADS`, as the server does).
pub fn fresh_state(threads: Option<usize>) -> Result<ServiceState, String> {
    let defaults = ServerConfig::default();
    ServiceState::new(
        simulated_corpus(SERVE_CORPUS_SEED, SERVE_CORPUS_SAMPLES),
        defaults.pipeline,
        threads,
        defaults.cache_capacity,
        defaults.stream,
    )
}

/// Expected `200` bodies for `requests`, computed on `threads` fresh
/// states (one per thread) before any timing starts. Responses are
/// deterministic functions of the request, whatever the cache state or
/// thread count, so the states may split the work.
pub fn expected_bodies(requests: &[Request], threads: usize) -> Result<Vec<String>, String> {
    let threads = threads.clamp(1, requests.len().max(1));
    let chunk = requests.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || -> Result<Vec<String>, String> {
                    let state = fresh_state(Some(1))?;
                    part.iter()
                        .map(|req| match handle(&state, &req.to_http()) {
                            (200, body) => Ok(body),
                            (status, body) => Err(format!(
                                "oracle: {} {} answered {status}: {body}",
                                req.kind.method(),
                                req.kind.path()
                            )),
                        })
                        .collect()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(requests.len());
        for h in handles {
            out.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok(out)
    })
}

/// Names a read may report as most similar: the startup references and
/// every streamed tenant's live reference.
pub fn known_references(state: &ServiceState) -> HashSet<String> {
    let mut names: HashSet<String> = state
        .corpus
        .references
        .iter()
        .map(|r| r.name.clone())
        .collect();
    names.extend((0..TENANTS).map(|t| format!("live:tenant-{t}")));
    names
}

/// Structural check of a read answered on a corpus that evolves under
/// ingest: status `200`, a JSON body, and a `most_similar` that names a
/// known reference.
pub fn read_is_valid(status: u16, body: &str, known: &HashSet<String>) -> bool {
    status == 200
        && Json::parse(body).is_ok_and(|doc| {
            doc.get("most_similar")
                .and_then(Json::as_str)
                .is_some_and(|name| known.contains(name))
        })
}
