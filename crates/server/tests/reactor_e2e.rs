//! Cross-backend end-to-end contract tests: the `wp-reactor` event loop
//! must be observationally indistinguishable from the blocking worker
//! pool at the socket — byte-identical responses for every endpoint,
//! the same keep-alive and idle-timeout semantics, the same connection
//! accounting — while actually multiplexing (the scale test holds 1024
//! keep-alive connections open against four event-loop threads).
//!
//! The clients here are deliberately hand-rolled over `TcpStream` so
//! the tests observe raw wire bytes, not what a higher-level client
//! chooses to surface.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wp_json::Json;
use wp_server::corpus::simulated_corpus;
use wp_server::{Backend, Server, ServerConfig, ServerHandle};
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

const SEED: u64 = 0xEDB7_2025;

fn start(backend: Backend, workers: usize, idle_timeout: Duration) -> ServerHandle {
    let corpus = simulated_corpus(SEED, 60);
    let config = ServerConfig {
        workers,
        backend,
        idle_timeout,
        compute_threads: Some(1),
        ..ServerConfig::default()
    };
    Server::start(corpus, config).expect("server must start")
}

/// A keep-alive HTTP/1.1 client connection that hands back the raw
/// bytes of each response, so backends can be diffed wire-for-wire.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str, keep_alive: bool) {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
    }

    /// Reads exactly one `Content-Length`-framed response off the wire
    /// and returns its raw bytes (status line, headers, and body).
    fn read_response(&mut self) -> Vec<u8> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let header_len = end + 4;
                let head = String::from_utf8_lossy(&self.buf[..header_len]).to_string();
                let body_len = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .and_then(|v| v.trim().parse::<usize>().ok())
                    })
                    .expect("response carries Content-Length");
                if self.buf.len() >= header_len + body_len {
                    let rest = self.buf.split_off(header_len + body_len);
                    return std::mem::replace(&mut self.buf, rest);
                }
            }
            let n = self.stream.read(&mut scratch).expect("read response");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
        self.send(method, path, body, keep_alive);
        self.read_response()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("response starts with a status line")
}

fn body_of(raw: &[u8]) -> String {
    let at = find(raw, b"\r\n\r\n").expect("response has a header break");
    String::from_utf8_lossy(&raw[at + 4..]).to_string()
}

/// One well-formed `/ingest` body, shared by both backends.
fn ingest_body() -> String {
    let mut sim = Simulator::new(SEED);
    sim.config.samples = 30;
    let spec = benchmarks::tpcc();
    let runs: Vec<_> = (0..2)
        .map(|r| sim.simulate(&spec, &Sku::new("cpu2", 2, 64.0), 8, r, r % 3))
        .collect();
    format!(
        "{{\"tenant\":\"e2e\",\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&runs)
    )
}

/// Every endpoint with a deterministic body must answer byte-identically
/// — status line, headers, and body — on both backends, before and
/// after an ingest advances the corpus generation. `/drift` equality
/// after the ingest is the cross-backend determinism check for the
/// streaming layer; `/stats` changes per request so it is compared
/// structurally instead (same fields, same endpoint set).
#[test]
fn every_endpoint_is_byte_identical_across_backends() {
    let pool = start(Backend::Workers, 2, Duration::from_secs(30));
    let reactor = start(Backend::Reactor, 2, Duration::from_secs(30));
    let mut a = Conn::open(pool.addr());
    let mut b = Conn::open(reactor.addr());

    let ingest = ingest_body();
    let mut probes: Vec<(&str, &str, String)> = vec![
        ("GET", "/healthz", String::new()),
        ("GET", "/corpus", String::new()),
        ("GET", "/drift", String::new()),
    ];
    for entry in wp_loadgen::validated_mix(SEED, 60) {
        probes.push((entry.method, entry.path, entry.body));
    }
    // Advance the generation on both sides, then re-run the read mix so
    // post-ingest (multi-generation) responses are diffed too.
    probes.push(("POST", "/ingest", ingest.clone()));
    probes.push(("GET", "/drift", String::new()));
    for entry in wp_loadgen::validated_mix(SEED, 60) {
        probes.push((entry.method, entry.path, entry.body));
    }
    // An invalid body must produce the same 400 on both backends.
    probes.push(("POST", "/similar", "{not json".to_string()));
    probes.push(("GET", "/nosuch", String::new()));

    for (i, (method, path, body)) in probes.iter().enumerate() {
        let ra = a.roundtrip(method, path, body, true);
        let rb = b.roundtrip(method, path, body, true);
        assert_eq!(
            ra,
            rb,
            "probe {i} ({method} {path}) diverged:\npool:    {:?}\nreactor: {:?}",
            String::from_utf8_lossy(&ra),
            String::from_utf8_lossy(&rb)
        );
    }

    // /stats carries per-request timings; compare its shape, not bytes.
    let sa =
        Json::parse(&body_of(&a.roundtrip("GET", "/stats", "", true))).expect("pool /stats parses");
    let sb = Json::parse(&body_of(&b.roundtrip("GET", "/stats", "", true)))
        .expect("reactor /stats parses");
    for key in [
        "total_requests",
        "connections",
        "endpoints",
        "stream",
        "cache",
    ] {
        assert!(sa.get(key).is_some(), "pool /stats missing '{key}'");
        assert!(sb.get(key).is_some(), "reactor /stats missing '{key}'");
    }
    assert_eq!(
        sa.get("stream")
            .and_then(|s| s.get("generation"))
            .and_then(Json::as_f64),
        sb.get("stream")
            .and_then(|s| s.get("generation"))
            .and_then(Json::as_f64),
        "generations diverged after identical ingests"
    );

    pool.shutdown();
    reactor.shutdown();
}

/// A body that arrives over many reads is framed exactly as if it
/// arrived in one. On each backend, one `/similar` request is sent in
/// 1 KiB writes a few milliseconds apart, with a pipelined
/// `GET /healthz` in the last write; both responses must be
/// byte-identical to those for the same bytes sent in a single write.
#[test]
fn split_delivery_is_byte_identical_to_a_single_write() {
    let body = wp_loadgen::validated_mix(SEED, 60)
        .into_iter()
        .find(|e| e.path == "/similar")
        .expect("the mix posts /similar")
        .body;
    let post = format!(
        "POST /similar HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let get = b"GET /healthz HTTP/1.1\r\n\r\n";
    assert!(post.len() > 16 * 1024, "the body must span several reads");

    for backend in [Backend::Workers, Backend::Reactor] {
        let server = start(backend, 2, Duration::from_secs(30));

        let mut whole = Conn::open(server.addr());
        whole
            .stream
            .write_all(&[post.as_slice(), get].concat())
            .expect("write request pair");
        let expected = [whole.read_response(), whole.read_response()];
        assert_eq!(status_of(&expected[0]), 200, "{backend:?}");
        assert_eq!(status_of(&expected[1]), 200, "{backend:?}");

        let mut split = Conn::open(server.addr());
        split.stream.set_nodelay(true).unwrap();
        let chunks: Vec<&[u8]> = post.chunks(1024).collect();
        let (last, rest) = chunks.split_last().expect("non-empty request");
        for chunk in rest {
            split.stream.write_all(chunk).expect("write chunk");
            std::thread::sleep(Duration::from_millis(3));
        }
        split
            .stream
            .write_all(&[*last, get].concat())
            .expect("write last chunk");
        let got = [split.read_response(), split.read_response()];
        assert_eq!(
            got, expected,
            "{backend:?}: split delivery changed the response bytes"
        );

        server.shutdown();
    }
}

/// Keep-alive connections are reused on both backends: one socket
/// serves many requests, `/stats` counts exactly the connections that
/// were accepted, and `Connection: close` actually closes.
#[test]
fn keep_alive_reuse_and_connection_accounting() {
    for backend in [Backend::Workers, Backend::Reactor] {
        let server = start(backend, 2, Duration::from_secs(30));
        let mut conn = Conn::open(server.addr());

        let first = conn.roundtrip("GET", "/healthz", "", true);
        assert_eq!(status_of(&first), 200, "{backend:?}");
        for _ in 0..9 {
            assert_eq!(
                conn.roundtrip("GET", "/healthz", "", true),
                first,
                "{backend:?}: keep-alive responses must not drift"
            );
        }

        // Ten served requests, one accepted connection. (The /stats
        // request itself is recorded after its body is rendered, so it
        // is absent from its own snapshot.)
        let stats = Json::parse(&body_of(&conn.roundtrip("GET", "/stats", "", true)))
            .expect("/stats parses");
        assert_eq!(
            stats.get("connections").and_then(Json::as_f64),
            Some(1.0),
            "{backend:?}: connection accounting"
        );
        assert_eq!(
            stats.get("total_requests").and_then(Json::as_f64),
            Some(10.0),
            "{backend:?}: request accounting"
        );

        // Connection: close answers, then EOF.
        let last = conn.roundtrip("GET", "/healthz", "", false);
        assert_eq!(status_of(&last), 200);
        let mut tail = Vec::new();
        conn.stream.read_to_end(&mut tail).expect("read EOF");
        assert!(tail.is_empty(), "{backend:?}: bytes after close response");

        server.shutdown();
    }
}

/// The scale contract from the issue: the reactor holds ≥1024
/// concurrent keep-alive connections on ≤4 event-loop threads, every
/// one of them live (two validated rounds of requests while all 1024
/// stay open). The worker pool cannot pass this test with 4 threads —
/// that asymmetry is the point of the backend.
#[test]
fn reactor_sustains_1024_concurrent_keepalive_connections() {
    const CONNS: usize = 1024;
    wp_reactor::raise_nofile_limit(CONNS as u64 * 2 + 512);
    let server = start(Backend::Reactor, 4, Duration::from_secs(120));
    let addr = server.addr();

    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(addr)).collect();
    let expected = conns[0].roundtrip("GET", "/healthz", "", true);
    assert_eq!(status_of(&expected), 200);

    for round in 0..2 {
        for (i, conn) in conns.iter_mut().enumerate() {
            let raw = conn.roundtrip("GET", "/healthz", "", true);
            assert_eq!(raw, expected, "round {round}, connection {i}");
        }
    }

    // All sockets were still open for both rounds: the accept ledger
    // must show exactly CONNS + this probe.
    let stats = Json::parse(&body_of(&conns[0].roundtrip("GET", "/stats", "", true)))
        .expect("/stats parses");
    assert_eq!(
        stats.get("connections").and_then(Json::as_f64),
        Some(CONNS as f64),
        "accept ledger"
    );
    drop(conns);
    server.shutdown();
}

/// Shutdown must not wait out idle keep-alive connections: with a
/// parked (mid-keep-alive, no request in flight) client on each
/// backend, `shutdown()` returns promptly instead of blocking until
/// the 30-second idle timeout would have fired.
#[test]
fn shutdown_returns_despite_idle_keepalive_connections() {
    for backend in [Backend::Workers, Backend::Reactor] {
        let server = start(backend, 2, Duration::from_secs(30));
        let mut conn = Conn::open(server.addr());
        assert_eq!(status_of(&conn.roundtrip("GET", "/healthz", "", true)), 200);

        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| {
                panic!("{backend:?}: shutdown hung on an idle keep-alive connection")
            });
        waiter.join().unwrap();
    }
}

/// Idle-timeout semantics, identical on both backends: a connection
/// that never sends a byte is closed silently; one that stalls mid-
/// request gets `400` with the timeout message, then the close.
#[test]
fn idle_connections_time_out_with_identical_semantics() {
    for backend in [Backend::Workers, Backend::Reactor] {
        let server = start(backend, 2, Duration::from_millis(250));
        let addr = server.addr();

        // Silent close: no bytes in, no bytes out.
        let mut idle = TcpStream::connect(addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = Vec::new();
        idle.read_to_end(&mut out).expect("server closes idle conn");
        assert!(
            out.is_empty(),
            "{backend:?}: idle close must be silent, got {:?}",
            String::from_utf8_lossy(&out)
        );

        // Stalled mid-request: 400 with the timeout message, then close.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stalled
            .write_all(b"GET /healthz HTT")
            .expect("write partial request");
        let mut out = Vec::new();
        stalled
            .read_to_end(&mut out)
            .expect("server answers the stalled conn");
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.starts_with("HTTP/1.1 400"),
            "{backend:?}: expected 400, got {text:?}"
        );
        assert!(
            text.contains("timed out waiting for a complete request"),
            "{backend:?}: wrong timeout body: {text:?}"
        );

        // A fresh, prompt client is still served after the timeouts.
        let mut live = Conn::open(addr);
        assert_eq!(
            status_of(&live.roundtrip("GET", "/healthz", "", false)),
            200
        );
        server.shutdown();
    }
}
