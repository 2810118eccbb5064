//! A minimal keep-alive HTTP/1.1 client and the `wp serve` child process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The liveness probe `setup_s` waits for.
const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
/// How long one request may take before it counts as a timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection; reconnects after a close or an error.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection to `addr`, opened lazily on the first request.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one pre-rendered request and returns `(status, body)`. Any
    /// transport error (refused, reset, timeout, bad framing) is `Err`
    /// and drops the connection.
    pub fn send(&mut self, wire: &[u8]) -> Result<(u16, String), String> {
        let result = self.exchange(wire);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(REQUEST_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        let reader = self.stream.as_mut().expect("connection opened above");
        reader
            .get_mut()
            .write_all(wire)
            .map_err(|e| format!("write: {e}"))?;

        let mut line = String::new();
        let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
            line.clear();
            match reader.read_line(line) {
                Ok(0) => Err("connection closed mid-response".to_string()),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("read: {e}")),
            }
        };
        read_line(reader, &mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        let mut close = false;
        loop {
            read_line(reader, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
        Ok((status, body))
    }
}

/// A `wp serve` child process with default flags on an OS-chosen port.
/// Killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// `host:port` the server listens on.
    pub addr: String,
    /// The `backend: ...` line the server printed.
    pub backend: String,
    /// Whether it serves `GET /metrics` (`--obs`).
    pub obs: bool,
    /// Seconds from spawning the process to the first `200` from
    /// `/healthz`.
    pub setup_s: f64,
}

impl Server {
    /// Spawns `wp serve` (with `--obs` when asked) and waits for it to
    /// answer `/healthz`.
    pub fn spawn(wp: &Path, obs: bool) -> Result<Server, String> {
        let mut cmd = Command::new(wp);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if obs {
            cmd.arg("--obs");
        }
        // The environment must not arm faults or observability behind the
        // benchmark's back.
        cmd.env_remove("WP_FAULTS")
            .env_remove("WP_OBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", wp.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            backend: String::new(),
            obs,
            setup_s: 0.0,
        };
        let mut line = String::new();
        while server.backend.is_empty() {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading wp serve output: {e}"))?;
            if n == 0 {
                return Err("wp serve exited before it listened".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                server.addr = addr.to_string();
            } else if line.starts_with("backend:") {
                server.backend = line.trim().to_string();
            }
        }
        if server.addr.is_empty() {
            return Err("wp serve printed no listening address".to_string());
        }
        let mut conn = Conn::new(&server.addr);
        loop {
            if let Ok((200, _)) = conn.send(HEALTHZ) {
                break;
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("wp serve did not answer /healthz within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) of the server process, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// One request on a fresh connection.
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        Conn::new(&self.addr).send(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
