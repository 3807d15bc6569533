//! A dependency-free HTTP/1.1 front-end over the store.
//!
//! Serves concurrent readers straight from [`Store::snapshot`]
//! clones: every request runs on an immutable `Arc<Snapshot>`, so
//! readers never block ingest (or each other) and two concurrent
//! identical queries always see the same seal boundary or adjacent
//! ones — never a torn segment.
//!
//! Endpoints (all responses `Connection: close`):
//!
//! * `GET /query?q=<urlencoded query>` — runs the query, returns its
//!   JSONL lines (`application/x-ndjson`). The `X-Store-Generation`
//!   header reports the snapshot generation the query ran against.
//! * `GET /stats` — one JSON object: segments, records, generation.
//! * `POST /ingest[?source=<name>]` — body is JSONL in any ingestible
//!   surface format; seals one segment; returns `{"ingested":N}`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::query::Query;
use crate::record::JsonlIngester;
use crate::store::Store;
use crate::StoreError;

/// Per-connection resource bounds. Every limit exists so one
/// misbehaving client — slow, silent, or oversized — costs the server
/// at most one short-lived thread, never an unbounded buffer or a
/// handler parked forever on a dead socket.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// A socket read that makes no progress for this long drops the
    /// connection (slow-loris protection on heads *and* bodies).
    pub read_timeout: Duration,
    /// A socket write that makes no progress for this long drops the
    /// connection (a stalled reader cannot pin a handler thread).
    pub write_timeout: Duration,
    /// Maximum request-line length (method + target + version).
    pub max_request_line: usize,
    /// Maximum total head (request line + headers) size.
    pub max_head: usize,
    /// Maximum declared/accepted body size on `POST /ingest`.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_request_line: 8 * 1024,
            max_head: 64 * 1024,
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// A running server; dropping it stops the accept loop and joins the
/// server thread. In-flight requests finish on their own threads.
pub struct StoreServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StoreServer {
    /// Binds `bind` (e.g. `127.0.0.1:0`) and starts serving `store`
    /// with [`HttpLimits::default`].
    pub fn bind(store: Arc<Store>, bind: &str) -> Result<StoreServer, StoreError> {
        StoreServer::bind_with(store, bind, HttpLimits::default())
    }

    /// Binds `bind` and starts serving `store` under explicit limits.
    pub fn bind_with(
        store: Arc<Store>,
        bind: &str,
        limits: HttpLimits,
    ) -> Result<StoreServer, StoreError> {
        let listener =
            TcpListener::bind(bind).map_err(|e| StoreError::Io(format!("bind {bind}"), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| StoreError::Io(format!("bind {bind}"), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StoreError::Io(format!("bind {bind}"), e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = stop.clone();
        let handle = std::thread::spawn(move || {
            while !loop_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // BSD-derived platforms make accepted sockets
                        // inherit the listener's non-blocking flag;
                        // handle_connection's read loop needs blocking.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let store = store.clone();
                        let limits = limits.clone();
                        std::thread::spawn(move || {
                            // Socket errors mean the client went away
                            // (or timed out); nothing useful to do.
                            let _ = handle_connection(&store, stream, &limits);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(StoreServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn bad_request(stream: &mut TcpStream, detail: &str) -> std::io::Result<()> {
    let body = format!("{{\"error\":\"{}\"}}\n", tdat::json::escape(detail));
    respond(stream, "400 Bad Request", "application/json", &[], &body)
}

/// Decodes `%XX` escapes and `+` spaces.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| match b {
                    b'0'..=b'9' => Some(b - b'0'),
                    b'a'..=b'f' => Some(b - b'a' + 10),
                    b'A'..=b'F' => Some(b - b'A' + 10),
                    _ => None,
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and query-string parameters.
fn parse_target(target: &str) -> (&str, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, qs)) => {
            let params = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(p), String::new()),
                })
                .collect();
            (path, params)
        }
    }
}

fn handle_connection(
    store: &Store,
    mut stream: TcpStream,
    limits: &HttpLimits,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(limits.read_timeout))?;
    stream.set_write_timeout(Some(limits.write_timeout))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_head_end(&buf) {
            if pos > limits.max_head {
                return bad_request(&mut stream, "request head too large");
            }
            break pos;
        }
        // The bounds also apply to *incomplete* heads, or a client
        // could grow the buffer indefinitely by never finishing the
        // request line or the header block.
        let first_line_len = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
        if first_line_len > limits.max_request_line {
            return bad_request(&mut stream, "request line too long");
        }
        if buf.len() > limits.max_head {
            return bad_request(&mut stream, "request head too large");
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return bad_request(&mut stream, "request line too long");
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return bad_request(&mut stream, "malformed request line"),
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > limits.max_body {
        return bad_request(&mut stream, "request body too large");
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    // A client may send bytes past its declared length; everything
    // beyond Content-Length is not part of this request's body.
    body.truncate(content_length);
    let (path, params) = parse_target(&target);
    let param = |name: &str| {
        params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    };

    match (method.as_str(), path) {
        ("GET", "/query") => {
            let Some(q) = param("q") else {
                return bad_request(&mut stream, "missing q parameter");
            };
            let query = match Query::parse(&q) {
                Ok(query) => query,
                Err(e) => return bad_request(&mut stream, &e.to_string()),
            };
            let snapshot = store.snapshot();
            let out = query.run(&snapshot);
            let mut text = out.lines.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            respond(
                &mut stream,
                "200 OK",
                "application/x-ndjson",
                &[(
                    "X-Store-Generation".to_string(),
                    snapshot.generation.to_string(),
                )],
                &text,
            )
        }
        ("GET", "/stats") => {
            let stats = store.stats();
            let body = format!(
                "{{\"segments\":{},\"records\":{},\"generation\":{}}}\n",
                stats.segments, stats.records, stats.generation
            );
            respond(&mut stream, "200 OK", "application/json", &[], &body)
        }
        ("POST", "/ingest") => {
            let source = param("source").unwrap_or_else(|| "http".to_string());
            let text = String::from_utf8_lossy(&body);
            let mut ingester = JsonlIngester::new(source);
            let records = match ingester.text(&text) {
                Ok(records) => records,
                Err(e) => return bad_request(&mut stream, &e.to_string()),
            };
            let count = records.len();
            if let Err(e) = store.ingest(records) {
                let body = format!("{{\"error\":\"{}\"}}\n", tdat::json::escape(&e.to_string()));
                return respond(
                    &mut stream,
                    "500 Internal Server Error",
                    "application/json",
                    &[],
                    &body,
                );
            }
            let body = format!("{{\"ingested\":{count}}}\n");
            respond(&mut stream, "200 OK", "application/json", &[], &body)
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "application/json",
            &[],
            "{\"error\":\"not found\"}\n",
        ),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_records;

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Arc<Store>) {
        let dir = std::env::temp_dir().join(format!(
            "tdat-store-http-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::create(&dir).unwrap());
        (dir, store)
    }

    #[test]
    fn query_stats_and_errors_over_http() {
        let (dir, store) = tmp_store("basic");
        store.ingest(synth_records(120, 5)).unwrap();
        let server = StoreServer::bind(store.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/stats");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"records\":120"), "{body}");

        let (head, body) = get(addr, "/query?q=group+by+verdict+agg+count");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("X-Store-Generation: 1"), "{head}");
        let total: u64 = body
            .lines()
            .map(|l| {
                tdat::json::parse(l)
                    .unwrap()
                    .get("count")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 120);

        let (head, body) = get(addr, "/query?q=where+bogus+%3D+1");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("unknown field"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn post(addr: SocketAddr, target: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn ingest_over_http_becomes_visible() {
        let (dir, store) = tmp_store("ingest");
        let server = StoreServer::bind(store.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let records = synth_records(10, 3);
        let body: String = records
            .iter()
            .map(|r| format!("{}\n", r.report.to_json()))
            .collect();
        let text = post(addr, "/ingest?source=push", &body);
        assert!(text.contains("\"ingested\":10"), "{text}");

        let (_, body) = get(addr, "/query?q=where+source+%3D+push");
        assert_eq!(body.lines().count(), 10);

        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `?source=` names batch reports only: an event line without its
    /// own `source` is refused, and nothing is sealed.
    #[test]
    fn a_source_less_event_line_is_a_400() {
        let (dir, store) = tmp_store("sourceless");
        let server = StoreServer::bind(store.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let report = synth_records(1, 3)[0].report.to_json();
        let line =
            format!(r#"{{"type":"connection","at_s":9.0,"session":"a->b","report":{report}}}"#);
        let text = post(addr, "/ingest?source=push", &line);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("source"), "{text}");
        assert_eq!(store.stats().records, 0);

        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a+b%3Dc%20d"), "a b=c d");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn a_slow_client_is_dropped_and_cannot_wedge_the_server() {
        let (dir, store) = tmp_store("slow");
        store.ingest(synth_records(5, 2)).unwrap();
        let limits = HttpLimits {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(100),
            ..HttpLimits::default()
        };
        let server = StoreServer::bind_with(store.clone(), "127.0.0.1:0", limits).unwrap();
        let addr = server.addr();

        // A client that sends half a request head and then stalls: the
        // read timeout must close the connection rather than pin the
        // handler thread forever.
        let mut stalled = TcpStream::connect(addr).unwrap();
        write!(stalled, "GET /stats HTTP/1.1\r\nHost:").unwrap();
        let mut text = String::new();
        let start = std::time::Instant::now();
        let _ = stalled.read_to_string(&mut text); // EOF or reset
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stalled connection held open: {:?}",
            start.elapsed()
        );

        // Same for a POST that declares a body and never delivers it.
        let mut silent = TcpStream::connect(addr).unwrap();
        write!(
            silent,
            "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\npartial"
        )
        .unwrap();
        let mut text = String::new();
        let _ = silent.read_to_string(&mut text);

        // The server is still fully live for well-behaved clients.
        let (head, body) = get(addr, "/stats");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"records\":5"), "{body}");
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_request_lines_heads_and_bodies_are_rejected() {
        let (dir, store) = tmp_store("bounds");
        let limits = HttpLimits {
            max_request_line: 128,
            max_head: 512,
            max_body: 1024,
            ..HttpLimits::default()
        };
        let server = StoreServer::bind_with(store.clone(), "127.0.0.1:0", limits).unwrap();
        let addr = server.addr();

        let roundtrip = |request: String| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            text
        };

        // Request line past the bound — rejected even though it would
        // fit the head budget.
        let long_target = format!("GET /query?q={} HTTP/1.1\r\n\r\n", "x".repeat(300));
        let text = roundtrip(long_target);
        assert!(text.contains("request line too long"), "{text}");

        // Unbounded header growth.
        let fat_head = format!(
            "GET /stats HTTP/1.1\r\n{}\r\n\r\n",
            "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(40)
        );
        let text = roundtrip(fat_head);
        assert!(text.contains("request head too large"), "{text}");

        // Declared body past the bound — refused before reading it.
        let text = roundtrip(
            "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 10000\r\n\r\n".to_string(),
        );
        assert!(text.contains("request body too large"), "{text}");

        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
