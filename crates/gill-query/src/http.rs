//! A minimal blocking HTTP/1.1 server.
//!
//! No async runtime exists in the offline dependency set, so the serving
//! layer is a classic bounded thread pool over `std::net::TcpListener`:
//! the acceptor pushes connections into a bounded crossbeam channel and a
//! fixed set of workers parse requests (GET only) under a per-connection
//! read deadline, so a stalled client can never pin a worker forever.
//!
//! The acceptor blocks in `accept`; [`HttpServer::stop`] sets the stop
//! flag and wakes it with one loopback connect to the listening port,
//! which the acceptor recognises by the flag and neither counts nor
//! queues. Each response (head and body) goes out in **one write**: a
//! head written alone would leave the body behind Nagle's algorithm until
//! the client's delayed ACK (~40 ms) for the head arrived.
//!
//! Connections are **keep-alive**: a worker serves up to
//! [`ServerConfig::max_requests_per_conn`] sequential requests per socket
//! (pipelined requests are handled — bytes read past one request's head
//! carry over to the next parse) before answering `Connection: close`.
//! Clients that go idle between requests are closed silently at the read
//! deadline; clients that stall **mid-request** still get `408`.
//!
//! Handlers that need the raw socket — the `/stream/*` endpoints — return
//! [`Handled::Takeover`]: the connection leaves the worker pool onto a
//! dedicated streamer thread (long-lived streams must not occupy the
//! bounded pool). Takeover closures receive the server's stop flag and
//! must poll it; [`HttpServer::stop`] joins streamer threads too.

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Pending-connection queue bound (beyond it, connections are refused
    /// with 503 by the acceptor itself).
    pub backlog: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Maximum request head (request line + headers) size in bytes.
    pub max_head_bytes: usize,
    /// Requests served on one keep-alive connection before the server
    /// forces `Connection: close` (bounds how long one client can hold a
    /// pool worker).
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            backlog: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_head_bytes: 8 * 1024,
            max_requests_per_conn: 32,
        }
    }
}

/// A parsed request: method, path, headers, and decoded query parameters.
#[derive(Clone, Debug)]
pub struct Request {
    /// The HTTP method (`GET` for every supported endpoint).
    pub method: String,
    /// The path component, percent-decoded.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub params: Vec<(String, String)>,
    /// Headers in order of appearance; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (`name` is matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response the handler returns.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A `200 OK` plain-text response (the §9 published filter format).
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A binary (MRT download) response.
    pub fn octets(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: "application/octet-stream",
            body,
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, msg: &str) -> Response {
        let body = crate::json::Json::obj([("error", crate::json::Json::str(msg))])
            .encode()
            .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }
}

/// What a raw handler did with a request.
pub enum Handled {
    /// An ordinary response; the worker writes it and (keep-alive
    /// permitting) parses the next request.
    Response(Response),
    /// The handler takes the socket: the closure runs on a **dedicated
    /// streamer thread** outside the bounded worker pool, receives the
    /// stream plus the server's stop flag, and must poll the flag so
    /// [`HttpServer::stop`] can join it. It writes its own response bytes
    /// (status line, headers, body) from scratch.
    Takeover(Box<dyn FnOnce(TcpStream, Arc<AtomicBool>) + Send>),
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Serving counters (exposed for tests and shutdown logging).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicUsize,
    /// Responses handed to the socket (any status), counted just before
    /// the write: a client that has read a response never sees this
    /// counter behind it. A response whose write fails is still counted.
    pub served: AtomicUsize,
    /// Connections refused because the queue was full.
    pub refused: AtomicUsize,
    /// Connections dropped on read timeout / parse failure.
    pub bad_requests: AtomicUsize,
    /// Connections handed off to streamer threads.
    pub takeovers: AtomicUsize,
}

/// The running server: owns the acceptor, worker, and streamer threads.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    /// The acceptor thread, until [`HttpServer::stop`] has woken it.
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    streamers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 = ephemeral) and starts serving; `handler`
    /// maps a parsed request to a response and must be `Send + Sync`
    /// (workers share it).
    pub fn start<H>(addr: &str, cfg: ServerConfig, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        HttpServer::start_with(addr, cfg, move |req| Handled::Response(handler(req)))
    }

    /// Like [`HttpServer::start`] but the handler may also claim the raw
    /// socket with [`Handled::Takeover`] (streaming endpoints).
    pub fn start_with<H>(addr: &str, cfg: ServerConfig, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Handled + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let handler = Arc::new(handler);
        let streamers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = bounded(cfg.backlog);

        let mut workers = Vec::new();
        for _ in 0..cfg.workers.max(1) {
            let rx = rx.clone();
            let stop = stop.clone();
            let stats = stats.clone();
            let handler = handler.clone();
            let cfg = cfg.clone();
            let streamers = streamers.clone();
            workers.push(std::thread::spawn(move || loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(stream) => {
                        serve_connection(stream, &cfg, &*handler, &stats, &streamers, &stop)
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                }
            }));
        }

        let acceptor = {
            let stop = stop.clone();
            let stats = stats.clone();
            std::thread::spawn(move || loop {
                match listener.accept() {
                    // after `stop` the connection is the wake-up (or a
                    // client racing it): neither is counted or served
                    Ok(_) if stop.load(Ordering::SeqCst) => return,
                    Ok((stream, _)) => {
                        stats.accepted.fetch_add(1, Ordering::Relaxed);
                        match tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(mut stream)) => {
                                stats.refused.fetch_add(1, Ordering::Relaxed);
                                let _ = stream.write_all(
                                    b"HTTP/1.1 503 Service Unavailable\r\n\
                                      Content-Length: 0\r\nConnection: close\r\n\r\n",
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => return,
                        }
                    }
                    Err(_) if stop.load(Ordering::SeqCst) => return,
                    // out of fds and the like: back off instead of spinning
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })
        };

        Ok(HttpServer {
            addr: local,
            stop,
            stats,
            acceptor: Some(acceptor),
            workers,
            streamers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stops accepting, drains workers, joins all threads (streamers
    /// included — takeover closures observe the stop flag and exit).
    ///
    /// The blocked acceptor is woken by one loopback connect to the
    /// listening port (localhost when bound to an unspecified address).
    /// If that connect fails the acceptor is left detached rather than
    /// joined, so `stop` stays bounded.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = acceptor.join();
            }
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<_> = self
            .streamers
            .lock()
            .map(|mut v| v.drain(..).collect())
            .unwrap_or_default();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    cfg: &ServerConfig,
    handler: &(dyn Fn(&Request) -> Handled + Send + Sync),
    stats: &ServerStats,
    streamers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
    stop: &Arc<AtomicBool>,
) {
    stream.set_read_timeout(Some(cfg.read_timeout)).ok();
    stream.set_write_timeout(Some(cfg.write_timeout)).ok();
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut served_here = 0usize;
    loop {
        let head = match next_head(&mut stream, &mut buf, cfg.max_head_bytes) {
            Ok(head) => head,
            Err(HeadError::Closed) => return, // clean EOF between requests
            Err(HeadError::TooLarge) => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                finish(
                    &mut stream,
                    Response::error(413, "request head too large"),
                    stats,
                );
                return;
            }
            Err(HeadError::TimedOut) => {
                if served_here > 0 && buf.is_empty() {
                    // idle keep-alive connection: close silently
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                finish(
                    &mut stream,
                    Response::error(408, "read deadline exceeded"),
                    stats,
                );
                return;
            }
            Err(HeadError::Io) => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                return; // peer vanished; nothing to write to
            }
        };
        let req = match parse_request(&head) {
            Some(req) if req.method == "GET" => req,
            Some(_) => {
                finish(
                    &mut stream,
                    Response::error(405, "only GET is supported"),
                    stats,
                );
                return;
            }
            None => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                finish(
                    &mut stream,
                    Response::error(400, "malformed request"),
                    stats,
                );
                return;
            }
        };
        served_here += 1;
        let keep_alive = served_here < cfg.max_requests_per_conn
            && !req
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        match handler(&req) {
            Handled::Response(response) => {
                stats.served.fetch_add(1, Ordering::Relaxed);
                let ok = write_response(&mut stream, &response, keep_alive);
                if !ok || !keep_alive {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
            Handled::Takeover(run) => {
                stats.served.fetch_add(1, Ordering::Relaxed);
                stats.takeovers.fetch_add(1, Ordering::Relaxed);
                let stop = stop.clone();
                let handle = std::thread::spawn(move || run(stream, stop));
                if let Ok(mut v) = streamers.lock() {
                    v.push(handle);
                }
                return;
            }
        }
    }
}

fn finish(stream: &mut TcpStream, response: Response, stats: &ServerStats) {
    stats.served.fetch_add(1, Ordering::Relaxed);
    let _ = write_response(stream, &response, false);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Writes head and body together, so the body never waits on the
/// client's delayed ACK of a separately sent head. One `write_vectored`
/// usually takes both; a partial write resumes where it stopped, and the
/// body is never copied.
fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> bool {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(&response.body)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match stream.write_vectored(pending) {
            Ok(0) => return false,
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

enum HeadError {
    TooLarge,
    TimedOut,
    Io,
    /// Clean EOF with no buffered bytes (keep-alive peer went away).
    Closed,
}

/// Extracts the next request head (through `\r\n\r\n`) from `buf`,
/// reading more from `stream` as needed. Bytes past the terminator —
/// pipelined requests — stay in `buf` for the next call.
fn next_head(stream: &mut TcpStream, buf: &mut Vec<u8>, max: usize) -> Result<Vec<u8>, HeadError> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let rest = buf.split_off(pos + 4);
            let head = std::mem::replace(buf, rest);
            return Ok(head);
        }
        if buf.len() > max {
            return Err(HeadError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    HeadError::Closed
                } else {
                    HeadError::Io
                })
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HeadError::TimedOut)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(HeadError::Io),
        }
    }
}

/// Parses a request head: request line `GET /path?query HTTP/1.1` plus
/// header lines (names lowercased).
fn parse_request(head: &[u8]) -> Option<Request> {
    let head = std::str::from_utf8(head).ok()?;
    let mut lines = head.lines();
    let line = lines.next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return None;
    }
    let mut headers = Vec::new();
    for l in lines {
        if l.is_empty() {
            break;
        }
        let (name, value) = l.split_once(':')?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw)?;
    let mut params = Vec::new();
    if let Some(q) = query_raw {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            params.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Some(Request {
        method,
        path,
        params,
        headers,
    })
}

/// Percent-decoding with `+` as space (query-string convention).
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot request: sends `Connection: close` so the server releases
    /// the worker immediately (one-shot clients should do the same).
    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head_end = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("complete head");
        let head = std::str::from_utf8(&buf[..head_end]).unwrap();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        (status, buf[head_end + 4..].to_vec())
    }

    /// Reads exactly one response off a keep-alive socket (parses
    /// Content-Length instead of waiting for EOF). `carry` holds bytes
    /// read past this response — pipelined follow-ups — for the next call.
    fn read_response(s: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, Vec<u8>, bool) {
        let mut buf = std::mem::take(carry);
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end]).unwrap().to_string();
        let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let keep_alive = head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("connection: keep-alive"));
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response body");
            body.extend_from_slice(&chunk[..n]);
        }
        *carry = body.split_off(content_length);
        (status, body, keep_alive)
    }

    fn echo_server() -> HttpServer {
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), |req| {
            if req.path == "/missing" {
                return Response::error(404, "nope");
            }
            Response::json(format!(
                "{{\"path\":\"{}\",\"q\":\"{}\"}}",
                req.path,
                req.param("q").unwrap_or("")
            ))
        })
        .unwrap()
    }

    #[test]
    fn serves_parsed_requests() {
        let mut srv = echo_server();
        let (code, body) = get(srv.local_addr(), "/routes?q=10.0.0.0%2F8");
        assert_eq!(code, 200);
        assert_eq!(body, b"{\"path\":\"/routes\",\"q\":\"10.0.0.0/8\"}");
        let (code, _) = get(srv.local_addr(), "/missing");
        assert_eq!(code, 404);
        srv.stop();
        assert!(srv.stats().served.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn status_lines_name_their_codes() {
        assert_eq!(status_text(500), "Internal Server Error");
        assert_eq!(status_text(400), "Bad Request");
        assert_eq!(status_text(599), "Error");
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let mut srv = echo_server();
        let addr = srv.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST / HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf)
            .unwrap()
            .starts_with("HTTP/1.1 405"));

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"complete garbage\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf)
            .unwrap()
            .starts_with("HTTP/1.1 400"));
        srv.stop();
    }

    #[test]
    fn read_deadline_times_out_stalled_clients() {
        let cfg = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let mut srv =
            HttpServer::start("127.0.0.1:0", cfg, |_| Response::json("{}".to_string())).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        // send half a request and stall
        s.write_all(b"GET / HT").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        assert!(
            std::str::from_utf8(&buf)
                .unwrap()
                .starts_with("HTTP/1.1 408"),
            "stalled client must get 408, got {:?}",
            std::str::from_utf8(&buf)
        );
        srv.stop();
        assert_eq!(srv.stats().bad_requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let mut srv = echo_server();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        let mut carry = Vec::new();
        for i in 0..3 {
            write!(s, "GET /r{i}?q=v{i} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (code, body, keep_alive) = read_response(&mut s, &mut carry);
            assert_eq!(code, 200);
            assert_eq!(
                body,
                format!("{{\"path\":\"/r{i}\",\"q\":\"v{i}\"}}").into_bytes()
            );
            assert!(keep_alive, "request {i} should keep the connection open");
        }
        srv.stop();
        assert_eq!(srv.stats().served.load(Ordering::Relaxed), 3);
        assert_eq!(
            srv.stats().accepted.load(Ordering::Relaxed),
            1,
            "all three requests used one connection"
        );
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let mut srv = echo_server();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        // both requests in one write; second asks to close
        s.write_all(
            b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /b HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut carry = Vec::new();
        let (code_a, body_a, _) = read_response(&mut s, &mut carry);
        let (code_b, body_b, keep_b) = read_response(&mut s, &mut carry);
        assert_eq!((code_a, code_b), (200, 200));
        assert_eq!(body_a, b"{\"path\":\"/a\",\"q\":\"\"}");
        assert_eq!(body_b, b"{\"path\":\"/b\",\"q\":\"\"}");
        assert!(!keep_b, "Connection: close must be honored");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after second response");
        srv.stop();
        assert_eq!(srv.stats().served.load(Ordering::Relaxed), 2);
        assert_eq!(srv.stats().accepted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn request_cap_forces_connection_close() {
        let cfg = ServerConfig {
            max_requests_per_conn: 2,
            ..ServerConfig::default()
        };
        let mut srv =
            HttpServer::start("127.0.0.1:0", cfg, |_| Response::json("{}".to_string())).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        write!(s, "GET /1 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut carry = Vec::new();
        let (_, _, keep1) = read_response(&mut s, &mut carry);
        assert!(keep1);
        write!(s, "GET /2 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (_, _, keep2) = read_response(&mut s, &mut carry);
        assert!(!keep2, "second request hits the per-connection cap");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        srv.stop();
    }

    #[test]
    fn idle_keep_alive_connection_closes_silently() {
        let cfg = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let mut srv =
            HttpServer::start("127.0.0.1:0", cfg, |_| Response::json("{}".to_string())).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        write!(s, "GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (code, _, keep_alive) = read_response(&mut s, &mut Vec::new());
        assert_eq!(code, 200);
        assert!(keep_alive);
        // go idle; the server must close without writing a 408
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "idle close writes nothing, got {rest:?}");
        srv.stop();
        assert_eq!(
            srv.stats().bad_requests.load(Ordering::Relaxed),
            0,
            "idle keep-alive close is not a bad request"
        );
    }

    #[test]
    fn takeover_runs_on_streamer_thread_and_joins_on_stop() {
        let cfg = ServerConfig::default();
        let mut srv = HttpServer::start_with("127.0.0.1:0", cfg, |req| {
            if req.path == "/stream" {
                Handled::Takeover(Box::new(|mut stream: TcpStream, stop| {
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
                          Connection: close\r\nContent-Length: 2\r\n\r\nok",
                    );
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    // hold the thread until the server stops to prove
                    // stop() joins streamers
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }))
            } else {
                Handled::Response(Response::json("{}".to_string()))
            }
        })
        .unwrap();
        let (code, body) = get(srv.local_addr(), "/stream");
        assert_eq!(code, 200);
        assert_eq!(body, b"ok");
        // workers stay free while the streamer holds its thread
        let (code, _) = get(srv.local_addr(), "/other");
        assert_eq!(code, 200);
        assert_eq!(srv.stats().takeovers.load(Ordering::Relaxed), 1);
        srv.stop();
    }

    #[test]
    fn concurrent_requests_across_workers() {
        let mut srv = echo_server();
        let addr = srv.local_addr();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let (code, body) = get(addr, &format!("/p{i}?q=v{i}"));
                    assert_eq!(code, 200);
                    assert!(!body.is_empty());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        srv.stop();
        assert_eq!(srv.stats().served.load(Ordering::Relaxed), 16);
    }

    /// Response bodies larger than one small segment, so a head written
    /// on its own would hold them back until the client ACKs the head;
    /// `/huge` is far larger than the loopback socket buffers, so its
    /// write cannot finish before the client reads.
    const HUGE: usize = 32 << 20;

    fn bulky_server() -> HttpServer {
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), |req| {
            match req.path.as_str() {
                "/huge" => Response::octets(vec![b'x'; HUGE]),
                path => Response::json(format!(
                    "{{\"path\":\"{path}\",\"pad\":\"{}\"}}",
                    "x".repeat(2_000)
                )),
            }
        })
        .unwrap()
    }

    #[test]
    fn keep_alive_responses_do_not_wait_for_delayed_acks() {
        let mut srv = bulky_server();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        let mut carry = Vec::new();
        let t0 = std::time::Instant::now();
        for i in 0..20 {
            // one write: `write!` would split the request into pieces and
            // put the client's own Nagle stall into the measurement
            s.write_all(format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
            let (code, body, keep_alive) = read_response(&mut s, &mut carry);
            assert_eq!(code, 200);
            assert!(body.len() > 2_000 && keep_alive);
        }
        // a ~40 ms delayed-ACK stall per response would need >= 800 ms
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(400),
            "20 requests took {took:?}"
        );
        srv.stop();
    }

    #[test]
    fn served_is_counted_before_the_client_can_read_the_response() {
        let srv = bulky_server();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"GET /huge HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // nothing read yet, so only a count taken before the write shows
        let t0 = std::time::Instant::now();
        while srv.stats().served.load(Ordering::Relaxed) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "not counted while its write is pending"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut carry = Vec::new();
        let huge = read_response(&mut s, &mut carry).1;
        assert_eq!(huge.len(), HUGE);
        // resumed partial writes neither skip nor repeat a byte
        assert!(huge.iter().all(|&b| b == b'x'), "body corrupted");
        for i in 2..=10 {
            s.write_all(format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
            read_response(&mut s, &mut carry);
            // no stop(): the counter must already include what was read
            assert_eq!(srv.stats().served.load(Ordering::Relaxed), i);
        }
    }

    #[test]
    fn stop_wakes_the_blocking_acceptor_without_counting_the_wake() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let mut srv = HttpServer::start(bind, ServerConfig::default(), |_| {
                Response::json("{}".into())
            })
            .unwrap();
            let port = srv.local_addr().port();
            let (code, _) = get(SocketAddr::from(([127, 0, 0, 1], port)), "/x");
            assert_eq!(code, 200);
            let t0 = std::time::Instant::now();
            srv.stop();
            let took = t0.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "stop on {bind} took {took:?}"
            );
            assert_eq!(srv.stats().accepted.load(Ordering::Relaxed), 1, "{bind}");
            assert!(
                TcpStream::connect(("127.0.0.1", port)).is_err(),
                "{bind}: listener closed after stop"
            );
        }
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c").unwrap(), "a/b c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("%zz").is_none());
        assert!(percent_decode("%2").is_none());
    }

    #[test]
    fn headers_are_parsed_case_insensitively() {
        let head = b"GET /x HTTP/1.1\r\nHost: h\r\nX-Thing:  spaced  \r\n\r\n";
        let req = parse_request(head).unwrap();
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("X-THING"), Some("spaced"));
        assert_eq!(req.header("absent"), None);
    }
}
