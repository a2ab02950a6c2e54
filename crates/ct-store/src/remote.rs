//! The remote store: a hand-rolled HTTP/1.1 wire protocol and the
//! client backend that speaks it.
//!
//! `ct serve` exposes a store over plain HTTP/1.1 so concurrent
//! shards, on one machine or many, run against one shared store. The
//! protocol is deliberately minimal — no dependencies, no chunked
//! encoding — because the workload is small framed records, not web
//! traffic:
//!
//! ```text
//! GET    /objects/<hex32>            200 body = CTSTORE1 frame | 404 miss
//! PUT    /objects/<hex32>  frame →   204 stored
//! DELETE /objects/<hex32>            200 body = "1" | "0"  (evicted?)
//! DELETE /objects/<hex32>?corrupt=1  204 invalidated
//! GET    /probe?...                  200 state-probability CSV
//! GET    /healthz                    200 "ok\n"
//! GET    /metricsz                   200 ct-obs snapshot CSV
//! ```
//!
//! Object bodies are the [`crate::format`] CTSTORE1 frame — the same
//! bytes a segment entry stores on disk — so the record checksum
//! protects the payload *end to end*: a bit flipped on the wire is
//! caught by the receiver exactly like a bit rotted on disk. Every
//! message carries `Content-Length` and an explicit `Connection:`
//! header; connections are **kept alive and pipelined** by default
//! (HTTP/1.1 semantics: keep-alive unless either side says `close`,
//! and HTTP/1.0 peers get one request per connection exactly as
//! before). [`parse_request`] is the single incremental parser the
//! server's connection threads build on, so framing limits
//! (`MAX_HEAD_BYTES`, [`MAX_BODY_BYTES`]) apply to every request,
//! pipelined or not. On the client side every exchange goes through
//! one [`ClientConn`], which reads responses with [`parse_response`]
//! off a buffer that persists across calls.
//!
//! [`RemoteStore`] implements [`StoreBackend`] over this protocol
//! through a bounded `pool::ConnPool` of kept-alive sockets,
//! with the store's budget-aware transient retries (extended to
//! connection-lifecycle errors) — a stale pooled socket or a
//! briefly-restarting server costs milliseconds, and a dead one
//! degrades callers to compute-without-cache exactly like a failing
//! disk. Server answers are classified by status: 5xx and transport
//! failures are *transient* (retry-budget eligible), while any other
//! 4xx than a miss is *permanent* — the request itself is wrong, so
//! the retry loop is skipped and the refusal surfaces as
//! [`StoreError::RemotePermanent`].

use crate::backend::StoreBackend;
use crate::error::StoreError;
use crate::format::{decode_record, encode_record};
use crate::hash::Digest;
use crate::metrics::MetricsSink;
use crate::pool::ConnPool;
use crate::retry;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on request/response head bytes (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on body bytes; far above any record the pipeline produces.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// The method verbatim (`GET`, `PUT`, `DELETE`, ...).
    pub method: String,
    /// The request target verbatim (path plus optional `?query`).
    pub target: String,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// The negotiated connection mode: `Connection:` header if
    /// present, else the version default (1.1 keeps alive, 1.0
    /// closes). The response must echo this negotiation.
    pub keep_alive: bool,
}

impl Request {
    /// The target split at the first `?`: `(path, query)`, query
    /// empty when absent.
    pub fn split_target(&self) -> (&str, &str) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (self.target.as_str(), ""),
        }
    }
}

/// One parsed HTTP/1.1 response.
#[derive(Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the server negotiated keeping the connection open
    /// (same rules as requests); `false` means do not reuse the
    /// socket — which is what a PR-7 server always answers.
    pub keep_alive: bool,
}

/// The value of `name` in an `a=1&b=2` query string.
pub fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Why a request could not be parsed; maps onto the 4xx the server
/// answers with (the connection thread survives every variant).
#[derive(Debug)]
pub enum RequestError {
    /// Garbage, truncation, or an unparsable frame: 400.
    BadRequest(&'static str),
    /// Head grew past `MAX_HEAD_BYTES`: 431.
    HeadTooLarge,
    /// `Content-Length` past [`MAX_BODY_BYTES`]: 413.
    BodyTooLarge,
    /// A transport error below HTTP; nothing to answer.
    Io(std::io::Error),
}

impl RequestError {
    /// The status line this error is answered with, or `None` when
    /// the transport is already gone.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RequestError::BadRequest(_) => Some((400, "Bad Request")),
            RequestError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            RequestError::BodyTooLarge => Some((413, "Payload Too Large")),
            RequestError::Io(_) => None,
        }
    }

    /// The one-line detail the 4xx body carries.
    pub fn detail(&self) -> &'static str {
        match self {
            RequestError::BadRequest(why) => why,
            _ => "request exceeds protocol limits",
        }
    }
}

/// The position of the `\r\n\r\n` head terminator in `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The `Content-Length` among raw header lines, if present and valid.
fn content_length(head: &[u8]) -> Result<Option<usize>, &'static str> {
    match header_value(head, "content-length")? {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| "unparsable Content-Length"),
    }
}

/// The trimmed value of header `name` (ASCII case-insensitive) among
/// raw header lines, or an error for a non-UTF-8 line.
fn header_value<'a>(head: &'a [u8], name: &str) -> Result<Option<&'a str>, &'static str> {
    for line in head.split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).map_err(|_| "non-UTF-8 header line")?;
        let Some((n, value)) = line.split_once(':') else {
            continue;
        };
        if n.trim().eq_ignore_ascii_case(name) {
            return Ok(Some(value.trim_end_matches('\r').trim()));
        }
    }
    Ok(None)
}

/// The negotiated connection mode for a message whose first line
/// declared `version`: an explicit `Connection:` header wins, else
/// HTTP/1.1 keeps alive and HTTP/1.0 closes.
fn negotiated_keep_alive(head: &[u8], version: &str) -> bool {
    match header_value(head, "connection") {
        Ok(Some(v)) if v.eq_ignore_ascii_case("close") => false,
        Ok(Some(v)) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version != "HTTP/1.0",
    }
}

/// Incrementally parses one request from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a request
/// (read more and call again), or `Ok(Some((request, consumed)))`
/// where `consumed` bytes belong to this request — anything after
/// them is the next pipelined request. The head and body caps apply
/// per request, so a pipelined stream obeys exactly the limits of
/// the one-shot path.
///
/// # Errors
///
/// Any [`RequestError`] except `Io` (this function does no I/O);
/// malformed input is classified, not trusted.
#[allow(clippy::type_complexity)]
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, RequestError> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(RequestError::HeadTooLarge);
    }
    let head = &buf[..head_len];
    let request_line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| RequestError::BadRequest("non-UTF-8 request line"))?
        .trim_end_matches('\r');
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(RequestError::BadRequest("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest("unsupported protocol version"));
    }
    let declared = content_length(head)
        .map_err(RequestError::BadRequest)?
        .unwrap_or(0);
    if declared > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge);
    }
    let body_start = head_len + 4;
    let consumed = body_start + declared;
    if buf.len() < consumed {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method: method.to_string(),
            target: target.to_string(),
            body: buf[body_start..consumed].to_vec(),
            keep_alive: negotiated_keep_alive(head, version),
        },
        consumed,
    )))
}

/// The header `Connection:` carries for a negotiated mode.
fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Encodes one request with `Content-Length` and the negotiated
/// `Connection:` header.
pub fn encode_request(method: &str, target: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        connection_header(keep_alive)
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Encodes one response with `Content-Length` and the negotiated
/// `Connection:` header — the header reflects what the server will
/// actually do with the socket, never an unconditional `close`.
pub fn encode_response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut wire = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        connection_header(keep_alive)
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Tries to parse one complete response from the front of `buf`.
///
/// `Ok(None)` means the buffer holds a valid *prefix* — read more
/// bytes and try again. `Ok(Some((response, used)))` consumed
/// `buf[..used]`, leaving any pipelined successor in place — this is
/// what lets a benchmark client keep several requests in flight on
/// one socket and peel answers off as they land.
///
/// # Errors
///
/// `InvalidData` for oversized heads/bodies and malformed status
/// lines: transport worked, the peer is not speaking our HTTP.
pub fn parse_response(buf: &[u8]) -> std::io::Result<Option<(Response, usize)>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(bad("response head too large"));
    }
    let head = &buf[..head_len];
    let status_line = std::str::from_utf8(head.split(|&b| b == b'\n').next().unwrap_or_default())
        .map_err(|_| bad("non-UTF-8 status line"))?
        .trim_end_matches('\r');
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let declared = content_length(head).map_err(bad)?.unwrap_or(0);
    if declared > MAX_BODY_BYTES {
        return Err(bad("response body too large"));
    }
    let body_start = head_len + 4;
    if buf.len() < body_start + declared {
        return Ok(None);
    }
    let body = buf[body_start..body_start + declared].to_vec();
    Ok(Some((
        Response {
            status,
            body,
            keep_alive: negotiated_keep_alive(head, version),
        },
        body_start + declared,
    )))
}

/// Dials give up on a silent host after this long.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads and writes of [`RemoteStore`] and `ct probe` give up after
/// this long. Generous because a cold `/probe` may build a whole case
/// study.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One kept-alive HTTP/1.1 client connection: a socket and the bytes
/// read from it that no response has taken yet.
///
/// Every client exchange in the workspace goes through this type, so
/// pipelined answers and partial reads are handled here once: the
/// buffer persists across calls, [`ClientConn::next_response`] takes
/// answers in the order the requests went out (HTTP/1.1 answers in
/// order), and [`ClientConn::arrived`] waits a bounded time for
/// whatever is there. After any error the connection's framing is
/// unknown, so callers drop it.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    io_timeout: Duration,
    /// The read timeout the socket holds now, so a wait that repeats
    /// the last one costs no system call.
    read_timeout: Duration,
}

impl ClientConn {
    /// Dials `authority` (`host:port`) with Nagle off, giving up after
    /// 5 s; reads and writes then give up after `io_timeout`.
    ///
    /// # Errors
    ///
    /// Resolution, refused or timed-out dials.
    pub fn dial(authority: &str, io_timeout: Duration) -> io::Result<Self> {
        let addr = authority
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("authority resolved to no address"))?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            io_timeout,
            read_timeout: io_timeout,
        })
    }

    /// Writes encoded requests ([`encode_request`]), one or several
    /// pipelined, or any other bytes.
    ///
    /// # Errors
    ///
    /// Transport failures, including the write timeout.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Closes the sending half; the server still answers what it has.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn close_write(&self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// The next response, waiting up to the IO timeout for each read.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closes first, `TimedOut` when a
    /// read waits out the IO timeout, other transport failures, and
    /// `InvalidData` for a response that is not our HTTP — a server
    /// speaking garbage will not improve on retry.
    pub fn next_response(&mut self) -> io::Result<Response> {
        loop {
            if let Some(response) = self.take()? {
                return Ok(response);
            }
            if !self.fill(self.io_timeout)? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no response within {:?}", self.io_timeout),
                ));
            }
        }
    }

    /// The answer to the one request in flight: [`ClientConn::next_response`],
    /// with bytes past it an error.
    ///
    /// # Errors
    ///
    /// As `next_response`; `InvalidData` also when more bytes arrived —
    /// they would belong to a response nobody asked for.
    pub fn answer(&mut self) -> io::Result<Response> {
        let response = self.next_response()?;
        if !self.buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response body longer than Content-Length",
            ));
        }
        Ok(response)
    }

    /// Every response that has arrived, in order, possibly none: when
    /// none is buffered, waits at most `wait` for one read.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server has closed, other transport
    /// failures, and `InvalidData` for a response that is not our HTTP.
    pub fn arrived(&mut self, wait: Duration) -> io::Result<Vec<Response>> {
        let mut out = Vec::new();
        while let Some(response) = self.take()? {
            out.push(response);
        }
        if out.is_empty() && self.fill(wait)? {
            while let Some(response) = self.take()? {
                out.push(response);
            }
        }
        Ok(out)
    }

    /// Whether every byte read so far belongs to a taken response —
    /// the only state in which the socket may be reused.
    pub fn is_drained(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the server has neither closed the socket nor sent
    /// anything unasked: a nonblocking 1-byte peek must say "no data
    /// yet" (`WouldBlock`). EOF, ready bytes and any other error all
    /// mean the socket cannot carry a fresh exchange.
    pub(crate) fn peer_is_quiet(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let quiet = matches!(
            self.stream.peek(&mut probe),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
        );
        quiet && self.stream.set_nonblocking(false).is_ok()
    }

    /// Takes the response at the front of the buffer, if complete.
    fn take(&mut self) -> io::Result<Option<Response>> {
        let Some((response, used)) = parse_response(&self.buf)? else {
            return Ok(None);
        };
        self.buf.drain(..used);
        Ok(Some(response))
    }

    /// One read, waiting at most `wait` — a zero wait reads without
    /// blocking, since a zero socket timeout would block forever: true
    /// when bytes arrived, false when the wait ran out. The socket's
    /// read timeout counts in kernel ticks, so a wait that runs out can
    /// run a few milliseconds long; data ends it at once.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server has closed, other transport
    /// failures.
    fn fill(&mut self, wait: Duration) -> io::Result<bool> {
        let nonblocking = wait.is_zero();
        if nonblocking {
            self.stream.set_nonblocking(true)?;
        } else if wait != self.read_timeout {
            self.stream.set_read_timeout(Some(wait))?;
            self.read_timeout = wait;
        }
        let mut chunk = [0u8; 16 * 1024];
        let read = self.stream.read(&mut chunk);
        if nonblocking {
            self.stream.set_nonblocking(false)?;
        }
        match read {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

/// The HTTP client backend: a [`StoreBackend`] whose records live on
/// a `ct serve` daemon. Cheap to clone — clones share one bounded
/// `ConnPool` of kept-alive sockets (health-checked on
/// checkout), so shard/merge runs stop paying a
/// TCP dial per artifact. Budget-aware retries absorb transient
/// connect/transport errors (a retired stale socket redials under
/// the same budget), `store.remote.*` counters and a round-trip
/// histogram cover every operation, and permanent 4xx refusals skip
/// the retry loop entirely.
#[derive(Debug, Clone)]
pub struct RemoteStore {
    authority: String,
    sink: MetricsSink,
    pool: Arc<ConnPool>,
}

impl RemoteStore {
    /// A client for the server at `authority` (`host:port`). No I/O
    /// happens until the first operation, so constructing a client
    /// for a down server is fine — the first operation fails and the
    /// caller degrades.
    pub fn connect(authority: impl Into<String>) -> Self {
        Self::with_sink(authority.into(), MetricsSink::Global)
    }

    /// Like [`RemoteStore::connect`], counting to a caller-owned
    /// registry — for tests that assert exact `store.remote.*` values.
    pub fn connect_with_registry(
        authority: impl Into<String>,
        registry: Arc<ct_obs::Registry>,
    ) -> Self {
        Self::with_sink(authority.into(), MetricsSink::Local(registry))
    }

    fn with_sink(authority: String, sink: MetricsSink) -> Self {
        let pool = Arc::new(ConnPool::new(authority.clone(), sink.clone()));
        Self {
            authority,
            sink,
            pool,
        }
    }

    fn add(&self, name: &str, delta: u64) {
        self.sink.add(name, delta);
    }

    /// One request-response cycle on a pooled connection, no retries.
    /// The socket goes back to the pool only after a clean exchange
    /// on which the server negotiated keep-alive; every failure path
    /// drops it, so a broken connection is never reused.
    fn round_trip(&self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut conn = self.pool.checkout()?;
        conn.send(&encode_request(method, target, body, true))?;
        let response = conn.answer()?;
        if (500..=599).contains(&response.status) {
            // A server-side failure is transient by classification:
            // surface it as a retryable connection-lifecycle error so
            // the retry budget applies, and drop the socket — the
            // server's state is suspect.
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("server answered {} for {method}", response.status),
            ));
        }
        if response.keep_alive {
            self.pool.checkin(conn);
        }
        Ok((response.status, response.body))
    }

    /// A full operation: retries transient transport errors and 5xx
    /// answers under the shared budget (counted like local retries),
    /// observes the round-trip latency, classifies any 4xx other
    /// than a miss as permanent (`store.remote.permanent`, no
    /// retries), and converts terminal transport failures into
    /// [`StoreError`] after counting them as `store.remote.errors`.
    fn op(&self, method: &str, target: &str, body: &[u8]) -> Result<(u16, Vec<u8>), StoreError> {
        let started = Instant::now();
        let result = retry::retry(
            retry::is_remote_transient,
            |wait_ms| {
                self.add(ct_obs::names::STORE_RETRIES, 1);
                self.sink.observe(
                    ct_obs::names::STORE_RETRY_WAIT_MS,
                    &ct_obs::names::STORE_RETRY_WAIT_MS_BOUNDS,
                    wait_ms as f64,
                );
            },
            || self.round_trip(method, target, body),
        );
        self.sink.observe(
            ct_obs::names::STORE_REMOTE_RTT_MS,
            &ct_obs::names::STORE_REMOTE_RTT_MS_BOUNDS,
            started.elapsed().as_secs_f64() * 1000.0,
        );
        let (status, body) = result.map_err(|e| self.fail(target, &e.to_string()))?;
        if (400..=499).contains(&status) && status != 404 {
            // The request itself was refused: retrying would repeat
            // the refusal byte for byte, so it skips the retry loop
            // and surfaces with the server's explanation attached.
            self.add(ct_obs::names::STORE_REMOTE_PERMANENT, 1);
            return Err(StoreError::RemotePermanent {
                url: format!("http://{}{target}", self.authority),
                status,
                message: String::from_utf8_lossy(&body).trim().to_string(),
            });
        }
        Ok((status, body))
    }

    /// Counts and builds the error for a failed operation.
    fn fail(&self, target: &str, message: &str) -> StoreError {
        self.add(ct_obs::names::STORE_REMOTE_ERRORS, 1);
        StoreError::Io {
            path: format!("http://{}{target}", self.authority),
            message: message.to_string(),
        }
    }

    fn object_target(key: &Digest) -> String {
        format!("/objects/{}", key.to_hex())
    }

    /// A GET's answer as [`StoreBackend::get`] gives it, counting the
    /// hit, the miss or the frame that failed its checksum; `None` for
    /// a status a GET is not answered with.
    fn get_answer(&self, status: u16, body: &[u8]) -> Option<Option<Vec<u8>>> {
        match status {
            200 => match decode_record(body) {
                Ok(payload) => {
                    self.add(ct_obs::names::STORE_REMOTE_HITS, 1);
                    self.add(ct_obs::names::STORE_BYTES_READ, payload.len() as u64);
                    Some(Some(payload.to_vec()))
                }
                // The frame checksum caught wire damage: report a
                // miss so the caller recomputes, exactly like a
                // corrupt record on local disk.
                Err(_) => {
                    self.add(ct_obs::names::STORE_CORRUPT_RECORDS, 1);
                    Some(None)
                }
            },
            404 => {
                self.add(ct_obs::names::STORE_REMOTE_MISSES, 1);
                Some(None)
            }
            _ => None,
        }
    }

    /// Sends one GET per key down one pooled connection at once
    /// (pipelined; the server answers in order) and pushes each 200 or
    /// 404 answer onto `out` as [`StoreBackend::get`] would give it.
    /// Stops at the first transport failure, unparsable answer, other
    /// status, or `Connection: close`, and drops the socket then;
    /// the keys past `out`'s new end are left for the caller.
    fn get_pipelined(&self, keys: &[Digest], out: &mut Vec<Result<Option<Vec<u8>>, StoreError>>) {
        let started = Instant::now();
        let Ok(mut conn) = self.pool.checkout() else {
            return;
        };
        let wire: Vec<u8> = keys
            .iter()
            .flat_map(|key| encode_request("GET", &Self::object_target(key), &[], true))
            .collect();
        if conn.send(&wire).is_err() {
            return;
        }
        for answered in 0..keys.len() {
            let Ok(response) = conn.next_response() else {
                return;
            };
            let Some(answer) = self.get_answer(response.status, &response.body) else {
                return;
            };
            self.add(ct_obs::names::STORE_REMOTE_GETS, 1);
            if answered > 0 {
                // A further request that rode the kept-alive
                // connection without a dial.
                self.add(ct_obs::names::STORE_REMOTE_POOL_HITS, 1);
            }
            self.sink.observe(
                ct_obs::names::STORE_REMOTE_RTT_MS,
                &ct_obs::names::STORE_REMOTE_RTT_MS_BOUNDS,
                started.elapsed().as_secs_f64() * 1000.0,
            );
            out.push(Ok(answer));
            if !response.keep_alive {
                return;
            }
        }
        self.pool.checkin(conn);
    }
}

/// GETs [`RemoteStore::get_many`] pipelines on one connection at a
/// time. Small enough that a batch's requests and answers fit the
/// socket buffers, so neither side blocks writing while the other
/// does too.
const GET_BATCH: usize = 64;

impl StoreBackend for RemoteStore {
    fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, StoreError> {
        self.add(ct_obs::names::STORE_REMOTE_GETS, 1);
        let target = Self::object_target(key);
        let (status, body) = self.op("GET", &target, &[])?;
        self.get_answer(status, &body)
            .ok_or_else(|| self.fail(&target, &format!("unexpected status {status} for GET")))
    }

    /// Pipelines the GETs in batches of 64 on one pooled
    /// keep-alive connection each. The keys a batch leaves unanswered
    /// (the connection failed, or the server closed it or answered
    /// something other than 200 or 404) go through [`StoreBackend::get`]
    /// one by one, with its retry budget, so every key gets the
    /// result and the counters a lone `get` would give it.
    fn get_many(&self, keys: &[Digest]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        let mut out = Vec::with_capacity(keys.len());
        for batch in keys.chunks(GET_BATCH) {
            let done = out.len();
            self.get_pipelined(batch, &mut out);
            for key in &batch[out.len() - done..] {
                out.push(self.get(key));
            }
        }
        out
    }

    fn put(&self, key: &Digest, payload: &[u8]) -> Result<(), StoreError> {
        self.add(ct_obs::names::STORE_REMOTE_PUTS, 1);
        let target = Self::object_target(key);
        let frame = encode_record(payload);
        let (status, _) = self.op("PUT", &target, &frame)?;
        match status {
            204 => Ok(()),
            s => Err(self.fail(&target, &format!("unexpected status {s} for PUT"))),
        }
    }

    fn evict(&self, key: &Digest) -> Result<bool, StoreError> {
        self.add(ct_obs::names::STORE_REMOTE_EVICTIONS, 1);
        let target = Self::object_target(key);
        let (status, body) = self.op("DELETE", &target, &[])?;
        match (status, body.as_slice()) {
            (200, b"1") => Ok(true),
            (200, b"0") => Ok(false),
            (s, _) => Err(self.fail(&target, &format!("unexpected status {s} for DELETE"))),
        }
    }

    fn invalidate(&self, key: &Digest) -> Result<(), StoreError> {
        self.add(ct_obs::names::STORE_REMOTE_EVICTIONS, 1);
        let target = format!("{}?corrupt=1", Self::object_target(key));
        let (status, _) = self.op("DELETE", &target, &[])?;
        match status {
            204 => Ok(()),
            s => Err(self.fail(&target, &format!("unexpected status {s} for DELETE"))),
        }
    }

    fn note_degraded(&self) {
        self.add(ct_obs::names::STORE_DEGRADED, 1);
    }

    fn clone_handle(&self) -> Arc<dyn StoreBackend> {
        Arc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads and validates one request from a blocking stream through
    /// [`parse_request`]; malformed input is classified, not trusted.
    fn read_request(stream: &mut impl Read) -> Result<Request, RequestError> {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 2048];
        loop {
            if let Some((request, _)) = parse_request(&buf)? {
                return Ok(request);
            }
            let n = stream.read(&mut chunk).map_err(RequestError::Io)?;
            if n == 0 {
                return Err(RequestError::BadRequest(if head_end(&buf).is_some() {
                    "connection closed mid-body"
                } else {
                    "truncated request head"
                }));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Round-trips a request through the encoder and the parser.
    fn reparse(method: &str, target: &str, body: &[u8]) -> Request {
        let wire = encode_request(method, target, body, true);
        read_request(&mut wire.as_slice()).unwrap()
    }

    #[test]
    fn request_codec_round_trips() {
        let req = reparse("PUT", "/objects/00ff", b"framed-bytes");
        assert_eq!(req.method, "PUT");
        assert_eq!(req.target, "/objects/00ff");
        assert_eq!(req.body, b"framed-bytes");
        assert!(req.keep_alive);
        let (path, query) = req.split_target();
        assert_eq!((path, query), ("/objects/00ff", ""));
    }

    #[test]
    fn connection_mode_negotiates_by_header_and_version() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET /x HTTP/1.1\r\n\r\n", true),
            (b"GET /x HTTP/1.0\r\n\r\n", false),
            (b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            (b"GET /x HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false),
        ];
        for (wire, want) in cases {
            let (req, _) = parse_request(wire).unwrap().expect("complete request");
            assert_eq!(
                req.keep_alive,
                *want,
                "wire {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let mut wire = encode_request("GET", "/healthz", &[], true);
        wire.extend(encode_request("PUT", "/objects/00ff", b"body!", true));
        wire.extend(encode_request("GET", "/metricsz", &[], false));
        let (first, used) = parse_request(&wire).unwrap().expect("first");
        assert_eq!(first.target, "/healthz");
        let (second, used2) = parse_request(&wire[used..]).unwrap().expect("second");
        assert_eq!(second.target, "/objects/00ff");
        assert_eq!(second.body, b"body!");
        let (third, used3) = parse_request(&wire[used + used2..])
            .unwrap()
            .expect("third");
        assert_eq!(third.target, "/metricsz");
        assert!(!third.keep_alive);
        assert_eq!(used + used2 + used3, wire.len());
        // A trailing fragment of the next request is "need more
        // bytes", never an error.
        assert!(parse_request(&wire[used..used + 3]).unwrap().is_none());
    }

    #[test]
    fn partial_reads_are_need_more_not_errors() {
        let wire = encode_request("PUT", "/objects/00ff", b"framed-bytes", true);
        for cut in 0..wire.len() {
            let parsed = parse_request(&wire[..cut]).unwrap();
            assert!(parsed.is_none(), "cut at {cut} should need more bytes");
        }
        let (req, consumed) = parse_request(&wire).unwrap().expect("complete");
        assert_eq!(consumed, wire.len());
        assert_eq!(req.body, b"framed-bytes");
    }

    #[test]
    fn query_params_parse() {
        let req = reparse("GET", "/probe?hazard=wind&realizations=60", &[]);
        let (path, query) = req.split_target();
        assert_eq!(path, "/probe");
        assert_eq!(query_param(query, "hazard"), Some("wind"));
        assert_eq!(query_param(query, "realizations"), Some("60"));
        assert_eq!(query_param(query, "scenario"), None);
    }

    #[test]
    fn response_codec_round_trips_both_modes() {
        for keep_alive in [true, false] {
            let wire = encode_response(200, "OK", "text/plain", b"ok\n", keep_alive);
            let (response, used) = parse_response(&wire).unwrap().expect("complete");
            assert_eq!(used, wire.len());
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"ok\n");
            assert_eq!(response.keep_alive, keep_alive);
        }
    }

    /// A loopback listener and a client connection to it.
    fn dialed(io_timeout: Duration) -> (std::net::TcpListener, ClientConn) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let conn = ClientConn::dial(&addr, io_timeout).unwrap();
        (listener, conn)
    }

    #[test]
    fn client_conn_takes_pipelined_answers_across_partial_reads() {
        let (listener, mut conn) = dialed(Duration::from_secs(5));
        let answers: Vec<u8> = [b"a".as_slice(), b"", b"ccc"]
            .iter()
            .flat_map(|body| encode_response(200, "OK", "text/plain", body, true))
            .collect();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            // Seven-byte fragments: every answer is split across reads.
            for fragment in answers.chunks(7) {
                stream.write_all(fragment).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            stream
        });
        assert_eq!(conn.next_response().unwrap().body, b"a");
        let mut rest = Vec::new();
        while rest.len() < 2 {
            rest.extend(conn.arrived(Duration::from_millis(50)).unwrap());
        }
        assert_eq!(
            (rest[0].body.as_slice(), rest[1].body.as_slice()),
            (&b""[..], &b"ccc"[..])
        );
        assert!(conn.is_drained());
        // Nothing more: a bounded wait comes back empty, then the close.
        let stream = server.join().unwrap();
        assert!(conn.arrived(Duration::from_millis(5)).unwrap().is_empty());
        drop(stream);
        let closed = conn.arrived(Duration::from_secs(5)).unwrap_err();
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn client_conn_answer_rejects_bytes_past_the_answer() {
        let (listener, mut conn) = dialed(Duration::from_secs(5));
        let (mut stream, _) = listener.accept().unwrap();
        let mut two = encode_response(200, "OK", "text/plain", b"one", true);
        two.extend(encode_response(200, "OK", "text/plain", b"two", true));
        stream.write_all(&two).unwrap();
        drop(stream);
        let err = conn.answer().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!conn.is_drained());
    }

    #[test]
    fn client_conn_gives_up_on_a_silent_server() {
        // The listener's backlog completes the dial; nobody answers.
        let (_listener, mut conn) = dialed(Duration::from_millis(100));
        conn.send(&encode_request("GET", "/healthz", &[], true))
            .unwrap();
        let started = Instant::now();
        let err = conn.next_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "got {err:?}");
        assert!(
            err.to_string().contains("no response within 100ms"),
            "got {err}"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn garbage_is_classified_not_trusted() {
        let cases: &[(&[u8], u16)] = &[
            (b"nonsense\r\n\r\n", 400),
            (b"GET\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 400),
            (b"GET x HTTP/1.1\r\n\r\n", 400),
            (b"truncated-no-terminator", 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        ];
        for (wire, want) in cases {
            let err = read_request(&mut &wire[..]).unwrap_err();
            let (status, _) = err.status().expect("answerable error");
            assert_eq!(status, *want, "wire {:?}", String::from_utf8_lossy(wire));
        }
    }

    #[test]
    fn oversized_declarations_are_rejected_without_reading() {
        let wire = format!(
            "PUT /objects/00 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut wire.as_bytes()).unwrap_err();
        assert_eq!(err.status(), Some((413, "Payload Too Large")));

        let mut huge_head = b"GET /x HTTP/1.1\r\n".to_vec();
        huge_head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 2));
        let err = read_request(&mut huge_head.as_slice()).unwrap_err();
        assert_eq!(err.status(), Some((431, "Request Header Fields Too Large")));
    }

    #[test]
    fn down_server_degrades_with_counted_error() {
        let reg = Arc::new(ct_obs::Registry::new());
        // Reserve a port nobody is listening on by binding and
        // dropping; racy in principle, fine in practice.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let remote =
            RemoteStore::connect_with_registry(format!("127.0.0.1:{port}"), Arc::clone(&reg));
        let key = {
            let mut h = crate::hash::StableHasher::new();
            h.write_str("down");
            h.finish()
        };
        let backend: &dyn StoreBackend = &remote;
        assert!(backend.get(&key).is_err());
        backend.note_degraded();
        let snap = reg.snapshot();
        assert_eq!(snap.counter(ct_obs::names::STORE_REMOTE_GETS), Some(1));
        assert_eq!(snap.counter(ct_obs::names::STORE_REMOTE_ERRORS), Some(1));
        assert_eq!(snap.counter(ct_obs::names::STORE_DEGRADED), Some(1));
        // Connection-refused is transient: the default 3 ms budget
        // admits exactly two retries (1 ms + 2 ms), each a fresh dial
        // through the pool.
        assert_eq!(snap.counter(ct_obs::names::STORE_RETRIES), Some(2));
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
            Some(3)
        );
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_PERMANENT)
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn permanent_refusals_skip_the_retry_loop() {
        let reg = Arc::new(ct_obs::Registry::new());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Answer every request with a 405 refusal, once each.
            for _ in 0..1 {
                let (mut stream, _) = listener.accept().unwrap();
                let _ = read_request(&mut stream).unwrap();
                let refusal =
                    encode_response(405, "Method Not Allowed", "text/plain", b"no", false);
                stream.write_all(&refusal).unwrap();
            }
        });
        let remote = RemoteStore::connect_with_registry(addr.to_string(), Arc::clone(&reg));
        let key = {
            let mut h = crate::hash::StableHasher::new();
            h.write_str("permanent");
            h.finish()
        };
        let err = StoreBackend::get(&remote, &key).unwrap_err();
        match &err {
            StoreError::RemotePermanent { status, .. } => assert_eq!(*status, 405),
            other => panic!("want RemotePermanent, got {other:?}"),
        }
        assert!(err.to_string().contains("405"), "got: {err}");
        server.join().unwrap();
        let snap = reg.snapshot();
        // No retries: the refusal is permanent, one dial total.
        assert_eq!(snap.counter(ct_obs::names::STORE_RETRIES).unwrap_or(0), 0);
        assert_eq!(snap.counter(ct_obs::names::STORE_REMOTE_PERMANENT), Some(1));
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
            Some(1)
        );
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_ERRORS)
                .unwrap_or(0),
            0
        );
    }
}
