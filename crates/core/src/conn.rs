//! One kept-alive `ct serve` connection on a blocking socket.
//!
//! The server hands each accepted socket to a connection thread,
//! which calls [`serve_connection`] until the connection ends. Each
//! pass
//!
//! 1. reads what the peer has sent (one blocking read),
//! 2. parses **every complete pipelined request** in the buffer with
//!    [`ct_store::remote::parse_request`], routing each through the
//!    [`Router`] and queueing its response,
//! 3. writes the whole batch with one `write_all`.
//!
//! Connection-mode rules, shared with the wire codec:
//!
//! - a routed response echoes the request's negotiated mode, so a
//!   routed 4xx (bad object key, unknown path) **keeps the
//!   connection alive** — the framing is intact, only the request
//!   was wrong;
//! - a *parse-level* 4xx (malformed head, oversized head or body)
//!   answers and then closes: after garbage, the request boundary is
//!   unknowable, so keeping the socket would misparse everything
//!   after it;
//! - the response to request number `max_requests` on one socket is
//!   marked `Connection: close` and the socket closes after it — the
//!   bound that keeps one immortal client from holding a thread
//!   forever;
//! - a peer quiet for the idle timeout, or one that stops reading
//!   its responses for as long, is closed and counted in
//!   `serve.idle_closes`.

use crate::error::CoreError;
use ct_store::remote::{encode_response, parse_request, Request};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One response, however the request went.
pub(crate) struct Reply {
    /// HTTP status code.
    pub(crate) status: u16,
    /// Status-line reason phrase.
    pub(crate) reason: &'static str,
    /// `Content-Type` header value.
    pub(crate) content_type: &'static str,
    /// Response body.
    pub(crate) body: Vec<u8>,
}

impl Reply {
    /// A plain-text reply.
    pub(crate) fn text(status: u16, reason: &'static str, body: impl Into<String>) -> Self {
        Reply {
            status,
            reason,
            content_type: "text/plain",
            body: body.into().into_bytes(),
        }
    }

    /// A framed store record.
    pub(crate) fn record(frame: Vec<u8>) -> Self {
        Reply {
            status: 200,
            reason: "OK",
            content_type: "application/octet-stream",
            body: frame,
        }
    }

    /// An empty 204.
    pub(crate) fn no_content() -> Self {
        Reply::text(204, "No Content", "")
    }

    /// A 400 with a one-line explanation.
    pub(crate) fn bad_request(message: &str) -> Self {
        Reply::text(400, "Bad Request", format!("{message}\n"))
    }

    /// A 500 carrying the error's display form.
    pub(crate) fn server_error(e: &CoreError) -> Self {
        Reply::text(500, "Internal Server Error", format!("{e}\n"))
    }
}

/// What the serving tier does with one parsed request. Implemented
/// by the server's shared state; [`serve_connection`] stays ignorant
/// of routes.
pub(crate) trait Router {
    /// Routes one request to a reply. Must not panic on hostile
    /// input — malformed *content* is a 4xx reply, not an error.
    fn route(&self, request: &Request) -> Reply;
}

/// Serves one accepted socket until the peer closes it, a response
/// says `Connection: close`, the peer goes idle, or `stop` is set.
/// Never panics on wire input; a hostile byte stream ends, at worst,
/// in a 4xx and a close.
///
/// Reads wait at most `min(tick, idle)`, which is how the thread
/// notices `stop` and the idle deadline; a write may block for
/// `idle`, so a peer that stops reading cannot hold the thread.
/// Records `serve.conn_lifetime_ms` once, and `serve.idle_closes`
/// when the idle deadline ends the connection.
pub(crate) fn serve_connection(
    mut stream: TcpStream,
    router: &impl Router,
    max_requests: u64,
    idle: Duration,
    tick: Duration,
    stop: &AtomicBool,
) {
    let opened = Instant::now();
    let idle = idle.max(Duration::from_millis(1));
    let timeouts = stream
        .set_read_timeout(Some(tick.min(idle).max(Duration::from_millis(1))))
        .and_then(|()| stream.set_write_timeout(Some(idle)));
    stream.set_nodelay(true).ok();
    let mut session = Session::default();
    let mut last_activity = opened;
    let mut idle_close = false;
    let mut chunk = [0u8; 16 * 1024];
    while timeouts.is_ok() && !session.closing && !stop.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            // EOF: a complete request still in the buffer is answered
            // (a half-closed client may be reading), a partial one
            // gets the truncation 400.
            Ok(0) => session.closing = true,
            Ok(n) => session.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if timed_out(&e) => {
                idle_close = last_activity.elapsed() >= idle;
                if idle_close {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        last_activity = Instant::now();
        session.drain_requests(router, max_requests);
        if !session.outbuf.is_empty() {
            if let Err(e) = stream.write_all(&session.outbuf) {
                idle_close = timed_out(&e);
                break;
            }
            session.outbuf.clear();
            last_activity = Instant::now();
        }
    }
    if idle_close {
        ct_obs::add(ct_obs::names::SERVE_IDLE_CLOSES, 1);
    }
    ct_obs::histogram(
        ct_obs::names::SERVE_CONN_LIFETIME_MS,
        &ct_obs::names::SERVE_CONN_LIFETIME_MS_BOUNDS,
    )
    .observe(opened.elapsed().as_secs_f64() * 1000.0);
}

/// Whether a socket error is an expired read or write timeout.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The buffers and keep-alive accounting of one connection.
#[derive(Default)]
struct Session {
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Requests answered on this socket (including parse-level 4xx).
    requests: u64,
    /// Answer what is queued, then close instead of reading more.
    closing: bool,
}

impl Session {
    /// Parses and routes every complete request in `inbuf`,
    /// queueing responses. Stops at a partial request (need more
    /// bytes), a parse error (answer, then close), or the
    /// max-requests bound.
    fn drain_requests(&mut self, router: &impl Router, max_requests: u64) {
        loop {
            if self.closing && self.inbuf.is_empty() {
                return;
            }
            match parse_request(&self.inbuf) {
                Ok(None) => {
                    if self.closing && !self.inbuf.is_empty() {
                        // EOF behind a partial request: answer the
                        // truncation like the one-shot server did,
                        // for clients that still read after shutdown.
                        self.queue_bad(400, "Bad Request", "truncated request\n");
                        self.inbuf.clear();
                    }
                    return;
                }
                Ok(Some((request, consumed))) => {
                    self.inbuf.drain(..consumed);
                    self.requests += 1;
                    ct_obs::add(ct_obs::names::SERVE_REQUESTS, 1);
                    if self.requests > 1 {
                        ct_obs::add(ct_obs::names::SERVE_KEEPALIVE_REUSES, 1);
                    }
                    let started = Instant::now();
                    let reply = router.route(&request);
                    if reply.status == 400 || reply.status == 404 {
                        ct_obs::add(ct_obs::names::SERVE_BAD_REQUESTS, 1);
                    }
                    let keep = request.keep_alive && self.requests < max_requests;
                    self.outbuf.extend_from_slice(&encode_response(
                        reply.status,
                        reply.reason,
                        reply.content_type,
                        &reply.body,
                        keep,
                    ));
                    ct_obs::histogram(
                        ct_obs::names::SERVE_REQUEST_MS,
                        &ct_obs::names::SERVE_REQUEST_MS_BOUNDS,
                    )
                    .observe(started.elapsed().as_secs_f64() * 1000.0);
                    if !keep {
                        self.closing = true;
                        self.inbuf.clear();
                        return;
                    }
                }
                Err(e) => {
                    // Parse-level failure: the request boundary is
                    // lost, so answer (when answerable) and close.
                    if let Some((status, reason)) = e.status() {
                        let detail = e.detail();
                        self.queue_bad(status, reason, &format!("{detail}\n"));
                    } else {
                        self.closing = true;
                    }
                    self.inbuf.clear();
                    return;
                }
            }
        }
    }

    /// Queues a parse-level 4xx (counted as a bad request) and marks
    /// the connection for closing: after unframeable input, nothing
    /// later on the socket can be trusted.
    fn queue_bad(&mut self, status: u16, reason: &'static str, body: &str) {
        self.requests += 1;
        ct_obs::add(ct_obs::names::SERVE_REQUESTS, 1);
        ct_obs::add(ct_obs::names::SERVE_BAD_REQUESTS, 1);
        self.outbuf.extend_from_slice(&encode_response(
            status,
            reason,
            "text/plain",
            body.as_bytes(),
            false,
        ));
        self.closing = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_store::remote::{encode_request, ClientConn, Response};
    use std::net::TcpListener;

    /// Takes `n` pipelined responses off one connection, in order.
    fn read_responses(client: &mut ClientConn, n: usize) -> Vec<Response> {
        (0..n).map(|_| client.next_response().unwrap()).collect()
    }

    /// Whether the server closed `client` with nothing more sent.
    fn closed_clean(client: &mut ClientConn) -> bool {
        let eof = matches!(
            client.next_response(),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
        );
        eof && client.is_drained()
    }

    /// Echoes the method and target; 404s a magic path.
    struct EchoRouter;

    impl Router for EchoRouter {
        fn route(&self, request: &Request) -> Reply {
            if request.target == "/missing" {
                return Reply::text(404, "Not Found", "nope\n");
            }
            Reply::text(
                200,
                "OK",
                format!("{} {}\n", request.method, request.target),
            )
        }
    }

    /// A loopback pair: the client connection and the accepted
    /// server end.
    fn pair() -> (ClientConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = ClientConn::dial(&addr, Duration::from_secs(2)).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        (client, server_end)
    }

    /// Serves `server_end` on this thread until the connection ends.
    fn serve(server_end: TcpStream, max_requests: u64) {
        let stop = AtomicBool::new(false);
        let tick = Duration::from_millis(100);
        serve_connection(
            server_end,
            &EchoRouter,
            max_requests,
            Duration::from_secs(5),
            tick,
            &stop,
        );
    }

    /// Writes `targets` as pipelined keep-alive GETs in one write.
    fn pipeline(client: &mut ClientConn, targets: &[&str]) {
        let wire: Vec<u8> = targets
            .iter()
            .flat_map(|target| encode_request("GET", target, &[], true))
            .collect();
        client.send(&wire).unwrap();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_one_socket() {
        let (mut client, server_end) = pair();
        pipeline(&mut client, &["/a", "/missing", "/b"]);
        // The client half-closes; every queued request is still
        // answered before the server closes.
        client.close_write().unwrap();
        serve(server_end, 1000);

        let responses = read_responses(&mut client, 3);
        assert_eq!((responses[0].status, responses[0].keep_alive), (200, true));
        assert_eq!(responses[0].body, b"GET /a\n");
        // The routed 404 keeps the connection alive: framing intact.
        assert_eq!((responses[1].status, responses[1].keep_alive), (404, true));
        assert_eq!(responses[2].body, b"GET /b\n");
    }

    #[test]
    fn parse_garbage_answers_400_and_closes() {
        let (mut client, server_end) = pair();
        client.send(b"florble grumble\r\n\r\n").unwrap();
        // Returns without the client closing: the garbage closes it.
        serve(server_end, 1000);
        let response = client.answer().unwrap();
        assert_eq!((response.status, response.keep_alive), (400, false));
    }

    #[test]
    fn max_requests_bound_marks_the_last_response_close() {
        let (mut client, server_end) = pair();
        pipeline(&mut client, &["/1", "/2", "/3"]);
        serve(server_end, 2);
        // Request #2 hits the bound; #3 is never answered.
        let responses = read_responses(&mut client, 2);
        assert!(responses[0].keep_alive);
        assert!(!responses[1].keep_alive);
        assert!(
            closed_clean(&mut client),
            "socket must be closed with nothing queued"
        );
    }

    #[test]
    fn client_close_request_is_honored() {
        let (mut client, server_end) = pair();
        client
            .send(&encode_request("GET", "/only", &[], false))
            .unwrap();
        serve(server_end, 1000);
        let response = client.answer().unwrap();
        assert_eq!((response.status, response.keep_alive), (200, false));
    }
}
