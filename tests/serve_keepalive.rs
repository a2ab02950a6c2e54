//! Keep-alive contracts of the serving tier, from the parser up to a
//! live daemon.
//!
//! Property layer: the server-side request parser
//! ([`ct_store::remote::parse_request`]) must survive arbitrary
//! garbage without panicking, agree with itself across every split
//! point of a valid byte stream (socket reads deliver bytes in
//! arbitrary fragments), and parse pipelined concatenations
//! sequentially.
//!
//! Integration layer: a live server honors keep-alive across
//! requests, keeps the connection alive through a *routed* 4xx,
//! closes after garbage with a 400 (and keeps serving everyone
//! else), enforces the idle timeout (`ServeOptions::idle_ms`) and
//! the max-requests bound, and counts
//! all of it (`serve.keepalive_reuses`, `serve.idle_closes`,
//! `serve.bad_requests`).

use compound_threats::serve::{ServeOptions, Server};
use ct_rand::{cases, SplitMix64};
use ct_store::remote::{encode_request, parse_request, ClientConn, Response};
use std::time::Duration;

/// Unique scratch directory for one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "ct-keepalive-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        Self(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn serve_with(root: &std::path::Path, configure: impl FnOnce(&mut ServeOptions)) -> Server {
    let mut options = ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    };
    configure(&mut options);
    Server::bind(root, &options).unwrap()
}

fn dial(server: &Server) -> ClientConn {
    ClientConn::dial(&server.addr().to_string(), Duration::from_secs(5)).unwrap()
}

/// Takes `n` responses off one kept-alive connection, in order (they
/// may arrive in one burst).
fn read_responses(conn: &mut ClientConn, n: usize) -> Vec<Response> {
    (0..n).map(|_| conn.next_response().unwrap()).collect()
}

/// Sends one kept-alive `GET /healthz`.
fn ask_health(conn: &mut ClientConn) {
    conn.send(&encode_request("GET", "/healthz", &[], true))
        .unwrap();
}

/// Whether the server closed `conn` with nothing more sent.
fn closed_clean(conn: &mut ClientConn) -> bool {
    let eof = matches!(
        conn.next_response(),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
    );
    eof && conn.is_drained()
}

fn global_counter(name: &str) -> u64 {
    ct_obs::snapshot().counter(name).unwrap_or(0)
}

/// Up to `max - 1` arbitrary bytes.
fn random_bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
}

/// Arbitrary bytes never panic the parser: every outcome is
/// need-more, a parsed request, or a classified error.
#[test]
fn request_parser_survives_arbitrary_garbage() {
    cases(256, |rng| {
        let bytes = random_bytes(rng, 600);
        match parse_request(&bytes) {
            Ok(None) | Ok(Some(_)) => {}
            Err(e) => {
                // Answerable errors carry a 4xx; unanswerable ones
                // (non-UTF-8 heads) still name themselves.
                if let Some((status, _)) = e.status() {
                    assert!((400..500).contains(&status));
                }
                assert!(!e.detail().is_empty());
            }
        }
    });
}

/// Every split point of a valid two-request pipeline agrees with
/// the whole: prefixes are need-more or the complete first
/// request, and the full buffer yields both in order.
#[test]
fn split_points_agree_with_the_whole_stream() {
    cases(256, |rng| {
        let split_seed = rng.next_u64() as u16;
        let body = random_bytes(rng, 64);
        let keep_first = rng.below(2) == 1;
        let first = encode_request("PUT", "/objects/aa", &body, keep_first);
        let second = encode_request("GET", "/healthz", &[], true);
        let wire: Vec<u8> = [first.clone(), second].concat();
        let split = split_seed as usize % (wire.len() + 1);

        let (one, used) = parse_request(&wire)
            .unwrap()
            .expect("complete first request");
        assert_eq!(used, first.len());
        assert_eq!(&one.method, "PUT");
        assert_eq!(&one.body, &body);
        assert_eq!(one.keep_alive, keep_first);
        let (two, used2) = parse_request(&wire[used..])
            .unwrap()
            .expect("complete second");
        assert_eq!(used + used2, wire.len());
        assert_eq!(&two.target, "/healthz");

        match parse_request(&wire[..split]).unwrap() {
            // A prefix shorter than the first request needs more.
            None => assert!(split < first.len()),
            // A longer prefix parses the identical first request.
            Some((prefix_first, prefix_used)) => {
                assert!(split >= first.len());
                assert_eq!(prefix_used, first.len());
                assert_eq!(prefix_first.method, one.method);
                assert_eq!(prefix_first.target, one.target);
                assert_eq!(prefix_first.body, one.body);
            }
        }
    });
}

#[test]
fn one_socket_serves_many_requests_and_counts_reuse() {
    let scratch = Scratch::new("reuse");
    let server = serve_with(&scratch.0, |_| {});
    let reuses_before = global_counter(ct_obs::names::SERVE_KEEPALIVE_REUSES);

    let mut stream = dial(&server);
    // Three pipelined requests, one write.
    let mut wire = Vec::new();
    for _ in 0..3 {
        wire.extend_from_slice(&encode_request("GET", "/healthz", &[], true));
    }
    stream.send(&wire).unwrap();
    let responses = read_responses(&mut stream, 3);
    for response in &responses {
        assert_eq!(response.status, 200);
        assert!(response.keep_alive);
        assert_eq!(response.body, b"ok\n");
    }
    // A fourth, sent separately on the same socket, still answers.
    ask_health(&mut stream);
    assert_eq!(read_responses(&mut stream, 1)[0].status, 200);

    assert!(
        global_counter(ct_obs::names::SERVE_KEEPALIVE_REUSES) >= reuses_before + 3,
        "requests 2-4 on one socket are reuses"
    );
}

#[test]
fn routed_4xx_keeps_the_connection_alive() {
    let scratch = Scratch::new("routed4xx");
    let server = serve_with(&scratch.0, |_| {});

    let mut stream = dial(&server);
    stream
        .send(&encode_request("GET", "/florble", &[], true))
        .unwrap();
    let miss = read_responses(&mut stream, 1).remove(0);
    assert_eq!(miss.status, 404);
    assert!(miss.keep_alive, "a routed miss must not cost the socket");
    // Same socket, next request: still served.
    ask_health(&mut stream);
    let ok = read_responses(&mut stream, 1).remove(0);
    assert_eq!((ok.status, ok.keep_alive), (200, true));
}

#[test]
fn garbage_answers_400_then_closes_without_hurting_others() {
    let scratch = Scratch::new("garbage");
    let server = serve_with(&scratch.0, |_| {});
    let bad_before = global_counter(ct_obs::names::SERVE_BAD_REQUESTS);

    // A healthy kept-alive bystander, mid-session.
    let mut bystander = dial(&server);
    ask_health(&mut bystander);
    assert_eq!(read_responses(&mut bystander, 1)[0].status, 200);

    let mut vandal = dial(&server);
    vandal.send(b"florble grumble\r\n\r\n").unwrap();
    let answer = vandal.answer().unwrap();
    assert_eq!(answer.status, 400);
    assert!(!answer.keep_alive, "framing is lost after garbage");
    assert!(closed_clean(&mut vandal), "the vandal's socket is closed");

    // The bystander's session survived the vandal.
    ask_health(&mut bystander);
    assert_eq!(read_responses(&mut bystander, 1)[0].status, 200);
    assert!(global_counter(ct_obs::names::SERVE_BAD_REQUESTS) > bad_before);
}

#[test]
fn idle_connections_are_swept_and_counted() {
    let scratch = Scratch::new("idle");
    let server = serve_with(&scratch.0, |options| options.idle_ms = 50);
    let idle_before = global_counter(ct_obs::names::SERVE_IDLE_CLOSES);

    let mut stream = dial(&server);
    ask_health(&mut stream);
    assert_eq!(read_responses(&mut stream, 1)[0].status, 200);

    // Go quiet past the idle timeout (+ the connection thread's read
    // tick); the 5 s read timeout is far past both.
    assert!(
        closed_clean(&mut stream),
        "the server closes an idle kept-alive socket"
    );
    assert!(global_counter(ct_obs::names::SERVE_IDLE_CLOSES) > idle_before);
}

#[test]
fn max_requests_bound_closes_the_session_politely() {
    let scratch = Scratch::new("bound");
    let server = serve_with(&scratch.0, |options| options.max_requests = 3);

    let mut stream = dial(&server);
    let mut wire = Vec::new();
    for _ in 0..3 {
        wire.extend_from_slice(&encode_request("GET", "/healthz", &[], true));
    }
    stream.send(&wire).unwrap();
    let responses = read_responses(&mut stream, 3);
    assert!(responses[0].keep_alive);
    assert!(responses[1].keep_alive);
    assert!(
        !responses[2].keep_alive,
        "the final response announces the close"
    );
    assert!(
        closed_clean(&mut stream),
        "the socket closes after the bound"
    );

    // The next session on a fresh dial is unaffected.
    let mut fresh = dial(&server);
    ask_health(&mut fresh);
    assert_eq!(read_responses(&mut fresh, 1)[0].status, 200);
}
