//! `ct bench-serve`: a load generator for the serving tier.
//!
//! The keep-alive rework (see DESIGN.md) claims one thing: a client
//! that stops dialing per operation gets its latency back. This
//! module measures it. N connection threads each hold one kept-alive
//! socket to a `ct serve` daemon and drive object traffic over it in
//! one of two disciplines:
//!
//! - **closed loop** (default): each connection keeps M requests
//!   pipelined in flight; a response completing immediately releases
//!   the next request. Measures the server's capacity — throughput at
//!   full pressure — plus the latency under that pressure.
//! - **open loop**: requests are issued on a fixed global schedule
//!   (`--rate`, split evenly across connections) whether or not
//!   responses have come back. Measures latency at a fixed offered
//!   load without the coordinated-omission bias of closed loops.
//!
//! Either way, every response is matched FIFO to its send timestamp
//! (HTTP/1.1 answers in order), latencies feed a sorted vector for
//! exact percentiles, and a server-initiated close (idle timeout,
//! max-requests bound, restart) is handled the way a real client
//! handles it: drop what was in flight, redial, keep going — counted,
//! not fatal.
//!
//! PUT bodies are valid `CTSTORE1` frames over derived digests, so
//! the server exercises its real validation path and a follow-up GET
//! phase reads back real records. Results print as `key=value` CSV
//! lines (greppable in CI).

use crate::error::CoreError;
use ct_store::format::encode_record;
use ct_store::remote::{encode_request, parse_response};
use ct_store::StableHasher;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which discipline drives the connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// Windowed pipelining: M in flight per connection, always.
    Closed,
    /// Fixed offered rate (ops/s across all connections).
    Open,
}

impl std::str::FromStr for BenchMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "closed" => Ok(BenchMode::Closed),
            "open" => Ok(BenchMode::Open),
            other => Err(format!("unknown bench mode '{other}' (closed | open)")),
        }
    }
}

/// Which store verb the measured phase issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchOp {
    /// `PUT /objects/<key>` with framed bodies.
    Put,
    /// `GET /objects/<key>` over pre-seeded keys.
    Get,
}

impl BenchOp {
    fn label(self) -> &'static str {
        match self {
            BenchOp::Put => "put",
            BenchOp::Get => "get",
        }
    }
}

/// Configuration for [`bench_serve`].
#[derive(Debug, Clone)]
pub struct BenchServeOptions {
    /// `host:port` of the serving store under test.
    pub authority: String,
    /// Concurrent connections (threads) to hold open.
    pub connections: usize,
    /// Closed loop: requests kept in flight per connection.
    pub inflight: usize,
    /// Measured duration per phase, in seconds.
    pub seconds: f64,
    /// Record payload size in bytes.
    pub payload_bytes: usize,
    /// Distinct object keys cycled through.
    pub keys: usize,
    /// Loop discipline.
    pub mode: BenchMode,
    /// Open loop: total offered ops/s across all connections.
    pub rate: f64,
    /// Phases to run (`put`, `get`, or both in that order).
    pub ops: Vec<BenchOp>,
}

impl Default for BenchServeOptions {
    fn default() -> Self {
        Self {
            authority: String::new(),
            connections: 64,
            inflight: 4,
            seconds: 5.0,
            payload_bytes: 256,
            keys: 1024,
            mode: BenchMode::Closed,
            rate: 10_000.0,
            ops: vec![BenchOp::Put, BenchOp::Get],
        }
    }
}

/// One measured phase's results.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// The verb this phase issued.
    pub(crate) op: BenchOp,
    /// The discipline it ran under.
    pub(crate) mode: BenchMode,
    /// Connections held open.
    pub(crate) connections: usize,
    /// In-flight window (closed loop) or offered rate (open loop).
    pub(crate) inflight: usize,
    /// Responses completed inside the measurement window.
    pub(crate) ops: u64,
    /// Wall-clock seconds actually measured.
    pub(crate) elapsed_s: f64,
    /// Completed ops per second.
    pub(crate) ops_per_s: f64,
    /// Median request latency, milliseconds.
    pub(crate) p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub(crate) p99_ms: f64,
    /// Non-2xx responses (server refusals, never silent).
    pub(crate) errors: u64,
    /// Fresh dials after a server-side close or transport error.
    pub(crate) redials: u64,
}

impl BenchRow {
    /// The greppable one-line form:
    /// `bench-serve,op=put,mode=closed,connections=64,…`.
    pub fn to_csv(&self) -> String {
        format!(
            "bench-serve,op={},mode={},connections={},inflight={},ops={},elapsed_s={:.3},\
             ops_per_s={:.0},p50_ms={:.3},p99_ms={:.3},errors={},redials={}",
            self.op.label(),
            match self.mode {
                BenchMode::Closed => "closed",
                BenchMode::Open => "open",
            },
            self.connections,
            self.inflight,
            self.ops,
            self.elapsed_s,
            self.ops_per_s,
            self.p50_ms,
            self.p99_ms,
            self.errors,
            self.redials
        )
    }
}

/// Pre-encoded request bytes shared (read-only) by every worker.
struct Workload {
    put: Vec<Vec<u8>>,
    get: Vec<Vec<u8>>,
}

/// The deterministic bench keyspace: digest `i` is derived from a
/// fixed label, payload `i` is a byte pattern seeded by `i` — so
/// repeated runs hit the same objects and a GET phase can trust a
/// prior PUT phase (or seed pass) to have stored them.
fn build_workload(keys: usize, payload_bytes: usize) -> Workload {
    let mut put = Vec::with_capacity(keys);
    let mut get = Vec::with_capacity(keys);
    for i in 0..keys {
        let mut hasher = StableHasher::new();
        hasher.write_str("bench-serve key");
        hasher.write_usize(i);
        let target = format!("/objects/{}", hasher.finish().to_hex());
        let payload: Vec<u8> = (0..payload_bytes)
            .map(|j| (i.wrapping_mul(31).wrapping_add(j.wrapping_mul(7)) & 0xff) as u8)
            .collect();
        put.push(encode_request(
            "PUT",
            &target,
            &encode_record(&payload),
            true,
        ));
        get.push(encode_request("GET", &target, &[], true));
    }
    Workload { put, get }
}

/// What one connection thread brings home.
#[derive(Default)]
struct WorkerTally {
    latencies_ms: Vec<f64>,
    ops: u64,
    errors: u64,
    redials: u64,
}

/// Runs every configured phase against the daemon and returns one
/// row per phase. A GET-only run seeds the keyspace first (unmeasured)
/// so it reads real records.
///
/// # Errors
///
/// Configuration errors and a totally unreachable server; transport
/// trouble *during* a phase is redial-and-continue, not an error.
pub fn bench_serve(options: &BenchServeOptions) -> Result<Vec<BenchRow>, CoreError> {
    if options.connections == 0 || options.inflight == 0 || options.keys == 0 {
        return Err(CoreError::InvalidConfig {
            field: "bench-serve",
            reason: "connections, inflight, and keys must all be positive".into(),
        });
    }
    let workload = Arc::new(build_workload(options.keys, options.payload_bytes));
    // Prove the server is there before spawning a thousand threads at
    // it, and seed the keyspace when no measured PUT phase will.
    let probe = dial(&options.authority).map_err(|e| CoreError::Io {
        path: format!("http://{}", options.authority),
        message: format!("bench target unreachable: {e}"),
    })?;
    drop(probe);
    if !options.ops.contains(&BenchOp::Put) {
        seed_keys(&options.authority, &workload)?;
    }
    options
        .ops
        .iter()
        .map(|&op| run_phase(options, &workload, op))
        .collect()
}

/// One measured phase: spawn the connection threads, let them run for
/// the window, merge their tallies into a row.
fn run_phase(
    options: &BenchServeOptions,
    workload: &Arc<Workload>,
    op: BenchOp,
) -> Result<BenchRow, CoreError> {
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds.max(0.1));
    let started = Instant::now();
    let per_conn_rate = options.rate.max(1.0) / options.connections as f64;
    let workers: Vec<_> = (0..options.connections)
        .map(|worker| {
            let workload = Arc::clone(workload);
            let authority = options.authority.clone();
            let mode = options.mode;
            let inflight = options.inflight;
            // Small stacks: at 1024 connections the default 2 MiB
            // per thread would reserve 2 GiB of address space.
            std::thread::Builder::new()
                .name(format!("bench-conn-{worker}"))
                .stack_size(256 * 1024)
                .spawn(move || match mode {
                    BenchMode::Closed => {
                        closed_loop(&authority, &workload, op, worker, inflight, deadline)
                    }
                    BenchMode::Open => {
                        open_loop(&authority, &workload, op, worker, per_conn_rate, deadline)
                    }
                })
                .map_err(|e| CoreError::Io {
                    path: "bench-serve worker".into(),
                    message: e.to_string(),
                })
        })
        .collect::<Result<_, _>>()?;
    let mut latencies: Vec<f64> = Vec::new();
    let mut ops = 0u64;
    let mut errors = 0u64;
    let mut redials = 0u64;
    for worker in workers {
        let tally = worker.join().unwrap_or_default();
        latencies.extend(tally.latencies_ms);
        ops += tally.ops;
        errors += tally.errors;
        redials += tally.redials;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(BenchRow {
        op,
        mode: options.mode,
        connections: options.connections,
        inflight: options.inflight,
        ops,
        elapsed_s,
        ops_per_s: ops as f64 / elapsed_s.max(1e-9),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        errors,
        redials,
    })
}

/// Exact percentile over a sorted sample (zero when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn dial(authority: &str) -> std::io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let addr = authority
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("bench authority resolved to no address"))?;
    // The server's listen backlog is finite; under a 1024-connection
    // stampede some SYNs get dropped and must be retried.
    let mut last = std::io::Error::other("no dial attempted");
    for _ in 0..10 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_millis(50)))?;
                stream.set_write_timeout(Some(Duration::from_secs(10)))?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(last)
}

/// Stores every bench key once over one connection — the unmeasured
/// pass before a GET-only phase.
fn seed_keys(authority: &str, workload: &Workload) -> Result<(), CoreError> {
    let fail = |message: String| CoreError::Io {
        path: format!("http://{authority}"),
        message,
    };
    let mut stream = dial(authority).map_err(|e| fail(format!("seed dial: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| fail(e.to_string()))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut pending = 0usize;
    let mut drain = |buf: &mut Vec<u8>,
                     stream: &mut TcpStream,
                     pending: &mut usize,
                     until: usize|
     -> Result<(), CoreError> {
        while *pending > until {
            if let Some((response, used)) =
                parse_response(buf).map_err(|e| fail(format!("seed response: {e}")))?
            {
                buf.drain(..used);
                *pending -= 1;
                if response.status >= 300 {
                    return Err(fail(format!("seed PUT answered {}", response.status)));
                }
                continue;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| fail(format!("seed read: {e}")))?;
            if n == 0 {
                return Err(fail("server closed the seed connection".into()));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        Ok(())
    };
    for request in &workload.put {
        stream
            .write_all(request)
            .map_err(|e| fail(format!("seed write: {e}")))?;
        pending += 1;
        // A modest pipeline keeps seeding fast without letting the
        // server's max-requests bound strand a huge window.
        drain(&mut buf, &mut stream, &mut pending, 32)?;
    }
    drain(&mut buf, &mut stream, &mut pending, 0)
}

/// The closed-loop discipline: top the window up to `inflight`, then
/// peel responses; repeat until the deadline.
fn closed_loop(
    authority: &str,
    workload: &Workload,
    op: BenchOp,
    worker: usize,
    inflight: usize,
    deadline: Instant,
) -> WorkerTally {
    let requests = match op {
        BenchOp::Put => &workload.put,
        BenchOp::Get => &workload.get,
    };
    let mut tally = WorkerTally::default();
    let Ok(mut stream) = dial(authority) else {
        return tally;
    };
    let mut outstanding: VecDeque<Instant> = VecDeque::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut next_key = worker.wrapping_mul(7919);
    while Instant::now() < deadline {
        while outstanding.len() < inflight {
            let request = &requests[next_key % requests.len()];
            next_key = next_key.wrapping_add(1);
            if stream.write_all(request).is_err() {
                if !redial(
                    authority,
                    &mut stream,
                    &mut outstanding,
                    &mut rbuf,
                    &mut tally,
                ) {
                    return tally;
                }
                continue;
            }
            outstanding.push_back(Instant::now());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !redial(
                    authority,
                    &mut stream,
                    &mut outstanding,
                    &mut rbuf,
                    &mut tally,
                ) {
                    return tally;
                }
            }
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                if !settle(&mut rbuf, &mut outstanding, &mut tally)
                    && !redial(
                        authority,
                        &mut stream,
                        &mut outstanding,
                        &mut rbuf,
                        &mut tally,
                    )
                {
                    return tally;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if !redial(
                    authority,
                    &mut stream,
                    &mut outstanding,
                    &mut rbuf,
                    &mut tally,
                ) {
                    return tally;
                }
            }
        }
    }
    tally
}

/// The open-loop discipline: send on the schedule, drain whatever has
/// landed, never let responses gate sends.
fn open_loop(
    authority: &str,
    workload: &Workload,
    op: BenchOp,
    worker: usize,
    rate_per_conn: f64,
    deadline: Instant,
) -> WorkerTally {
    let requests = match op {
        BenchOp::Put => &workload.put,
        BenchOp::Get => &workload.get,
    };
    let interval = Duration::from_secs_f64(1.0 / rate_per_conn.max(0.01));
    let mut tally = WorkerTally::default();
    let Ok(mut stream) = dial(authority) else {
        return tally;
    };
    let mut outstanding: VecDeque<Instant> = VecDeque::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut next_key = worker.wrapping_mul(7919);
    let mut next_send = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= next_send {
            next_send += interval;
            let request = &requests[next_key % requests.len()];
            next_key = next_key.wrapping_add(1);
            if stream.write_all(request).is_ok() {
                outstanding.push_back(Instant::now());
            } else if !redial(
                authority,
                &mut stream,
                &mut outstanding,
                &mut rbuf,
                &mut tally,
            ) {
                return tally;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !redial(
                    authority,
                    &mut stream,
                    &mut outstanding,
                    &mut rbuf,
                    &mut tally,
                ) {
                    return tally;
                }
            }
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                if !settle(&mut rbuf, &mut outstanding, &mut tally)
                    && !redial(
                        authority,
                        &mut stream,
                        &mut outstanding,
                        &mut rbuf,
                        &mut tally,
                    )
                {
                    return tally;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if !redial(
                    authority,
                    &mut stream,
                    &mut outstanding,
                    &mut rbuf,
                    &mut tally,
                ) {
                    return tally;
                }
            }
        }
    }
    tally
}

/// Matches every parsed response FIFO to its send time. Returns false
/// when the exchange is over on this socket (server said close, or
/// sent garbage) and the caller must redial.
fn settle(
    rbuf: &mut Vec<u8>,
    outstanding: &mut VecDeque<Instant>,
    tally: &mut WorkerTally,
) -> bool {
    loop {
        match parse_response(rbuf) {
            Ok(Some((response, used))) => {
                rbuf.drain(..used);
                if let Some(sent) = outstanding.pop_front() {
                    tally
                        .latencies_ms
                        .push(sent.elapsed().as_secs_f64() * 1000.0);
                    tally.ops += 1;
                }
                if response.status >= 300 {
                    tally.errors += 1;
                }
                if !response.keep_alive {
                    return false;
                }
            }
            Ok(None) => return true,
            Err(_) => {
                tally.errors += 1;
                return false;
            }
        }
    }
}

/// Replaces a spent connection, forgetting what was in flight on it
/// (those requests died with the socket — a real client would retry
/// them; the bench just counts the event). Returns false only when
/// the server cannot be reached at all anymore.
fn redial(
    authority: &str,
    stream: &mut TcpStream,
    outstanding: &mut VecDeque<Instant>,
    rbuf: &mut Vec<u8>,
    tally: &mut WorkerTally,
) -> bool {
    outstanding.clear();
    rbuf.clear();
    tally.redials += 1;
    match dial(authority) {
        Ok(fresh) => {
            *stream = fresh;
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{serve_connection, Reply, Router};
    use ct_store::remote::Request;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A minimal keep-alive object server: 204 for PUT, 200 for GET.
    struct TinyRouter {
        served: AtomicU64,
    }

    impl Router for TinyRouter {
        fn route(&self, request: &Request) -> Reply {
            self.served.fetch_add(1, Ordering::Relaxed);
            match request.method.as_str() {
                "PUT" => Reply::no_content(),
                _ => Reply::text(200, "OK", "x"),
            }
        }
    }

    /// Serves keep-alive connections with blocking accept + per-conn
    /// thread — enough server to point the generator at.
    fn tiny_server(listener: TcpListener, router: Arc<TinyRouter>) {
        static STOP: AtomicBool = AtomicBool::new(false);
        for accepted in listener.incoming() {
            let Ok(stream) = accepted else { return };
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                serve_connection(
                    stream,
                    router.as_ref(),
                    u64::MAX,
                    Duration::from_secs(5),
                    Duration::from_millis(100),
                    &STOP,
                );
            });
        }
    }

    #[test]
    fn closed_loop_measures_real_exchanges() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let router = Arc::new(TinyRouter {
            served: AtomicU64::new(0),
        });
        let server_router = Arc::clone(&router);
        std::thread::spawn(move || tiny_server(listener, server_router));

        let options = BenchServeOptions {
            authority,
            connections: 2,
            inflight: 3,
            seconds: 0.4,
            payload_bytes: 64,
            keys: 16,
            ops: vec![BenchOp::Put],
            ..BenchServeOptions::default()
        };
        let rows = bench_serve(&options).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.ops > 0, "no exchanges completed: {}", row.to_csv());
        assert_eq!(row.errors, 0, "unexpected errors: {}", row.to_csv());
        assert!(row.p99_ms >= row.p50_ms);
        assert!(router.served.load(Ordering::Relaxed) >= row.ops);
        assert!(row.to_csv().starts_with("bench-serve,op=put,mode=closed"));
    }

    #[test]
    fn get_only_runs_seed_the_keyspace_first() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let router = Arc::new(TinyRouter {
            served: AtomicU64::new(0),
        });
        let server_router = Arc::clone(&router);
        std::thread::spawn(move || tiny_server(listener, server_router));

        let options = BenchServeOptions {
            authority,
            connections: 1,
            inflight: 2,
            seconds: 0.2,
            keys: 8,
            ops: vec![BenchOp::Get],
            ..BenchServeOptions::default()
        };
        let rows = bench_serve(&options).unwrap();
        // 8 seed PUTs happened before any measured GET.
        assert!(router.served.load(Ordering::Relaxed) >= 8 + rows[0].ops);
        assert!(rows[0].to_csv().contains("op=get"));
    }

    #[test]
    fn open_mode_row_carries_the_discipline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let router = Arc::new(TinyRouter {
            served: AtomicU64::new(0),
        });
        let server_router = Arc::clone(&router);
        std::thread::spawn(move || tiny_server(listener, server_router));

        let options = BenchServeOptions {
            authority,
            connections: 1,
            seconds: 0.3,
            keys: 8,
            mode: BenchMode::Open,
            rate: 200.0,
            ops: vec![BenchOp::Put],
            ..BenchServeOptions::default()
        };
        let rows = bench_serve(&options).unwrap();
        assert!(rows[0].to_csv().contains("mode=open"));
        assert!(rows[0].ops > 0);
    }
}
