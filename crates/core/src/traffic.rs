//! `ct bench-serve`: a load generator for the serving tier.
//!
//! The keep-alive rework (see DESIGN.md) claims one thing: a client
//! that stops dialing per operation gets its latency back. This
//! module measures it. N connection threads each hold one kept-alive
//! [`ClientConn`] to a `ct serve` daemon and drive object traffic over
//! it in one loop, under one of two disciplines that decide only how
//! many requests may go out on each pass:
//!
//! - **closed loop** (default): each connection keeps M requests
//!   pipelined in flight; a response completing immediately releases
//!   the next request. Measures the server's capacity — throughput at
//!   full pressure — plus the latency under that pressure.
//! - **open loop**: requests are due on a fixed global schedule
//!   (`--rate`, split evenly across connections) whether or not
//!   responses have come back. Latency runs from each due time, so a
//!   send that slips behind the schedule shows in the percentiles
//!   (no coordinated omission).
//!
//! Either way, every response is matched FIFO to its request's start
//! time (HTTP/1.1 answers in order), latencies feed a sorted vector
//! for exact percentiles, and a server-initiated close (idle timeout,
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
use ct_store::remote::{encode_request, ClientConn, Response};
use ct_store::StableHasher;
use std::collections::VecDeque;
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
    /// In-flight window per connection (closed loop only).
    pub(crate) inflight: usize,
    /// Offered rate, ops/s across all connections (open loop only).
    pub(crate) rate: f64,
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
    /// `bench-serve,op=put,mode=closed,connections=64,inflight=4,…`; an
    /// open-loop row gives its offered `rate=` in place of `inflight=`.
    pub fn to_csv(&self) -> String {
        let (mode, load) = match self.mode {
            BenchMode::Closed => ("closed", format!("inflight={}", self.inflight)),
            BenchMode::Open => ("open", format!("rate={}", self.rate)),
        };
        format!(
            "bench-serve,op={},mode={mode},connections={},{load},ops={},elapsed_s={:.3},\
             ops_per_s={:.0},p50_ms={:.3},p99_ms={:.3},errors={},redials={}",
            self.op.label(),
            self.connections,
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

/// What one connection thread brings home: one latency per completed
/// request.
#[derive(Default)]
struct WorkerTally {
    latencies_ms: Vec<f64>,
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
    let workload = build_workload(options.keys, options.payload_bytes);
    // Prove the server is there before spawning a thousand threads at
    // it, and seed the keyspace when no measured PUT phase will.
    dial(&options.authority).map_err(|e| CoreError::Io {
        path: format!("http://{}", options.authority),
        message: format!("bench target unreachable: {e}"),
    })?;
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
    workload: &Workload,
    op: BenchOp,
) -> Result<BenchRow, CoreError> {
    let requests = match op {
        BenchOp::Put => &workload.put,
        BenchOp::Get => &workload.get,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(options.seconds.max(0.1));
    let rate = options.rate.max(1.0);
    let per_conn_rate = rate / options.connections as f64;
    let interval = Duration::from_secs_f64(1.0 / per_conn_rate.max(0.01));
    let mut total = WorkerTally::default();
    std::thread::scope(|scope| {
        let workers = (0..options.connections).map(|worker| {
            let discipline = match options.mode {
                BenchMode::Closed => Discipline::Closed {
                    inflight: options.inflight,
                },
                // Staggered first slots spread the global schedule
                // evenly instead of sending from every connection at once.
                BenchMode::Open => Discipline::Open {
                    interval,
                    next_due: started
                        + interval.mul_f64(worker as f64 / options.connections as f64),
                },
            };
            // Small stacks: at 1024 connections the default 2 MiB
            // per thread would reserve 2 GiB of address space.
            std::thread::Builder::new()
                .name(format!("bench-conn-{worker}"))
                .stack_size(256 * 1024)
                .spawn_scoped(scope, move || {
                    drive(&options.authority, requests, worker, discipline, deadline)
                })
                .map_err(|e| CoreError::Io {
                    path: "bench-serve worker".into(),
                    message: e.to_string(),
                })
        });
        for worker in workers.collect::<Result<Vec<_>, _>>()? {
            let tally = worker.join().unwrap_or_default();
            total.latencies_ms.extend(tally.latencies_ms);
            total.errors += tally.errors;
            total.redials += tally.redials;
        }
        Ok::<_, CoreError>(())
    })?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let ops = total.latencies_ms.len() as u64;
    let latencies = &mut total.latencies_ms;
    latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(BenchRow {
        op,
        mode: options.mode,
        connections: options.connections,
        inflight: options.inflight,
        rate,
        ops,
        elapsed_s,
        ops_per_s: ops as f64 / elapsed_s.max(1e-9),
        p50_ms: percentile(latencies, 50.0),
        p99_ms: percentile(latencies, 99.0),
        errors: total.errors,
        redials: total.redials,
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

/// The longest a connection waits for answers before it looks at the
/// clock again.
const READ_WAIT: Duration = Duration::from_millis(50);

/// A connection's [`ClientConn`], dialed with up to ten tries: the
/// server's listen backlog is finite, so under a 1024-connection
/// stampede some SYNs get dropped and must be retried.
fn dial(authority: &str) -> std::io::Result<ClientConn> {
    let mut last = std::io::Error::other("no dial attempted");
    for _ in 0..10 {
        match ClientConn::dial(authority, Duration::from_secs(10)) {
            Ok(conn) => return Ok(conn),
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
    let mut conn = dial(authority).map_err(|e| fail(format!("seed dial: {e}")))?;
    let settle_one = |conn: &mut ClientConn| match conn.next_response() {
        Ok(response) if response.status < 300 => Ok(()),
        Ok(response) => Err(fail(format!("seed PUT answered {}", response.status))),
        Err(e) => Err(fail(format!("seed response: {e}"))),
    };
    // A modest pipeline keeps seeding fast without letting the
    // server's max-requests bound strand a huge window.
    const WINDOW: usize = 32;
    for (sent, request) in workload.put.iter().enumerate() {
        conn.send(request)
            .map_err(|e| fail(format!("seed write: {e}")))?;
        if sent >= WINDOW {
            settle_one(&mut conn)?;
        }
    }
    (0..workload.put.len().min(WINDOW)).try_for_each(|_| settle_one(&mut conn))
}

/// When a connection may send: the only difference between the two
/// loop disciplines.
enum Discipline {
    /// Keep `inflight` requests outstanding; each is timed from its
    /// send.
    Closed { inflight: usize },
    /// One request every `interval`, the next due at `next_due`; each
    /// is timed from its due time.
    Open {
        interval: Duration,
        next_due: Instant,
    },
}

impl Discipline {
    /// How many requests may go out now with `outstanding` unanswered:
    /// closed tops the window up, open sends at most one per pass,
    /// once it is due.
    fn sendable(&self, outstanding: usize, now: Instant) -> usize {
        match *self {
            Discipline::Closed { inflight } => inflight.saturating_sub(outstanding),
            Discipline::Open { next_due, .. } => usize::from(now >= next_due),
        }
    }

    /// The instant the request about to go out is timed from: now
    /// (closed), or its slot on the schedule, which it takes (open).
    fn start(&mut self) -> Instant {
        match self {
            Discipline::Closed { .. } => Instant::now(),
            Discipline::Open { interval, next_due } => {
                let due = *next_due;
                *next_due += *interval;
                due
            }
        }
    }

    /// How long the loop may wait for answers at `now`: never past the
    /// next due send.
    fn wait(&self, now: Instant) -> Duration {
        match *self {
            Discipline::Closed { .. } => READ_WAIT,
            Discipline::Open { next_due, .. } => {
                next_due.saturating_duration_since(now).min(READ_WAIT)
            }
        }
    }
}

/// One connection's loop until `deadline`: send what the discipline
/// allows, wait (bounded) for answers, settle them, redial when the
/// connection is spent.
fn drive(
    authority: &str,
    requests: &[Vec<u8>],
    worker: usize,
    mut discipline: Discipline,
    deadline: Instant,
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let Ok(mut conn) = dial(authority) else {
        return tally;
    };
    let mut outstanding: VecDeque<Instant> = VecDeque::new();
    let mut next_key = worker.wrapping_mul(7919);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return tally;
        }
        let sent = (0..discipline.sendable(outstanding.len(), now)).try_for_each(|_| {
            let start = discipline.start();
            let request = &requests[next_key % requests.len()];
            next_key = next_key.wrapping_add(1);
            conn.send(request).map(|()| outstanding.push_back(start))
        });
        let wait = discipline.wait(now).min(deadline - now);
        let live = sent.is_ok()
            && if outstanding.is_empty() {
                // Nothing to read: sleep to the next due send, which a
                // socket read timeout would overshoot by milliseconds.
                std::thread::sleep(wait);
                true
            } else {
                tally.settle(conn.arrived(wait), &mut outstanding)
            };
        if !live {
            // What was in flight died with the socket — a real client
            // would retry it; the bench just counts the event.
            outstanding.clear();
            tally.redials += 1;
            match dial(authority) {
                Ok(fresh) => conn = fresh,
                Err(_) => return tally,
            }
        }
    }
}

impl WorkerTally {
    /// Matches each arrived response FIFO to its request's start time.
    /// False when the connection is spent: the server closed it, said
    /// it closes after these, or sent garbage (counted as an error).
    fn settle(
        &mut self,
        arrived: std::io::Result<Vec<Response>>,
        outstanding: &mut VecDeque<Instant>,
    ) -> bool {
        let responses = match arrived {
            Ok(responses) => responses,
            Err(e) => {
                self.errors += u64::from(e.kind() == std::io::ErrorKind::InvalidData);
                return false;
            }
        };
        let mut live = true;
        for response in responses {
            if let Some(start) = outstanding.pop_front() {
                self.latencies_ms
                    .push(start.elapsed().as_secs_f64() * 1000.0);
            }
            if response.status >= 300 {
                self.errors += 1;
            }
            live &= response.keep_alive;
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{serve_connection, Reply, Router};
    use ct_store::remote::Request;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

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
    /// thread — enough server to point the generator at. Returns its
    /// authority and its router.
    fn tiny_server() -> (String, Arc<TinyRouter>) {
        static STOP: AtomicBool = AtomicBool::new(false);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let router = Arc::new(TinyRouter {
            served: AtomicU64::new(0),
        });
        let server_router = Arc::clone(&router);
        std::thread::spawn(move || {
            for accepted in listener.incoming() {
                let Ok(stream) = accepted else { return };
                let router = Arc::clone(&server_router);
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
        });
        (authority, router)
    }

    #[test]
    fn closed_loop_measures_real_exchanges() {
        let (authority, router) = tiny_server();
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
        let (authority, router) = tiny_server();
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
        let (authority, _) = tiny_server();
        // One connection at 100/s: a send is due every 10 ms, well
        // inside the loop's 50 ms read wait.
        let options = BenchServeOptions {
            authority,
            connections: 1,
            seconds: 0.5,
            keys: 8,
            mode: BenchMode::Open,
            rate: 100.0,
            ops: vec![BenchOp::Put],
            ..BenchServeOptions::default()
        };
        let row = &bench_serve(&options).unwrap()[0];
        assert!(row.to_csv().contains("mode=open"));
        assert!(row.to_csv().contains(",rate=100,"), "{}", row.to_csv());
        assert!(!row.to_csv().contains("inflight="), "{}", row.to_csv());
        // About 50 sends fall due in the window.
        assert!(row.ops >= 30, "schedule missed: {}", row.to_csv());
        assert_eq!(row.errors, 0, "{}", row.to_csv());
        // Latency runs from the due time, so a loop that waited out its
        // read while a send was due would show the slip here (p50 about
        // 23 ms when the wait ignores the schedule).
        assert!(row.p50_ms < 10.0, "sends slipped: {}", row.to_csv());
    }
}
