//! `ct serve`: hosting an artifact store over keep-alive HTTP/1.1.
//!
//! A serving store lets concurrent shard runs, on one machine or many,
//! share one cache (a store directory is held by one process): each
//! shard points `--store http://host:port` at the daemon
//! and the pipeline's [`ct_store::StoreBackend`] calls travel the wire
//! instead of the local filesystem. The daemon is std-only: a
//! nonblocking [`std::net::TcpListener`] plus a small pool of worker
//! threads, each running a readiness loop (epoll via
//! [`crate::event::Poller`], with a portable fallback) over its own
//! set of per-connection state machines ([`crate::conn::Conn`]).
//! Connections are kept alive and pipelined per HTTP/1.1 semantics,
//! bounded by an idle timeout (`CT_SERVE_IDLE_MS`) and a
//! max-requests-per-connection cap, so a client pays the TCP dial
//! once per *session*, not once per artifact — see DESIGN.md for the
//! fairness argument versus the old accept-queue model.
//!
//! Beyond raw object traffic, the server answers *analysis* questions
//! directly: `GET /probe?scenario=…&site=…` (parsed by
//! [`crate::probe::ProbeQuery`]) returns the outcome probabilities
//! (green/orange/red/gray per architecture) computed from the
//! ensemble artifacts it hosts — building and caching the case study
//! on first use, so a fleet of dashboards can poll state
//! probabilities without shipping realizations around.
//!
//! Operational guardrails:
//!
//! - the server's [`Store`] holds the root's lock for the server's
//!   lifetime, so no other process can open the store underneath it:
//!   not `ct fsck`, not a second server, not a `ct run` pointed at
//!   the directory instead of the URL;
//! - PUTs append to the store's segment log and are group-synced, so
//!   a crash of the server loses at most the appends since the last
//!   group sync — records the next run recomputes;
//! - hot object reads are answered from a byte-budgeted
//!   [`ByteLru`] of *framed* records, so a warm `GET` costs no disk
//!   I/O and no re-checksumming;
//! - malformed requests are answered with 4xx and counted
//!   (`serve.bad_requests`); they never kill a worker *or* the
//!   readiness loop, and a routed 4xx never kills the connection.

use crate::conn::{Conn, Reply, Router, Verdict};
use crate::error::CoreError;
use crate::event::{source_fd, Event, Poller};
use crate::pipeline::{CaseStudy, CaseStudyConfig};
use crate::probe::ProbeQuery;
use ct_scada::Architecture;
use ct_store::format::{decode_record, encode_record};
use ct_store::remote::{query_param, Request};
use ct_store::{ByteLru, Digest, Store};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default in-memory cache budget: 256 MiB of framed records.
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;
/// Default bind address (loopback; front with a tunnel to go wider).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";
/// Default worker-thread count. Each worker is a readiness loop
/// multiplexing many kept-alive connections, so a handful saturate a
/// NIC long before they saturate a core.
pub const DEFAULT_THREADS: usize = 4;
/// Default idle timeout for kept-alive connections, in milliseconds
/// (`CT_SERVE_IDLE_MS` overrides).
pub const DEFAULT_IDLE_MS: u64 = 5_000;
/// Requests served on one connection before the server closes it
/// (the final response says `Connection: close`). Bounds per-socket
/// server state; clients just redial.
pub const DEFAULT_MAX_REQUESTS: u64 = 4_096;

/// Ensemble size a `/probe` uses when the query does not say
/// (deliberately smaller than the paper's 1000: a probe is a live
/// question, not a reproduction run).
pub const DEFAULT_PROBE_REALIZATIONS: usize = 60;

/// The readiness-loop tick: the longest a worker sleeps between
/// stop-flag checks and idle sweeps.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// The poller token reserved for the shared listener.
const LISTENER_TOKEN: u64 = 0;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `host:port` to listen on; port 0 picks a free port
    /// (query [`Server::addr`] for the result).
    pub addr: String,
    /// Ignored: every store uses the segment layout.
    #[deprecated(note = "every store uses the segment layout; the field is ignored")]
    pub packed: bool,
    /// Byte budget for the in-memory record cache.
    pub cache_bytes: u64,
    /// Worker-thread count (minimum 1); each runs a readiness loop.
    pub threads: usize,
    /// Close kept-alive connections idle longer than this
    /// (default `CT_SERVE_IDLE_MS`, else [`DEFAULT_IDLE_MS`]).
    pub idle_ms: u64,
    /// Close a connection after this many requests
    /// ([`DEFAULT_MAX_REQUESTS`]).
    pub max_requests: u64,
}

#[allow(deprecated)] // sets the ignored `packed` field
impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            packed: false,
            cache_bytes: DEFAULT_CACHE_BYTES,
            threads: DEFAULT_THREADS,
            idle_ms: std::env::var("CT_SERVE_IDLE_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_IDLE_MS),
            max_requests: DEFAULT_MAX_REQUESTS,
        }
    }
}

/// Cache key for a built probe study: region portfolio + hazard
/// keyword + ensemble size.
type StudyKey = (ct_scada::RegionSpec, &'static str, usize);

/// State shared by every worker thread.
#[derive(Debug)]
struct Shared {
    store: Store,
    cache: ByteLru,
    /// Case studies built for `/probe`, keyed by what changes the
    /// ensemble. Held across requests so a probe is cheap after the
    /// first; the lock is held *during* a build so concurrent
    /// identical probes dedup into one build instead of racing.
    studies: Mutex<HashMap<StudyKey, Arc<CaseStudy>>>,
    stop: AtomicBool,
    idle: Duration,
    max_requests: u64,
}

impl Router for Shared {
    fn route(&self, request: &Request) -> Reply {
        route(self, request)
    }
}

/// A running `ct serve` daemon. Binding opens the store, which holds
/// its root; dropping the server shuts the workers down and then
/// drops the store, releasing the root.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens (creating if needed) the store at `root`, binds the
    /// listener, and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Store-open failures (including a root another open store
    /// holds) and listener bind failures.
    pub fn bind(root: &Path, options: &ServeOptions) -> Result<Self, CoreError> {
        let store = Store::open(root)?;
        let io_error = |e: std::io::Error| CoreError::Io {
            path: options.addr.clone(),
            message: e.to_string(),
        };
        let listener = TcpListener::bind(&options.addr).map_err(io_error)?;
        let addr = listener.local_addr().map_err(io_error)?;
        // Every worker's poller watches the same listener; accepts
        // must never block a readiness loop.
        listener.set_nonblocking(true).map_err(io_error)?;
        let shared = Arc::new(Shared {
            store,
            cache: ByteLru::new(options.cache_bytes),
            studies: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            idle: Duration::from_millis(options.idle_ms.max(1)),
            max_requests: options.max_requests.max(1),
        });
        let workers = (0..options.threads.max(1))
            .map(|i| {
                let listener = listener.try_clone().map_err(io_error)?;
                let shared = Arc::clone(&shared);
                Ok(std::thread::Builder::new()
                    .name(format!("ct-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &shared))
                    .expect("spawning a worker thread"))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(Self {
            addr,
            shared,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `http://host:port` URL clients pass as `--store`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting, wakes every worker, and joins the pool.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // A worker parked in `wait` is woken by its tick within
        // [`WAIT_TICK`]; a connect poke makes the listener readable
        // and wakes everyone sooner.
        let wake: SocketAddr = if self.addr.ip().is_unspecified() {
            SocketAddr::new(
                "127.0.0.1".parse().expect("loopback parses"),
                self.addr.port(),
            )
        } else {
            self.addr
        };
        TcpStream::connect_timeout(&wake, Duration::from_millis(100)).ok();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }

    /// Blocks this thread until the process dies — the `ct serve`
    /// foreground mode. The workers do all the accepting; this just
    /// parks the main thread.
    pub fn join_forever(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: a readiness loop over the shared listener and this
/// worker's own connections. Every worker registers the listener
/// (level-triggered), so an accept burst wakes them all and they
/// split the backlog.
fn worker_loop(listener: &TcpListener, shared: &Shared) {
    let Ok(poller) = Poller::new() else { return };
    if poller
        .add(source_fd(listener), LISTENER_TOKEN, true, false)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut events: Vec<Event> = Vec::new();
    loop {
        poller.wait(&mut events, WAIT_TICK).ok();
        if shared.stop.load(Ordering::SeqCst) {
            for (_, conn) in conns.drain() {
                close_conn(&poller, &conn, false);
            }
            return;
        }
        for event in &events {
            if event.token == LISTENER_TOKEN {
                accept_burst(listener, &poller, &mut conns, &mut next_token);
                continue;
            }
            let verdict = match conns.get_mut(&event.token) {
                Some(conn) => conn.on_ready(shared, shared.max_requests),
                // A token can fire twice in one batch (read + hangup)
                // after its first firing closed the connection.
                None => continue,
            };
            match verdict {
                Verdict::KeepGoing { want_write } => {
                    let conn = &conns[&event.token];
                    poller.modify(conn.fd(), event.token, true, want_write).ok();
                }
                Verdict::Close => {
                    if let Some(conn) = conns.remove(&event.token) {
                        close_conn(&poller, &conn, false);
                    }
                }
            }
        }
        sweep_idle(&poller, &mut conns, shared.idle);
    }
}

/// Accepts every pending connection (until `WouldBlock`) and
/// registers each with this worker's poller.
fn accept_burst(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let conn = Conn::new(stream);
                let token = *next_token;
                *next_token += 1;
                if poller.add(conn.fd(), token, true, false).is_ok() {
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept errors (EMFILE) must not spin a core.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                return;
            }
        }
    }
}

/// Closes connections whose peer has gone quiet for the idle
/// timeout, counting `serve.idle_closes`.
fn sweep_idle(poller: &Poller, conns: &mut HashMap<u64, Conn>, idle: Duration) {
    let now = Instant::now();
    let expired: Vec<u64> = conns
        .iter()
        .filter(|(_, conn)| conn.idle_for(now) >= idle)
        .map(|(token, _)| *token)
        .collect();
    for token in expired {
        if let Some(conn) = conns.remove(&token) {
            close_conn(poller, &conn, true);
        }
    }
}

/// Deregisters and accounts one closing connection.
fn close_conn(poller: &Poller, conn: &Conn, idle: bool) {
    poller.remove(conn.fd()).ok();
    if idle {
        ct_obs::add(ct_obs::names::SERVE_IDLE_CLOSES, 1);
    }
    ct_obs::histogram(
        ct_obs::names::SERVE_CONN_LIFETIME_MS,
        &ct_obs::names::SERVE_CONN_LIFETIME_MS_BOUNDS,
    )
    .observe(conn.lifetime_ms());
}

fn route(shared: &Shared, request: &Request) -> Reply {
    let (path, query) = request.split_target();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Reply::text(200, "OK", "ok\n"),
        ("GET", "/metricsz") => Reply::text(200, "OK", ct_obs::snapshot().to_csv()),
        ("GET", "/probe") => probe(shared, query),
        (_, p) if p.starts_with("/objects/") => {
            objects(shared, request, &p["/objects/".len()..], query)
        }
        _ => Reply::text(404, "Not Found", "unknown path\n"),
    }
}

/// `/objects/<hex32>`: the [`ct_store::StoreBackend`] verbs over the
/// wire. Bodies are CTSTORE1 frames end to end, so the record
/// checksum rides along and wire damage is caught by whoever decodes.
fn objects(shared: &Shared, request: &Request, hex: &str, query: &str) -> Reply {
    let Some(key) = Digest::from_hex(hex) else {
        return Reply::bad_request("malformed object key (want 32 lower-case hex chars)");
    };
    match request.method.as_str() {
        "GET" => {
            if let Some(frame) = shared.cache.get(&key) {
                return Reply::record(frame.to_vec());
            }
            match shared.store.get(&key) {
                Ok(Some(payload)) => {
                    let frame = encode_record(&payload);
                    shared.cache.put(&key, frame.clone());
                    Reply::record(frame)
                }
                Ok(None) => Reply::text(404, "Not Found", "no such object\n"),
                Err(e) => Reply::server_error(&e.into()),
            }
        }
        "PUT" => {
            // Validate the frame *before* storing: a client whose
            // record was damaged in flight gets a 400 now instead of
            // a corrupt-record eviction later.
            let Ok(payload) = decode_record(&request.body) else {
                return Reply::bad_request("record frame failed validation");
            };
            match shared.store.put(&key, payload) {
                Ok(()) => {
                    shared.cache.put(&key, request.body.clone());
                    Reply::no_content()
                }
                Err(e) => Reply::server_error(&e.into()),
            }
        }
        "DELETE" => {
            shared.cache.remove(&key);
            if query_param(query, "corrupt") == Some("1") {
                match shared.store.invalidate(&key) {
                    Ok(()) => Reply::no_content(),
                    Err(e) => Reply::server_error(&e.into()),
                }
            } else {
                match shared.store.evict(&key) {
                    Ok(existed) => Reply::text(200, "OK", if existed { "1" } else { "0" }),
                    Err(e) => Reply::server_error(&e.into()),
                }
            }
        }
        _ => Reply::text(
            405,
            "Method Not Allowed",
            "objects support GET/PUT/DELETE\n",
        ),
    }
}

/// `GET /probe?scenario=…&site=…[&hazard=…][&realizations=N]`:
/// outcome probabilities per architecture, answered from the hosted
/// ensemble artifacts (built and cached on first use). The query
/// grammar is [`ProbeQuery`]'s — shared verbatim with `ct probe`.
fn probe(shared: &Shared, query: &str) -> Reply {
    ct_obs::add(ct_obs::names::SERVE_PROBES, 1);
    let parsed: ProbeQuery = match query.parse() {
        Ok(q) => q,
        Err(e) => return Reply::bad_request(&e),
    };
    let study = match cached_study(shared, &parsed) {
        Ok(s) => s,
        Err(CoreError::InvalidConfig { field, reason }) => {
            return Reply::bad_request(&format!("{field}: {reason}"))
        }
        Err(e) => return Reply::server_error(&e),
    };
    let mut body = String::from("architecture,green,orange,red,gray\n");
    for architecture in Architecture::ALL {
        match study.profile(architecture, parsed.scenario, parsed.site) {
            Ok(p) => {
                use std::fmt::Write;
                writeln!(
                    body,
                    "{},{},{},{},{}",
                    architecture.label(),
                    p.green(),
                    p.orange(),
                    p.red(),
                    p.gray()
                )
                .expect("writing to a String cannot fail");
            }
            Err(e) => return Reply::server_error(&e),
        }
    }
    Reply::text(200, "OK", body)
}

/// The cached study for `(region, hazard, realizations)`, building
/// through the hosted store on a miss (counted as
/// `serve.probe_builds`).
fn cached_study(shared: &Shared, query: &ProbeQuery) -> Result<Arc<CaseStudy>, CoreError> {
    let key: StudyKey = (query.region, query.hazard.keyword(), query.realizations);
    let mut studies = shared.studies.lock().expect("probe study lock");
    if let Some(study) = studies.get(&key) {
        return Ok(Arc::clone(study));
    }
    ct_obs::add(ct_obs::names::SERVE_PROBE_BUILDS, 1);
    let config = CaseStudyConfig::builder()
        .region(query.region)
        .realizations(query.realizations)
        .hazard(query.hazard)
        .build()?;
    let study = Arc::new(CaseStudy::build_with_store(&config, Some(&shared.store))?);
    studies.insert(key, Arc::clone(&study));
    Ok(study)
}
