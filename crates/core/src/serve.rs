//! `ct serve`: hosting an artifact store over keep-alive HTTP/1.1.
//!
//! A serving store lets concurrent shard runs, on one machine or many,
//! share one cache (a store directory is held by one process): each
//! shard points `--store http://host:port` at the daemon
//! and the pipeline's [`ct_store::StoreBackend`] calls travel the wire
//! instead of the local filesystem. The daemon is std-only blocking
//! I/O: one accept thread takes connections from a
//! [`std::net::TcpListener`] and hands each to a connection thread,
//! which serves it with `conn::serve_connection` and then
//! waits for the next one. A thread is spawned only when none is
//! idle, and a thread that waits the idle timeout for a connection
//! exits, so a server holds about one thread per connection open at
//! once, not one per connection it has accepted.
//! Connections are kept alive and pipelined per HTTP/1.1 semantics,
//! bounded by an idle timeout ([`ServeOptions::idle_ms`]) and a
//! max-requests-per-connection cap, so a client pays the TCP dial
//! once per *session*, not once per artifact — see DESIGN.md for why
//! threads are reused and what a connection costs.
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
//!   (`serve.bad_requests`); they never kill a connection thread,
//!   and a routed 4xx never kills the connection.

use crate::conn::{serve_connection, Reply, Router};
use crate::error::CoreError;
use crate::pipeline::{CaseStudy, CaseStudyConfig};
use crate::probe::ProbeQuery;
use ct_scada::Architecture;
use ct_store::format::{decode_record, encode_record};
use ct_store::remote::{query_param, Request};
use ct_store::{ByteLru, Digest, Store};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default in-memory cache budget: 256 MiB of framed records.
pub(crate) const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;
/// Default bind address (loopback; front with a tunnel to go wider).
pub(crate) const DEFAULT_ADDR: &str = "127.0.0.1:7171";
/// Default idle timeout for kept-alive connections and for connection
/// threads waiting for one, in milliseconds.
pub(crate) const DEFAULT_IDLE_MS: u64 = 5_000;
/// Requests served on one connection before the server closes it
/// (the final response says `Connection: close`). Bounds how long
/// one client holds a connection thread; clients just redial.
pub(crate) const DEFAULT_MAX_REQUESTS: u64 = 4_096;

/// Ensemble size a `/probe` uses when the query does not say
/// (deliberately smaller than the paper's 1000: a probe is a live
/// question, not a reproduction run).
pub const DEFAULT_PROBE_REALIZATIONS: usize = 60;

/// The longest a connection thread blocks in a read before it checks
/// the stop flag and the idle deadline.
const WAIT_TICK: Duration = Duration::from_millis(100);

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
    /// Ignored: each open connection has its own thread.
    #[deprecated(note = "each open connection has its own thread; the field is ignored")]
    pub threads: usize,
    /// Close kept-alive connections idle longer than this, and retire
    /// connection threads that wait this long for a connection
    /// (`DEFAULT_IDLE_MS`).
    pub idle_ms: u64,
    /// Close a connection after this many requests
    /// (`DEFAULT_MAX_REQUESTS`).
    pub max_requests: u64,
}

#[allow(deprecated)] // sets the ignored `packed` and `threads` fields
impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            packed: false,
            cache_bytes: DEFAULT_CACHE_BYTES,
            threads: 0,
            idle_ms: DEFAULT_IDLE_MS,
            max_requests: DEFAULT_MAX_REQUESTS,
        }
    }
}

/// Cache key for a built probe study: hazard keyword + ensemble size.
type StudyKey = (&'static str, usize);

/// State shared by the accept thread and every connection thread.
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
    /// Connection threads spawned so far.
    conn_threads: AtomicUsize,
    /// Connection threads not yet exited: spawned minus those retired
    /// after waiting the idle timeout for a connection.
    live_threads: AtomicUsize,
}

impl Router for Shared {
    fn route(&self, request: &Request) -> Reply {
        route(self, request)
    }
}

/// A running `ct serve` daemon. Binding opens the store, which holds
/// its root; dropping the server joins every thread and then drops
/// the store, releasing the root.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens (creating if needed) the store at `root`, binds the
    /// listener, and starts the accept thread.
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
        let shared = Arc::new(Shared {
            store,
            cache: ByteLru::new(options.cache_bytes),
            studies: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            idle: Duration::from_millis(options.idle_ms.max(1)),
            max_requests: options.max_requests.max(1),
            conn_threads: AtomicUsize::new(0),
            live_threads: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ct-serve-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))
            .map_err(io_error)?;
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
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

    /// Stops accepting and joins every thread; connection threads
    /// notice within a 100 ms tick (or, blocked writing to a peer that
    /// stopped reading, within the idle timeout). Idempotent; also
    /// runs on drop.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // A blocking accept has no tick: connect pokes wake it until
        // it has seen the stop flag and joined its threads.
        let wake: SocketAddr = if self.addr.ip().is_unspecified() {
            SocketAddr::new(
                "127.0.0.1".parse().expect("loopback parses"),
                self.addr.port(),
            )
        } else {
            self.addr
        };
        while !accept.is_finished() {
            TcpStream::connect_timeout(&wake, Duration::from_millis(100)).ok();
            std::thread::sleep(Duration::from_millis(10));
        }
        accept.join().ok();
    }

    /// Blocks this thread until the process dies — the `ct serve`
    /// foreground mode. The accept thread does the serving; this just
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

/// Accepts until the stop flag is set, handing each connection to an
/// idle connection thread, or to a new one when none is idle. Returns
/// once every connection thread has exited.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    let (handoff, queue) = mpsc::channel::<TcpStream>();
    let queue = Mutex::new(queue);
    // Threads waiting on `queue` that no sent connection has claimed.
    let idle_threads = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for accepted in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = accepted else {
                // Transient accept errors (EMFILE) must not spin a core.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            let claimed = idle_threads
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if !claimed {
                let spawned = std::thread::Builder::new()
                    .name("ct-serve-conn".into())
                    .spawn_scoped(scope, || connection_thread(&queue, &idle_threads, shared));
                if spawned.is_err() {
                    // No thread to serve it: the connection is dropped.
                    continue;
                }
                shared.conn_threads.fetch_add(1, Ordering::SeqCst);
                shared.live_threads.fetch_add(1, Ordering::SeqCst);
            }
            handoff.send(stream).ok();
        }
        // Stop taking connections (pokes now fail fast), and let every
        // thread's next `recv` see the closed channel.
        drop(listener);
        drop(handoff);
    });
}

/// Serves one handed-off connection after another until the accept
/// thread closes the channel, or until it has waited the idle timeout
/// for a connection and can take itself out of `idle_threads`.
fn connection_thread(
    queue: &Mutex<mpsc::Receiver<TcpStream>>,
    idle_threads: &AtomicUsize,
    shared: &Shared,
) {
    // `None` while the thread is owed the connection it was spawned or
    // claimed for; `Some(t)` once it went idle at `t` and counts in
    // `idle_threads`.
    let mut idle_since: Option<Instant> = None;
    loop {
        let next = {
            let queue = queue.lock().expect("connection queue lock");
            match idle_since {
                None => queue.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(t) => queue.recv_timeout(shared.idle.saturating_sub(t.elapsed())),
            }
        };
        match next {
            Ok(stream) => {
                serve_connection(
                    stream,
                    shared,
                    shared.max_requests,
                    shared.idle,
                    WAIT_TICK,
                    &shared.stop,
                );
                idle_threads.fetch_add(1, Ordering::SeqCst);
                idle_since = Some(Instant::now());
            }
            Err(RecvTimeoutError::Timeout) => {
                // Retire with the same claim the accept loop makes; if
                // it fails, every idle thread has been claimed, so a
                // connection is on its way and this thread must stay.
                let retired = idle_threads
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if retired {
                    break;
                }
                idle_since = None;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    shared.live_threads.fetch_sub(1, Ordering::SeqCst);
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

/// The cached study for `(hazard, realizations)`, building
/// through the hosted store on a miss (counted as
/// `serve.probe_builds`).
fn cached_study(shared: &Shared, query: &ProbeQuery) -> Result<Arc<CaseStudy>, CoreError> {
    let key: StudyKey = (query.hazard.keyword(), query.realizations);
    let mut studies = shared.studies.lock().expect("probe study lock");
    if let Some(study) = studies.get(&key) {
        return Ok(Arc::clone(study));
    }
    ct_obs::add(ct_obs::names::SERVE_PROBE_BUILDS, 1);
    let config = CaseStudyConfig::builder()
        .realizations(query.realizations)
        .hazard(query.hazard)
        .build()?;
    let study = Arc::new(CaseStudy::build_with_store(&config, Some(&shared.store))?);
    studies.insert(key, Arc::clone(&study));
    Ok(study)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_store::remote::{encode_request, ClientConn};
    use std::io::ErrorKind;
    use std::time::Instant;

    /// A unique store root for one test, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let root = std::env::temp_dir().join(format!(
                "ct-serve-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&root).ok();
            Self(root)
        }

        fn serve(&self, idle_ms: u64) -> Server {
            let options = ServeOptions {
                addr: "127.0.0.1:0".into(),
                idle_ms,
                ..ServeOptions::default()
            };
            Server::bind(&self.0, &options).unwrap()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn idle_closes() -> u64 {
        ct_obs::snapshot()
            .counter(ct_obs::names::SERVE_IDLE_CLOSES)
            .unwrap_or(0)
    }

    /// A client connection to `server`.
    fn dial(server: &Server) -> ClientConn {
        ClientConn::dial(&server.addr().to_string(), Duration::from_secs(5)).unwrap()
    }

    /// One request on `client` and its answer's status and mode.
    fn ask(client: &mut ClientConn, target: &str, keep_alive: bool) -> (u16, bool) {
        client
            .send(&encode_request("GET", target, &[], keep_alive))
            .unwrap();
        let response = client.answer().unwrap();
        (response.status, response.keep_alive)
    }

    /// Takes answers until EOF or a reset; a read timeout fails the
    /// test.
    fn read_until_closed(client: &mut ClientConn) {
        loop {
            if let Err(e) = client.next_response() {
                assert_ne!(
                    e.kind(),
                    ErrorKind::TimedOut,
                    "the server never closed the socket"
                );
                return;
            }
        }
    }

    #[test]
    fn sequential_connections_reuse_connection_threads() {
        let scratch = Scratch::new("reuse");
        let server = scratch.serve(DEFAULT_IDLE_MS);
        for _ in 0..50 {
            let mut client = dial(&server);
            assert_eq!(ask(&mut client, "/healthz", false), (200, false));
            let closed = client.next_response().unwrap_err().kind();
            assert_eq!(closed, ErrorKind::UnexpectedEof, "the server closes");
            assert!(client.is_drained());
        }
        // The thread that served connection k may not be idle again
        // when connection k + 1 arrives, so a second thread can start;
        // after that the two take turns.
        let spawned = server.shared.conn_threads.load(Ordering::SeqCst);
        assert!(
            spawned <= 2,
            "{spawned} threads for 50 sequential connections"
        );
    }

    #[test]
    fn a_peer_that_stops_reading_is_closed_as_idle() {
        let scratch = Scratch::new("unread");
        let idle = Duration::from_millis(200);
        let server = scratch.serve(idle.as_millis() as u64);
        let mut client = dial(&server);
        let target = format!("/objects/{:032x}", 7);
        let frame = encode_record(&vec![0x5a; 512 * 1024]);
        let put = encode_request("PUT", &target, &frame, true);
        client.send(&put).unwrap();
        assert_eq!(client.answer().unwrap().status, 204);

        // 16 MiB of answers asked for and never read: far more than
        // the loopback buffers hold, so the server's write stalls.
        let before = idle_closes();
        let wire: Vec<u8> = (0..32)
            .flat_map(|_| encode_request("GET", &target, &[], true))
            .collect();
        client.send(&wire).unwrap();
        let sent = Instant::now();
        while idle_closes() == before {
            assert!(sent.elapsed() < Duration::from_secs(5), "never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let closed_after = sent.elapsed();
        // Slack for scheduling on a loaded test host.
        let bound = idle + WAIT_TICK + Duration::from_millis(500);
        assert!(closed_after <= bound, "closed after {closed_after:?}");
        read_until_closed(&mut client);
    }

    #[test]
    fn idle_connection_threads_retire() {
        let scratch = Scratch::new("retire");
        let idle = Duration::from_millis(200);
        let server = scratch.serve(idle.as_millis() as u64);
        let live = || server.shared.live_threads.load(Ordering::SeqCst);
        let clients: Vec<ClientConn> = (0..8)
            .map(|_| {
                let mut client = dial(&server);
                assert_eq!(ask(&mut client, "/healthz", true), (200, true));
                client
            })
            .collect();
        // Eight connections open at once: one thread each.
        assert_eq!(live(), 8);

        drop(clients);
        let closed = Instant::now();
        while live() > 0 {
            assert!(
                closed.elapsed() <= 2 * idle + Duration::from_millis(500),
                "{} threads still alive after {:?}",
                live(),
                closed.elapsed()
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        assert_eq!(ask(&mut dial(&server), "/healthz", false).0, 200);
    }

    #[test]
    fn dropping_a_server_with_a_kept_alive_client_releases_the_root() {
        let scratch = Scratch::new("drop");
        let server = scratch.serve(DEFAULT_IDLE_MS);
        let mut client = dial(&server);
        assert_eq!(ask(&mut client, "/healthz", true), (200, true));

        let started = Instant::now();
        drop(server);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        Store::open(&scratch.0).expect("the root is free once the server is gone");
        read_until_closed(&mut client);
    }
}
