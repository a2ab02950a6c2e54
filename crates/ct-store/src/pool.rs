//! A bounded pool of kept-alive client connections.
//!
//! [`crate::RemoteStore`] used to dial a fresh TCP connection per
//! operation to match the PR-7 server's one-request-per-connection
//! contract. With keep-alive on both sides, the dial (and the slow
//! start that follows it) is pure waste — so clients check sockets
//! out of a [`ConnPool`], use them for one exchange (or one pipelined
//! batch of GETs), and check them back in while the server keeps the
//! other end open.
//!
//! The pool holds at most [`DEFAULT_POOL_CAP`] idle sockets; more
//! concurrent checkouts simply dial, and
//! surplus checkins are dropped on the floor — the bound caps idle
//! sockets, never concurrency. Every checkout health-checks the
//! candidate with a nonblocking 1-byte peek: a socket the server
//! already closed (idle timeout, max-requests bound, restart) or
//! that has unsolicited bytes buffered is *retired* and the next
//! candidate tried, so a stale socket costs a peek, not a failed
//! operation. The race that remains — the server closing after the
//! peek but before the request — surfaces as a connection-lifecycle
//! error, which the caller's retry budget absorbs with a fresh dial.
//!
//! Counters on the owning store's sink: `store.remote.pool.hits`
//! (healthy reuse; a pipelined batch adds one per further request),
//! `store.remote.pool.dials` (fresh connections),
//! `store.remote.pool.retired` (stale sockets dropped at checkout).

use crate::metrics::MetricsSink;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Idle sockets kept per pool.
pub(crate) const DEFAULT_POOL_CAP: usize = 8;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Generous because a cold `/probe` may build a whole case study.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A bounded pool of idle kept-alive connections to one authority.
/// Shared by every clone of the owning [`crate::RemoteStore`].
#[derive(Debug)]
pub(crate) struct ConnPool {
    authority: String,
    cap: usize,
    idle: Mutex<Vec<TcpStream>>,
    sink: MetricsSink,
}

impl ConnPool {
    /// An empty pool for `authority`, counting on `sink`, capped at
    /// [`DEFAULT_POOL_CAP`].
    pub(crate) fn new(authority: String, sink: MetricsSink) -> Self {
        Self::with_cap(authority, DEFAULT_POOL_CAP, sink)
    }

    /// An empty pool with an explicit idle cap (tests).
    pub(crate) fn with_cap(authority: String, cap: usize, sink: MetricsSink) -> Self {
        Self {
            authority,
            cap,
            idle: Mutex::new(Vec::new()),
            sink,
        }
    }

    /// A connection ready for one exchange: the freshest healthy idle
    /// socket, or a new dial once every idle candidate has been
    /// retired.
    ///
    /// # Errors
    ///
    /// Dial failures (resolution, refused, timeout) — transient by
    /// the remote classification, so callers' retry budgets apply.
    pub(crate) fn checkout(&self) -> io::Result<TcpStream> {
        loop {
            let candidate = self.idle.lock().expect("conn pool lock").pop();
            let Some(stream) = candidate else { break };
            if healthy(&stream) {
                self.sink.add(ct_obs::names::STORE_REMOTE_POOL_HITS, 1);
                return Ok(stream);
            }
            self.sink.add(ct_obs::names::STORE_REMOTE_POOL_RETIRED, 1);
        }
        self.dial()
    }

    /// Returns a socket after a clean keep-alive exchange. Dropped on
    /// the floor when the pool is at its idle cap; never call this
    /// with a socket that saw an error — broken connections must not
    /// be reused.
    pub(crate) fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("conn pool lock");
        if idle.len() < self.cap {
            idle.push(stream);
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        self.sink.add(ct_obs::names::STORE_REMOTE_POOL_DIALS, 1);
        let addr = self
            .authority
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("store authority resolved to no address"))?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }
}

/// Whether an idle socket is still usable: a nonblocking 1-byte peek
/// must say "no data yet" (`WouldBlock`). EOF means the server
/// closed it, ready bytes mean a desynchronized exchange left
/// garbage behind, and any other error means a dead socket — all
/// three retire the connection.
fn healthy(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let idle_and_open = matches!(
        stream.peek(&mut probe),
        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
    );
    idle_and_open && stream.set_nonblocking(false).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc;

    fn local_pool(authority: String, cap: usize) -> (ConnPool, Arc<ct_obs::Registry>) {
        let reg = Arc::new(ct_obs::Registry::new());
        let pool = ConnPool::with_cap(authority, cap, MetricsSink::Local(Arc::clone(&reg)));
        (pool, reg)
    }

    #[test]
    fn checkout_reuses_and_caps_idle_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        // Keep the server ends alive so the sockets stay healthy.
        let mut server_ends = Vec::new();
        let (pool, reg) = local_pool(authority, 2);

        let a = pool.checkout().unwrap();
        server_ends.push(listener.accept().unwrap().0);
        let b = pool.checkout().unwrap();
        server_ends.push(listener.accept().unwrap().0);
        let c = pool.checkout().unwrap();
        server_ends.push(listener.accept().unwrap().0);
        pool.checkin(a);
        pool.checkin(b);
        pool.checkin(c); // over the cap of 2: dropped

        let _r1 = pool.checkout().unwrap();
        let _r2 = pool.checkout().unwrap();
        let _d = pool.checkout().unwrap(); // pool drained: dials
        server_ends.push(listener.accept().unwrap().0);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
            Some(4)
        );
        assert_eq!(snap.counter(ct_obs::names::STORE_REMOTE_POOL_HITS), Some(2));
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_RETIRED)
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn stale_sockets_are_retired_at_checkout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let (pool, reg) = local_pool(authority, 4);

        // A socket the server has closed (EOF on peek).
        let closed = pool.checkout().unwrap();
        drop(listener.accept().unwrap().0);
        pool.checkin(closed);
        // A socket with unsolicited bytes buffered.
        let noisy = pool.checkout().unwrap();
        let (mut server_end, _) = listener.accept().unwrap();
        server_end.write_all(b"surprise").unwrap();
        // Give loopback a moment to deliver the surprise.
        std::thread::sleep(Duration::from_millis(20));
        pool.checkin(noisy);

        // Both idle candidates are retired; the checkout dials fresh.
        let _fresh = pool.checkout().unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_RETIRED),
            Some(2)
        );
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
            Some(3)
        );
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_HITS)
                .unwrap_or(0),
            0
        );
    }
}
