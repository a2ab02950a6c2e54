//! A bounded pool of kept-alive client connections.
//!
//! [`crate::RemoteStore`] used to dial a fresh TCP connection per
//! operation to match the PR-7 server's one-request-per-connection
//! contract. With keep-alive on both sides, the dial (and the slow
//! start that follows it) is pure waste — so clients check
//! connections ([`crate::remote::ClientConn`]) out of a [`ConnPool`],
//! use them for one exchange (or one pipelined batch of GETs), and
//! check them back in while the server keeps the other end open. A
//! connection with bytes buffered past its last answer is never
//! checked back in.
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
use crate::remote::{ClientConn, IO_TIMEOUT};
use std::io;
use std::sync::Mutex;

/// Idle sockets kept per pool.
pub(crate) const DEFAULT_POOL_CAP: usize = 8;

/// A bounded pool of idle kept-alive connections to one authority.
/// Shared by every clone of the owning [`crate::RemoteStore`].
#[derive(Debug)]
pub(crate) struct ConnPool {
    authority: String,
    cap: usize,
    idle: Mutex<Vec<ClientConn>>,
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
    pub(crate) fn checkout(&self) -> io::Result<ClientConn> {
        loop {
            let candidate = self.idle.lock().expect("conn pool lock").pop();
            let Some(conn) = candidate else { break };
            if conn.peer_is_quiet() {
                self.sink.add(ct_obs::names::STORE_REMOTE_POOL_HITS, 1);
                return Ok(conn);
            }
            self.sink.add(ct_obs::names::STORE_REMOTE_POOL_RETIRED, 1);
        }
        self.dial()
    }

    /// Returns a connection after a clean keep-alive exchange. Dropped
    /// on the floor when the pool is at its idle cap or bytes past the
    /// last answer are buffered; never call this with a connection
    /// that saw an error — broken connections must not be reused.
    pub(crate) fn checkin(&self, conn: ClientConn) {
        let mut idle = self.idle.lock().expect("conn pool lock");
        if idle.len() < self.cap && conn.is_drained() {
            idle.push(conn);
        }
    }

    fn dial(&self) -> io::Result<ClientConn> {
        self.sink.add(ct_obs::names::STORE_REMOTE_POOL_DIALS, 1);
        ClientConn::dial(&self.authority, IO_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

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
    fn a_connection_with_unread_bytes_is_never_pooled() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let (pool, reg) = local_pool(authority, 4);

        let mut conn = pool.checkout().unwrap();
        let (mut server_end, _) = listener.accept().unwrap();
        let mut two = crate::remote::encode_response(200, "OK", "text/plain", b"1", true);
        two.extend(crate::remote::encode_response(
            200,
            "OK",
            "text/plain",
            b"2",
            true,
        ));
        server_end.write_all(&two).unwrap();
        // One read takes both answers; the second stays buffered.
        assert_eq!(conn.next_response().unwrap().body, b"1");
        assert!(!conn.is_drained());
        pool.checkin(conn);

        let _fresh = pool.checkout().unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_DIALS),
            Some(2)
        );
        assert_eq!(
            snap.counter(ct_obs::names::STORE_REMOTE_POOL_HITS)
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
