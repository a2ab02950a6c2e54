//! The store abstraction the pipeline is written against.
//!
//! [`StoreBackend`] is the contract [`crate::Store`] always satisfied
//! implicitly — content-addressed get/put with validate-or-evict
//! reads, plus the degradation hooks the pipeline's
//! compute-without-cache fallback needs. Extracting it lets the same
//! pipeline code run against the local [`crate::Store`] or the HTTP
//! [`crate::RemoteStore`], selected by [`crate::StoreUrl`] at the CLI.
//! A local store is held by one process, so concurrent shards — on
//! one machine or many — share one serving store without the
//! pipeline knowing.
//!
//! The contract every backend must honor:
//!
//! - `get` returns a payload **bit-identical** to what `put` stored,
//!   or `None` for both a miss and a record that failed validation
//!   (corrupt records are evicted, never returned);
//! - `put` is atomic: a concurrent or crashed reader sees the old
//!   record or the new one, never a torn hybrid;
//! - errors are *environmental* only (I/O, network); callers respond
//!   by computing without the cache and reporting
//!   [`StoreBackend::note_degraded`], so a failing backend costs time
//!   but never a result.

use crate::error::StoreError;
use crate::hash::Digest;
use crate::store::Store;
use std::sync::Arc;

/// A content-addressed artifact store, local or remote.
///
/// The contract every implementation honors: `get` returns a payload
/// bit-identical to what `put` stored (or `None` for both a miss and
/// an evicted-because-corrupt record), `put` is atomic (readers see
/// the old record or the new one, never a torn hybrid), and errors
/// are *environmental* only — callers respond by computing without
/// the cache and reporting [`StoreBackend::note_degraded`], so a
/// failing backend costs time but never a result.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Fetches the payload stored under `key`; `Ok(None)` for both a
    /// miss and a corrupt record (which the backend evicts itself).
    ///
    /// # Errors
    ///
    /// Environmental failures only — never corruption.
    fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, StoreError>;

    /// Fetches the payloads stored under `keys`, in input order, each
    /// with exactly the result and the counters [`StoreBackend::get`]
    /// would give it. Backends override it to answer a batch in fewer
    /// reads or round trips; the default loops over `get`.
    fn get_many(&self, keys: &[Digest]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Atomically stores `payload` under `key`, overwriting any
    /// existing record.
    ///
    /// # Errors
    ///
    /// Environmental failures (disk, network).
    fn put(&self, key: &Digest, payload: &[u8]) -> Result<(), StoreError>;

    /// Evicts the record for `key`, returning whether it existed.
    ///
    /// # Errors
    ///
    /// Environmental failures other than the record being absent.
    fn evict(&self, key: &Digest) -> Result<bool, StoreError>;

    /// Removes the record for `key` because its *payload* failed the
    /// caller's decoding even though the frame validated (e.g. an
    /// older payload schema); counted as corrupt plus evicted.
    ///
    /// # Errors
    ///
    /// Environmental failures.
    fn invalidate(&self, key: &Digest) -> Result<(), StoreError>;

    /// Records that a caller absorbed a backend failure by degrading
    /// to compute-without-cache (counted as `store.degraded` on this
    /// backend's metrics sink).
    fn note_degraded(&self);

    /// An owned, shareable handle to this same backend (same root or
    /// connection target, same metrics sink). Lets borrowing callers
    /// like `CaseStudy::build_with_store` retain the backend beyond
    /// the borrow without forcing every call site to start from an
    /// `Arc`.
    fn clone_handle(&self) -> Arc<dyn StoreBackend>;
}

impl StoreBackend for Store {
    fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, StoreError> {
        Store::get(self, key)
    }

    fn get_many(&self, keys: &[Digest]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        Store::get_many(self, keys)
    }

    fn put(&self, key: &Digest, payload: &[u8]) -> Result<(), StoreError> {
        Store::put(self, key, payload)
    }

    fn evict(&self, key: &Digest) -> Result<bool, StoreError> {
        Store::evict(self, key)
    }

    fn invalidate(&self, key: &Digest) -> Result<(), StoreError> {
        Store::invalidate(self, key)
    }

    fn note_degraded(&self) {
        Store::note_degraded(self);
    }

    fn clone_handle(&self) -> Arc<dyn StoreBackend> {
        Arc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StableHasher;

    fn key(label: &str) -> Digest {
        let mut h = StableHasher::new();
        h.write_str(label);
        h.finish()
    }

    #[test]
    fn store_round_trips_through_the_trait() {
        let dir = std::env::temp_dir().join(format!("ct-backend-{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        let backend: &dyn StoreBackend = &store;
        let k = key("trait-round-trip");
        assert_eq!(backend.get(&k).unwrap(), None);
        backend.put(&k, b"payload").unwrap();
        assert_eq!(backend.get(&k).unwrap().as_deref(), Some(&b"payload"[..]));
        let handle = backend.clone_handle();
        assert_eq!(handle.get(&k).unwrap().as_deref(), Some(&b"payload"[..]));
        assert!(backend.evict(&k).unwrap());
        assert_eq!(handle.get(&k).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
