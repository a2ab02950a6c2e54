//! Content-addressed on-disk artifact store for ensemble outputs.
//!
//! The expensive artifacts of a case-study run — per-realization
//! inundation outcomes, terrain rasters, flood-pattern
//! histograms — are pure functions of their inputs. This crate gives
//! them a durable home keyed by a *stable* content hash of those
//! inputs, so re-running a sweep recomputes only what is missing:
//!
//! - [`StableHasher`] / [`Digest`]: pinned, portable 128-bit FNV-1a
//!   hashing over typed, canonical byte encodings (never
//!   `std::hash`, whose output may change between Rust releases);
//! - [`mod@format`]: a versioned binary record frame with a per-record
//!   checksum, so torn or tampered files are *classified*, not
//!   trusted;
//! - [`Store`]: one open handle per root directory (held by a file
//!   lock), validate-or-evict reads, bounded transient-I/O retries,
//!   and an [`Store::fsck`] walk that validates, compacts and repairs
//!   — reporting hit/miss/corrupt/evict/retry counters through
//!   [`ct_obs`];
//! - [`mod@segment`]: the on-disk layout — records append to segment
//!   logs with group fsyncs and are served by positioned reads off an
//!   in-memory index, for put/get throughput at sequential-I/O speed;
//! - [`mod@faults`]: a deterministic failpoint registry
//!   (`CT_FAULTS=site:nth:kind`) so every crash path above is
//!   testable on demand.
//!
//! Since the serving tier landed, the *pipeline* is written against
//! the [`StoreBackend`] trait rather than [`Store`] directly:
//!
//! - [`StoreBackend`]: the get/put/evict/degrade contract both
//!   backends satisfy;
//! - [`RemoteStore`] + [`mod@remote`]: a zero-dependency HTTP/1.1
//!   client (and the shared keep-alive wire codec) for a store
//!   hosted by `ct serve`, drawing kept-alive sockets from the
//!   bounded `pool`;
//! - [`StoreUrl`]: `--store` argument parsing — bare path,
//!   `file://path`, or `http://host:port` — selecting the backend;
//! - [`ByteLru`]: the byte-budgeted in-memory cache the server
//!   answers hot reads from.
//!
//! A root is held by one open [`Store`], so processes that want to
//! share a store at once go through `ct serve`, which holds it.
//!
//! Zero dependencies beyond [`ct_obs`], matching the workspace's
//! hand-rolled-serialization policy.
//!
//! # Example
//!
//! ```
//! use ct_store::{StableHasher, Store};
//!
//! let dir = std::env::temp_dir().join(format!("ct-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir)?;
//! let mut h = StableHasher::new();
//! h.write_str("my-run");
//! h.write_u64(42);
//! let key = h.finish();
//!
//! assert_eq!(store.get(&key)?, None); // cold
//! store.put(&key, b"expensive result")?;
//! assert_eq!(store.get(&key)?.as_deref(), Some(&b"expensive result"[..])); // warm
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), ct_store::StoreError>(())
//! ```

pub mod faults;
pub mod format;
mod pool;
pub mod remote;
pub mod segment;

mod backend;
mod error;
mod hash;
mod lru;
mod metrics;
mod retry;
mod store;
mod url;

pub use backend::StoreBackend;
pub use error::StoreError;
pub use faults::{FaultKind, FaultRegistry, FaultSpec};
pub use format::Corruption;
pub use hash::{Digest, StableHasher};
pub use lru::ByteLru;
pub use remote::RemoteStore;
pub use segment::PackedOptions;
pub use store::{FsckOptions, FsckReport, Store};
pub use url::StoreUrl;
