//! Zero-dependency observability for the compound-threats pipeline.
//!
//! The crate provides the measurement substrate the analysis layers
//! (`ct-hydro`, `ct-threat`, `ct-simnet`, `ct-replication`,
//! `compound-threats`) report into:
//!
//! - a [`Registry`]: thread-safe counters, gauges, and fixed-bucket
//!   histograms, aggregated with atomics so worker threads of the
//!   work-stealing scheduler can report without coordination;
//! - scoped [`SpanGuard`] timers: RAII guards that nest into a span
//!   tree (`build/ensemble_evaluate`, …) and record wall time plus an
//!   explicitly-attributed CPU-proxy time (the summed busy time of
//!   parallel workers inside the span);
//! - a [`Snapshot`]: a point-in-time, machine-readable view of the
//!   registry, rendered as CSV or markdown by hand (no serializer
//!   dependencies, consistent with the `report` module's policy).
//!
//! # Determinism
//!
//! Counter values, histogram bucket counts, and the span tree's
//! *structure* (paths and call counts) are deterministic for a
//! deterministic workload, regardless of worker-thread count: counts
//! are commutative sums, and spans are only opened by coordinator
//! code, never inside worker closures. Wall/CPU times naturally vary
//! between runs and are excluded from determinism guarantees.
//!
//! # Example
//!
//! ```
//! let registry = ct_obs::Registry::new();
//! {
//!     let span = registry.span("stage");
//!     registry.counter("items_processed").add(3);
//!     span.add_cpu_ns(1_500);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("items_processed"), Some(3));
//! assert!(snap.to_csv().contains("span,stage,calls,1"));
//! ```
//!
//! Most call sites use the process-global registry via the
//! free functions: [`counter`], [`gauge`], [`histogram`], [`span`],
//! [`snapshot`], [`reset`].

pub mod names;
mod registry;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::SpanGuard;

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry all instrumented crates report into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A counter handle from the global registry (created on first use).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Adds `delta` to a global counter (one-shot form of [`counter`]).
pub fn add(name: &str, delta: u64) {
    global().counter(name).add(delta);
}

/// A global counter handle resolved on first use and then kept, for
/// hot paths that would otherwise pay a registry lookup per [`add`]:
///
/// ```
/// static ITEMS: ct_obs::CachedCounter = ct_obs::CachedCounter::new("doc.items");
/// ITEMS.add(2);
/// assert_eq!(ct_obs::snapshot().counter("doc.items"), Some(2));
/// ```
///
/// Each add is one relaxed `fetch_add`. The handle stays valid across
/// [`reset`], which zeroes counters in place.
#[derive(Debug)]
pub struct CachedCounter {
    name: &'static str,
    handle: OnceLock<Counter>,
}

impl CachedCounter {
    /// A handle to the global counter `name`, registered on first add.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            handle: OnceLock::new(),
        }
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.handle.get_or_init(|| counter(self.name)).add(delta);
    }
}

/// Sets a global gauge.
pub fn gauge(name: &str, value: f64) {
    global().gauge(name).set(value);
}

/// A histogram handle from the global registry. `bounds` are the
/// inclusive upper bucket bounds; they only apply on first
/// registration (later calls reuse the existing buckets).
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    global().histogram(name, bounds)
}

/// Opens a span on the global registry; the returned RAII guard
/// records the span on drop. Nested calls on the same thread build
/// slash-separated paths (`parent/child`).
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}

/// A point-in-time snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Zeroes every metric in the global registry (registrations are
/// kept, so a snapshot after `reset` still lists all known names).
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_counter_round_trip() {
        // The global registry is shared across tests in this binary,
        // so use names no other test touches.
        add("lib.round_trip", 2);
        counter("lib.round_trip").add(1);
        assert_eq!(snapshot().counter("lib.round_trip"), Some(3));
    }

    #[test]
    fn cached_counter_shares_the_registered_atomic() {
        static CACHED: CachedCounter = CachedCounter::new("lib.cached");
        CACHED.add(4);
        // The cached handle and a fresh lookup are the same atomic, so
        // `reset` (which zeroes registered atomics in place) reaches it.
        counter("lib.cached").add(1);
        CACHED.add(2);
        assert_eq!(snapshot().counter("lib.cached"), Some(7));
    }

    #[test]
    fn global_span_records() {
        {
            let _g = span("lib_test_span");
        }
        let snap = snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "lib_test_span"));
    }
}
