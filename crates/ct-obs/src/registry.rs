//! The metric registry: counters, gauges, histograms, span stats.

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::span::SpanGuard;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A monotonically-increasing counter. Handles are cheap clones of a
/// shared atomic; workers can increment them without locking.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (stored as bit pattern).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Sorted inclusive upper bounds; an implicit `+inf` bucket
    /// follows the last bound.
    pub(crate) bounds: Vec<f64>,
    /// One bucket per bound plus the overflow bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    /// Sum of observed values as f64 bits, accumulated by CAS.
    pub(crate) sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. Observations pick the first bucket whose
/// upper bound is `>=` the value (overflowing into an implicit `+inf`
/// bucket), so bucket counts are exact integers and deterministic.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop: f64 addition is not atomic; contention is rare
        // (observations are per-solve, not per-step).
        let mut current = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanStat {
    pub(crate) calls: u64,
    pub(crate) wall_ns: u64,
    pub(crate) cpu_ns: u64,
}

/// A thread-safe registry of named metrics. All handles stay valid
/// for the registry's lifetime; lookups take a read lock only and the
/// returned handles are lock-free to update.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

/// Metric names are CSV cells and span-path segments, so strip the
/// characters that would corrupt either.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ',' | '\n' | '\r' => '_',
            c => c,
        })
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().expect("counter map lock").get(name) {
            return c.clone();
        }
        let mut map = self.counters.write().expect("counter map lock");
        map.entry(sanitize(name))
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().expect("gauge map lock").get(name) {
            return g.clone();
        }
        let mut map = self.gauges.write().expect("gauge map lock");
        map.entry(sanitize(name))
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
            .clone()
    }

    /// The histogram named `name`. `bounds` (inclusive upper bucket
    /// bounds; sorted and deduplicated here) apply only on first
    /// registration — later callers share the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some(h) = self
            .histograms
            .read()
            .expect("histogram map lock")
            .get(name)
        {
            return h.clone();
        }
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let mut map = self.histograms.write().expect("histogram map lock");
        map.entry(sanitize(name))
            .or_insert_with(|| {
                let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
                Histogram(Arc::new(HistogramCore {
                    bounds: sorted,
                    buckets,
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                }))
            })
            .clone()
    }

    /// Opens a span; see [`crate::span`]. The guard records wall time
    /// (and any CPU time attributed with [`SpanGuard::add_cpu_ns`])
    /// under the thread's current span path when dropped.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::enter(self, &sanitize(name))
    }

    pub(crate) fn record_span(&self, path: &str, wall_ns: u64, cpu_ns: u64) {
        let mut spans = self.spans.lock().expect("span map lock");
        let stat = spans.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.wall_ns += wall_ns;
        stat.cpu_ns += cpu_ns;
    }

    /// A consistent-enough point-in-time view: each metric is read
    /// atomically; the set of metrics is the set registered at call
    /// time, in sorted name order.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("counter map lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("gauge map lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("histogram map lock")
            .iter()
            .map(|(name, h)| {
                let core = &*h.0;
                HistogramSnapshot {
                    name: name.clone(),
                    bounds: core.bounds.clone(),
                    buckets: core
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: core.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                }
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("span map lock")
            .iter()
            .map(|(path, stat)| SpanSnapshot {
                path: path.clone(),
                calls: stat.calls,
                wall_ns: stat.wall_ns,
                cpu_ns: stat.cpu_ns,
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Zeroes all metrics and clears span statistics. Registered
    /// counter/gauge/histogram names survive (handles stay valid), so
    /// post-reset snapshots still list the full metric set.
    pub fn reset(&self) {
        for c in self.counters.read().expect("counter map lock").values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().expect("gauge map lock").values() {
            g.0.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in self.histograms.read().expect("histogram map lock").values() {
            for b in &h.0.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.0.count.store(0, Ordering::Relaxed);
            h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        }
        self.spans.lock().expect("span map lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("work");
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("work").get(), 8000);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = Registry::new();
        reg.gauge("threads").set(8.0);
        reg.gauge("threads").set(4.0);
        assert_eq!(reg.gauge("threads").get(), 4.0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[1.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 100.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.buckets, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert!((hs.sum - 103.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = Registry::new();
        reg.histogram("h", &[10.0, 1.0, 10.0, f64::NAN]);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].bounds, vec![1.0, 10.0]);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[1.0]).observe(0.5);
        {
            let _s = reg.span("stage");
        }
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(0));
        assert_eq!(snap.gauges, vec![("g".to_string(), 0.0)]);
        assert_eq!(snap.histograms[0].count, 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn names_are_sanitized_for_csv() {
        let reg = Registry::new();
        reg.counter("bad,name\nhere").add(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("bad_name_here"), Some(1));
    }
}
