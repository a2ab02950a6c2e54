//! RAII span timers with thread-local nesting.

use crate::registry::Registry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    /// The stack of open span paths on this thread. Spans opened on
    /// worker threads nest independently of the coordinator's stack —
    /// by design, deterministic instrumentation opens spans only on
    /// coordinator code paths.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span. Created by [`Registry::span`]; records aggregated
/// wall (and optional CPU-proxy) time under its slash-separated path
/// when dropped. Guards must be dropped in LIFO order, which normal
/// scope-based usage guarantees.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    path: String,
    start: Instant,
    /// Explicitly-attributed CPU-proxy nanoseconds (e.g. summed
    /// worker busy time). When zero at drop, wall time is used as the
    /// CPU proxy — exact for serial spans.
    cpu_ns: AtomicU64,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(registry: &'a Registry, name: &str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            path
        });
        Self {
            registry,
            path,
            start: Instant::now(),
            cpu_ns: AtomicU64::new(0),
        }
    }

    /// Attributes CPU-proxy time to the span — typically the summed
    /// per-item busy time of parallel workers running inside it.
    /// Shared references suffice, so workers can report concurrently.
    pub fn add_cpu_ns(&self, ns: u64) {
        self.cpu_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let wall_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let attributed = self.cpu_ns.load(Ordering::Relaxed);
        let cpu_ns = if attributed == 0 { wall_ns } else { attributed };
        self.registry.record_span(&self.path, wall_ns, cpu_ns);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last(), Some(&self.path), "span drop order violated");
            stack.pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_paths() {
        let reg = Registry::new();
        {
            let _a = reg.span("build");
            {
                let _b = reg.span("terrain");
            }
            {
                let _c = reg.span("ensemble");
            }
        }
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["build", "build/ensemble", "build/terrain"]);
    }

    #[test]
    fn repeated_spans_aggregate_calls() {
        let reg = Registry::new();
        for _ in 0..3 {
            let _s = reg.span("stage");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans[0].calls, 3);
    }

    #[test]
    fn cpu_attribution_overrides_wall() {
        let reg = Registry::new();
        {
            let s = reg.span("par");
            s.add_cpu_ns(5_000);
            s.add_cpu_ns(7_000);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans[0].cpu_ns, 12_000);
    }

    #[test]
    fn serial_span_cpu_defaults_to_wall() {
        let reg = Registry::new();
        {
            let _s = reg.span("serial");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans[0].cpu_ns, snap.spans[0].wall_ns);
    }

    #[test]
    fn sibling_threads_do_not_share_nesting() {
        let reg = Registry::new();
        let _outer = reg.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _inner = reg.span("inner");
            });
        });
        let snap = reg.snapshot();
        // The spawned thread has its own stack: no "outer/inner".
        assert!(snap.spans.iter().any(|sp| sp.path == "inner"));
        assert!(!snap.spans.iter().any(|sp| sp.path == "outer/inner"));
    }
}
