//! Where a store backend or a fault registry reports its metrics: the
//! process-global [`ct_obs`] registry by default, or a caller-owned one
//! for tests that need exact counter assertions without racing other
//! threads.

use std::sync::Arc;

/// A backend's metrics destination. Cheap to clone.
#[derive(Debug, Clone, Default)]
pub(crate) enum MetricsSink {
    /// The process-global [`ct_obs`] registry (the default).
    #[default]
    Global,
    /// A caller-owned registry.
    Local(Arc<ct_obs::Registry>),
}

impl MetricsSink {
    pub(crate) fn add(&self, name: &str, delta: u64) {
        match self {
            MetricsSink::Global => ct_obs::add(name, delta),
            MetricsSink::Local(r) => r.counter(name).add(delta),
        }
    }

    pub(crate) fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let h = match self {
            MetricsSink::Global => ct_obs::histogram(name, bounds),
            MetricsSink::Local(r) => r.histogram(name, bounds),
        };
        h.observe(value);
    }
}
