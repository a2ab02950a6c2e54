//! Point-in-time snapshots and their hand-rolled renderers.

use std::fmt::Write as _;

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Inclusive upper bucket bounds (sorted). An implicit `+inf`
    /// bucket follows the last bound.
    pub(crate) bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub(crate) sum: f64,
}

/// One span path's aggregated statistics at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Slash-separated span path (`build/ensemble_evaluate`).
    pub path: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds across calls.
    pub(crate) wall_ns: u64,
    /// Total CPU-proxy nanoseconds across calls (worker busy time
    /// when attributed, wall time otherwise).
    pub(crate) cpu_ns: u64,
}

/// A point-in-time view of a [`crate::Registry`], sorted by metric
/// name so renderings are stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub(crate) gauges: Vec<(String, f64)>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// The value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The statistics of a span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Renders the snapshot as CSV with a fixed
    /// `kind,name,field,value` schema: one row per counter/gauge
    /// value, histogram bucket (`le_<bound>` / `le_inf`), histogram
    /// `count`/`sum`, and span `calls`/`wall_ns`/`cpu_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, value) in &self.counters {
            writeln!(out, "counter,{name},value,{value}").expect("write to string");
        }
        for (name, value) in &self.gauges {
            writeln!(out, "gauge,{name},value,{value}").expect("write to string");
        }
        for h in &self.histograms {
            for (i, count) in h.buckets.iter().enumerate() {
                match h.bounds.get(i) {
                    Some(bound) => writeln!(out, "hist,{},le_{bound},{count}", h.name),
                    None => writeln!(out, "hist,{},le_inf,{count}", h.name),
                }
                .expect("write to string");
            }
            writeln!(out, "hist,{},count,{}", h.name, h.count).expect("write to string");
            writeln!(out, "hist,{},sum,{}", h.name, h.sum).expect("write to string");
        }
        for s in &self.spans {
            writeln!(out, "span,{},calls,{}", s.path, s.calls).expect("write to string");
            writeln!(out, "span,{},wall_ns,{}", s.path, s.wall_ns).expect("write to string");
            writeln!(out, "span,{},cpu_ns,{}", s.path, s.cpu_ns).expect("write to string");
        }
        out
    }

    /// Renders the snapshot as a markdown document (one table per
    /// metric kind), consistent with the `report` module's style.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Metrics snapshot\n\n");
        if !self.spans.is_empty() {
            out.push_str("## Spans\n\n| span | calls | wall ms | cpu ms |\n|---|---|---|---|\n");
            for s in &self.spans {
                writeln!(
                    out,
                    "| {} | {} | {:.3} | {:.3} |",
                    s.path,
                    s.calls,
                    s.wall_ns as f64 / 1e6,
                    s.cpu_ns as f64 / 1e6
                )
                .expect("write to string");
            }
            out.push('\n');
        }
        if !self.counters.is_empty() {
            out.push_str("## Counters\n\n| counter | value |\n|---|---|\n");
            for (name, value) in &self.counters {
                writeln!(out, "| {name} | {value} |").expect("write to string");
            }
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            out.push_str("## Gauges\n\n| gauge | value |\n|---|---|\n");
            for (name, value) in &self.gauges {
                writeln!(out, "| {name} | {value} |").expect("write to string");
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "## Histograms\n\n| histogram | count | sum | buckets |\n|---|---|---|---|\n",
            );
            for h in &self.histograms {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, c)| match h.bounds.get(i) {
                        Some(b) => format!("≤{b}: {c}"),
                        None => format!("≤inf: {c}"),
                    })
                    .collect();
                writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    h.name,
                    h.count,
                    h.sum,
                    buckets.join(", ")
                )
                .expect("write to string");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("b.count").add(7);
        reg.counter("a.count").add(2);
        reg.gauge("threads").set(8.0);
        let h = reg.histogram("steps", &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(500.0);
        {
            let _outer = reg.span("build");
            let _inner = reg.span("terrain");
        }
        reg.snapshot()
    }

    #[test]
    fn csv_schema_and_order() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,field,value");
        // Counters sorted by name.
        assert_eq!(lines[1], "counter,a.count,value,2");
        assert_eq!(lines[2], "counter,b.count,value,7");
        assert_eq!(lines[3], "gauge,threads,value,8");
        assert!(lines.contains(&"hist,steps,le_10,1"));
        assert!(lines.contains(&"hist,steps,le_inf,1"));
        assert!(lines.contains(&"hist,steps,count,2"));
        assert!(lines.contains(&"span,build/terrain,calls,1"));
        // Every row has exactly four fields.
        for line in &lines {
            assert_eq!(line.split(',').count(), 4, "bad row: {line}");
        }
    }

    #[test]
    fn markdown_sections_present() {
        let md = sample().to_markdown();
        for needle in ["## Spans", "## Counters", "## Gauges", "## Histograms"] {
            assert!(md.contains(needle), "missing {needle}");
        }
        assert!(md.contains("| build/terrain | 1 |"));
        // Table rows are well formed.
        for line in md.lines().filter(|l| l.starts_with('|')) {
            assert!(line.ends_with('|'), "ragged row: {line}");
        }
    }

    #[test]
    fn accessors_find_metrics() {
        let snap = sample();
        assert_eq!(snap.counter("a.count"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("threads"), Some(8.0));
        assert_eq!(snap.span("build").map(|s| s.calls), Some(1));
    }
}
