//! The benchmark's own spans: recorded around each call into a layer, kept
//! in memory, and written out once the run ends.
//!
//! A span is `(name, parent, start, end)` on one thread's clock. Spans
//! nest strictly (the traced replays are single-threaded), so a span's
//! **self time** — its duration minus the part its children cover — is
//! its duration minus the sum of its children's durations.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a disabled tracer runs the closures and reads no
/// clock, which is what the tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the innermost open span.
    open: Option<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer { enabled: true, origin: Instant::now(), spans: Vec::new(), open: None }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open = Some(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time in seconds summed per span name.
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                s.duration_ns().saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Duration in seconds of all root spans together.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// The spans as a JSON array of `{id, name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("name", Json::str(s.name)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = t.self_times_s();
        let total: f64 = selfs.values().sum();
        assert!((total - t.wall_s()).abs() < 1e-9, "self times must add up to the wall");
        assert!(selfs["inner"] >= 0.002);
        assert_eq!(t.durations_s("inner").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.wall_s(), 0.0);
    }
}
