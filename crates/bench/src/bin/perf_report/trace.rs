//! Harness-side tracing: a span around every call the harness makes
//! into a layer, and counter readings at the same boundaries. Spans are
//! kept in memory and written when the run ends. Nothing is recorded
//! inside the program under test (ROADMAP item 5 does that later).

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the tracer's span list; spans
/// of one request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// A counter reading taken at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    pub name: &'static str,
    pub at_ns: u64,
    pub request_id: u64,
    pub value: f64,
}

/// Records spans for one caller thread. A disabled tracer records
/// nothing and costs a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Distinguishes callers when several tracers are merged.
    caller: u64,
    open: Vec<u32>,
    request_id: u64,
    pub spans: Vec<Span>,
    pub counters: Vec<CounterSample>,
}

impl Tracer {
    /// A disabled tracer whose clock starts at `epoch` (shared by all
    /// callers of a run so their spans line up).
    pub fn new(epoch: Instant, caller: u64) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            caller,
            open: Vec::new(),
            request_id: 0,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened until the next call share its
    /// identifier.
    pub fn begin_request(&mut self, sequence: u64) {
        self.request_id = (self.caller << 48) | sequence;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records a counter reading at the current boundary.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let at_ns = self.now_ns();
            self.counters.push(CounterSample {
                name,
                at_ns,
                request_id: self.request_id,
                value,
            });
        }
    }

    /// Appends another caller's records, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counters.extend(other.counters);
    }

    /// Self time per span name: each span's duration minus what its
    /// children cover, summed by name. Returns `(name, self_ns, count)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// The trace file body: every span and counter reading.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request_id", Json::Num(s.request_id as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name)),
                    ("at_ns", Json::Num(c.at_ns as f64)),
                    ("request_id", Json::Num(c.request_id as f64)),
                    ("value", Json::Num(c.value)),
                ])
            })
            .collect();
        Json::obj([
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(counters)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_enabled(true);
        t.begin_request(7);
        t.span("request", |t| {
            t.span("plan.parse", |_| std::hint::black_box(1 + 1));
            t.span("plan.execute", |t| t.counter("storage.pages_read", 3.0));
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.request_id == (1 << 48) | 7));
        assert_eq!(t.counters.len(), 1);
        let total: u64 = t.self_times().iter().map(|(_, ns, _)| ns).sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        assert_eq!(t.span("request", |t| t.span("core.divide", |_| 5)), 5);
        t.counter("x", 1.0);
        assert!(t.spans.is_empty() && t.counters.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        a.set_enabled(true);
        a.span("request", |_| ());
        let mut b = Tracer::new(epoch, 1);
        b.set_enabled(true);
        b.span("request", |t| t.span("service.tcp", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
