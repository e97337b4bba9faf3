//! Benchmark-side span recorder.  Spans are recorded around the calls into
//! each crate's public functions; durations the program itself reports
//! (`SearchStats`, `IngestStats`, the daemon's trace lines) become child
//! spans laid end to end from the parent's start.  Everything stays in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to (`phase/round/index/lane`); spans of one
    /// request share it.
    pub request: usize,
    /// Span that caused this one (`None` for the request's root).
    pub parent: Option<SpanId>,
    /// Crate the time belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    requests: Vec<String>,
    spans: Vec<Span>,
}

/// Per-layer self time over every recorded request.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self time per layer, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of the root spans: the wall-clock of all requests.
    pub wall_ns: u64,
    /// Wall-clock no layer's self time covers: children that claim more
    /// time than their parent measured.
    pub unattributed_ns: u64,
    /// Largest share of one request's wall-clock left unattributed.
    pub worst_request_share: f64,
}

impl Attribution {
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            100.0 * self.unattributed_ns as f64 / self.wall_ns as f64
        }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            requests: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Registers a request and returns its identifier.
    pub fn request(&mut self, label: String) -> usize {
        self.requests.push(label);
        self.requests.len() - 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A span measured by the benchmark around a public call.
    pub fn measured(
        &mut self,
        request: usize,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            request,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        })
    }

    /// Child spans whose durations the program reported, laid end to end
    /// from the parent's start in the order given.  Returns the first
    /// child's id; the others follow it.
    pub fn reported(
        &mut self,
        parent: SpanId,
        children: &[(&'static str, &'static str, u64)],
    ) -> SpanId {
        let first = self.spans.len();
        let request = self.spans[parent].request;
        let mut at = self.spans[parent].start_ns;
        for &(layer, name, duration_ns) in children {
            self.push(Span {
                request,
                parent: Some(parent),
                layer,
                name,
                start_ns: at,
                end_ns: at + duration_ns,
            });
            at += duration_ns;
        }
        first
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time = a span's duration minus what its children cover; summed
    /// per layer.  Children reporting more than the parent measured leave
    /// the excess unattributed.
    pub fn attribution(&self) -> Attribution {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        let mut result = Attribution::default();
        let mut excess_per_request: BTreeMap<usize, u64> = BTreeMap::new();
        let mut wall_per_request: BTreeMap<usize, u64> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&children_ns) {
            let duration = span.duration_ns();
            *result.self_ns.entry(span.layer).or_default() += duration.saturating_sub(*covered);
            let excess = covered.saturating_sub(duration);
            result.unattributed_ns += excess;
            *excess_per_request.entry(span.request).or_default() += excess;
            if span.parent.is_none() {
                result.wall_ns += duration;
                *wall_per_request.entry(span.request).or_default() += duration;
            }
        }
        for (request, wall) in wall_per_request {
            if wall > 0 {
                let share = excess_per_request[&request] as f64 / wall as f64;
                result.worst_request_share = result.worst_request_share.max(share);
            }
        }
        result
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "    {{\"id\": {id}, \"parent\": {parent}, \"request\": \"{}\", \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                self.requests[span.request], span.layer, span.name, span.start_ns, span.end_ns
            ));
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children_and_layers_sum_to_the_wall() {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        let request = rec.request("query/0/0/ts-index".into());
        let root = rec.measured(
            request,
            None,
            "twin-search",
            "Engine::execute",
            t0,
            t0 + Duration::from_micros(1_000),
        );
        rec.reported(
            root,
            &[
                ("ts-index", "filter", 700_000),
                ("ts-core", "verify", 250_000),
            ],
        );
        let a = rec.attribution();
        assert_eq!(a.wall_ns, 1_000_000);
        assert_eq!(a.self_ns["twin-search"], 50_000);
        assert_eq!(a.self_ns["ts-index"], 700_000);
        assert_eq!(a.self_ns["ts-core"], 250_000);
        assert_eq!(a.self_ns.values().sum::<u64>(), a.wall_ns);
        assert_eq!(a.unattributed_pct(), 0.0);
        assert_eq!(rec.spans.len(), 3);
        assert!(rec.spans_json().contains("\"parent\": 0"));
    }

    #[test]
    fn children_longer_than_their_parent_are_flagged_not_hidden() {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        let request = rec.request("serve/0/0".into());
        let root = rec.measured(
            request,
            None,
            "ts-serve",
            "Client::query",
            t0,
            t0 + Duration::from_micros(100),
        );
        rec.reported(root, &[("twin-search", "execute", 130_000)]);
        let a = rec.attribution();
        assert_eq!(a.unattributed_ns, 30_000);
        assert!((a.unattributed_pct() - 30.0).abs() < 1e-9);
        assert!((a.worst_request_share - 0.3).abs() < 1e-9);
    }
}
