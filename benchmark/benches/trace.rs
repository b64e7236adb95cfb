//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start, end, parent, request id}`; the layer is the
//! part of the name before the first dot (`mpi.spawn` → `mpi`). A
//! layer's self time is its spans' duration minus the part their child
//! spans cover; it is accumulated as spans close, so only the first
//! [`KEEP`] spans are kept for the Chrome trace file and a long run
//! does not hold millions of them. When the tracer is off, `span` is a
//! plain call.

use beff_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept verbatim for the trace file (the aggregate covers all).
const KEEP: usize = 60_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the kept ones, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    /// Index reserved in `spans` (when still under [`KEEP`]).
    slot: Option<usize>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    by_name: BTreeMap<&'static str, Agg>,
    request: u64,
    recorded: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            by_name: BTreeMap::new(),
            request: 0,
            recorded: 0,
        }
    }

    /// Spans opened after this call belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let slot = (self.spans.len() < KEEP).then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.slot);
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request: self.request,
            });
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            slot,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(open) = self.stack.pop() {
            self.close(open, end_ns);
        }
        out
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let agg = self.by_name.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.children_ns);
        self.recorded += 1;
        if let Some(i) = open.slot {
            self.spans[i].start_ns = open.start_ns;
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Per span name: count, total and self time.
    pub fn by_name(&self) -> &BTreeMap<&'static str, Agg> {
        &self.by_name
    }

    /// Self time per layer (name prefix before the first dot), ns.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, agg) in &self.by_name {
            *out.entry(layer_of(name)).or_insert(0) += agg.self_ns;
        }
        out
    }

    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per kept span, layer as the category.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let args = Json::object()
                    .field("request", &s.request)
                    .field("parent", &s.parent.map(|p| p as u64))
                    .build();
                Json::object()
                    .field("name", s.name)
                    .field("cat", layer_of(s.name))
                    .field("ph", "X")
                    .field("ts", &(s.start_ns as f64 / 1e3))
                    .field("dur", &(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3))
                    .field("pid", &1u64)
                    .field("tid", &1u64)
                    .raw("args", args)
                    .build()
            })
            .collect();
        let doc = Json::object()
            .raw("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
            .raw(
                "otherData",
                Json::object()
                    .field("workload", workload)
                    .field("spans_recorded", &self.recorded)
                    .field("spans_kept", &(self.spans.len() as u64))
                    .build(),
            )
            .build();
        beff_json::to_string(&doc)
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.span("serve.handle", |t| {
            spin(200_000);
            t.span("json.parse", |_| spin(300_000));
            t.span("json.parse", |_| spin(300_000));
        });
        let outer = t.by_name()["serve.handle"];
        let inner = t.by_name()["json.parse"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 600_000);
        assert!(outer.total_ns >= inner.total_ns + 200_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let layers = t.self_ns_by_layer();
        assert_eq!(layers["json"], inner.self_ns);
        assert_eq!(layers["serve"], outer.self_ns);
        let doc = t.chrome_json("demo");
        let parsed = beff_json::parse(&doc);
        assert!(parsed.is_ok(), "trace file is valid JSON");
        assert!(doc.contains("\"parent\":0") && doc.contains("\"request\":7"));
        assert_eq!(t.recorded(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.run", |t| t.span("mpi.spawn", |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.by_name().is_empty());
        assert_eq!(t.recorded(), 0);
    }
}
