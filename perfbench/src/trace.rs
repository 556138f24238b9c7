//! Spans recorded by the benchmark around its calls into each layer's public
//! API. They stay in memory and are written out once the run ends.

use astree_obs::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    /// Source kLOC the span's work covered (normalises layer timings).
    pub kloc: f64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span; `f` receives the span's id, to parent
    /// spans it opens in turn.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        kloc: f64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let span = Span { id, parent, name, request, kloc, start_ns, end_ns };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Runs `f` in a span when tracing, or bare otherwise.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    kloc: f64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, request, kloc, |id| f(Some(id))),
        None => f(None),
    }
}

/// Per-layer timing metrics derived from the spans, in ms per kLOC of the
/// work each span covered. Leaf spans (one layer's public call) report
/// their total, which is their self time; the root spans report their self
/// time, the part no child span covers (request bookkeeping and the
/// verdict check). Children of one span never overlap: every span is
/// opened and closed by the thread that opened its parent.
pub fn layer_metrics(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    const METRICS: [(&str, &str); 7] = [
        ("frontend", "frontend.ms_per_kloc"),
        ("packs", "packs.ms_per_kloc"),
        ("analysis", "analysis.ms_per_kloc"),
        ("serve_analyze", "serve_analyze.ms_per_kloc"),
        ("fleet_run", "fleet_run.ms_per_kloc"),
        ("request", "self.request.ms_per_kloc"),
        ("pass", "self.pass.ms_per_kloc"),
    ];
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut own: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let ns = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = own.entry(s.name).or_default();
        e.0 += ns as f64 / 1e6;
        e.1 += s.kloc;
    }
    METRICS
        .iter()
        .filter_map(|&(span, metric)| {
            own.get(span).map(|&(ms, kloc)| (metric, ms / kloc.max(1e-9)))
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::UInt(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::UInt)),
                    ("name", Json::str(s.name)),
                    ("request", Json::UInt(s.request)),
                    ("kloc", Json::Float(s.kloc)),
                    ("start_us", Json::Float(s.start_ns as f64 / 1e3)),
                    ("end_us", Json::Float(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            request: 1,
            kloc: 1.0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, None, "request", 0, 10_000_000),
            span(2, Some(1), "frontend", 1_000_000, 3_000_000),
            span(3, Some(1), "analysis", 3_000_000, 9_000_000),
        ];
        let m = layer_metrics(&spans);
        assert_eq!(m["self.request.ms_per_kloc"], 2.0);
        assert_eq!(m["frontend.ms_per_kloc"], 2.0);
        assert_eq!(m["analysis.ms_per_kloc"], 6.0);
    }
}
