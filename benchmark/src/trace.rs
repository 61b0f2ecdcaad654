//! Spans recorded by the benchmark around the calls it makes into each
//! layer. They are held in memory and written out when the run ends; the
//! program under test is not instrumented.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{obj, Json};

/// Spans kept per name; later ones are counted in `dropped`, not stored, so
/// a flood's block calls can neither turn the recorder into the dominant
/// allocation nor crowd out the rarer spans.
const MAX_SPANS_PER_NAME: usize = 20_000;

/// One timed call: `parent` is the index of the span that caused it, `iter`
/// the iteration (window, repetition or loop iteration) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    parent: Option<usize>,
}

/// The span recorder. A disabled tracer makes every call a no-op, so the
/// workloads run the same code traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    kept: Vec<(&'static str, usize)>,
    current: Option<usize>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            kept: Vec::new(),
            current: None,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, iter: u64) -> Open {
        if !self.enabled {
            return Open {
                index: None,
                parent: None,
            };
        }
        let parent = self.current;
        let kept = match self.kept.iter_mut().find(|(n, _)| *n == name) {
            Some((_, kept)) => kept,
            None => {
                self.kept.push((name, 0));
                &mut self.kept.last_mut().expect("just pushed").1
            }
        };
        if *kept >= MAX_SPANS_PER_NAME {
            self.dropped += 1;
            return Open {
                index: None,
                parent,
            };
        }
        *kept += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        let index = self.spans.len() - 1;
        self.current = Some(index);
        Open {
            index: Some(index),
            parent,
        }
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.now_ns();
            self.current = open.parent;
        }
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total self time per span name: a span's duration minus the part of it
    /// its children cover.
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// The trace file, written span by span: a `Json` tree of a hundred
    /// thousand small objects would cost more than the measurement's probes.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let self_time = self
            .self_time_ns()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), Json::from(ns)))
            .collect();
        let head = obj([
            ("workload", workload.into()),
            ("seed", seed.into()),
            ("spans_dropped", self.dropped.into()),
            ("self_time_ns", Json::Obj(self_time)),
        ])
        .compact();
        let mut out = format!("{},\"spans\":[", head.strip_suffix('}').unwrap_or(&head));
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            // Span names are identifiers from this package: nothing to escape.
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"iter\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.iter
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 7);
        let inner = t.open("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner);
        t.close(outer);
        let outer_ns = t.durations_ns("outer")[0];
        let inner_ns = t.durations_ns("inner")[0];
        assert!(inner_ns >= 2e6 && outer_ns >= inner_ns);
        let own = t.self_time_ns();
        assert_eq!(own[0].0, "outer");
        assert_eq!(own[0].1 as f64, outer_ns - inner_ns);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].iter, 7);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", u64::MAX);
        let inner = t.open("inner", 3);
        t.close(inner);
        t.close(outer);
        let doc = Json::parse(&t.to_json("flood.small", 9)).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(9.0));
        assert!(doc.get("self_time_ns").unwrap().get("outer").is_some());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open("x", 0);
        t.close(open);
        assert!(t.spans.is_empty());
    }
}
