//! The traced run's span recorder. Spans are recorded by the benchmark's
//! own code around its calls into each layer, kept in memory, and written
//! out once when the run ends.

use onoc_trace::json::Value;
use std::time::{Duration, Instant};

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The design label or request index the span belongs to.
    id: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// All spans of one run, timed from the recorder's creation.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            id: id.to_owned(),
            parent,
            start: self.origin.elapsed(),
            end: None,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: SpanId) -> Duration {
        let s = &mut self.spans[span.0];
        let end = self.origin.elapsed();
        s.end = Some(end);
        end - s.start
    }

    /// Runs `f` under a new span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, id, parent);
        let out = f();
        (out, self.close(span))
    }

    /// Records a span whose interval was measured elsewhere, at `start`
    /// from the recorder's origin.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<SpanId>,
        start: Duration,
        length: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            id: id.to_owned(),
            parent,
            start,
            end: Some(start + length),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Time elapsed since the recorder was created.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Duration of a closed span.
    pub fn length(&self, span: SpanId) -> Duration {
        let s = &self.spans[span.0];
        s.end.map_or(Duration::ZERO, |end| end - s.start)
    }

    /// Summed length of the direct children of `span`.
    pub fn children_length(&self, span: SpanId) -> Duration {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(span))
            .map(|i| self.length(SpanId(i)))
            .sum()
    }

    /// One JSON array of `{name, id, parent, start_ns, end_ns}` objects;
    /// `parent` is the index of the parent span in the same array.
    pub fn to_json(&self) -> String {
        let ns = |d: Duration| Value::Number(d.as_nanos() as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.to_owned())),
                    ("id".into(), Value::String(s.id.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Number(p.0 as f64)),
                    ),
                    ("start_ns".into(), ns(s.start)),
                    ("end_ns".into(), s.end.map_or(Value::Null, ns)),
                ])
            })
            .collect();
        Value::Array(spans).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_attributed_to_their_parent_only() {
        let mut spans = Spans::new();
        let root = spans.open("design", "MWD", None);
        let (value, _) = spans.time("cluster", "MWD", Some(root), || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        let child = spans.record(
            "run",
            "MWD",
            Some(root),
            spans.now(),
            Duration::from_millis(3),
        );
        spans.record(
            "queue",
            "MWD",
            Some(child),
            spans.now(),
            Duration::from_millis(50),
        );
        spans.close(root);
        let children = spans.children_length(root);
        assert!(children >= Duration::from_millis(5));
        assert!(children < Duration::from_millis(50));
        let json = onoc_trace::json::parse(&spans.to_json()).unwrap();
        let Value::Array(items) = json else {
            panic!("spans serialize as an array")
        };
        assert_eq!(items.len(), 4);
        assert_eq!(items[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(items[0].get("parent"), Some(&Value::Null));
    }
}
