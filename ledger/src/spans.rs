//! Bench-side spans: the ledger's own record of where a run's host time
//! went (`build`, `warmup`, `measure`, `collect`, each kernel), kept in
//! memory and written out as chrome://tracing JSON when the run ends.
//! Spans inside the program are the obs layer's job, not this file's.

use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    start_us: u64,
    end_us: Option<u64>,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

/// Handle returned by [`Spans::open`]; pass it back to [`Spans::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// An in-memory span log on the host wall clock.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.now_us(),
            end_us: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span opened inside it that was left open).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = Some(now);
            if top == id.0 {
                break;
            }
        }
    }

    /// Total closed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end_us.map(|e| (e - s.start_us) as f64 / 1e6))
            .sum()
    }

    /// chrome://tracing "complete" events, one per closed span; `args`
    /// carries the parent span's index.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end_us else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                pws_obs::escape_json(&s.name),
                s.start_us,
                end - s.start_us,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        let inner = spans.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(inner);
        spans.close(outer);
        assert!(spans.total_s("inner") >= 0.002);
        assert!(spans.total_s("outer") >= spans.total_s("inner"));
        let json = spans.export_json();
        let parsed = crate::json::parse(&json).expect("valid json");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn closing_an_outer_span_closes_what_it_contains() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        let _leaked = spans.open("inner");
        spans.close(outer);
        assert_eq!(
            crate::json::parse(&spans.export_json())
                .unwrap()
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .unwrap()
                .len(),
            2
        );
    }
}
