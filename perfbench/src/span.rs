//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into the libraries'
//! public functions; nothing inside the program is instrumented. A span
//! whose work is spread over many short calls (prefetcher callbacks,
//! chunked generate/route loops) is recorded once per parent as a child
//! whose duration is the summed time of those calls, anchored at the
//! parent's start.

use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's epoch.
pub struct Span {
    pub id: usize,
    /// Id of the enclosing span, 0 for a root.
    pub parent: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// The cell index (cycle-suite) or run index (fleet) the span belongs to.
    pub unit: usize,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span now; returns its id. Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, unit: usize) -> usize {
        let start_s = self.now();
        self.push(name, parent, unit, start_s, start_s)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id - 1].end_s = now;
    }

    /// Records a span of known duration starting at its parent's start:
    /// the sum of many short calls made inside the parent.
    pub fn summed_child(&mut self, name: &'static str, parent: usize, unit: usize, dur_s: f64) {
        let start_s = self.spans[parent - 1].start_s;
        self.push(name, parent, unit, start_s, start_s + dur_s);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: usize,
        unit: usize,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_s,
            end_s,
            unit,
        });
        id
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Summed self time of the spans named `name` whose unit satisfies
    /// `keep`: each span's duration minus the part its children cover
    /// (children never overlap one another).
    pub fn self_time(&self, name: &str, keep: impl Fn(usize) -> bool) -> f64 {
        let mut child_time = vec![0.0; self.spans.len() + 1];
        for span in &self.spans {
            child_time[span.parent] += span.dur();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.unit))
            .map(|s| s.dur() - child_time[s.id])
            .sum()
    }

    /// The span list as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"unit\":{}}}",
                    s.id, s.parent, s.name, s.start_s, s.end_s, s.unit
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
