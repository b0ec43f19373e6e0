//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Spans live in memory until the run ends and are then written
//! to `results/trace.jsonl`; recording is off for the untraced run, where a
//! span costs one branch.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the id of the span that was open when
/// this one started (0 for a root); ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: usize,
    /// Id of the enclosing span, 0 for a root.
    pub parent: usize,
    /// `<layer>.<call>`, the layer being the crate name.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Pass the span belongs to; −1 during set-up and probes.
    pub pass: i64,
    /// Units of work the call did, where the caller knows them beforehand
    /// (nodes or edges generated); 0 otherwise.
    pub work: u64,
}

/// Records spans on the thread that owns it.
pub struct Tracer {
    on: Cell<bool>,
    pass: Cell<i64>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer; recording starts switched off.
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            pass: Cell::new(-1),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Label the spans that follow with a pass number (−1: none).
    pub fn set_pass(&self, pass: i64) {
        self.pass.set(pass);
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_work(name, 0, f)
    }

    /// [`Tracer::span`] for a call known to do `work` units of work.
    pub fn span_work<R>(&self, name: &str, work: u64, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() + 1;
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied().unwrap_or(0),
                name: name.to_string(),
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                pass: self.pass.get(),
                work,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id - 1].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of each span, by index: its duration minus the part its
/// direct children cover. Children of one parent never overlap (one thread
/// records them), so the subtraction cannot go below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            own[s.parent - 1] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Check that every child lies inside its parent and ends after it starts.
pub fn nesting_errors(spans: &[Span]) -> Vec<String> {
    let mut errs = Vec::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            errs.push(format!("span {} ends before it starts", s.id));
        }
        if s.parent != 0 {
            let p = &spans[s.parent - 1];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                errs.push(format!("span {} leaves its parent {}", s.id, p.id));
            }
        }
    }
    errs
}

/// Write one JSON object per span to `path`.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(own) {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{},"workload":"{}","pass":{},"work":{}}}"#,
            s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns, workload, s.pass, s.work
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            pass: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 20),
            span(4, 1, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
        assert!(nesting_errors(&spans).is_empty());
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 15, 25)];
        assert_eq!(nesting_errors(&spans).len(), 1);
    }

    #[test]
    fn recorded_spans_nest_and_an_idle_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.span("off", || 7), 7);
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        tr.set_pass(3);
        tr.span("outer", || {
            tr.span("inner", || std::hint::black_box(1 + 1));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert_eq!(spans[1].pass, 3);
        assert!(nesting_errors(&spans).is_empty());
    }
}
