//! Spans recorded from outside the program, around calls into a layer's
//! public functions.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started. Spans stay in memory on the recording thread and are written
//! out once, when the run ends. Recording is off by default, so the
//! untraced measurement pays one thread-local read per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.run_next`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|tracer| tracer.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name` when recording is on; otherwise
/// just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tracer| {
            let index = tracer.spans.len();
            let start_ns = tracer.origin.elapsed().as_nanos() as u64;
            let parent = tracer.open.last().copied();
            tracer.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            tracer.open.push(index);
            index
        })
    });
    let out = f();
    if let Some(index) = index {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.spans[index].end_ns = tracer.origin.elapsed().as_nanos() as u64;
                tracer.open.pop();
            }
        });
    }
    out
}

/// Durations in milliseconds of every span named `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-name totals: `(calls, total ms, self ms)`, where self time is a
/// span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ms = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ms[parent] += span.ms();
        }
    }
    let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ms) {
        let entry = table.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.ms();
        entry.2 += span.ms() - children;
    }
    table
}

/// Writes the spans as a JSON array of `{name, start_ns, end_ns, parent}`.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}{comma}",
            span.name, span.start_ns, span.end_ns, parent
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        enable();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        span("untouched", || ());
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let table = self_times(&spans);
        let (calls, total, own) = table["outer"];
        assert_eq!(calls, 1);
        assert!(own < total, "the child's time is not the parent's own time");
        assert!(finish().is_empty(), "finish turns recording off");
        span("off", || ());
        assert!(finish().is_empty());
    }
}
