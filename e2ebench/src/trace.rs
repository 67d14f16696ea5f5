//! Span tracing from the outside: the benchmark wraps each call it makes
//! into a layer's public functions in a named span. Spans nest on one
//! thread (the thread driving the load), so a span's parent is whatever
//! span was open when it started, and its *self time* is its duration
//! minus the time covered by its direct children.
//!
//! Tracing is off unless [`enable`] was called on the thread; then
//! [`span`] is one thread-local flag read around the call. When on,
//! every span is folded into per-name aggregates as it closes (count,
//! total, self time, durations), and the first [`KEEP_SPANS`] spans are
//! kept whole — name, start, end, parent and request id — and written
//! out by [`write_tsv`] at the end of the run. The cap bounds memory on
//! long runs; the aggregates cover every span.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// How many whole spans a run keeps for the span file.
pub const KEEP_SPANS: usize = 200_000;

/// A recorded span. Times are nanoseconds since [`enable`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.generate`.
    pub name: &'static str,
    /// Start, ns since tracing was enabled.
    pub start_ns: u64,
    /// End, ns since tracing was enabled.
    pub end_ns: u64,
    /// Index of the parent among the kept spans, if it was kept.
    pub parent: Option<u32>,
    /// The edit the call worked on, `(site, seq)`, where known.
    pub rid: Option<(u32, u64)>,
}

/// Everything the spans of one name add up to.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − direct children's durations), ns.
    pub self_ns: u64,
    /// Every span's duration, ns, in closing order.
    pub durations_ns: Vec<u64>,
}

/// The trace of one run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per span name.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// The first [`KEEP_SPANS`] spans, in opening order.
    pub kept: Vec<Span>,
    /// Spans beyond the cap (aggregated, not kept whole).
    pub dropped: u64,
    /// ns from [`enable`] to [`finish`].
    pub wall_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    kept: Option<u32>,
}

struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    trace: Trace,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread (clearing any earlier trace).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() =
            Some(Tracer { origin: Instant::now(), stack: Vec::new(), trace: Trace::default() })
    });
    ON.with(|on| on.set(true));
}

/// Whether tracing is on for this thread.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_rid(name, None, f)
}

/// Runs `f` inside a span called `name` tagged with the edit `rid`.
pub fn span_rid<R>(name: &'static str, rid: Option<(u32, u64)>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(name, rid);
    let out = f();
    close();
    out
}

/// Tags the innermost open span with `rid` (for calls that produce the
/// edit's identity, such as generation). No-op when tracing is off.
pub fn tag(rid: (u32, u64)) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing enabled");
        if let Some(k) = t.stack.last().and_then(|o| o.kept) {
            t.trace.kept[k as usize].rid = Some(rid);
        }
    });
}

fn open(name: &'static str, rid: Option<(u32, u64)>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing enabled");
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        let kept = if t.trace.kept.len() < KEEP_SPANS {
            let parent = t.stack.last().and_then(|o| o.kept);
            t.trace.kept.push(Span { name, start_ns, end_ns: start_ns, parent, rid });
            Some((t.trace.kept.len() - 1) as u32)
        } else {
            t.trace.dropped += 1;
            None
        };
        t.stack.push(Open { name, start_ns, children_ns: 0, kept });
    });
}

fn close() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing enabled");
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let o = t.stack.pop().expect("span opened");
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(k) = o.kept {
            t.trace.kept[k as usize].end_ns = end_ns;
        }
        let agg = t.trace.aggs.entry(o.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.children_ns);
        agg.durations_ns.push(dur);
    });
}

/// Stops tracing on this thread and returns the trace (`None` when
/// tracing was never enabled).
pub fn finish() -> Option<Trace> {
    ON.with(|on| on.set(false));
    TRACER.with(|t| {
        t.borrow_mut().take().map(|tr| {
            assert!(tr.stack.is_empty(), "every span closed before the trace ends");
            let mut trace = tr.trace;
            trace.wall_ns = tr.origin.elapsed().as_nanos() as u64;
            trace
        })
    })
}

/// Writes the kept spans as tab-separated lines: index, parent index
/// (`-` for none), name, start ns, end ns, request id (`site:seq` or `-`).
pub fn write_tsv(trace: &Trace, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# spans kept: {}, dropped beyond the cap: {}", trace.kept.len(), trace.dropped)?;
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\trid")?;
    for (i, s) in trace.kept.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let rid = s.rid.map_or("-".to_string(), |(site, seq)| format!("{site}:{seq}"));
        writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{rid}", s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        enable();
        span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span_rid("inner", Some((1, 7)), || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let trace = finish().expect("enabled");
        let outer = &trace.aggs["outer"];
        let inner = &trace.aggs["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.self_ns >= 4_000_000 && outer.self_ns >= 2_000_000);
        assert_eq!(trace.kept.len(), 2);
        assert_eq!(trace.kept[1].parent, Some(0));
        assert_eq!(trace.kept[1].rid, Some((1, 7)));
        assert!(!enabled());
        // Disabled: spans are transparent and record nothing.
        assert_eq!(span("x", || 5), 5);
        assert!(finish().is_none());
    }
}
