//! Spans recorded from outside the program.
//!
//! A span wraps one call from the benchmark into a layer's public API:
//! its name, start, end, the span that caused it and the request it
//! belongs to. Each thread fills its own [`SpanBuf`]; buffers merge into
//! the [`Tracer`] when dropped, and the whole set is written out once the
//! run ends. With tracing off nothing is recorded and no id is drawn.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::stats::now_ns;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Request (or call) number within its phase; 0 when not a request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf { tracer: self, spans: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned by a panicking phase").len()
    }

    /// Renders every span (one `id,parent,req,name,start_ns,end_ns` line
    /// each) after a per-name summary of count, total and self time. Self
    /// time is a span's duration minus the time its children cover.
    pub fn render(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned by a panicking phase");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        let mut out = String::from("# name count total_us self_us\n");
        for (name, (count, total, own)) in &by_name {
            let _ = writeln!(
                out,
                "# {name} {count} {:.1} {:.1}",
                *total as f64 / 1e3,
                *own as f64 / 1e3
            );
        }
        out.push_str("id,parent,req,name,start_ns,end_ns\n");
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// One thread's span buffer.
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Draws an id for a span whose end is not known yet (a parent).
    pub fn open(&self) -> u64 {
        if self.tracer.on {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under an id from [`Self::open`].
    pub fn close(&mut self, id: u64, name: &'static str, parent: u64, req: u64, start_ns: u64) {
        if self.tracer.on {
            self.spans.push(Span { id, parent, req, name, start_ns, end_ns: now_ns() });
        }
    }

    /// Records a span that ran from `start_ns` to `end_ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.tracer.on {
            let id = self.open();
            self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}
