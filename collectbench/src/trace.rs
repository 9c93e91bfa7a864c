//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API.
//!
//! Every benchmark thread owns a [`ThreadTrace`].  A span has a name (the
//! layer), a start and end on one shared monotonic origin, the span that
//! encloses it, and the batch it belongs to.  Self time — a span's
//! duration minus the part its child spans cover — is aggregated per name
//! as spans close, so the ledger costs O(1) memory however long the run;
//! the raw spans are kept up to a bound and written out when the run ends.
//! A disabled trace records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept per thread for the span file; aggregation continues
/// past the bound.
const MAX_LOGGED_SPANS_PER_THREAD: usize = 20_000;

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
    /// Work units (reports, records, bytes) the spans processed.
    pub units: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.units += other.units;
    }

    /// Mean duration per work unit, in ns.
    pub fn ns_per_unit(&self) -> Option<f64> {
        (self.units > 0).then(|| self.total_ns as f64 / self.units as f64)
    }

    /// Mean duration per span, in ns.
    pub fn ns_per_call(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same thread's log.
    parent: Option<usize>,
    batch: u64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index in the raw log, if logged.
    logged: Option<usize>,
}

/// The spans of one thread, handed back to the [`Tracer`] by
/// [`ThreadTrace::finish`].
#[derive(Debug)]
struct ThreadLog {
    thread: String,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
    /// `(start, end)` of every top-level span.
    roots: Vec<(u64, u64)>,
}

/// The span collector of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    logs: Mutex<Vec<ThreadLog>>,
}

impl Tracer {
    /// A collector whose time origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            logs: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A recorder for one thread.
    pub fn thread(&self, name: impl Into<String>) -> ThreadTrace<'_> {
        ThreadTrace {
            tracer: Some(self),
            thread: name.into(),
            stack: Vec::new(),
            log: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
            roots: Vec::new(),
        }
    }

    /// Per-name totals merged over the finished threads whose name
    /// `include` accepts.
    pub fn summary(&self, include: impl Fn(&str) -> bool) -> TraceSummary {
        let logs = self.logs.lock().expect("a traced thread panicked");
        let mut agg: BTreeMap<&'static str, Agg> = BTreeMap::new();
        let mut roots = Vec::new();
        for log in logs.iter().filter(|l| include(&l.thread)) {
            for (name, a) in &log.agg {
                agg.entry(name).or_default().add(a);
            }
            roots.extend(log.roots.iter().copied());
        }
        TraceSummary {
            agg,
            roots,
            spans_logged: logs.iter().map(|l| l.spans.len() as u64).sum(),
            spans_dropped: logs.iter().map(|l| l.dropped).sum(),
        }
    }

    /// Writes every logged span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let logs = self.logs.lock().expect("a traced thread panicked");
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for log in logs.iter() {
            for s in &log.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                     \"parent\":{parent},\"batch\":{}}}",
                    log.thread, s.name, s.start_ns, s.end_ns, s.batch
                )
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
        }
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Merged per-name totals of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Totals per span name.
    pub agg: BTreeMap<&'static str, Agg>,
    /// `(start, end)` of every top-level span of every thread.
    pub roots: Vec<(u64, u64)>,
    /// Raw spans written to the span file.
    pub spans_logged: u64,
    /// Raw spans past the per-thread bound (aggregated, not written).
    pub spans_dropped: u64,
}

impl TraceSummary {
    /// Totals of one span name (zero if it never ran).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }
}

/// One thread's span recorder; a disabled recorder does nothing.
#[derive(Debug)]
pub struct ThreadTrace<'a> {
    tracer: Option<&'a Tracer>,
    thread: String,
    stack: Vec<Open>,
    log: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
    roots: Vec<(u64, u64)>,
}

impl<'a> ThreadTrace<'a> {
    /// A recorder that records nothing (untraced passes).
    pub fn off() -> Self {
        ThreadTrace {
            tracer: None,
            thread: String::new(),
            stack: Vec::new(),
            log: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
            roots: Vec::new(),
        }
    }

    /// A recorder on `tracer` when given, else a disabled one.
    pub fn on(tracer: Option<&'a Tracer>, name: impl Into<String>) -> Self {
        match tracer {
            Some(t) => t.thread(name),
            None => ThreadTrace::off(),
        }
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch: u64) {
        let Some(tracer) = self.tracer else { return };
        let logged = (self.log.len() < MAX_LOGGED_SPANS_PER_THREAD).then(|| {
            let parent = self.stack.last().and_then(|o| o.logged);
            self.log.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                batch,
            });
            self.log.len() - 1
        });
        if logged.is_none() {
            self.dropped += 1;
        }
        self.stack.push(Open {
            name,
            start_ns: tracer.now(),
            child_ns: 0,
            logged,
        });
    }

    /// Closes the innermost open span, crediting it with `units` of work.
    pub fn end(&mut self, units: u64) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.now();
        let Some(open) = self.stack.pop() else { return };
        let duration = end_ns.saturating_sub(open.start_ns);
        let a = self.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += duration;
        a.self_ns += duration.saturating_sub(open.child_ns);
        a.units += units;
        if let Some(i) = open.logged {
            if let Some(span) = self.log.get_mut(i) {
                span.start_ns = open.start_ns;
                span.end_ns = end_ns;
            }
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => self.roots.push((open.start_ns, end_ns)),
        }
    }

    /// Runs `f` inside a span credited with `units` of work.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        batch: u64,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, batch);
        let out = f();
        self.end(units);
        out
    }

    /// Hands the thread's spans to its tracer.
    pub fn finish(mut self) {
        let Some(tracer) = self.tracer else { return };
        while !self.stack.is_empty() {
            self.end(0);
        }
        let log = ThreadLog {
            thread: std::mem::take(&mut self.thread),
            spans: std::mem::take(&mut self.log),
            dropped: self.dropped,
            agg: std::mem::take(&mut self.agg),
            roots: std::mem::take(&mut self.roots),
        };
        tracer
            .logs
            .lock()
            .expect("a traced thread panicked")
            .push(log);
    }
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
    fn self_time_excludes_children_and_sums_to_the_root() {
        let tracer = Tracer::new();
        let mut t = tracer.thread("main");
        t.begin("root", 0);
        spin(200_000);
        t.span("child", 1, 10, || spin(300_000));
        t.span("child", 2, 10, || spin(300_000));
        t.end(20);
        t.finish();
        let s = tracer.summary(|_| true);
        let root = s.get("root");
        let child = s.get("child");
        assert_eq!(child.count, 2);
        assert_eq!(child.units, 20);
        assert_eq!(child.self_ns, child.total_ns);
        // Root self time is its duration minus both children, and the
        // self times of all spans add up to the root's duration exactly.
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(root.self_ns + child.self_ns, root.total_ns);
        assert_eq!(s.roots.len(), 1);
        assert!(root.self_ns >= 200_000);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = ThreadTrace::off();
        assert_eq!(t.span("x", 0, 1, || 7), 7);
        t.finish();
    }

    #[test]
    fn spans_are_written_with_their_parents() {
        let tracer = Tracer::new();
        let mut t = tracer.thread("w");
        t.begin("outer", 3);
        t.span("inner", 3, 1, || ());
        t.end(1);
        t.finish();
        let dir = std::env::temp_dir().join(format!("collectbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        tracer.write_spans(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"outer\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"inner\"") && lines[1].contains("\"parent\":0"));
    }
}
