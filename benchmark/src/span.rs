//! Benchmark-side spans: recorded around the calls the benchmark makes into
//! each layer (spans inside the program are a later issue), held in memory,
//! and written out once the window has closed.
//!
//! A span's name is `<layer>.<what>`; a layer's self time is the time of its
//! spans minus the time of the spans directly inside them.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Disabled, `span` only calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub tid: u32,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerRow {
    pub spans: u64,
    pub self_ns: u64,
}

/// Per-layer self time over all tracers.
pub fn layer_table(tracers: &[Tracer]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans.iter().zip(self_times(&t.spans)) {
            let row = table.entry(layer_of(s.name)).or_default();
            row.spans += 1;
            row.self_ns += own;
        }
    }
    table
}

/// Durations (seconds) of every span called `name`.
pub fn durations_s(tracers: &[Tracer], name: &str) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Chrome `trace_event` JSON of at most `cap` spans per tracer (the table
/// above is computed from all of them; the file is for looking at).
pub fn chrome_trace(tracers: &[Tracer], cap: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for t in tracers {
        for (i, s) in t.spans.iter().take(cap).enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                layer_of(s.name),
                t.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.op
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op [0,100) > execute [10,90) > inner [20,50); op > oracle [90,98).
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("runtime.execute", 10, 90, Some(0)),
            span("cache.inner", 20, 50, Some(1)),
            span("bench.oracle", 90, 98, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![12, 50, 30, 8]);
        // Self times add up to the root span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_table_groups_by_prefix() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.spans = vec![
            span("bench.op", 0, 100, None),
            span("runtime.execute", 10, 90, Some(0)),
            span("bench.oracle", 90, 98, Some(0)),
        ];
        let table = layer_table(&[t]);
        assert_eq!(
            table["bench"],
            LayerRow {
                spans: 2,
                self_ns: 20
            }
        );
        assert_eq!(
            table["runtime"],
            LayerRow {
                spans: 1,
                self_ns: 80
            }
        );
    }

    #[test]
    fn recorded_spans_nest_and_export_as_valid_chrome_trace() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.set_op(7);
        let v = t.span("bench.op", |t| t.span("lang.compile", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let json = chrome_trace(&[t], 10);
        let summary = lima_core::obs::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans.len(), 2);
        lima_core::obs::check_span_nesting(&summary).expect("nested");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("bench.op", |_| 5), 5);
        assert!(t.spans.is_empty());
    }
}
