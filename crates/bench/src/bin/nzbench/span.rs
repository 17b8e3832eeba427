//! Bench-side spans: one record per call into a layer, kept in memory and
//! written at exit as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). The layers themselves carry no spans yet, so nesting is
//! what the benchmark can see from outside: a round, the operations in
//! it, and the public calls each operation makes.

use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request / region / launch this span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Disabled, every method is one predictable branch — the untraced run
/// is the one end-to-end numbers come from.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Spans opened from now on belong to operation `req`.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += t;
                    e.2 += 1;
                }
                None => out.push((s.name, t, 1)),
            }
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span;
    /// `tid` is the nesting depth so parents sit above their children.
    pub fn chrome_events(&self, pid: u64, process: &str) -> Vec<Value> {
        let mut depth = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                depth[i] = depth[p] + 1;
            }
        }
        let mut ev = vec![Value::obj(vec![
            ("name", Value::str("process_name")),
            ("ph", Value::str("M")),
            ("pid", Value::Num(pid as f64)),
            ("args", Value::obj(vec![("name", Value::str(process))])),
        ])];
        for (s, d) in self.spans.iter().zip(depth) {
            ev.push(Value::obj(vec![
                ("name", Value::str(s.name)),
                ("ph", Value::str("X")),
                ("pid", Value::Num(pid as f64)),
                ("tid", Value::Num(d as f64)),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.dur_us())),
                (
                    "args",
                    Value::obj(vec![
                        ("req", Value::Num(s.req as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
        ev
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.dur_us();
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100] > submit [10,60] > launch [20,50]; round > drain [70,90]
        let spans = vec![
            span("round", 0.0, 100.0, None),
            span("submit", 10.0, 60.0, Some(0)),
            span("launch", 20.0, 50.0, Some(1)),
            span("drain", 70.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 30.0, 20.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_req(7);
        t.begin("outer");
        let x = t.span("inner", || 41 + 1);
        t.end();
        assert_eq!(x, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].req, 7);
        assert!(t.spans[0].dur_us() >= t.spans[1].dur_us());
        let by = t.self_by_name();
        assert_eq!(
            by.iter().map(|b| b.0).collect::<Vec<_>>(),
            vec!["outer", "inner"]
        );

        let mut off = Tracer::off();
        off.begin("x");
        assert_eq!(off.span("y", || 1), 1);
        off.end();
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_events_are_complete_events_with_depth_as_tid() {
        let mut t = Tracer::new(true);
        t.begin("a");
        t.span("b", || ());
        t.end();
        let ev = t.chrome_events(3, "serve_hot");
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(ev[2].get("tid").and_then(Value::as_f64), Some(1.0));
        assert_eq!(ev[2].get("pid").and_then(Value::as_f64), Some(3.0));
    }
}
