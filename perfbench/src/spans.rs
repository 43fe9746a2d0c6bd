//! Layer spans recorded around the calls the benchmark makes into the
//! solver's public API: kept in memory, written out when the run ends.

use std::time::Instant;

use crate::json;

/// One timed call into a layer. Spans of one solver call share `call`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub call: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Largest share of a call's wall time its layer spans may leave
/// unaccounted for (benchmark glue between the layer calls).
pub const RECONCILE_TOL: f64 = 0.01;
/// Absolute slack for clock granularity on very short calls, seconds.
pub const RECONCILE_SLACK_S: f64 = 50e-6;

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, call: usize, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            call,
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span named `name`; returns its result and the span.
    pub fn time<R>(
        &mut self,
        call: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.begin(call, name, parent);
        let r = f();
        self.end(id);
        (r, id)
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let mut covered: Vec<(f64, f64)> = self
            .children(id)
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .collect();
        s.duration() - union_len(&mut covered)
    }

    /// Check that the children of `root` lie inside it, do not overlap
    /// (the layer calls are sequential), and account for its wall time up
    /// to [`RECONCILE_TOL`].
    pub fn reconcile(&self, root: usize) -> Result<(), String> {
        let r = &self.spans[root];
        let mut kids: Vec<&Span> = self.children(root).collect();
        kids.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut last = r.start;
        for k in &kids {
            if k.start < last || k.end > r.end {
                return Err(format!(
                    "span {} escapes or overlaps within {}",
                    k.name, r.name
                ));
            }
            last = k.end;
        }
        let unattributed = self.self_time(root);
        if unattributed > RECONCILE_TOL * r.duration() + RECONCILE_SLACK_S {
            return Err(format!(
                "{} of call {}: layers leave {:.6} s of {:.6} s unattributed",
                r.name,
                r.call,
                unattributed,
                r.duration()
            ));
        }
        Ok(())
    }

    /// All spans as a JSON array, with each span's self time.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "  {{\"id\": {id}, \"call\": {}, \"name\": {}, \"parent\": {}, \
                     \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                    s.call,
                    json::string(s.name),
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    json::number(s.start),
                    json::number(s.end),
                    json::number(self.self_time(id)),
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Total length covered by a set of intervals.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter().filter(|(s, e)| e > s) {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let mut v = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)];
        assert_eq!(union_len(&mut v), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                call: 0,
                name: "call",
                parent: None,
                start: 0.0,
                end: 10.0,
            },
            Span {
                call: 0,
                name: "a",
                parent: Some(0),
                start: 0.0,
                end: 4.0,
            },
            Span {
                call: 0,
                name: "b",
                parent: Some(0),
                start: 4.0,
                end: 9.95,
            },
        ];
        assert!((t.self_time(0) - 0.05).abs() < 1e-12);
        assert!(t.reconcile(0).is_ok());
        t.spans[2].end = 9.0;
        assert!(t.reconcile(0).is_err(), "a 10% gap must not reconcile");
        t.spans[2].start = 3.0;
        assert!(
            t.reconcile(0).is_err(),
            "overlapping layer calls must not reconcile"
        );
    }
}
