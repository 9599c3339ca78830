//! Spans recorded around calls into each layer's public functions, kept
//! in memory and printed when the repetition ends. A layer's self time
//! is its span's duration minus the part its child spans cover.

use std::time::Instant;

/// One span: times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder. It only brackets calls made outside the
/// timed windows (a few dozen timestamps a repetition), so it always
/// records: untraced repetitions need set-up's phases for its floor, and
/// only traced ones print the spans.
pub struct Spans {
    t0: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            open: Vec::new(),
            spans: Vec::with_capacity(256),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let now = self.t0.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end = now;
    }

    /// Record a span around `f`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Record an already-measured interval as a closed child of the
    /// innermost open span. The timed windows use this after the run, so
    /// that no span bookkeeping happens while allocations are counted.
    pub fn record(&mut self, name: String, start: Instant, end: Instant) {
        let since = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: since(start),
            end: since(end),
            parent: self.open.last().copied(),
        });
    }
}

/// The phases of set-up, in order: under every `setup` span, each direct
/// child's duration and then what is left of the span itself. Set-up's
/// floor is taken phase by phase, like the run's window by window.
pub fn setup_phases(spans: &[Span]) -> Vec<u64> {
    let own = self_times(spans);
    let mut phases = Vec::new();
    for (i, _) in spans.iter().enumerate().filter(|(_, s)| s.name == "setup") {
        phases.extend(
            spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end - c.start),
        );
        phases.push(own[i]);
    }
    phases
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Total self time, in seconds, of the spans called `name`.
pub fn layer_self_s(spans: &[Span], name: &str) -> f64 {
    let own = self_times(spans);
    let ns: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &o)| o)
        .sum();
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("lss.parse", 10, 40, Some(0)),
            span("lss.elaborate", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
        assert_eq!(layer_self_s(&spans, "lss.elaborate"), 40e-9);
    }

    #[test]
    fn setup_phases_are_children_then_remainder() {
        let spans = vec![
            span("rep", 0, 500, None),
            span("setup", 0, 100, Some(0)),
            span("lss.parse", 10, 40, Some(1)),
            span("inner", 20, 30, Some(2)),
            span("core.exec.first_step", 40, 90, Some(1)),
            span("setup", 200, 260, Some(0)),
            span("core.exec.first_step", 210, 250, Some(5)),
        ];
        assert_eq!(setup_phases(&spans), vec![30, 50, 20, 40, 20]);
    }

    #[test]
    fn recorder_nests() {
        let mut s = Spans::new();
        s.enter("a");
        s.scope("b", || ());
        s.exit();
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].end >= s.spans[1].end);
    }
}
