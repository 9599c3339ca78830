//! Ready-made trace sinks: a human-readable event log, an in-memory
//! recording, and a JSONL structured-event stream.
//!
//! The paper positions LSE as "an effective educational tool when
//! integrated with an interactive system visualizer" — the kernel's
//! [`crate::probe::Probe`] hook is that integration point. These sinks
//! cover the common needs; waveforms live in [`crate::vcd`] and hot-spot
//! attribution in [`crate::profile`].

use crate::probe::{escape_into, Interest, Probe, Record, ResolvedBy, StepLog};
use crate::signal::Wire;
use crate::topology::Topology;
use crate::value::{Value, WordSink};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The first write error a sink met. Once one is kept the sink writes
/// nothing more, and [`Probe::sync`] keeps reporting it.
#[derive(Default)]
pub(crate) struct WriteError(Option<std::io::Error>);

impl WriteError {
    /// Run `write` on `out` unless an earlier write failed; keep its
    /// error.
    pub(crate) fn write<W>(
        &mut self,
        out: &mut W,
        write: impl FnOnce(&mut W) -> std::io::Result<()>,
    ) {
        if self.0.is_none() {
            self.0 = write(out).err();
        }
    }

    /// Flush `out` and report the first error met.
    pub(crate) fn sync(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        self.write(out, |out| out.flush());
        match &self.0 {
            // `io::Error` is not `Clone`; the kind and message are.
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

/// Writes one line per transfer: `@cycle src -> dst: value`.
pub struct TextTracer<W: Write + Send> {
    out: W,
    /// Stop writing after this many events (0 = unbounded) so a
    /// long-running simulation cannot fill the disk by accident.
    limit: u64,
    written: u64,
    truncated: bool,
    failed: WriteError,
}

impl<W: Write + Send> TextTracer<W> {
    /// Trace to any writer; `limit` caps the number of events
    /// (0 = unbounded).
    pub fn new(out: W, limit: u64) -> Self {
        TextTracer {
            out,
            limit,
            written: 0,
            truncated: false,
            failed: WriteError::default(),
        }
    }
}

impl<W: Write + Send> Probe for TextTracer<W> {
    fn interest(&self) -> Interest {
        Interest::NONE
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.failed.sync(&mut self.out)
    }

    fn step(&mut self, log: &StepLog<'_>) {
        for r in log.records {
            let Record::Transfer {
                src, dst, value, ..
            } = r
            else {
                continue;
            };
            let limit = self.limit;
            if limit > 0 && self.written >= limit {
                // Say so once instead of silently dropping the tail.
                if !std::mem::replace(&mut self.truncated, true) {
                    self.failed.write(&mut self.out, |out| {
                        writeln!(out, "... trace truncated at {limit} events")?;
                        out.flush()
                    });
                }
                return;
            }
            self.written += 1;
            let (now, src, dst) = (log.now, log.topo.name(*src), log.topo.name(*dst));
            self.failed.write(&mut self.out, |out| {
                writeln!(out, "@{now} {src} -> {dst}: {value}")
            });
        }
    }
}

impl<W: Write + Send> Drop for TextTracer<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// One recorded transfer event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Time-step of the transfer.
    pub now: u64,
    /// Sender instance name.
    pub src: String,
    /// Receiver instance name.
    pub dst: String,
    /// A rendering of the value (values themselves are not kept to avoid
    /// retaining payload memory).
    pub value: String,
}

/// Records transfers into a shared buffer for programmatic inspection
/// (tests, visualizer front ends).
#[derive(Default)]
pub struct RecordingTracer {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl RecordingTracer {
    /// Create a tracer and the handle its events can be read through.
    pub fn new() -> (Self, TraceHandle) {
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
        (
            RecordingTracer {
                events: events.clone(),
            },
            TraceHandle { events },
        )
    }
}

/// Shared read handle for a [`RecordingTracer`].
#[derive(Clone)]
pub struct TraceHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceHandle {
    /// Snapshot of all recorded events (clones the buffer; prefer
    /// [`TraceHandle::take`] when draining a long run).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Drain the recording buffer: returns everything recorded since the
    /// last drain and leaves the buffer empty, so a long run can be
    /// consumed incrementally without cloning an ever-growing `Vec`.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace lock"))
    }

    /// Discard everything recorded so far.
    pub fn clear(&self) {
        self.events.lock().expect("trace lock").clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Probe for RecordingTracer {
    fn interest(&self) -> Interest {
        Interest::NONE
    }

    fn step(&mut self, log: &StepLog<'_>) {
        let mut events = self.events.lock().expect("trace lock");
        for r in log.records {
            if let Record::Transfer {
                src, dst, value, ..
            } = r
            {
                events.push(TraceEvent {
                    now: log.now,
                    src: log.topo.name(*src).to_owned(),
                    dst: log.topo.name(*dst).to_owned(),
                    value: value.to_string(),
                });
            }
        }
    }
}

/// Structured-event sink: one JSON object per line, for programmatic
/// analysis (`jq`, notebooks, visualizer front ends).
///
/// Event kinds: `attach` (header: instance/edge census and the instance
/// name table), `step` / `step_end`, `resolve` (per-wire resolution with
/// polarity, payload rendering and source — module vs. default
/// semantics), `transfer`, `fault` / `inst_fault` (active fault-plan
/// injections), `quarantine` (instance isolation), `checkpoint` /
/// `restore` / `rollback` (the recovery machinery of `crate::snapshot`),
/// `cancel` (a governed run observed its cancellation token, see
/// `crate::supervisor`), and — when enabled with
/// [`JsonlProbe::with_handlers`] — `react` / `commit` handler records.
/// One line per [`Record`], in log order.
///
/// When the consumer may be slower than the producer, wrap the writer in
/// a [`crate::supervisor::BackpressureWriter`]: the stream is
/// line-oriented, so its bounded buffer sheds or stalls on whole-record
/// boundaries and the surviving output stays parseable.
///
/// [`JsonlProbe::canonical`] restricts the stream to the
/// scheduler-independent subset (everything except `resolve` and the
/// handler records, whose ordering depends on the reaction schedule):
/// two runs of the same netlist under the same fault plan produce
/// byte-identical canonical streams regardless of scheduler — the
/// deterministic-replay oracle the chaos harness asserts on.
pub struct JsonlProbe<W: Write + Send> {
    out: W,
    handlers: bool,
    canonical: bool,
    /// The one line under construction, reused for every event: an event
    /// is encoded here whole and handed to `out` as a single `write_all`.
    line: Line,
    failed: WriteError,
}

impl<W: Write + Send> JsonlProbe<W> {
    /// Stream events to any writer.
    pub fn new(out: W) -> Self {
        JsonlProbe {
            out,
            handlers: false,
            canonical: false,
            line: Line::default(),
            failed: WriteError::default(),
        }
    }

    /// Also emit a `react` / `commit` line per handler invocation
    /// (verbose).
    pub fn with_handlers(mut self) -> Self {
        self.handlers = true;
        self
    }

    /// Emit only the scheduler-independent event subset (drops `resolve`
    /// and handler records), so equal seeds yield byte-identical
    /// streams across schedulers.
    pub fn canonical(mut self) -> Self {
        self.canonical = true;
        self.handlers = false;
        self
    }

    /// Start the line of a `kind` event at step `now`.
    fn event(&mut self, kind: &str, now: u64) -> &mut Line {
        self.line.0.clear();
        self.line
            .raw("{\"t\":\"")
            .raw(kind)
            .raw("\",\"now\":")
            .num(now)
    }

    /// Close the line under construction and hand it to the writer.
    fn emit(&mut self) {
        self.line.raw("}\n");
        let line = &self.line.0;
        self.failed.write(&mut self.out, |out| out.write_all(line));
    }
}

/// JSON text under construction in a byte buffer. Nothing here allocates
/// once the buffer has grown to the longest line.
#[derive(Default)]
struct Line(Vec<u8>);

impl Line {
    /// Literal JSON text (punctuation, keys, fixed vocabulary).
    fn raw(&mut self, json: &str) -> &mut Line {
        self.0.extend_from_slice(json.as_bytes());
        self
    }

    /// An unsigned integer, in decimal.
    fn num(&mut self, n: u64) -> &mut Line {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        // Byte by byte: most words are a digit or two, too short to pay
        // for a `memcpy` call.
        for &d in &digits[at..] {
            self.0.push(d);
        }
        self
    }

    /// `key` (its punctuation included), then `n`.
    fn int(&mut self, key: &str, n: u64) -> &mut Line {
        self.raw(key).num(n)
    }

    /// `key` (its punctuation included), then `s` escaped, then a quote.
    fn text(&mut self, key: &str, s: &str) -> &mut Line {
        self.raw(key).escaped(s).raw("\"")
    }

    /// `s` as the inside of a JSON string literal.
    fn escaped(&mut self, s: &str) -> &mut Line {
        escape_into(&mut self.0, s);
        self
    }

    /// The `Display` rendering of `v` as the inside of a JSON string
    /// literal. Words and payloads are written straight into the line:
    /// a payload's kind is JSON-safe and its words are decimal, so only
    /// the other shapes go through `fmt`, escaped as they are formatted.
    fn value(&mut self, v: &Value) -> &mut Line {
        match v {
            Value::Word(w) => self.num(*w),
            Value::Opaque(o) => {
                self.raw(o.kind()).raw("[");
                o.encode_dyn(&mut Fields {
                    line: self,
                    first: true,
                });
                self.raw("]")
            }
            other => {
                write!(self, "{other}").expect("formatting into a buffer cannot fail");
                self
            }
        }
    }
}

/// A payload's fields going into a [`Line`], comma-separated.
struct Fields<'a> {
    line: &'a mut Line,
    first: bool,
}

impl Fields<'_> {
    fn sep(&mut self) -> &mut Line {
        if !std::mem::take(&mut self.first) {
            self.line.raw(",");
        }
        self.line
    }
}

impl WordSink for Fields<'_> {
    fn word(&mut self, w: u64) {
        self.sep().num(w);
    }

    fn value(&mut self, v: &Value) {
        self.sep().value(v);
    }
}

impl std::fmt::Write for Line {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.escaped(s);
        Ok(())
    }
}

fn wire_name(w: Wire) -> &'static str {
    match w {
        Wire::Data => "data",
        Wire::Enable => "enable",
        Wire::Ack => "ack",
    }
}

impl<W: Write + Send> Probe for JsonlProbe<W> {
    fn attach(&mut self, topo: &Topology) {
        self.line.0.clear();
        self.line
            .raw("{\"t\":\"attach\",\"instances\":")
            .num(topo.instance_count() as u64)
            .raw(",\"edges\":")
            .num(topo.edge_count() as u64)
            .raw(",\"names\":[");
        for (i, name) in topo.instance_names().enumerate() {
            let open = if i == 0 { "\"" } else { ",\"" };
            self.line.raw(open).escaped(name).raw("\"");
        }
        self.line.raw("]");
        self.emit();
    }

    fn interest(&self) -> Interest {
        Interest {
            handlers: self.handlers,
            resolves: !self.canonical,
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.failed.sync(&mut self.out)
    }

    fn step(&mut self, log: &StepLog<'_>) {
        let now = log.now;
        for r in log.records {
            match r {
                Record::StepBegin => self.event("step", now),
                Record::StepEnd => self.event("step_end", now),
                Record::React(h) if self.handlers => {
                    self.event("react", now).int(",\"inst\":", h.inst.0.into())
                }
                Record::Commit(h) if self.handlers => {
                    self.event("commit", now).int(",\"inst\":", h.inst.0.into())
                }
                Record::React(_) | Record::Commit(_) => continue,
                Record::Resolve { .. } if self.canonical => continue,
                Record::Resolve {
                    edge,
                    wire,
                    yes,
                    value,
                    by,
                } => {
                    let line = self
                        .event("resolve", now)
                        .int(",\"edge\":", edge.0.into())
                        .text(",\"wire\":\"", wire_name(*wire))
                        .raw(if *yes {
                            ",\"yes\":true"
                        } else {
                            ",\"yes\":false"
                        });
                    if let Some(v) = value {
                        line.raw(",\"value\":\"").value(v).raw("\"");
                    }
                    match by {
                        ResolvedBy::Module(i) => line.int(",\"by\":", i.0.into()),
                        ResolvedBy::Default => line.raw(",\"by\":\"default\""),
                    }
                }
                Record::Transfer {
                    edge,
                    src,
                    dst,
                    value,
                } => self
                    .event("transfer", now)
                    .int(",\"edge\":", edge.0.into())
                    .text(",\"src\":\"", log.topo.name(*src))
                    .text(",\"dst\":\"", log.topo.name(*dst))
                    .raw(",\"value\":\"")
                    .value(value)
                    .raw("\""),
                Record::Fault { edge, wire, kind } => self
                    .event("fault", now)
                    .int(",\"edge\":", edge.0.into())
                    .text(",\"wire\":\"", wire_name(*wire))
                    .text(",\"kind\":\"", kind.label()),
                Record::InstanceFault { inst, kind } => self
                    .event("inst_fault", now)
                    .int(",\"inst\":", inst.0.into())
                    .text(",\"kind\":\"", kind),
                Record::Quarantine { inst, reason } => self
                    .event("quarantine", now)
                    .int(",\"inst\":", inst.0.into())
                    .text(",\"reason\":\"", reason),
                Record::Checkpoint => self.event("checkpoint", now),
                Record::Restore => self.event("restore", now),
                Record::Rollback { to, reason } => self
                    .event("rollback", now)
                    .int(",\"to\":", *to)
                    .text(",\"reason\":\"", reason),
                Record::Cancel => self.event("cancel", now),
            };
            self.emit();
        }
    }
}

impl<W: Write + Send> Drop for JsonlProbe<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::exec::{CommitCtx, ReactCtx, SchedKind, Simulator};
    use crate::module::{Module, ModuleSpec, PortId};
    use crate::netlist::NetlistBuilder;
    use crate::signal::Res;

    struct Src;
    impl Module for Src {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }
    struct Snk;
    impl Module for Snk {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, true)
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            let _ = matches!(ctx.data(PortId(0), 0), Res::Yes(_));
            Ok(())
        }
    }

    fn tiny_sim() -> Simulator {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 1, 1),
                Box::new(Src),
            )
            .unwrap();
        let k = b
            .add("k", ModuleSpec::new("snk").input("in", 1, 1), Box::new(Snk))
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        Simulator::new(b.build().unwrap(), SchedKind::Compiled)
    }

    /// Shared byte buffer implementing Write, for reading sink output
    /// back out of a moved-in writer.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn text_tracer_formats_and_limits() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(TextTracer::new(store.clone(), 2)));
        sim.run(5).unwrap();
        let text = store.text();
        let lines: Vec<&str> = text.lines().collect();
        // Two events, then a single truncation marker — not silence.
        assert_eq!(lines.len(), 3, "2 events + marker: {text}");
        assert_eq!(lines[0], "@0 s -> k: 0");
        assert_eq!(lines[1], "@1 s -> k: 1");
        assert_eq!(lines[2], "... trace truncated at 2 events");
    }

    #[test]
    fn text_tracer_unbounded_has_no_marker() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(TextTracer::new(store.clone(), 0)));
        sim.run(4).unwrap();
        let text = store.text();
        assert_eq!(text.lines().count(), 4);
        assert!(!text.contains("truncated"));
    }

    #[test]
    fn recording_tracer_captures_events() {
        let mut sim = tiny_sim();
        let (tracer, handle) = RecordingTracer::new();
        sim.set_probe(Box::new(tracer));
        assert!(handle.is_empty());
        sim.run(3).unwrap();
        let ev = handle.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[2].now, 2);
        assert_eq!(ev[2].src, "s");
        assert_eq!(ev[2].dst, "k");
        assert_eq!(ev[2].value, "2");
    }

    #[test]
    fn trace_handle_take_drains_and_clear_discards() {
        let mut sim = tiny_sim();
        let (tracer, handle) = RecordingTracer::new();
        sim.set_probe(Box::new(tracer));
        sim.run(3).unwrap();
        let first = handle.take();
        assert_eq!(first.len(), 3);
        assert!(handle.is_empty(), "take drains the buffer");
        sim.run(2).unwrap();
        let second = handle.take();
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].now, 3, "drained runs resume where they left");
        sim.run(1).unwrap();
        handle.clear();
        assert!(handle.is_empty());
    }

    #[test]
    fn jsonl_probe_streams_structured_events() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(JsonlProbe::new(store.clone())));
        sim.run(2).unwrap();
        drop(sim); // flush
        let text = store.text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("{\"t\":\"attach\",\"instances\":2,\"edges\":1"),
            "{text}"
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Per step: step + 3 resolutions + 1 transfer + step_end = 6.
        assert_eq!(lines.len(), 1 + 2 * 6, "{text}");
        assert!(text.contains("\"wire\":\"data\""));
        assert!(text.contains("\"t\":\"transfer\""));
        assert!(!text.contains("\"t\":\"react\""), "handlers off by default");
    }

    #[test]
    fn jsonl_probe_handler_events_opt_in() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(JsonlProbe::new(store.clone()).with_handlers()));
        sim.run(1).unwrap();
        let text = store.text();
        assert!(text.contains("\"t\":\"react\""), "{text}");
        assert!(text.contains("\"t\":\"commit\""), "{text}");
    }

    /// Accepts `room` bytes, then fails every write (a disk that fills).
    struct FailAfter {
        room: usize,
        taken: Shared,
    }
    impl Write for FailAfter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            if b.len() > self.room {
                return Err(std::io::Error::other("no space left"));
            }
            self.room -= b.len();
            self.taken.write(b)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn text_tracer_sync_reports_the_first_write_error() {
        let taken = Shared::default();
        let out = FailAfter {
            room: 20,
            taken: taken.clone(),
        };
        let mut sim = tiny_sim();
        sim.set_probe(Box::new(TextTracer::new(out, 0)));
        sim.run(5).unwrap();
        let err = sim.take_probe().unwrap().sync().expect_err("cut short");
        assert!(err.to_string().contains("no space left"), "{err}");
        // A prefix of the full trace: nothing was written after the error.
        let text = taken.text();
        assert!(
            "@0 s -> k: 0\n@1 s -> k: 1\n".starts_with(&text),
            "{text:?}"
        );
    }

    #[test]
    fn jsonl_probe_latches_the_first_write_error() {
        let taken = Shared::default();
        let mut sim = tiny_sim();
        sim.set_probe(Box::new(
            JsonlProbe::new(FailAfter {
                room: 200,
                taken: taken.clone(),
            })
            .canonical(),
        ));
        sim.run(20).unwrap();
        let mut probe = sim.take_probe().unwrap();
        let err = probe.sync().expect_err("the stream was cut short");
        assert!(err.to_string().contains("no space left"), "{err}");
        assert!(probe.sync().is_err(), "the error stays latched");
        // What did get through is whole lines, and nothing after the cut.
        let text = taken.text();
        assert!(text.ends_with("}\n") && text.len() <= 200, "{text}");
        assert!(text.lines().count() < 1 + 20 * 3);

        // A healthy sink syncs clean.
        let mut sim = tiny_sim();
        sim.set_probe(Box::new(JsonlProbe::new(Shared::default())));
        sim.run(2).unwrap();
        assert!(sim.take_probe().unwrap().sync().is_ok());
    }
}
