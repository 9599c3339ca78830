//! Property tests of the probe event stream.
//!
//! The paper's central claim — the reaction fixed point is unique and
//! scheduler-independent — extends to observability: the *full* event
//! stream a probe sees (which wire resolved with which polarity and
//! payload, who resolved it, which handshakes completed) is a property of
//! the netlist, not of the evaluation order. These tests run random
//! layered netlists under both schedulers and require the recorded
//! streams to be identical, and check the structural invariant that every
//! wire of every connection resolves exactly once per time-step.

use liberty_core::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const P0: PortId = PortId(0);
const P1: PortId = PortId(1);

/// Pseudo-random word source (deterministic from seed).
struct RndSource {
    state: u64,
}
impl RndSource {
    fn next_word(&self) -> u64 {
        let mut x = self.state.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}
impl Module for RndSource {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let w = self.next_word();
        for i in 0..ctx.width(P0) {
            // Leave some connections unsent so the default semantics
            // participate and ResolvedBy::Default shows up in the stream.
            if (w >> i) & 3 == 0 {
                continue;
            }
            ctx.send(P0, i, Value::Word(w.wrapping_add(i as u64)))?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        self.state = self.next_word();
        Ok(())
    }
}

/// Combinational adder over fully resolved inputs.
struct Adder;
impl Module for Adder {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let mut sum = 0u64;
        for i in 0..ctx.width(P0) {
            match ctx.data(P0, i) {
                Res::Unknown => return Ok(()),
                Res::No => {}
                Res::Yes(v) => sum = sum.wrapping_add(v.as_word().unwrap_or(0)),
            }
        }
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        for i in 0..ctx.width(P1) {
            ctx.send(P1, i, Value::Word(sum))?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Collector acking everything.
struct Collect;
impl Module for Collect {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// One recorded resolve record, in comparable form.
type ResolveEv = (u64, u32, u8, bool, Option<String>, Option<u32>);
/// One recorded transfer record.
type TransferEv = (u64, u32, String, String, String);

#[derive(Default)]
struct Recorded {
    resolves: Vec<ResolveEv>,
    transfers: Vec<TransferEv>,
}

/// Probe recording the full event stream into a shared buffer.
#[derive(Clone)]
struct Recorder(Arc<Mutex<Recorded>>);

impl Probe for Recorder {
    fn step(&mut self, log: &StepLog<'_>) {
        let mut rec = self.0.lock().unwrap();
        for r in log.records {
            match r {
                Record::Resolve {
                    edge,
                    wire,
                    yes,
                    value,
                    by,
                } => {
                    let wi = match wire {
                        Wire::Data => 0,
                        Wire::Enable => 1,
                        Wire::Ack => 2,
                    };
                    let by = match by {
                        ResolvedBy::Module(i) => Some(i.0),
                        ResolvedBy::Default => None,
                    };
                    let value = value.as_ref().map(|v| v.to_string());
                    rec.resolves.push((log.now, edge.0, wi, *yes, value, by));
                }
                Record::Transfer {
                    edge,
                    src,
                    dst,
                    value,
                } => rec.transfers.push((
                    log.now,
                    edge.0,
                    log.topo.name(*src).to_string(),
                    log.topo.name(*dst).to_string(),
                    value.to_string(),
                )),
                _ => {}
            }
        }
    }
}

#[derive(Clone, Debug)]
struct NetDesc {
    seed: u64,
    layers: Vec<Vec<u8>>, // 0 = adder, anything else = collect-like adder
    wiring: Vec<u64>,
}

fn build(desc: &NetDesc, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let src = b
        .add(
            "src",
            ModuleSpec::new("rnd_source").output("out", 0, u32::MAX),
            Box::new(RndSource {
                state: desc.seed | 1,
            }),
        )
        .unwrap();
    let mut prev: Vec<InstanceId> = vec![src];
    for (li, layer) in desc.layers.iter().enumerate() {
        let mut cur = Vec::new();
        for (ni, _) in layer.iter().enumerate() {
            let name = format!("n{li}_{ni}");
            let spec = ModuleSpec::new("adder")
                .input("in", 0, u32::MAX)
                .output("out", 0, u32::MAX);
            cur.push(b.add(name, spec, Box::new(Adder)).unwrap());
        }
        let w = desc.wiring.get(li).copied().unwrap_or(7);
        for (pi, &p) in prev.iter().enumerate() {
            let t1 = cur[(pi as u64 ^ w) as usize % cur.len()];
            b.connect(p, "out", t1, "in").unwrap();
            if (w >> pi) & 1 == 1 {
                let t2 = cur[(pi as u64 + w) as usize % cur.len()];
                b.connect(p, "out", t2, "in").unwrap();
            }
        }
        prev = cur;
    }
    let k = b
        .add(
            "k",
            ModuleSpec::new("collect").input("in", 0, u32::MAX),
            Box::new(Collect),
        )
        .unwrap();
    for &p in &prev {
        b.connect(p, "out", k, "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), sched)
}

fn desc_strategy() -> impl Strategy<Value = NetDesc> {
    (
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(0u8..2, 1..4), 1..4),
        prop::collection::vec(any::<u64>(), 4),
    )
        .prop_map(|(seed, layers, wiring)| NetDesc {
            seed,
            layers,
            wiring,
        })
}

/// Run `steps` under a scheduler, return the sorted event streams.
fn record(desc: &NetDesc, sched: SchedKind, steps: u64) -> Recorded {
    let mut sim = build(desc, sched);
    let rec = Recorder(Arc::new(Mutex::new(Recorded::default())));
    sim.set_probe(Box::new(rec.clone()));
    sim.run(steps).unwrap();
    drop(sim); // release the probe's clone of the Arc
    let mut r = Arc::try_unwrap(rec.0)
        .unwrap_or_else(|a| panic!("probe still shared: {} refs", Arc::strong_count(&a)))
        .into_inner()
        .unwrap();
    // Within a step the emission order is schedule-dependent; the multiset
    // of events is not. Sort for comparison.
    r.resolves.sort();
    r.transfers.sort();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The probe event stream — every resolution with polarity, payload
    /// and attribution, and every completed handshake — is identical
    /// under Sweep and the compiled engine.
    #[test]
    fn probe_stream_is_scheduler_independent(desc in desc_strategy()) {
        let w = record(&desc, SchedKind::Sweep, 12);
        let c = record(&desc, SchedKind::Compiled, 12);
        prop_assert_eq!(&w.resolves, &c.resolves);
        prop_assert_eq!(&w.transfers, &c.transfers);
    }

    /// Structural invariant: every wire of every connection resolves
    /// exactly once per time-step — resolutions = 3 × edges × steps,
    /// regardless of how many resolutions fall to the default semantics.
    #[test]
    fn every_wire_resolves_once_per_step(desc in desc_strategy()) {
        for sched in ALL_SCHEDS {
            let mut sim = build(&desc, sched);
            let (probe, counts) = CountingProbe::new();
            sim.set_probe(Box::new(probe));
            let steps = 9u64;
            sim.run(steps).unwrap();
            let edges = sim.topology().edge_count() as u64;
            let c = counts.get();
            prop_assert_eq!(c.steps, steps);
            prop_assert_eq!(c.resolutions, 3 * edges * steps);
            prop_assert!(c.defaults <= c.resolutions);
            // Transfers are a subset of steps × edges and agree with the
            // kernel's own per-edge accounting.
            let kernel_total: u64 = sim.transfer_counts().iter().sum();
            prop_assert_eq!(c.transfers, kernel_total);
        }
    }
}

// ---------------------------------------------------------------------
// The JSONL encoder against a `format!` reference, and the interest mask.
// ---------------------------------------------------------------------

/// Records every `write` call handed to it, so a test sees both the bytes
/// and how they were cut.
#[derive(Clone, Default)]
struct Chunks(Arc<Mutex<Vec<Vec<u8>>>>);

impl std::io::Write for Chunks {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(b.to_vec());
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Chunks {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().concat()).unwrap()
    }
}

/// The escaping rule spelled out character by character, independent of
/// the library's byte-level escaper.
fn ref_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An opaque payload nesting a string of arbitrary characters.
#[derive(Debug, PartialEq)]
struct Pkt {
    tag: String,
    len: u32,
}

/// Layout: `[tag as a nested string, len]`.
impl Payload for Pkt {
    const KIND: &'static str = "test.Pkt";
    fn encode(&self, out: &mut dyn WordSink) {
        out.value(&Value::from(self.tag.as_str()));
        out.word(u64::from(self.len));
    }
}

/// Names and payload text: quotes, backslashes, control characters,
/// JSON punctuation and multi-byte characters among plain ones.
fn text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'Z', '0', '.', '[', ']', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}',
        '\u{1f}', '\u{7f}', 'é', '→', '😀', '{', '}', ':', ',',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..10)
        .prop_map(|cs| cs.into_iter().collect())
}

fn scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Word),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9f64..1.0e9).prop_map(Value::Float),
        text().prop_map(|s| Value::from(s.as_str())),
        (text(), any::<u32>()).prop_map(|(tag, len)| Value::wrap(Pkt { tag, len })),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        scalar(),
        prop::collection::vec(scalar(), 0..4).prop_map(|vs| Value::Tuple(Arc::new(vs))),
    ]
    .boxed()
}

/// Everything one encoder case is fed.
#[derive(Clone, Debug)]
struct EventCase {
    names: (String, String),
    now: u64,
    edge: u32,
    inst: u32,
    to: u64,
    value: Value,
    reason: String,
}

fn event_case() -> impl Strategy<Value = EventCase> {
    (
        (text(), text()),
        (any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>()),
        value(),
        text(),
    )
        .prop_map(
            |(names, (now, to), (edge, inst), value, reason)| EventCase {
                names,
                now,
                edge,
                inst,
                to,
                value,
                reason,
            },
        )
}

const WIRES: [(Wire, &str); 3] = [
    (Wire::Data, "data"),
    (Wire::Enable, "enable"),
    (Wire::Ack, "ack"),
];
const FAULTS: [(FaultKind, &str); 3] = [
    (FaultKind::Drop, "drop"),
    (FaultKind::Stall, "stall"),
    (FaultKind::Corrupt, "corrupt"),
];

/// Drive every record kind once (every wire, fault kind, polarity and
/// attribution) through one step log and one run-level log, and return
/// the expected text, built with `format!`.
fn drive_all_events(p: &mut dyn Probe, c: &EventCase) -> String {
    let EventCase {
        now,
        edge,
        inst,
        to,
        ..
    } = *c;
    // Instance names must be unique; the suffix keeps them so.
    let (n0, n1) = (format!("{}0", c.names.0), format!("{}1", c.names.1));
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            n0.clone(),
            ModuleSpec::new("collect").output("out", 0, u32::MAX),
            Box::new(Collect),
        )
        .unwrap();
    let k = b
        .add(
            n1.clone(),
            ModuleSpec::new("collect").input("in", 0, u32::MAX),
            Box::new(Collect),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let shown = ref_escape(&c.value.to_string());
    let mut want = String::new();
    let mut records = Vec::new();
    let inst_id = InstanceId(inst);
    let done = |inst| Handler {
        inst,
        outcome: Outcome::Ok,
        ns: 0,
    };

    p.attach(sim.topology());
    want += &format!(
        "{{\"t\":\"attach\",\"instances\":2,\"edges\":1,\"names\":[\"{}\",\"{}\"]}}\n",
        ref_escape(&n0),
        ref_escape(&n1)
    );
    records.push(Record::StepBegin);
    want += &format!("{{\"t\":\"step\",\"now\":{now}}}\n");
    records.push(Record::React(done(inst_id)));
    want += &format!("{{\"t\":\"react\",\"now\":{now},\"inst\":{inst}}}\n");
    for (wire, wname) in WIRES {
        for (yes, payload, by, by_text) in [
            (
                true,
                Some(&c.value),
                ResolvedBy::Module(inst_id),
                inst.to_string(),
            ),
            (false, None, ResolvedBy::Default, "\"default\"".to_owned()),
        ] {
            records.push(Record::Resolve {
                edge: EdgeId(edge),
                wire,
                yes,
                value: payload.cloned(),
                by,
            });
            let val = payload.map_or(String::new(), |_| format!(",\"value\":\"{shown}\""));
            want += &format!(
                "{{\"t\":\"resolve\",\"now\":{now},\"edge\":{edge},\"wire\":\"{wname}\",\
                 \"yes\":{yes}{val},\"by\":{by_text}}}\n"
            );
        }
        for (kind, kname) in FAULTS {
            records.push(Record::Fault {
                edge: EdgeId(edge),
                wire,
                kind,
            });
            want += &format!(
                "{{\"t\":\"fault\",\"now\":{now},\"edge\":{edge},\"wire\":\"{wname}\",\
                 \"kind\":\"{kname}\"}}\n"
            );
        }
    }
    records.push(Record::Commit(done(inst_id)));
    want += &format!("{{\"t\":\"commit\",\"now\":{now},\"inst\":{inst}}}\n");
    records.push(Record::Transfer {
        edge: EdgeId(edge),
        src: s,
        dst: k,
        value: c.value.clone(),
    });
    want += &format!(
        "{{\"t\":\"transfer\",\"now\":{now},\"edge\":{edge},\"src\":\"{}\",\"dst\":\"{}\",\
         \"value\":\"{shown}\"}}\n",
        ref_escape(&n0),
        ref_escape(&n1)
    );
    records.push(Record::InstanceFault {
        inst: inst_id,
        kind: c.reason.clone().into(),
    });
    want += &format!(
        "{{\"t\":\"inst_fault\",\"now\":{now},\"inst\":{inst},\"kind\":\"{}\"}}\n",
        ref_escape(&c.reason)
    );
    records.push(Record::Quarantine {
        inst: inst_id,
        reason: c.reason.clone(),
    });
    want += &format!(
        "{{\"t\":\"quarantine\",\"now\":{now},\"inst\":{inst},\"reason\":\"{}\"}}\n",
        ref_escape(&c.reason)
    );
    records.push(Record::StepEnd);
    want += &format!("{{\"t\":\"step_end\",\"now\":{now}}}\n");
    let mut log = StepLog {
        now,
        topo: sim.topology(),
        store: &SignalStore::new(1),
        reacts: 1,
        commits: 1,
        records: &records,
    };
    p.step(&log);
    let run_level = [
        Record::Checkpoint,
        Record::Restore,
        Record::Rollback {
            to,
            reason: c.reason.clone(),
        },
        Record::Cancel,
    ];
    log.records = &run_level;
    (log.reacts, log.commits) = (0, 0);
    p.step(&log);
    want += &format!("{{\"t\":\"checkpoint\",\"now\":{now}}}\n");
    want += &format!("{{\"t\":\"restore\",\"now\":{now}}}\n");
    want += &format!(
        "{{\"t\":\"rollback\",\"now\":{now},\"to\":{to},\"reason\":\"{}\"}}\n",
        ref_escape(&c.reason)
    );
    want += &format!("{{\"t\":\"cancel\",\"now\":{now}}}\n");
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming encoder writes, for every event kind and arbitrary
    /// names and payloads, exactly the bytes the `format!` rendering
    /// gives — and hands each line to the writer in one piece.
    #[test]
    fn jsonl_encoder_matches_the_format_reference(c in event_case()) {
        let out = Chunks::default();
        let mut probe = JsonlProbe::new(out.clone()).with_handlers();
        let want = drive_all_events(&mut probe, &c);
        prop_assert_eq!(out.text(), want);
        for chunk in out.0.lock().unwrap().iter() {
            let newlines = chunk.iter().filter(|&&b| b == b'\n').count();
            prop_assert!(newlines == 1 && chunk.ends_with(b"\n"), "not one whole line: {:?}", chunk);
        }
        // Every line is one JSON object with balanced string quoting.
        for line in want.lines() {
            prop_assert!(line.starts_with("{\"t\":\"") && line.ends_with('}'));
            prop_assert!(!line.chars().any(|c| (c as u32) < 0x20), "raw control character");
        }

        // The canonical subset is the same text minus the `attach`
        // header, `resolve`, the handler brackets and the run-level
        // records.
        let out = Chunks::default();
        let mut probe = JsonlProbe::new(out.clone()).canonical();
        drive_all_events(&mut probe, &c);
        let dropped = ["attach", "resolve", "react", "commit", "checkpoint", "restore", "rollback", "cancel"];
        let kept: String = want
            .lines()
            .filter(|l| !dropped.iter().any(|k| l.starts_with(&format!("{{\"t\":\"{k}\""))))
            .map(|l| format!("{l}\n"))
            .collect();
        prop_assert_eq!(out.text(), kept);
    }
}

/// Declines both per-invocation families and counts the steps and the
/// handler and resolve records its logs hold regardless.
#[derive(Clone, Default)]
struct Declined(Arc<Mutex<(u64, u64)>>);

impl Probe for Declined {
    fn interest(&self) -> Interest {
        Interest::NONE
    }
    fn step(&mut self, log: &StepLog<'_>) {
        let mut seen = self.0.lock().unwrap();
        for r in log.records {
            match r {
                Record::StepBegin => seen.0 += 1,
                Record::React(_) | Record::Commit(_) | Record::Resolve { .. } => seen.1 += 1,
                _ => {}
            }
        }
    }
}

const ALL_SCHEDS: [SchedKind; 2] = [SchedKind::Sweep, SchedKind::Compiled];

/// The interest mask changes what the kernel produces, never what a
/// listening probe sees: a canonical JSONL probe alone is spared every
/// resolve and bracket and still writes the bytes it always wrote; next
/// to a counting probe the same run counts every one of them.
#[test]
fn interest_mask_spares_only_probes_that_declined() {
    const STEPS: u64 = 9;
    let desc = NetDesc {
        seed: 0x9e37_79b9,
        layers: vec![vec![0, 1], vec![0, 1, 0], vec![1]],
        wiring: vec![3, 5, 6, 7],
    };
    assert_eq!(
        JsonlProbe::new(std::io::sink()).canonical().interest(),
        Interest::NONE
    );
    assert!(JsonlProbe::new(std::io::sink()).interest().resolves);
    let (profiler, _) = Profiler::new();
    assert_eq!(
        profiler.interest(),
        Interest {
            handlers: true,
            resolves: false
        }
    );

    for sched in ALL_SCHEDS {
        // The canonical stream, from a probe that listens to everything.
        let mut sim = build(&desc, sched);
        let rec = Recorder(Arc::new(Mutex::new(Recorded::default())));
        sim.set_probe(Box::new(rec.clone()));
        sim.run(STEPS).unwrap();
        let mut want = String::new();
        let transfers = std::mem::take(&mut rec.0.lock().unwrap().transfers);
        for now in 0..STEPS {
            want += &format!("{{\"t\":\"step\",\"now\":{now}}}\n");
            for (_, edge, src, dst, v) in transfers.iter().filter(|t| t.0 == now) {
                want += &format!(
                    "{{\"t\":\"transfer\",\"now\":{now},\"edge\":{edge},\"src\":\"{src}\",\
                     \"dst\":\"{dst}\",\"value\":\"{v}\"}}\n"
                );
            }
            want += &format!("{{\"t\":\"step_end\",\"now\":{now}}}\n");
        }

        // Alone: nothing it declined is produced.
        let mut sim = build(&desc, sched);
        let declined = Declined::default();
        sim.set_probe(Box::new(declined.clone()));
        sim.run(STEPS).unwrap();
        assert_eq!(*declined.0.lock().unwrap(), (STEPS, 0), "{sched:?}");

        let mut sim = build(&desc, sched);
        let alone = Chunks::default();
        sim.set_probe(Box::new(JsonlProbe::new(alone.clone()).canonical()));
        sim.run(STEPS).unwrap();
        assert_eq!(alone.text(), want, "{sched:?}: canonical probe alone");

        // Beside a probe that listens: the union is produced, the
        // canonical probe still filters for itself.
        let mut sim = build(&desc, sched);
        let beside = Chunks::default();
        let (counting, counts) = CountingProbe::new();
        let mut multi = MultiProbe::new();
        multi.push(Box::new(JsonlProbe::new(beside.clone()).canonical()));
        multi.push(Box::new(counting));
        assert_eq!(
            multi.interest(),
            Interest {
                handlers: false,
                resolves: true
            }
        );
        sim.set_probe(Box::new(multi));
        sim.run(STEPS).unwrap();
        let c = counts.get();
        let edges = sim.topology().edge_count() as u64;
        assert_eq!(c.resolutions, 3 * edges * STEPS, "{sched:?}");
        assert_eq!(c.reacts, sim.metrics().reacts, "{sched:?}");
        assert_eq!(c.commits, sim.metrics().commits, "{sched:?}");
        assert!(c.reacts > 0 && c.commits > 0);
        assert_eq!(
            beside.text(),
            want,
            "{sched:?}: canonical probe in a fan-out"
        );
    }
}
