//! VCD (Value Change Dump) waveform sink — watch the three-signal
//! handshake evolve in GTKWave.
//!
//! Every connection contributes three waveform signals: a 64-bit `data`
//! vector plus 1-bit `enable` and `ack` wires. Scopes mirror the
//! elaborated instance hierarchy (dotted instance paths become nested
//! `$scope module` blocks), and each edge's signals live under its
//! *sender*'s scope, named `<port><index>__<wire>__e<edge>`.
//!
//! Encoding of the paper's resolution states:
//!
//! * `enable` / `ack`: `1` = resolved `Yes`, `0` = resolved `No` (wires
//!   always fully resolve by the end of a step, so `x` only appears
//!   before the first step);
//! * `data`: the word payload when `Yes` (non-word payloads are
//!   fingerprinted to 64 bits — a library payload by its kind and words —
//!   so distinct values stay distinguishable),
//!   all-`z` when resolved `No` — "not driven" is exactly the default
//!   control semantics of an absent sender (paper §2.2).
//!
//! One timestamp is emitted per time-step (`#<now>` at step end), so
//! timestamps increase strictly monotonically; only changed signals are
//! dumped, keeping files compact on quiet netlists.
//!
//! Writes are line-oriented, so a slow or stalled consumer can be
//! decoupled with bounded buffering by constructing the probe over a
//! [`crate::supervisor::BackpressureWriter`]: `VcdProbe::new(
//! BackpressureWriter::new(out, cap, SinkPolicy::Block))`. Note that
//! `DropOldest` sheds whole *lines*, which for VCD means lost value
//! changes — acceptable for live monitoring, not for golden files.

use crate::probe::{Interest, Probe, Record, StepLog};
use crate::topology::Topology;
use crate::trace::WriteError;
use crate::value::{Value, WordSink};
use std::collections::BTreeMap;
use std::io::Write;

/// Per-wire last-emitted / pending state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WireVal {
    /// Never driven (before the first resolution) — VCD `x`.
    X,
    /// Resolved `No`.
    No,
    /// Resolved `Yes` (with the data payload for data wires).
    Yes(u64),
}

struct EdgeVars {
    /// VCD identifier codes for (data, enable, ack).
    codes: [String; 3],
    /// Last emitted value per wire.
    last: [WireVal; 3],
    /// Value resolved in the current step, if any.
    cur: [Option<WireVal>; 3],
}

/// The VCD-writing probe. Construct with [`VcdProbe::new`] over any
/// writer (buffer it for files), attach with
/// [`crate::exec::Simulator::set_probe`]; the header is emitted at attach
/// time, [`Probe::sync`] flushes and reports the first write error, and
/// the output is flushed when the probe is dropped.
pub struct VcdProbe<W: Write + Send> {
    out: W,
    edges: Vec<EdgeVars>,
    /// Edge ids touched this step (kept sorted at dump time so output is
    /// scheduler-independent).
    touched: Vec<u32>,
    failed: WriteError,
}

/// Map a payload to the 64 bits shown on the waveform.
fn data_bits(v: &Value) -> u64 {
    if let Some(w) = v.as_word() {
        return w;
    }
    // Fingerprint non-word payloads so distinct values render as distinct
    // vectors: FNV-1a over a payload's kind and words (nested values by
    // their own fingerprint), over the display rendering of the rest.
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    match v {
        Value::Opaque(o) => {
            h.bytes(o.kind().as_bytes());
            o.encode_dyn(&mut h);
        }
        other => h.bytes(other.to_string().as_bytes()),
    }
    h.0
}

/// An FNV-1a hash under construction.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl WordSink for Fnv {
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn value(&mut self, v: &Value) {
        self.word(data_bits(v));
    }
}

/// Compact printable VCD identifier for var number `n` (base-94 over
/// ASCII 33..=126).
fn id_code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            return s;
        }
    }
}

/// Make a name safe as a VCD identifier component. Array indices keep a
/// readable form: `st[0]` becomes `st_0`.
fn sanitize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            c if c.is_ascii_alphanumeric() => out.push(c),
            ']' => {}
            _ => out.push('_'),
        }
    }
    out
}

/// A scope tree node: child scopes plus `$var` declarations at this
/// level, rendered as `(reference, id_code)` pairs.
#[derive(Default)]
struct Scope {
    children: BTreeMap<String, Scope>,
    vars: Vec<(String, String, u32)>, // (reference, id code, bit width)
}

impl Scope {
    fn write<W: Write>(&self, out: &mut W, indent: usize) -> std::io::Result<()> {
        let pad = "  ".repeat(indent);
        for (reference, code, width) in &self.vars {
            let kind = if *width == 1 { "wire" } else { "reg" };
            writeln!(out, "{pad}$var {kind} {width} {code} {reference} $end")?;
        }
        for (name, child) in &self.children {
            writeln!(out, "{pad}$scope module {name} $end")?;
            child.write(out, indent + 1)?;
            writeln!(out, "{pad}$upscope $end")?;
        }
        Ok(())
    }
}

impl<W: Write + Send> VcdProbe<W> {
    /// Waveform sink over any writer. Wrap files in a
    /// `std::io::BufWriter`; the probe flushes on drop.
    pub fn new(out: W) -> Self {
        VcdProbe {
            out,
            edges: Vec::new(),
            touched: Vec::new(),
            failed: WriteError::default(),
        }
    }

    fn emit(out: &mut W, val: WireVal, code: &str, is_data: bool) -> std::io::Result<()> {
        if is_data {
            match val {
                WireVal::X => writeln!(out, "bx {code}"),
                WireVal::No => writeln!(out, "bz {code}"),
                WireVal::Yes(w) => writeln!(out, "b{w:b} {code}"),
            }
        } else {
            match val {
                WireVal::X => writeln!(out, "x{code}"),
                WireVal::No => writeln!(out, "0{code}"),
                WireVal::Yes(_) => writeln!(out, "1{code}"),
            }
        }
    }

    /// The step's timestamp and every wire whose value changed.
    fn dump(&mut self, now: u64) {
        let VcdProbe {
            out,
            edges,
            touched,
            failed,
        } = self;
        touched.sort_unstable();
        failed.write(out, |out| {
            writeln!(out, "#{now}")?;
            for &ei in touched.iter() {
                let ev = &mut edges[ei as usize];
                for wi in 0..3 {
                    if let Some(val) = ev.cur[wi].take() {
                        if val != ev.last[wi] {
                            Self::emit(out, val, &ev.codes[wi], wi == 0)?;
                            ev.last[wi] = val;
                        }
                    }
                }
            }
            Ok(())
        });
        touched.clear();
    }
}

impl VcdProbe<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) a `.vcd` file and buffer writes to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(VcdProbe::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> Probe for VcdProbe<W> {
    fn attach(&mut self, topo: &Topology) {
        // Assign id codes and build the scope tree mirroring the
        // elaborated hierarchy.
        let mut root = Scope::default();
        let mut var_n = 0usize;
        self.edges.clear();
        for (ei, em) in topo.edge_metas().iter().enumerate() {
            let src = topo.instance(em.src.inst);
            let port = sanitize(src.spec.port_spec(em.src.port).name);
            let mut node = &mut root;
            for part in src.name.split('.') {
                node = node.children.entry(sanitize(part)).or_default();
            }
            let mut codes: [String; 3] = Default::default();
            for (wi, wire) in ["data", "enable", "ack"].iter().enumerate() {
                let code = id_code(var_n);
                var_n += 1;
                let width = if wi == 0 { 64 } else { 1 };
                node.vars.push((
                    format!("{port}{}__{wire}__e{ei}", em.src.index),
                    code.clone(),
                    width,
                ));
                codes[wi] = code;
            }
            self.edges.push(EdgeVars {
                codes,
                last: [WireVal::X; 3],
                cur: [None; 3],
            });
        }
        let edges = &self.edges;
        self.failed.write(&mut self.out, |out| {
            writeln!(out, "$version liberty-rs kernel probe $end")?;
            writeln!(
                out,
                "$comment {} instances, {} connections; one timestep = 1ns $end",
                topo.instance_count(),
                topo.edge_count()
            )?;
            writeln!(out, "$timescale 1 ns $end")?;
            root.write(out, 0)?;
            writeln!(out, "$enddefinitions $end")?;
            // Initial dump: everything unknown until the first step resolves.
            writeln!(out, "$dumpvars")?;
            for ev in edges {
                Self::emit(out, WireVal::X, &ev.codes[0], true)?;
                Self::emit(out, WireVal::X, &ev.codes[1], false)?;
                Self::emit(out, WireVal::X, &ev.codes[2], false)?;
            }
            writeln!(out, "$end")
        });
    }

    fn interest(&self) -> Interest {
        Interest {
            handlers: false,
            resolves: true,
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.failed.sync(&mut self.out)
    }

    fn step(&mut self, log: &StepLog<'_>) {
        for r in log.records {
            match r {
                Record::Resolve {
                    edge,
                    wire,
                    yes,
                    value,
                    ..
                } => {
                    let ev = &mut self.edges[edge.0 as usize];
                    let val = if *yes {
                        WireVal::Yes(value.as_ref().map(data_bits).unwrap_or(1))
                    } else {
                        WireVal::No
                    };
                    if ev.cur.iter().all(Option::is_none) {
                        self.touched.push(edge.0);
                    }
                    ev.cur[wire.idx()] = Some(val);
                }
                Record::StepEnd => self.dump(log.now),
                _ => {}
            }
        }
    }
}

impl<W: Write + Send> Drop for VcdProbe<W> {
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
    use std::sync::{Arc, Mutex};

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

    struct EvenSrc;
    impl Module for EvenSrc {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            if ctx.now().is_multiple_of(2) {
                ctx.send(PortId(0), 0, Value::Word(ctx.now()))
            } else {
                ctx.send_nothing(PortId(0), 0)
            }
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
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn sim_with_vcd() -> (Simulator, Shared) {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "top.s",
                ModuleSpec::new("esrc").output("out", 1, 1),
                Box::new(EvenSrc),
            )
            .unwrap();
        let k = b
            .add(
                "top.k",
                ModuleSpec::new("snk").input("in", 1, 1),
                Box::new(Snk),
            )
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        let buf = Shared::default();
        sim.set_probe(Box::new(VcdProbe::new(buf.clone())));
        (sim, buf)
    }

    #[test]
    fn header_mirrors_hierarchy_and_declares_three_vars_per_edge() {
        let (sim, buf) = sim_with_vcd();
        drop(sim);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("$timescale 1 ns $end"), "{text}");
        assert!(text.contains("$scope module top $end"), "{text}");
        assert!(
            text.contains("$scope module s $end"),
            "dotted name → nested scope: {text}"
        );
        assert_eq!(text.matches("$var ").count(), 3, "{text}");
        assert!(text.contains("out0__data__e0"), "{text}");
        assert!(text.contains("out0__enable__e0"), "{text}");
        assert!(text.contains("out0__ack__e0"), "{text}");
        assert!(text.contains("$enddefinitions $end"), "{text}");
    }

    #[test]
    fn timestamps_monotone_and_changes_dumped() {
        let (mut sim, buf) = sim_with_vcd();
        sim.run(4).unwrap();
        drop(sim);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let stamps: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l[1..].parse().unwrap())
            .collect();
        assert_eq!(stamps, vec![0, 1, 2, 3]);
        // Step 0 sends word 0 → data b0, enable 1; step 1 sends nothing →
        // data z, enable 0. The waveform must show both regimes.
        assert!(text.contains("b0 !"), "data word at t0: {text}");
        assert!(text.contains("bz !"), "undriven data at t1: {text}");
        // Ack resolves Yes every step and must be dumped only once
        // (change-only output): '1' then silence.
        let ack_changes = text.lines().filter(|l| *l == "1#").count();
        assert_eq!(ack_changes, 1, "{text}");
    }

    #[test]
    fn sync_reports_the_first_write_error() {
        let (mut sim, _) = sim_with_vcd();
        // No room at all: every write fails, as on a full disk.
        let full = std::io::Cursor::new([0u8; 0]);
        sim.set_probe(Box::new(VcdProbe::new(full)));
        sim.run(3).unwrap();
        let err = sim.take_probe().unwrap().sync().expect_err("cut short");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero, "{err}");
    }

    #[test]
    fn id_codes_cover_multi_char_range() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!\"");
        assert_ne!(id_code(94 * 94 + 7), id_code(7));
    }
}
