//! Payload encodings are exact: for every library [`Payload`] kind, two
//! values encode to the same words if and only if they are `==`.
//!
//! The equivalence suites byte-compare canonical streams, and a stream
//! shows a payload only through its words (`KIND[w0,w1,…]`), so a lossy
//! encoding would blind them to exactly the difference they exist to
//! catch. Values are drawn from a list of field draws; a single-field
//! mutation re-draws the same list with one entry changed, so every
//! field of every kind gets mutated alone. Field values come from small
//! sets mixing edge cases (0, all-ones, the sign bit), so random pairs
//! also collide, and the "equal values, equal words" half is exercised
//! as well as the other.
//!
//! Alongside: each kind's JSONL `value` is its escaped `Display`, and
//! every `KIND` is unique and JSON-safe.

use liberty_ccl::packet::Packet;
use liberty_ccl::wormhole::{Flit, FlitKind};
use liberty_core::prelude::*;
use liberty_core::probe::json_escape;
use liberty_mpl::bus::BusMsg;
use liberty_mpl::dir::CoherenceMsg;
use liberty_mpl::dma::{DmaChunk, DmaCmd};
use liberty_nil::eth::EthFrame;
use liberty_nil::nicdev::Words;
use liberty_nil::pci::{PciResp, PciTxn};
use liberty_pcl::memarray::{MemReq, MemResp};
use liberty_pcl::Routed;
use liberty_upl::isa::{AluOp, BrCond, Instr};
use liberty_upl::uop::{BrUpdate, ExecResult, Fetched, MemUop, Prediction, Redirect, Uop};
use proptest::test_runner::TestRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Every library payload kind.
const KINDS: [&str; 20] = [
    Fetched::KIND,
    Uop::KIND,
    ExecResult::KIND,
    MemUop::KIND,
    Redirect::KIND,
    BrUpdate::KIND,
    Prediction::KIND,
    Routed::KIND,
    MemReq::KIND,
    MemResp::KIND,
    BusMsg::KIND,
    CoherenceMsg::KIND,
    DmaCmd::KIND,
    DmaChunk::KIND,
    Packet::KIND,
    Flit::KIND,
    PciTxn::KIND,
    PciResp::KIND,
    EthFrame::KIND,
    Words::KIND,
];

/// Field values are read off `vals` in order; draws past its end are
/// appended from `rng`, so the same list rebuilds the same value.
struct Draw<'a> {
    vals: &'a mut Vec<u64>,
    at: usize,
    rng: &'a mut TestRng,
}

impl Draw<'_> {
    fn pick(&mut self, n: u64) -> u64 {
        if self.at == self.vals.len() {
            self.vals.push(self.rng.next_u64());
        }
        self.at += 1;
        self.vals[self.at - 1] % n
    }
    fn of<T: Copy>(&mut self, set: &[T]) -> T {
        set[self.pick(set.len() as u64) as usize]
    }
    fn word(&mut self) -> u64 {
        self.of(&[0, 1, 2, u64::MAX, 1 << 63])
    }
    fn small(&mut self) -> u32 {
        self.of(&[0, 1, u32::MAX])
    }
    fn reg(&mut self) -> u8 {
        self.of(&[0, 1, 31, 255])
    }
    fn flag(&mut self) -> bool {
        self.pick(2) == 1
    }
    fn words(&mut self) -> Vec<u64> {
        (0..self.pick(3)).map(|_| self.word()).collect()
    }
}

fn instr(d: &mut Draw) -> Instr {
    let op = d.of(&[AluOp::Add, AluOp::Sltu, AluOp::Shr]);
    let imm = d.word() as i64;
    match d.pick(10) {
        0 => Instr::Alu {
            op,
            rd: d.reg(),
            rs1: d.reg(),
            rs2: d.reg(),
        },
        1 => Instr::AluI {
            op,
            rd: d.reg(),
            rs1: d.reg(),
            imm,
        },
        2 => Instr::Li { rd: d.reg(), imm },
        3 => Instr::Ld {
            rd: d.reg(),
            rs1: d.reg(),
            off: imm,
        },
        4 => Instr::St {
            rs2: d.reg(),
            rs1: d.reg(),
            off: imm,
        },
        5 => Instr::Br {
            cond: d.of(&[BrCond::Eq, BrCond::Ne, BrCond::Lt, BrCond::Ge]),
            rs1: d.reg(),
            rs2: d.reg(),
            target: imm as u64,
        },
        6 => Instr::Jal {
            rd: d.reg(),
            target: imm as u64,
        },
        7 => Instr::Jalr {
            rd: d.reg(),
            rs1: d.reg(),
            off: imm,
        },
        8 => Instr::Halt,
        _ => Instr::Nop,
    }
}

fn packet(d: &mut Draw, depth: u32) -> Packet {
    Packet {
        id: d.word(),
        src: d.small(),
        dst: d.small(),
        flits: d.small(),
        created: d.word(),
        payload: d.flag().then(|| nested(d, depth)),
    }
}

/// A value nested in a payload: a scalar, or (shallow enough) another
/// payload, nesting included.
fn nested(d: &mut Draw, depth: u32) -> Value {
    match if depth == 0 { 0 } else { d.pick(5) } {
        0 => Value::Word(d.word()),
        1 => Value::Int(d.word() as i64),
        2 => Value::wrap(Words(d.words())),
        3 => Value::wrap(DmaChunk {
            dst_addr: d.word(),
            words: d.words(),
        }),
        _ => Value::wrap(packet(d, depth - 1)),
    }
}

/// A value of kind `KINDS[kind]`.
fn sample(kind: usize, d: &mut Draw) -> Value {
    match kind {
        0 => Value::wrap(Fetched {
            seq: d.word(),
            epoch: d.word(),
            pc: d.word(),
            instr: instr(d),
            pred_next: d.word(),
        }),
        1 => Value::wrap(Uop {
            seq: d.word(),
            epoch: d.word(),
            pc: d.word(),
            instr: instr(d),
            a: d.word(),
            b: d.word(),
            pred_next: d.word(),
        }),
        2 => Value::wrap(ExecResult {
            seq: d.word(),
            epoch: d.word(),
            dest: d.flag().then(|| d.reg()),
            value: d.word(),
            halt: d.flag(),
        }),
        3 => Value::wrap(MemUop {
            seq: d.word(),
            epoch: d.word(),
            write: d.flag(),
            addr: d.word(),
            data: d.word(),
            dest: d.flag().then(|| d.reg()),
        }),
        4 => Value::wrap(Redirect {
            epoch: d.word(),
            next_pc: d.word(),
            from_seq: d.word(),
        }),
        5 => Value::wrap(BrUpdate {
            pc: d.word(),
            taken: d.flag(),
            target: d.word(),
        }),
        6 => Value::wrap(Prediction {
            taken: d.flag(),
            target: d.flag().then(|| d.word()),
        }),
        7 => Value::wrap(Routed {
            dst: d.small(),
            payload: nested(d, 2),
        }),
        8 => Value::wrap(MemReq {
            write: d.flag(),
            addr: d.word(),
            data: d.word(),
            tag: d.word(),
        }),
        9 => Value::wrap(MemResp {
            tag: d.word(),
            data: d.word(),
        }),
        10 => Value::wrap(BusMsg {
            write: d.flag(),
            addr: d.word(),
            data: d.word(),
            src: d.small(),
            tag: d.word(),
        }),
        11 => {
            let (addr, x, tag) = (d.word(), d.word(), d.word());
            Value::wrap(match d.pick(6) {
                0 => CoherenceMsg::GetS { addr, tag },
                1 => CoherenceMsg::Data {
                    addr,
                    value: x,
                    tag,
                },
                2 => CoherenceMsg::Write { addr, data: x, tag },
                3 => CoherenceMsg::WriteAck { tag },
                4 => CoherenceMsg::Inv { addr },
                _ => CoherenceMsg::InvAck { addr },
            })
        }
        12 => Value::wrap(DmaCmd {
            src_addr: d.word(),
            len: d.word(),
            dst_node: d.small(),
            dst_addr: d.word(),
            tag: d.word(),
        }),
        13 => Value::wrap(DmaChunk {
            dst_addr: d.word(),
            words: d.words(),
        }),
        14 => Value::wrap(packet(d, 2)),
        15 => Value::wrap(Flit {
            src: d.small(),
            dst: d.small(),
            pkt_id: d.word(),
            kind: d.of(&[
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Tail,
                FlitKind::HeadTail,
            ]),
            index: d.small(),
            packet: d.flag().then(|| packet(d, 1)),
        }),
        16 => Value::wrap(PciTxn {
            write: d.flag(),
            addr: d.word(),
            data: d.words(),
            read_len: d.small(),
            tag: d.word(),
        }),
        17 => Value::wrap(PciResp {
            tag: d.word(),
            data: d.words(),
        }),
        18 => Value::wrap(EthFrame {
            src: d.word(),
            dst: d.word(),
            len_bytes: d.small(),
            id: d.word(),
            created: d.word(),
            payload: d.flag().then(|| nested(d, 2)),
        }),
        _ => Value::wrap(Words(d.words())),
    }
}

/// One token of a value's encoding, nested payloads flattened in place.
#[derive(Debug, PartialEq)]
enum Tok {
    Word(u64),
    Open(&'static str),
    Close,
    Scalar(Value),
}

struct Flat(Vec<Tok>);

impl WordSink for Flat {
    fn word(&mut self, w: u64) {
        self.0.push(Tok::Word(w));
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Opaque(o) => {
                self.0.push(Tok::Open(o.kind()));
                o.encode_dyn(self);
                self.0.push(Tok::Close);
            }
            scalar => self.0.push(Tok::Scalar(scalar.clone())),
        }
    }
}

fn flat(v: &Value) -> Vec<Tok> {
    let mut f = Flat(Vec::new());
    f.value(v);
    f.0
}

#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);
impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Does nothing; stands at either end of [`s_to_d`]'s one edge.
struct Idle;
impl Module for Idle {
    fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// A topology whose edge 0 runs from `s` to `d`.
fn s_to_d() -> &'static Topology {
    static TOPO: std::sync::OnceLock<Topology> = std::sync::OnceLock::new();
    TOPO.get_or_init(|| {
        let mut b = NetlistBuilder::new();
        let s = b.add(
            "s",
            ModuleSpec::new("idle").output("out", 1, 1),
            Box::new(Idle),
        );
        let d = b.add(
            "d",
            ModuleSpec::new("idle").input("in", 1, 1),
            Box::new(Idle),
        );
        b.connect(s.unwrap(), "out", d.unwrap(), "in").unwrap();
        b.build().unwrap().into_parts().0
    })
}

/// The `value` field of the JSONL `transfer` line carrying `v`, as
/// written (still escaped).
fn jsonl_value(v: &Value) -> String {
    let buf = Buf::default();
    let mut probe = JsonlProbe::new(buf.clone()).canonical();
    let topo = s_to_d();
    let transfer = Record::Transfer {
        edge: EdgeId(0),
        src: InstanceId(0),
        dst: InstanceId(1),
        value: v.clone(),
    };
    probe.step(&StepLog {
        now: 0,
        topo,
        reacts: 0,
        commits: 0,
        records: &[transfer],
    });
    probe.sync().unwrap();
    let line = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let (_, rest) = line.split_once(",\"value\":\"").expect("value field");
    rest.strip_suffix("\"}\n").expect("line end").to_owned()
}

#[test]
fn payload_words_are_equal_exactly_when_the_payloads_are() {
    let mut rng = TestRng::deterministic();
    // Per kind: (equal pairs, unequal pairs) seen.
    let mut seen = [(0u32, 0u32); KINDS.len()];
    for case in 0..3000 {
        for (kind, tally) in seen.iter_mut().enumerate() {
            let mut vals = Vec::new();
            let draw = |vals: &mut Vec<u64>, rng: &mut TestRng| {
                sample(kind, &mut Draw { vals, at: 0, rng })
            };
            let a = draw(&mut vals, &mut rng);
            assert_eq!(a.kind(), KINDS[kind]);
            // One field changed, then an independent draw.
            let mut one = vals.clone();
            let at = rng.below(one.len() as u64) as usize;
            one[at] = one[at].wrapping_add(1 + rng.below(4));
            let b = draw(&mut one, &mut rng);
            let c = draw(&mut Vec::new(), &mut rng);
            for other in [&b, &c] {
                let same = a == *other;
                assert_eq!(
                    flat(&a) == flat(other),
                    same,
                    "case {case}: {a} vs {other} (== says {same})"
                );
                *tally = if same {
                    (tally.0 + 1, tally.1)
                } else {
                    (tally.0, tally.1 + 1)
                };
            }
            assert_eq!(jsonl_value(&a), json_escape(&a.to_string()), "case {case}");
        }
    }
    for (kind, (eq, ne)) in KINDS.iter().zip(seen) {
        assert!(eq > 0 && ne > 0, "{kind}: {eq} equal, {ne} unequal pairs");
    }
}

#[test]
fn kinds_are_unique_and_json_safe() {
    let mut sorted = KINDS.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), KINDS.len(), "duplicate KIND");
    for kind in KINDS {
        assert!(
            !kind.is_empty()
                && kind
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.'),
            "{kind} is not [A-Za-z0-9_.]+"
        );
    }
}
