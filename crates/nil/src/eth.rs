//! A shared Ethernet segment: CSMA medium with frame serialization.
//!
//! Station `i` transmits on `tx` connection `i` and receives on `rx`
//! connection `i`; a station's MAC address is its connection index, and
//! [`BROADCAST`] reaches everyone but the sender. A frame occupies the
//! wire for `ceil(len_bytes / bytes_per_cycle)` cycles; offers during a
//! busy wire (or simultaneous offers) are refused and retried — the
//! paper-era CSMA abstraction.
//!
//! ## Ports
//! * `tx` (in, N), `rx` (out, N): [`EthFrame`] values.

use liberty_core::prelude::*;

const P_TX: PortId = PortId(0);
const P_RX: PortId = PortId(1);

/// Destination address delivering to every station except the sender.
pub const BROADCAST: u64 = u64::MAX;

/// An Ethernet frame.
#[derive(Clone, Debug, PartialEq)]
pub struct EthFrame {
    /// Source MAC (station index).
    pub src: u64,
    /// Destination MAC (station index or [`BROADCAST`]).
    pub dst: u64,
    /// Frame length in bytes (drives wire occupancy).
    pub len_bytes: u32,
    /// Frame id for tracing.
    pub id: u64,
    /// Creation time-step.
    pub created: u64,
    /// Optional payload.
    pub payload: Option<Value>,
}

/// Layout: `[src, dst, len_bytes, id, created, payload?]`, `payload?`
/// as [`WordSink::opt_value`].
impl Payload for EthFrame {
    const KIND: &'static str = "nil.EthFrame";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.src);
        out.word(self.dst);
        out.word(u64::from(self.len_bytes));
        out.word(self.id);
        out.word(self.created);
        out.opt_value(self.payload.as_ref());
    }
}

impl EthFrame {
    /// Wrap into a connection value.
    pub fn into_value(self) -> Value {
        Value::wrap(self)
    }

    /// Borrow out of a connection value.
    pub fn from_value(v: &Value) -> Result<&EthFrame, SimError> {
        v.downcast_ref::<EthFrame>()
            .ok_or_else(|| SimError::type_err(format!("expected EthFrame, got {}", v.kind())))
    }
}

/// The Ethernet segment module. Construct with [`ether`].
pub struct Ether {
    bytes_per_cycle: u32,
    /// Wire busy until this time-step (exclusive).
    busy_until: u64,
    /// Frame currently on the wire, delivered when `busy_until` hits.
    in_flight: Option<EthFrame>,
}

impl Module for Ether {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_TX);
        let m = ctx.width(P_RX);
        // Deliver a frame whose serialization just finished.
        let delivering = self
            .in_flight
            .as_ref()
            .filter(|_| ctx.now() >= self.busy_until)
            .cloned();
        for j in 0..m {
            match &delivering {
                Some(f) if (f.dst == BROADCAST && f.src != j as u64) || f.dst == j as u64 => {
                    ctx.send(P_RX, j, f.clone().into_value())?
                }
                _ => ctx.send_nothing(P_RX, j)?,
            }
        }
        // Accept a new transmission only when the wire is strictly free:
        // a frame attempting delivery may still be refused and must keep
        // the wire.
        let free = self.in_flight.is_none();
        if !free {
            for i in 0..n {
                ctx.set_ack(P_TX, i, false)?;
            }
            return Ok(());
        }
        // CSMA: need every station's decision, first offer wins.
        let mut winner = None;
        for i in 0..n {
            match ctx.data(P_TX, i) {
                Res::Unknown => return Ok(()),
                Res::No => {}
                Res::Yes(_) => {
                    if winner.is_none() {
                        winner = Some(i);
                    }
                }
            }
        }
        for i in 0..n {
            ctx.set_ack(P_TX, i, winner == Some(i))?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        // Delivery: the frame leaves the wire only when every intended
        // receiver accepts it; a busy receiver holds the wire (link-level
        // backpressure), so frames are never lost. A frame with no
        // intended receiver (bad MAC) is dropped.
        if let Some(f) = &self.in_flight {
            if ctx.now() >= self.busy_until {
                let m = ctx.width(P_RX);
                let intended: Vec<usize> = (0..m)
                    .filter(|&j| (f.dst == BROADCAST && f.src != j as u64) || f.dst == j as u64)
                    .collect();
                if intended.is_empty() {
                    ctx.count("undeliverable", 1);
                    self.in_flight = None;
                } else if intended.iter().all(|&j| ctx.transferred_out(P_RX, j)) {
                    ctx.count("delivered", 1);
                    self.in_flight = None;
                } else {
                    ctx.count("blocked_cycles", 1);
                }
            }
        }
        // A new frame claimed the wire.
        let n = ctx.width(P_TX);
        let offered = (0..n)
            .filter(|&i| matches!(ctx.data(P_TX, i), Res::Yes(_)))
            .count();
        if offered > 1 {
            ctx.count("contended_cycles", 1);
        }
        for i in 0..n {
            if let Some(v) = ctx.transferred_in(P_TX, i) {
                let f = EthFrame::from_value(&v)?.clone();
                let cycles = (f.len_bytes).div_ceil(self.bytes_per_cycle).max(1) as u64;
                self.busy_until = ctx.now() + cycles;
                ctx.count("frames", 1);
                ctx.count("bytes", u64::from(f.len_bytes));
                self.in_flight = Some(f);
            }
        }
        Ok(())
    }
}

const ETHER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "ether",
    &[
        PortSpec::input("tx", 0, u32::MAX),
        PortSpec::output("rx", 0, u32::MAX),
    ],
);

/// Construct an Ethernet segment. Parameters: `bytes_per_cycle`
/// (default 8 — a GbE-ish wire against a ~1 GHz core clock).
pub fn ether(params: &Params) -> Result<Instantiated, SimError> {
    let bpc = params.usize_or("bytes_per_cycle", 8)?.max(1) as u32;
    Ok((
        ETHER_SPEC,
        Box::new(Ether {
            bytes_per_cycle: bpc,
            busy_until: 0,
            in_flight: None,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_pcl::{sink, source};

    fn frame(id: u64, src: u64, dst: u64, len: u32) -> Value {
        EthFrame {
            src,
            dst,
            len_bytes: len,
            id,
            created: 0,
            payload: None,
        }
        .into_value()
    }

    fn seg(
        a: Vec<Value>,
        b_: Vec<Value>,
    ) -> (Simulator, InstanceId, sink::Collected, sink::Collected) {
        let mut b = NetlistBuilder::new();
        let (e_spec, e_mod) = ether(&Params::new().with("bytes_per_cycle", 8i64)).unwrap();
        let e = b.add("eth", e_spec, e_mod).unwrap();
        let (s0, m0) = source::script(a);
        let s0 = b.add("s0", s0, m0).unwrap();
        let (s1, m1) = source::script(b_);
        let s1 = b.add("s1", s1, m1).unwrap();
        b.connect(s0, "out", e, "tx").unwrap();
        b.connect(s1, "out", e, "tx").unwrap();
        let (k0s, k0m, h0) = sink::collecting();
        let k0 = b.add("k0", k0s, k0m).unwrap();
        let (k1s, k1m, h1) = sink::collecting();
        let k1 = b.add("k1", k1s, k1m).unwrap();
        b.connect(e, "rx", k0, "in").unwrap();
        b.connect(e, "rx", k1, "in").unwrap();
        (
            Simulator::new(b.build().unwrap(), SchedKind::Compiled),
            e,
            h0,
            h1,
        )
    }

    #[test]
    fn frame_serialization_delays_delivery() {
        // 64-byte frame at 8 B/cycle: 8 cycles on the wire.
        let (mut sim, _, _, h1) = seg(vec![frame(1, 0, 1, 64)], vec![]);
        sim.run(8).unwrap();
        assert!(h1.is_empty());
        sim.run(1).unwrap();
        assert_eq!(h1.len(), 1);
    }

    #[test]
    fn wire_busy_blocks_second_station() {
        let (mut sim, e, h0, h1) = seg(vec![frame(1, 0, 1, 64)], vec![frame(2, 1, 0, 64)]);
        sim.run(40).unwrap();
        // Both frames eventually cross, serialized.
        assert_eq!(h1.len(), 1);
        assert_eq!(h0.len(), 1);
        assert!(sim.stats().counter(e, "contended_cycles") > 0);
        assert_eq!(sim.stats().counter(e, "frames"), 2);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let (mut sim, _, h0, h1) = seg(vec![frame(1, 0, BROADCAST, 8)], vec![]);
        sim.run(5).unwrap();
        assert_eq!(h1.len(), 1);
        assert!(h0.is_empty());
    }
}
