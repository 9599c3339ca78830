//! Shared wireless medium for sensor networks (paper Fig. 2b/2d).
//!
//! All nodes share one broadcast channel. In a time-step:
//!
//! * exactly one transmitter: the packet is delivered to its destination's
//!   receive connection, unless an (independent, seeded) loss event drops
//!   it in the air — the transmitter cannot tell (no link-level ack);
//! * two or more transmitters: a **collision** — nothing is delivered and
//!   every transmitter's offer is refused, so senders persist and retry
//!   (CSMA-with-detection abstraction).
//!
//! ## Ports
//! * `tx` (in, N): node `i` transmits on connection `i`.
//! * `rx` (out, N): node `i` receives on connection `i`.

use crate::packet::Packet;
use liberty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P_TX: PortId = PortId(0);
const P_RX: PortId = PortId(1);

/// The wireless channel module. Construct with [`wireless`].
pub struct Wireless {
    loss: f64,
    rng: StdRng,
    /// Pre-drawn loss decision for the current time-step (randomness must
    /// not be consumed in the re-entrant `react`).
    drop_now: bool,
}

impl Module for Wireless {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_TX);
        let m = ctx.width(P_RX);
        // Wait for every transmitter's decision.
        let mut offers: Vec<Option<Value>> = Vec::with_capacity(n);
        for i in 0..n {
            match ctx.data(P_TX, i) {
                Res::Unknown => return Ok(()),
                Res::No => offers.push(None),
                Res::Yes(v) => offers.push(Some(v)),
            }
        }
        let senders: Vec<usize> = (0..n).filter(|&i| offers[i].is_some()).collect();
        match senders.len() {
            0 => {
                for j in 0..m {
                    ctx.send_nothing(P_RX, j)?;
                }
                for i in 0..n {
                    ctx.set_ack(P_TX, i, true)?;
                }
            }
            1 => {
                let s = senders[0];
                let v = offers[s].clone().expect("sender has an offer");
                let dst = Packet::from_value(&v)?.dst as usize;
                if dst >= m {
                    return Err(SimError::model(format!(
                        "wireless: packet dst {dst} has no rx connection ({m} nodes)"
                    )));
                }
                for j in 0..m {
                    if j == dst && !self.drop_now {
                        ctx.send(P_RX, j, v.clone())?;
                    } else {
                        ctx.send_nothing(P_RX, j)?;
                    }
                }
                for i in 0..n {
                    if i != s {
                        ctx.set_ack(P_TX, i, true)?;
                    }
                }
                if self.drop_now {
                    // Lost in the air: the sender still believes it
                    // transmitted (no link-level acknowledgement).
                    ctx.set_ack(P_TX, s, true)?;
                } else {
                    // A busy receiver refuses; the sender retries — the
                    // medium itself never loses accepted frames.
                    match ctx.ack(P_RX, dst)? {
                        Res::Unknown => {} // re-woken when it resolves
                        Res::Yes(()) => ctx.set_ack(P_TX, s, true)?,
                        Res::No => ctx.set_ack(P_TX, s, false)?,
                    }
                }
            }
            _ => {
                // Collision: deliver nothing, refuse every transmitter.
                for j in 0..m {
                    ctx.send_nothing(P_RX, j)?;
                }
                for (i, offer) in offers.iter().enumerate() {
                    ctx.set_ack(P_TX, i, offer.is_none())?;
                }
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_TX);
        let transmitted = (0..n)
            .filter(|&i| ctx.transferred_in(P_TX, i).is_some())
            .count();
        let offered = (0..n)
            .filter(|&i| matches!(ctx.data(P_TX, i), Res::Yes(_)))
            .count();
        if offered > 1 {
            ctx.count("collisions", 1);
        }
        if transmitted == 1 {
            if self.drop_now {
                ctx.count("lost", 1);
            } else {
                ctx.count("delivered", 1);
            }
        }
        self.drop_now = self.loss > 0.0 && self.rng.gen_bool(self.loss);
        Ok(())
    }
}

const WIRELESS_SPEC: ModuleSpec = ModuleSpec::fixed(
    "wireless",
    &[
        PortSpec::input("tx", 0, u32::MAX),
        PortSpec::output("rx", 0, u32::MAX),
    ],
)
.with_ack_in_react();

/// Construct a wireless channel. Parameters: `loss` (probability a lone
/// transmission is lost, default 0), `seed`.
pub fn wireless(params: &Params) -> Result<Instantiated, SimError> {
    let loss = params.float_or("loss", 0.0)?.clamp(0.0, 1.0);
    let seed = params.int_or("seed", 11)? as u64;
    Ok((
        WIRELESS_SPEC,
        Box::new(Wireless {
            loss,
            rng: StdRng::seed_from_u64(seed),
            drop_now: false,
        }),
    ))
}

/// Register the `wireless` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "ccl",
        "wireless",
        "shared broadcast medium with collisions and loss; params: loss, seed",
        wireless,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_pcl::{sink, source};

    fn pkt(id: u64, src: u32, dst: u32) -> Value {
        Packet {
            id,
            src,
            dst,
            flits: 1,
            created: 0,
            payload: None,
        }
        .into_value()
    }

    fn two_node_channel(
        a_script: Vec<Value>,
        b_script: Vec<Value>,
    ) -> (Simulator, InstanceId, sink::Collected, sink::Collected) {
        let mut b = NetlistBuilder::new();
        let (w_spec, w_mod) = wireless(&Params::new()).unwrap();
        let w = b.add("air", w_spec, w_mod).unwrap();
        let (a_spec, a_mod) = source::script(a_script);
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (c_spec, c_mod) = source::script(b_script);
        let c = b.add("c", c_spec, c_mod).unwrap();
        b.connect(a, "out", w, "tx").unwrap();
        b.connect(c, "out", w, "tx").unwrap();
        let (k0_spec, k0_mod, h0) = sink::collecting();
        let k0 = b.add("k0", k0_spec, k0_mod).unwrap();
        let (k1_spec, k1_mod, h1) = sink::collecting();
        let k1 = b.add("k1", k1_spec, k1_mod).unwrap();
        b.connect(w, "rx", k0, "in").unwrap();
        b.connect(w, "rx", k1, "in").unwrap();
        (
            Simulator::new(b.build().unwrap(), SchedKind::Compiled),
            w,
            h0,
            h1,
        )
    }

    #[test]
    fn lone_transmission_delivered_to_destination() {
        let (mut sim, w, h0, h1) = two_node_channel(vec![pkt(1, 0, 1)], vec![]);
        sim.run(4).unwrap();
        assert_eq!(h1.len(), 1);
        assert!(h0.is_empty());
        assert_eq!(sim.stats().counter(w, "delivered"), 1);
        assert_eq!(sim.stats().counter(w, "collisions"), 0);
    }

    #[test]
    fn simultaneous_transmissions_collide_then_resolve() {
        // Both nodes offer in cycle 0 -> collision, both refused. They
        // keep offering; with two persistent senders the channel stays
        // collided forever — the expected behaviour of this abstraction.
        let (mut sim, w, h0, h1) = two_node_channel(vec![pkt(1, 0, 1)], vec![pkt(2, 1, 0)]);
        sim.run(5).unwrap();
        assert!(sim.stats().counter(w, "collisions") >= 5);
        assert!(h0.is_empty() && h1.is_empty());
    }

    #[test]
    fn loss_drops_but_sender_advances() {
        let mut b = NetlistBuilder::new();
        let (w_spec, w_mod) = wireless(&Params::new().with("loss", 1.0)).unwrap();
        let w = b.add("air", w_spec, w_mod).unwrap();
        let (a_spec, a_mod) = source::script(vec![pkt(1, 0, 1), pkt(2, 0, 1)]);
        let a = b.add("a", a_spec, a_mod).unwrap();
        b.connect(a, "out", w, "tx").unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        // Only one rx connection: node 0. dst=1 would error, so remap:
        // use two sinks.
        let (k2_spec, k2_mod, h2) = sink::collecting();
        let k2 = b.add("k2", k2_spec, k2_mod).unwrap();
        b.connect(w, "rx", k, "in").unwrap();
        b.connect(w, "rx", k2, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(6).unwrap();
        // loss = 1.0, but the first cycle's pre-drawn decision is "no
        // drop", so packet 1 lands; every later one is lost in the air
        // while the sender believes it transmitted.
        let total_lost = sim.stats().counter(w, "lost");
        let delivered = sim.stats().counter(w, "delivered");
        assert_eq!(delivered + total_lost, 2);
        assert!(h.is_empty());
        assert_eq!(h2.len() as u64, delivered);
    }
}
