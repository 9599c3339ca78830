//! The radio network interface of a sensor node (paper Fig. 2b): polls a
//! completion flag in the node's (coherent) memory, reads the result
//! words, and transmits them over the wireless fabric to the base
//! station — an NI built from the standard MemReq/MemResp and Packet
//! contracts, so it plugs into MPL shared memory on one side and the CCL
//! wireless channel on the other.

use liberty_ccl::packet::Packet;
use liberty_core::prelude::*;
use liberty_nil::nicdev::Words;
use liberty_pcl::memarray::{MemReq, MemResp};

const P_MEM_REQ: PortId = PortId(0);
const P_MEM_RESP: PortId = PortId(1);
const P_TX: PortId = PortId(2);

enum State {
    PollIssue,
    PollWait,
    ReadIssue { i: u64, got: Vec<u64> },
    ReadWait { i: u64, got: Vec<u64> },
    ClearIssue { got: Vec<u64> },
    ClearWait { got: Vec<u64> },
    Send { got: Vec<u64>, since: u64 },
}

/// The radio NI module. Construct with [`radio_ni`].
pub struct RadioNi {
    my: u32,
    base: u32,
    flag_addr: u64,
    data_addr: u64,
    len: u64,
    state: State,
    sent: u64,
    /// CSMA backoff: after a collision (refused transmission), stay off
    /// the air until this time-step; the window doubles per retry.
    backoff_until: u64,
    backoff_window: u64,
    lcg: u64,
}

impl RadioNi {
    fn next_rand(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 33
    }
}

impl Module for RadioNi {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_MEM_RESP, 0, true)?;
        match &self.state {
            State::PollIssue => {
                ctx.send(P_MEM_REQ, 0, MemReq::read(self.flag_addr, 0))?;
                ctx.send_nothing(P_TX, 0)?;
            }
            State::ReadIssue { i, .. } => {
                ctx.send(P_MEM_REQ, 0, MemReq::read(self.data_addr + i, 1))?;
                ctx.send_nothing(P_TX, 0)?;
            }
            State::ClearIssue { .. } => {
                ctx.send(P_MEM_REQ, 0, MemReq::write(self.flag_addr, 0, 2))?;
                ctx.send_nothing(P_TX, 0)?;
            }
            State::Send { got, since } => {
                ctx.send_nothing(P_MEM_REQ, 0)?;
                if ctx.now() >= self.backoff_until {
                    let pkt = Packet {
                        id: self.sent,
                        src: self.my,
                        dst: self.base,
                        flits: got.len() as u32 + 1,
                        created: *since,
                        payload: Some(Value::wrap(Words(got.clone()))),
                    };
                    ctx.send(P_TX, 0, pkt.into_value())?;
                } else {
                    ctx.send_nothing(P_TX, 0)?;
                }
            }
            _ => {
                ctx.send_nothing(P_MEM_REQ, 0)?;
                ctx.send_nothing(P_TX, 0)?;
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_MEM_REQ, 0) {
            self.state = match std::mem::replace(&mut self.state, State::PollIssue) {
                State::PollIssue => State::PollWait,
                State::ReadIssue { i, got } => State::ReadWait { i, got },
                State::ClearIssue { got } => State::ClearWait { got },
                s => s,
            };
        }
        if let Some(v) = ctx.transferred_in(P_MEM_RESP, 0) {
            let r = v.downcast_ref::<MemResp>().ok_or_else(|| {
                SimError::type_err(format!("radio_ni: expected MemResp, got {}", v.kind()))
            })?;
            self.state = match std::mem::replace(&mut self.state, State::PollIssue) {
                State::PollWait => {
                    if r.data != 0 {
                        State::ReadIssue {
                            i: 0,
                            got: Vec::with_capacity(self.len as usize),
                        }
                    } else {
                        State::PollIssue
                    }
                }
                State::ReadWait { i, mut got } => {
                    got.push(r.data);
                    if i + 1 < self.len {
                        State::ReadIssue { i: i + 1, got }
                    } else {
                        State::ClearIssue { got }
                    }
                }
                State::ClearWait { got } => State::Send {
                    got,
                    since: ctx.now(),
                },
                s => s,
            };
        }
        if let State::Send { .. } = &self.state {
            if ctx.transferred_out(P_TX, 0) {
                self.sent += 1;
                ctx.count("samples_sent", 1);
                self.state = State::PollIssue;
                self.backoff_window = 2;
            } else if ctx.now() >= self.backoff_until {
                // Collision (or busy air): exponential random backoff.
                let wait = 1 + self.next_rand() % self.backoff_window;
                self.backoff_until = ctx.now() + wait;
                self.backoff_window = (self.backoff_window * 2).min(64);
                ctx.count("backoffs", 1);
            }
        }
        Ok(())
    }
}

const RADIO_NI_SPEC: ModuleSpec = ModuleSpec::fixed(
    "radio_ni",
    &[
        PortSpec::output("mem_req", 1, 1),
        PortSpec::input("mem_resp", 1, 1),
        PortSpec::output("tx", 1, 1),
    ],
);

/// Construct a radio NI. Parameters: `my` (wireless station index),
/// `base` (destination station), `flag`, `data`, `len` (memory layout).
pub fn radio_ni(params: &Params) -> Result<Instantiated, SimError> {
    Ok((
        RADIO_NI_SPEC,
        Box::new(RadioNi {
            my: params.require_int("my")? as u32,
            base: params.require_int("base")? as u32,
            flag_addr: params.int_or("flag", 9)? as u64,
            data_addr: params.int_or("data", 9)? as u64,
            len: params.int_or("len", 1)? as u64,
            state: State::PollIssue,
            sent: 0,
            backoff_until: 0,
            backoff_window: 2,
            lcg: 0x9E3779B97F4A7C15u64 ^ (params.require_int("my")? as u64) << 17,
        }),
    ))
}

/// Packet bridge between fabrics: forwards packets, rewriting the
/// destination for the next fabric's address space while preserving
/// `created` for end-to-end latency accounting (the "format converter"
/// role of paper §3, here fabric-to-fabric).
pub struct Bridge {
    new_dst: u32,
    held: Option<Packet>,
}

const B_IN: PortId = PortId(0);
const B_OUT: PortId = PortId(1);

impl Module for Bridge {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.held {
            Some(p) => ctx.send(B_OUT, 0, p.clone().into_value())?,
            None => ctx.send_nothing(B_OUT, 0)?,
        }
        ctx.set_ack(B_IN, 0, self.held.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(B_OUT, 0) {
            self.held = None;
            ctx.count("bridged", 1);
        }
        if let Some(v) = ctx.transferred_in(B_IN, 0) {
            let mut p = liberty_ccl::packet::Packet::from_value(&v)?.clone();
            p.dst = self.new_dst;
            self.held = Some(p);
        }
        Ok(())
    }
}

const BRIDGE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "bridge",
    &[PortSpec::input("in", 1, 1), PortSpec::output("out", 1, 1)],
);

/// Construct a bridge rewriting packet destinations to `dst`.
pub fn bridge(params: &Params) -> Result<Instantiated, SimError> {
    Ok((
        BRIDGE_SPEC,
        Box::new(Bridge {
            new_dst: params.require_int("dst")? as u32,
            held: None,
        }),
    ))
}
