//! DMA engine "for simulating low-overhead message-passing systems"
//! (paper §3.4).
//!
//! A command names a local source region, a destination node and a
//! destination address. The engine reads the region from local memory
//! (through its request/response ports), packs the words into network
//! packets, and sends them into the fabric. Packets arriving from the
//! fabric are unpacked and written into local memory. Receive traffic has
//! priority on the memory port (it drains the network, avoiding
//! fabric-level backpressure deadlocks when two nodes exchange data).
//!
//! ## Ports
//! * `cmd` (in, 0..1): [`DmaCmd`]s from whatever programs the engine.
//! * `mem_req` (out, 1) / `mem_resp` (in, 1): local memory.
//! * `net_tx` (out, 1) / `net_rx` (in, 1): fabric local ports
//!   ([`liberty_ccl::packet::Packet`] with a [`DmaChunk`] payload).
//! * `done` (out, 0..1): one `Word(tag)` per completed send command.

use liberty_ccl::packet::Packet;
use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};
use std::collections::VecDeque;

const P_CMD: PortId = PortId(0);
const P_MREQ: PortId = PortId(1);
const P_MRESP: PortId = PortId(2);
const P_TX: PortId = PortId(3);
const P_RX: PortId = PortId(4);
const P_DONE: PortId = PortId(5);

/// Maximum words carried per packet.
pub const CHUNK_WORDS: usize = 8;

/// A DMA transfer command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaCmd {
    /// Local source word address.
    pub src_addr: u64,
    /// Number of words to move.
    pub len: u64,
    /// Destination node id (fabric address).
    pub dst_node: u32,
    /// Destination word address on the remote node.
    pub dst_addr: u64,
    /// Completion tag.
    pub tag: u64,
}

impl DmaCmd {
    /// Wrap into a connection value.
    pub fn into_value(self) -> Value {
        Value::wrap(self)
    }
}

/// Layout: `[src_addr, len, dst_node, dst_addr, tag]`.
impl Payload for DmaCmd {
    const KIND: &'static str = "mpl.DmaCmd";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.src_addr);
        out.word(self.len);
        out.word(u64::from(self.dst_node));
        out.word(self.dst_addr);
        out.word(self.tag);
    }
}

/// The payload of one DMA packet.
#[derive(Clone, Debug, PartialEq)]
pub struct DmaChunk {
    /// Remote word address of `words[0]`.
    pub dst_addr: u64,
    /// The moved words.
    pub words: Vec<u64>,
}

/// Layout: `[dst_addr, n, words…]`, the words as [`WordSink::words`].
impl Payload for DmaChunk {
    const KIND: &'static str = "mpl.DmaChunk";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.dst_addr);
        out.words(&self.words);
    }
}

enum SendState {
    Idle,
    /// Reading `cmd`'s region: `got` accumulates, `issued` counts reads
    /// put on the memory port.
    Reading {
        cmd: DmaCmd,
        got: Vec<u64>,
        issued: u64,
    },
    /// Transmitting chunks: `sent` counts words already packed and
    /// accepted by the fabric.
    Sending {
        cmd: DmaCmd,
        words: Vec<u64>,
        sent: usize,
    },
    /// Completion notice pending on `done`.
    Done {
        cmd: DmaCmd,
    },
}

/// The DMA engine. Construct with [`dma`].
pub struct Dma {
    my_node: u32,
    send: SendState,
    /// Incoming words waiting to be written: (addr, value).
    rx_writes: VecDeque<(u64, u64)>,
    /// One memory request in flight (read or write), with its kind.
    mem_busy: Option<MemReq>,
    next_pkt: u64,
}

impl Module for Dma {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_MRESP, 0, true)?;
        // Receive path: accept packets whenever the write queue has room.
        ctx.set_ack(P_RX, 0, self.rx_writes.len() < 4 * CHUNK_WORDS)?;
        // Command path: accept only when fully idle.
        if ctx.width(P_CMD) > 0 {
            ctx.set_ack(P_CMD, 0, matches!(self.send, SendState::Idle))?;
        }
        // Memory port: one request at a time; rx writes first.
        if self.mem_busy.is_none() {
            if let Some((addr, data)) = self.rx_writes.front() {
                ctx.send(
                    P_MREQ,
                    0,
                    Value::wrap(MemReq {
                        write: true,
                        addr: *addr,
                        data: *data,
                        tag: u64::MAX,
                    }),
                )?;
            } else if let SendState::Reading { cmd, got, issued } = &self.send {
                if *issued < cmd.len && got.len() as u64 == *issued {
                    // Issue the next read only after the previous one
                    // returned (keeps responses trivially ordered).
                    ctx.send(
                        P_MREQ,
                        0,
                        Value::wrap(MemReq {
                            write: false,
                            addr: cmd.src_addr + *issued,
                            data: 0,
                            tag: *issued,
                        }),
                    )?;
                } else {
                    ctx.send_nothing(P_MREQ, 0)?;
                }
            } else {
                ctx.send_nothing(P_MREQ, 0)?;
            }
        } else {
            ctx.send_nothing(P_MREQ, 0)?;
        }
        // Transmit path.
        match &self.send {
            SendState::Sending { cmd, words, sent } if *sent < words.len() => {
                let n = (words.len() - sent).min(CHUNK_WORDS);
                let chunk = DmaChunk {
                    dst_addr: cmd.dst_addr + *sent as u64,
                    words: words[*sent..*sent + n].to_vec(),
                };
                let pkt = Packet {
                    id: self.next_pkt,
                    src: self.my_node,
                    dst: cmd.dst_node,
                    flits: n as u32 + 1,
                    created: ctx.now(),
                    payload: Some(Value::wrap(chunk)),
                };
                ctx.send(P_TX, 0, pkt.into_value())?;
            }
            _ => ctx.send_nothing(P_TX, 0)?,
        }
        // Completion notice.
        if ctx.width(P_DONE) > 0 {
            match &self.send {
                SendState::Done { cmd } => ctx.send(P_DONE, 0, Value::Word(cmd.tag))?,
                _ => ctx.send_nothing(P_DONE, 0)?,
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        // Memory port bookkeeping.
        if ctx.transferred_out(P_MREQ, 0) {
            // Reconstruct which request went out (pure function of state).
            if let Some((addr, data)) = self.rx_writes.front().copied() {
                self.mem_busy = Some(MemReq {
                    write: true,
                    addr,
                    data,
                    tag: u64::MAX,
                });
                self.rx_writes.pop_front();
            } else if let SendState::Reading { cmd, issued, .. } = &mut self.send {
                self.mem_busy = Some(MemReq {
                    write: false,
                    addr: cmd.src_addr + *issued,
                    data: 0,
                    tag: *issued,
                });
                *issued += 1;
            }
        }
        if let Some(v) = ctx.transferred_in(P_MRESP, 0) {
            let r = v.downcast_ref::<MemResp>().ok_or_else(|| {
                SimError::type_err(format!("dma: expected MemResp, got {}", v.kind()))
            })?;
            let busy = self.mem_busy.take().ok_or_else(|| {
                SimError::model("dma: memory response with no request in flight".to_owned())
            })?;
            if !busy.write {
                if let SendState::Reading { cmd, got, .. } = &mut self.send {
                    got.push(r.data);
                    if got.len() as u64 == cmd.len {
                        self.send = SendState::Sending {
                            cmd: *cmd,
                            words: std::mem::take(got),
                            sent: 0,
                        };
                    }
                }
            } else {
                ctx.count("rx_words_written", 1);
            }
        }
        // Transmit progress.
        if ctx.transferred_out(P_TX, 0) {
            self.next_pkt += 1;
            ctx.count("packets_sent", 1);
            if let SendState::Sending { cmd, words, sent } = &mut self.send {
                *sent += (words.len() - *sent).min(CHUNK_WORDS);
                if *sent == words.len() {
                    self.send = SendState::Done { cmd: *cmd };
                }
            }
        }
        // Completion handshake.
        if ctx.width(P_DONE) > 0 {
            if ctx.transferred_out(P_DONE, 0) {
                if let SendState::Done { .. } = self.send {
                    ctx.count("commands_done", 1);
                    self.send = SendState::Idle;
                }
            }
        } else if let SendState::Done { .. } = self.send {
            // No listener: complete silently (partial specification).
            ctx.count("commands_done", 1);
            self.send = SendState::Idle;
        }
        // Receive path.
        if let Some(v) = ctx.transferred_in(P_RX, 0) {
            let pkt = Packet::from_value(&v)?;
            ctx.sample("latency", ctx.now().saturating_sub(pkt.created) as f64);
            let chunk = pkt
                .payload
                .as_ref()
                .and_then(|p| p.downcast_ref::<DmaChunk>())
                .ok_or_else(|| {
                    SimError::type_err("dma: packet without DmaChunk payload".to_owned())
                })?;
            for (i, w) in chunk.words.iter().enumerate() {
                self.rx_writes.push_back((chunk.dst_addr + i as u64, *w));
            }
            ctx.count("packets_received", 1);
        }
        // New command.
        if ctx.width(P_CMD) > 0 {
            if let Some(v) = ctx.transferred_in(P_CMD, 0) {
                let cmd = *v.downcast_ref::<DmaCmd>().ok_or_else(|| {
                    SimError::type_err(format!("dma: expected DmaCmd, got {}", v.kind()))
                })?;
                if cmd.len == 0 {
                    self.send = SendState::Done { cmd };
                } else {
                    self.send = SendState::Reading {
                        cmd,
                        got: Vec::with_capacity(cmd.len as usize),
                        issued: 0,
                    };
                }
            }
        }
        Ok(())
    }
}

const DMA_SPEC: ModuleSpec = ModuleSpec::fixed(
    "dma",
    &[
        PortSpec::input("cmd", 0, 1),
        PortSpec::output("mem_req", 1, 1),
        PortSpec::input("mem_resp", 1, 1),
        PortSpec::output("net_tx", 0, 1),
        PortSpec::input("net_rx", 0, 1),
        PortSpec::output("done", 0, 1),
    ],
);

/// Construct a DMA engine for fabric node `my_node`.
pub fn dma(my_node: u32) -> Instantiated {
    (
        DMA_SPEC,
        Box::new(Dma {
            my_node,
            send: SendState::Idle,
            rx_writes: VecDeque::new(),
            mem_busy: None,
            next_pkt: 0,
        }),
    )
}
