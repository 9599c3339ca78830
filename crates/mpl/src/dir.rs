//! Directory-based coherence — the paper's "point-to-point coherence
//! transactions for scalable systems" (§3.4).
//!
//! Instead of a broadcast bus, caches and a home directory exchange
//! [`CoherenceMsg`] packets over *any* CCL fabric (mesh, torus, ring —
//! composability again: the protocol modules only speak the standard
//! Packet contract).
//!
//! The protocol is the directory analogue of the snooping write-through
//! invalidate scheme:
//!
//! * load miss → `GetS` to home → home registers the sharer, replies
//!   `Data`;
//! * store → `Write` to home → home updates memory, unicasts `Inv` to
//!   every *other* registered sharer, clears them, replies `WriteAck`;
//! * a cache receiving `Inv` drops its copy, replies `InvAck`, and marks
//!   any outstanding fill of the same address clobbered so stale data is
//!   never installed;
//! * the home releases the writer's `WriteAck` only after every `InvAck`
//!   arrives, so a completed write is globally visible — the classic
//!   three-hop directory discipline.
//!
//! The home directory is the per-address serialization point, giving the
//! same single-writer/data-value invariants as the bus — but with unicast
//! traffic that scales with sharers, not nodes.

use liberty_ccl::packet::Packet;
use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp, SharedMem};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Point-to-point coherence messages (packet payloads).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoherenceMsg {
    /// Read request: register me as a sharer and send the word.
    GetS {
        /// Word address.
        addr: u64,
        /// Request tag.
        tag: u64,
    },
    /// Data reply to a `GetS`.
    Data {
        /// Word address.
        addr: u64,
        /// The word at the home's serialization point.
        value: u64,
        /// Echoed tag.
        tag: u64,
    },
    /// Write-through request.
    Write {
        /// Word address.
        addr: u64,
        /// The value to write.
        data: u64,
        /// Request tag.
        tag: u64,
    },
    /// Completion of a `Write`.
    WriteAck {
        /// Echoed tag.
        tag: u64,
    },
    /// Invalidate any copy of this address.
    Inv {
        /// Word address.
        addr: u64,
    },
    /// A cache's confirmation that it applied an `Inv` (the home releases
    /// the writer's `WriteAck` only after all confirmations — writes are
    /// atomic at the serialization point).
    InvAck {
        /// Word address.
        addr: u64,
    },
}

/// Layout: the variant, then its fields in declaration order — `GetS`
/// `[0, addr, tag]`, `Data` `[1, addr, value, tag]`, `Write`
/// `[2, addr, data, tag]`, `WriteAck` `[3, tag]`, `Inv` `[4, addr]`,
/// `InvAck` `[5, addr]`.
impl Payload for CoherenceMsg {
    const KIND: &'static str = "mpl.CoherenceMsg";
    fn encode(&self, out: &mut dyn WordSink) {
        let (variant, fields): (u64, &[u64]) = match *self {
            CoherenceMsg::GetS { addr, tag } => (0, &[addr, tag]),
            CoherenceMsg::Data { addr, value, tag } => (1, &[addr, value, tag]),
            CoherenceMsg::Write { addr, data, tag } => (2, &[addr, data, tag]),
            CoherenceMsg::WriteAck { tag } => (3, &[tag]),
            CoherenceMsg::Inv { addr } => (4, &[addr]),
            CoherenceMsg::InvAck { addr } => (5, &[addr]),
        };
        out.word(variant);
        for &w in fields {
            out.word(w);
        }
    }
}

fn coherence_packet(src: u32, dst: u32, msg: CoherenceMsg, id: u64) -> Value {
    Packet {
        id,
        src,
        dst,
        flits: 2,
        created: 0,
        payload: Some(Value::wrap(msg)),
    }
    .into_value()
}

fn unpack(v: &Value) -> Result<(u32, CoherenceMsg), SimError> {
    let p = Packet::from_value(v)?;
    let m = p
        .payload
        .as_ref()
        .and_then(|x| x.downcast_ref::<CoherenceMsg>())
        .ok_or_else(|| SimError::type_err("expected CoherenceMsg payload".to_owned()))?;
    Ok((p.src, *m))
}

// ---------------------------------------------------------------------
// The home directory.
// ---------------------------------------------------------------------

const D_RX: PortId = PortId(0);
const D_TX: PortId = PortId(1);

/// A write whose invalidations are still outstanding.
struct PendingWrite {
    addr: u64,
    src: u32,
    tag: u64,
    remaining: u32,
}

/// The home directory module. Construct with [`directory`].
pub struct Directory {
    my_node: u32,
    mem: SharedMem,
    /// Sharer bitmask per address (bit = requester node id).
    sharers: HashMap<u64, u64>,
    /// Outgoing packets, one per cycle.
    outbox: VecDeque<(u32, CoherenceMsg)>,
    /// Writes awaiting invalidation acknowledgements (FIFO per address
    /// by insertion order).
    pending: Vec<PendingWrite>,
    next_id: u64,
}

impl Module for Directory {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        // Accept protocol traffic only while the outbox has headroom, so
        // a burst of invalidations cannot grow without bound.
        ctx.set_ack(D_RX, 0, self.outbox.len() < 64)?;
        match self.outbox.front() {
            Some((dst, msg)) => ctx.send(
                D_TX,
                0,
                coherence_packet(self.my_node, *dst, *msg, self.next_id),
            )?,
            None => ctx.send_nothing(D_TX, 0)?,
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(D_TX, 0) {
            self.outbox.pop_front();
            self.next_id += 1;
        }
        if let Some(v) = ctx.transferred_in(D_RX, 0) {
            let (src, msg) = unpack(&v)?;
            match msg {
                CoherenceMsg::GetS { addr, tag } => {
                    let value = {
                        let m = self.mem.lock();
                        m[(addr as usize) % m.len()]
                    };
                    *self.sharers.entry(addr).or_insert(0) |= 1u64 << (src % 64);
                    self.outbox
                        .push_back((src, CoherenceMsg::Data { addr, value, tag }));
                    ctx.count("gets", 1);
                }
                CoherenceMsg::Write { addr, data, tag } => {
                    {
                        let mut m = self.mem.lock();
                        let len = m.len();
                        m[(addr as usize) % len] = data;
                    }
                    let sharers = self.sharers.remove(&addr).unwrap_or(0);
                    let mut invs = 0u32;
                    for node in 0..64u32 {
                        if sharers & (1 << node) != 0 && node != src {
                            self.outbox.push_back((node, CoherenceMsg::Inv { addr }));
                            invs += 1;
                            ctx.count("invs_sent", 1);
                        }
                    }
                    // The writer keeps (regains) its copy.
                    self.sharers.insert(addr, 1u64 << (src % 64));
                    ctx.count("writes", 1);
                    if invs == 0 {
                        self.outbox.push_back((src, CoherenceMsg::WriteAck { tag }));
                    } else {
                        // Complete only when every sharer confirmed.
                        self.pending.push(PendingWrite {
                            addr,
                            src,
                            tag,
                            remaining: invs,
                        });
                    }
                }
                CoherenceMsg::InvAck { addr } => {
                    let pos = self
                        .pending
                        .iter()
                        .position(|p| p.addr == addr)
                        .ok_or_else(|| {
                            SimError::model("directory: InvAck with no pending write".to_owned())
                        })?;
                    self.pending[pos].remaining -= 1;
                    if self.pending[pos].remaining == 0 {
                        let p = self.pending.remove(pos);
                        self.outbox
                            .push_back((p.src, CoherenceMsg::WriteAck { tag: p.tag }));
                    }
                }
                other => {
                    return Err(SimError::model(format!(
                        "directory: unexpected message {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}

const DIRECTORY_SPEC: ModuleSpec = ModuleSpec::fixed(
    "directory",
    &[
        PortSpec::input("net_rx", 1, 1),
        PortSpec::output("net_tx", 1, 1),
    ],
);

/// Construct a home directory at fabric node `my_node`. Returns the
/// observable backing memory.
pub fn directory(my_node: u32, words: usize) -> (ModuleSpec, Box<dyn Module>, SharedMem) {
    let mem: SharedMem = Arc::new(Mutex::new(vec![0; words.max(1)]));
    (
        DIRECTORY_SPEC,
        Box::new(Directory {
            my_node,
            mem: mem.clone(),
            sharers: HashMap::new(),
            outbox: VecDeque::new(),
            pending: Vec::new(),
            next_id: 0,
        }),
        mem,
    )
}

// ---------------------------------------------------------------------
// The per-core directory cache.
// ---------------------------------------------------------------------

const C_REQ: PortId = PortId(0);
const C_RESP: PortId = PortId(1);
const C_RX: PortId = PortId(2);
const C_TX: PortId = PortId(3);

enum Mode {
    Idle,
    /// Waiting for the home's reply to our GetS/Write.
    Waiting {
        addr: u64,
        tag: u64,
        write: bool,
        data: u64,
        clobbered: bool,
    },
}

/// The directory-protocol cache module. Construct with [`dir_cache`].
pub struct DirCache {
    my_node: u32,
    home: u32,
    capacity: usize,
    lines: HashMap<u64, u64>,
    order: Vec<u64>,
    mode: Mode,
    ready: Option<MemResp>,
    /// Outgoing protocol messages (requests and InvAcks), one per cycle.
    outbox: VecDeque<CoherenceMsg>,
    next_id: u64,
}

impl DirCache {
    fn insert(&mut self, addr: u64, data: u64) {
        if !self.lines.contains_key(&addr) {
            if self.lines.len() >= self.capacity {
                if let Some(victim) = self.order.first().copied() {
                    self.lines.remove(&victim);
                    self.order.remove(0);
                }
            }
            self.order.push(addr);
        }
        self.lines.insert(addr, data);
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        if self.lines.remove(&addr).is_some() {
            self.order.retain(|&a| a != addr);
            true
        } else {
            false
        }
    }
}

impl Module for DirCache {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(C_RX, 0, true)?;
        match &self.ready {
            Some(r) => ctx.send(C_RESP, 0, Value::wrap(r.clone()))?,
            None => ctx.send_nothing(C_RESP, 0)?,
        }
        match self.outbox.front() {
            Some(msg) => ctx.send(
                C_TX,
                0,
                coherence_packet(self.my_node, self.home, *msg, self.next_id),
            )?,
            None => ctx.send_nothing(C_TX, 0)?,
        }
        ctx.set_ack(
            C_REQ,
            0,
            matches!(self.mode, Mode::Idle) && self.ready.is_none(),
        )?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(C_RESP, 0) {
            self.ready = None;
        }
        if ctx.transferred_out(C_TX, 0) {
            self.next_id += 1;
            let msg = self.outbox.pop_front().expect("sending implies outbox");
            match msg {
                CoherenceMsg::GetS { addr, tag } => {
                    self.mode = Mode::Waiting {
                        addr,
                        tag,
                        write: false,
                        data: 0,
                        clobbered: false,
                    };
                }
                CoherenceMsg::Write { addr, tag, data } => {
                    self.mode = Mode::Waiting {
                        addr,
                        tag,
                        write: true,
                        data,
                        clobbered: false,
                    };
                }
                CoherenceMsg::InvAck { .. } => {}
                other => unreachable!("caches never send {other:?}"),
            }
        }
        if let Some(v) = ctx.transferred_in(C_RX, 0) {
            let (_src, msg) = unpack(&v)?;
            match msg {
                CoherenceMsg::Inv { addr } => {
                    if self.invalidate(addr) {
                        ctx.count("invalidations", 1);
                    }
                    if let Mode::Waiting {
                        addr: waddr,
                        clobbered,
                        write: false,
                        ..
                    } = &mut self.mode
                    {
                        if *waddr == addr {
                            *clobbered = true;
                        }
                    }
                    self.outbox.push_back(CoherenceMsg::InvAck { addr });
                }
                CoherenceMsg::Data { addr, value, tag } => {
                    if let Mode::Waiting {
                        tag: wtag,
                        clobbered,
                        ..
                    } = &self.mode
                    {
                        debug_assert_eq!(tag, *wtag);
                        if !clobbered {
                            self.insert(addr, value);
                        }
                        self.ready = Some(MemResp { tag, data: value });
                        self.mode = Mode::Idle;
                    }
                }
                CoherenceMsg::WriteAck { tag } => {
                    if let Mode::Waiting {
                        addr,
                        data,
                        write: true,
                        ..
                    } = &self.mode
                    {
                        // The write serialized at the home; our copy is
                        // now the current value.
                        let (addr, data) = (*addr, *data);
                        self.insert(addr, data);
                        self.ready = Some(MemResp { tag, data });
                        self.mode = Mode::Idle;
                    }
                }
                other => {
                    return Err(SimError::model(format!(
                        "dir_cache: unexpected message {other:?}"
                    )))
                }
            }
        }
        if let Some(v) = ctx.transferred_in(C_REQ, 0) {
            let r = v.downcast_ref::<MemReq>().cloned().ok_or_else(|| {
                SimError::type_err(format!("dir_cache: expected MemReq, got {}", v.kind()))
            })?;
            if r.write {
                ctx.count("store_txns", 1);
                self.outbox.push_back(CoherenceMsg::Write {
                    addr: r.addr,
                    data: r.data,
                    tag: r.tag,
                });
                // Block further CPU requests until the reply (Mode flips
                // to Waiting when the message leaves).
                self.mode = Mode::Waiting {
                    addr: r.addr,
                    tag: r.tag,
                    write: true,
                    data: r.data,
                    clobbered: false,
                };
            } else if let Some(&word) = self.lines.get(&r.addr) {
                ctx.count("load_hits", 1);
                self.ready = Some(MemResp {
                    tag: r.tag,
                    data: word,
                });
            } else {
                ctx.count("load_misses", 1);
                self.outbox.push_back(CoherenceMsg::GetS {
                    addr: r.addr,
                    tag: r.tag,
                });
                self.mode = Mode::Waiting {
                    addr: r.addr,
                    tag: r.tag,
                    write: false,
                    data: 0,
                    clobbered: false,
                };
            }
        }
        Ok(())
    }
}

const DIR_CACHE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "dir_cache",
    &[
        PortSpec::input("req", 0, 1),
        PortSpec::output("resp", 0, 1),
        PortSpec::input("net_rx", 1, 1),
        PortSpec::output("net_tx", 1, 1),
    ],
);

/// Construct a directory-protocol cache for fabric node `my_node`, with
/// its home directory at fabric node `home`.
pub fn dir_cache(my_node: u32, home: u32, capacity: usize) -> Instantiated {
    (
        DIR_CACHE_SPEC,
        Box::new(DirCache {
            my_node,
            home,
            capacity: capacity.max(1),
            lines: HashMap::new(),
            order: Vec::new(),
            mode: Mode::Idle,
            ready: None,
            outbox: VecDeque::new(),
            next_id: 0,
        }),
    )
}
