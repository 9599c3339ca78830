//! The snooping coherence bus: the serialization point of a bus-based
//! shared-memory multiprocessor (paper §3.4, "bus-based snooping for small
//! scale multiprocessors").
//!
//! One transaction is granted per cycle (round-robin among requesting
//! caches); the granted transaction is broadcast on every `snoop`
//! connection the *next* cycle, and memory answers the requester after
//! `latency` cycles. Memory is updated at grant time (write-through
//! protocol), so it is always current.
//!
//! ## Ports
//! * `req` (in, N): [`BusMsg`] per cache.
//! * `resp` (out, N): [`liberty_pcl::memarray::MemResp`] per cache.
//! * `snoop` (out, N): broadcast of every granted transaction.

use liberty_core::prelude::*;
use liberty_pcl::memarray::MemResp;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

const P_REQ: PortId = PortId(0);
const P_RESP: PortId = PortId(1);
const P_SNOOP: PortId = PortId(2);

/// One bus transaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusMsg {
    /// True for a write (update memory, invalidate sharers).
    pub write: bool,
    /// Word address.
    pub addr: u64,
    /// Write data.
    pub data: u64,
    /// Requesting cache index (its `req` connection).
    pub src: u32,
    /// Request tag echoed in the response.
    pub tag: u64,
}

/// Layout: `[write, addr, data, src, tag]`.
impl Payload for BusMsg {
    const KIND: &'static str = "mpl.BusMsg";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.write));
        out.word(self.addr);
        out.word(self.data);
        out.word(u64::from(self.src));
        out.word(self.tag);
    }
}

/// Shared, observable backing memory.
pub type SharedMem = Arc<Mutex<Vec<u64>>>;

/// The snoop bus module. Construct with [`snoop_bus`].
pub struct SnoopBus {
    mem: SharedMem,
    latency: u64,
    rr: usize,
    /// Transaction granted last cycle, broadcast this cycle.
    snooping: Option<BusMsg>,
    /// Pending responses per requester connection.
    pending: Vec<VecDeque<(u64, MemResp)>>,
    /// Scratch, rebuilt by every `react` (so not state): which request
    /// wires carry a request this step.
    present: Vec<bool>,
}

impl SnoopBus {
    fn winner(&self, present: &[bool]) -> Option<usize> {
        let n = present.len();
        (0..n)
            .filter(|&i| present[i])
            .min_by_key(|&i| (i + n - self.rr % n.max(1)) % n)
    }
}

impl Module for SnoopBus {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_REQ);
        // Broadcast last cycle's grant on every snoop connection.
        for j in 0..ctx.width(P_SNOOP) {
            match &self.snooping {
                Some(m) => ctx.send(P_SNOOP, j, Value::wrap(*m))?,
                None => ctx.send_nothing(P_SNOOP, j)?,
            }
        }
        // Due responses.
        for i in 0..ctx.width(P_RESP) {
            match self.pending.get(i).and_then(|q| q.front()) {
                Some((due, r)) if *due <= ctx.now() => {
                    ctx.send(P_RESP, i, Value::wrap(r.clone()))?
                }
                _ => ctx.send_nothing(P_RESP, i)?,
            }
        }
        // Round-robin grant: need every request wire resolved.
        self.present.clear();
        for i in 0..n {
            self.present.push(match ctx.data(P_REQ, i) {
                Res::Unknown => return Ok(()),
                Res::No => false,
                Res::Yes(_) => true,
            });
        }
        let w = self.winner(&self.present);
        for (i, &p) in self.present.iter().enumerate() {
            ctx.set_ack(P_REQ, i, Some(i) == w || !p)?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_REQ);
        if self.pending.len() < n {
            self.pending.resize_with(n, VecDeque::new);
        }
        for i in 0..ctx.width(P_RESP) {
            if ctx.transferred_out(P_RESP, i) {
                self.pending[i].pop_front();
            }
        }
        self.snooping = None;
        for i in 0..n {
            if let Some(v) = ctx.transferred_in(P_REQ, i) {
                let m = *v.downcast_ref::<BusMsg>().ok_or_else(|| {
                    SimError::type_err(format!("snoop_bus: expected BusMsg, got {}", v.kind()))
                })?;
                let mut mem = self.mem.lock();
                let idx = (m.addr as usize) % mem.len();
                let data = if m.write {
                    mem[idx] = m.data;
                    ctx.count("writes", 1);
                    m.data
                } else {
                    ctx.count("reads", 1);
                    mem[idx]
                };
                drop(mem);
                self.pending[i].push_back((ctx.now() + self.latency, MemResp { tag: m.tag, data }));
                self.snooping = Some(m);
                self.rr = (i + 1) % n.max(1);
                ctx.count("grants", 1);
            }
        }
        Ok(())
    }
}

const SNOOP_BUS_SPEC: ModuleSpec = ModuleSpec::fixed(
    "snoop_bus",
    &[
        PortSpec::input("req", 0, u32::MAX),
        PortSpec::output("resp", 0, u32::MAX),
        PortSpec::output("snoop", 0, u32::MAX),
    ],
);

/// Construct a snoop bus. Parameters: `words` (memory size, default
/// 4096), `latency` (default 4). Returns the shared memory handle.
pub fn snoop_bus(params: &Params) -> Result<(ModuleSpec, Box<dyn Module>, SharedMem), SimError> {
    let words = params.usize_or("words", 4096)?;
    if words == 0 {
        return Err(SimError::param("snoop_bus: words must be >= 1"));
    }
    let latency = params.usize_or("latency", 4)? as u64;
    let mem: SharedMem = Arc::new(Mutex::new(vec![0; words]));
    Ok((
        SNOOP_BUS_SPEC,
        Box::new(SnoopBus {
            mem: mem.clone(),
            latency,
            rr: 0,
            snooping: None,
            pending: Vec::new(),
            present: Vec::new(),
        }),
        mem,
    ))
}
