//! A PCI-like split-transaction bus: round-robin master arbitration,
//! address-windowed targets, and burst occupancy.
//!
//! The address space is divided into fixed windows: target connection `t`
//! owns `[t * window, (t + 1) * window)`. A burst of `n` words occupies
//! the bus for `n` cycles after the grant.
//!
//! ## Ports
//! * `mreq` (in, N) / `mresp` (out, N): masters submit [`PciTxn`]s and
//!   receive [`PciResp`]s.
//! * `treq` (out, M) / `tresp` (in, M): targets receive window-relative
//!   [`PciTxn`]s and answer [`PciResp`]s.

use liberty_core::prelude::*;
use liberty_pcl::memarray::SharedMem;
use std::collections::VecDeque;

const P_MREQ: PortId = PortId(0);
const P_MRESP: PortId = PortId(1);
const P_TREQ: PortId = PortId(2);
const P_TRESP: PortId = PortId(3);

/// A PCI transaction (possibly a burst).
#[derive(Clone, Debug, PartialEq)]
pub struct PciTxn {
    /// True for writes.
    pub write: bool,
    /// Start word address (absolute on the master side, window-relative
    /// on the target side).
    pub addr: u64,
    /// Write data (`len()` is the burst length); for reads, use
    /// [`PciTxn::read`] which encodes length in `read_len`.
    pub data: Vec<u64>,
    /// Read burst length.
    pub read_len: u32,
    /// Master tag echoed in the response.
    pub tag: u64,
}

/// Layout: `[write, addr, read_len, tag, n, data…]`, the data as
/// [`WordSink::words`].
impl Payload for PciTxn {
    const KIND: &'static str = "nil.PciTxn";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.write));
        out.word(self.addr);
        out.word(u64::from(self.read_len));
        out.word(self.tag);
        out.words(&self.data);
    }
}

impl PciTxn {
    /// A burst read transaction value.
    pub fn read(addr: u64, len: u32, tag: u64) -> Value {
        Value::wrap(PciTxn {
            write: false,
            addr,
            data: Vec::new(),
            read_len: len,
            tag,
        })
    }

    /// A burst write transaction value.
    pub fn write(addr: u64, data: Vec<u64>, tag: u64) -> Value {
        Value::wrap(PciTxn {
            write: true,
            addr,
            data,
            read_len: 0,
            tag,
        })
    }

    /// Burst length in words.
    pub fn burst_len(&self) -> u32 {
        if self.write {
            self.data.len() as u32
        } else {
            self.read_len
        }
    }
}

/// A PCI response.
#[derive(Clone, Debug, PartialEq)]
pub struct PciResp {
    /// Echo of the transaction tag.
    pub tag: u64,
    /// Read data (empty for writes).
    pub data: Vec<u64>,
}

/// Layout: `[tag, n, data…]`, the data as [`WordSink::words`].
impl Payload for PciResp {
    const KIND: &'static str = "nil.PciResp";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.tag);
        out.words(&self.data);
    }
}

struct InFlight {
    master: usize,
    target: usize,
    sent: bool,
}

/// The PCI bus module. Construct with [`pci_bus`].
pub struct PciBus {
    window: u64,
    rr: usize,
    /// Bus busy (burst occupancy) until this time-step.
    busy_until: u64,
    inflight: Option<InFlight>,
    /// Responses ready per master.
    ready: Vec<VecDeque<PciResp>>,
    /// Granted transaction awaiting forwarding to its target:
    /// `(target index, window-relative transaction)`.
    pending_fwd: Option<(usize, Value)>,
}

impl Module for PciBus {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_MREQ);
        let m = ctx.width(P_TREQ);
        for t in 0..ctx.width(P_TRESP) {
            ctx.set_ack(P_TRESP, t, true)?;
        }
        for i in 0..ctx.width(P_MRESP) {
            match self.ready.get(i).and_then(|q| q.front()) {
                Some(r) => ctx.send(P_MRESP, i, Value::wrap(r.clone()))?,
                None => ctx.send_nothing(P_MRESP, i)?,
            }
        }
        // Forward the granted transaction (stored window-relative at
        // grant time) to its target.
        for t in 0..m {
            match &self.pending_fwd {
                Some((tt, v)) if *tt == t => ctx.send(P_TREQ, t, v.clone())?,
                _ => ctx.send_nothing(P_TREQ, t)?,
            }
        }
        // Arbitration: wait for all masters; grant one when bus free.
        let free = ctx.now() >= self.busy_until && self.inflight.is_none();
        let mut present = Vec::with_capacity(n);
        for i in 0..n {
            match ctx.data(P_MREQ, i) {
                Res::Unknown => return Ok(()),
                Res::No => present.push(false),
                Res::Yes(_) => present.push(true),
            }
        }
        let winner = if free {
            (0..n)
                .filter(|&i| present[i])
                .min_by_key(|&i| (i + n - self.rr % n.max(1)) % n)
        } else {
            None
        };
        for (i, &p) in present.iter().enumerate() {
            ctx.set_ack(P_MREQ, i, winner == Some(i) || !p)?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_MREQ);
        if self.ready.len() < n {
            self.ready.resize_with(n, VecDeque::new);
        }
        for i in 0..ctx.width(P_MRESP) {
            if ctx.transferred_out(P_MRESP, i) {
                self.ready[i].pop_front();
            }
        }
        // Forwarded to target?
        if let Some((t, _)) = &self.pending_fwd {
            if ctx.transferred_out(P_TREQ, *t) {
                if let Some(f) = &mut self.inflight {
                    f.sent = true;
                }
                self.pending_fwd = None;
            }
        }
        // Target response completes the transaction.
        for t in 0..ctx.width(P_TRESP) {
            if let Some(v) = ctx.transferred_in(P_TRESP, t) {
                let r = v.downcast_ref::<PciResp>().cloned().ok_or_else(|| {
                    SimError::type_err(format!("pci_bus: expected PciResp, got {}", v.kind()))
                })?;
                let f = self.inflight.take().ok_or_else(|| {
                    SimError::model("pci_bus: response with no transaction in flight".to_owned())
                })?;
                debug_assert_eq!(f.target, t);
                self.ready[f.master].push_back(r);
                ctx.count("completed", 1);
            }
        }
        // New grant.
        for i in 0..n {
            if let Some(v) = ctx.transferred_in(P_MREQ, i) {
                let txn = v.downcast_ref::<PciTxn>().cloned().ok_or_else(|| {
                    SimError::type_err(format!("pci_bus: expected PciTxn, got {}", v.kind()))
                })?;
                let target = (txn.addr / self.window) as usize;
                if target >= ctx.width(P_TREQ) {
                    return Err(SimError::model(format!(
                        "pci_bus: address {:#x} maps to target {target}, only {} connected",
                        txn.addr,
                        ctx.width(P_TREQ)
                    )));
                }
                let burst = u64::from(txn.burst_len().max(1));
                self.busy_until = ctx.now() + burst;
                let rel_addr = txn.addr % self.window;
                let rel = PciTxn {
                    addr: rel_addr,
                    ..txn
                };
                self.pending_fwd = Some((target, Value::wrap(rel)));
                self.inflight = Some(InFlight {
                    master: i,
                    target,
                    sent: false,
                });
                self.rr = (i + 1) % n.max(1);
                ctx.count("grants", 1);
                ctx.count("burst_words", burst);
            }
        }
        Ok(())
    }
}

const PCI_BUS_SPEC: ModuleSpec = ModuleSpec::fixed(
    "pci_bus",
    &[
        PortSpec::input("mreq", 0, u32::MAX),
        PortSpec::output("mresp", 0, u32::MAX),
        PortSpec::output("treq", 0, u32::MAX),
        PortSpec::input("tresp", 0, u32::MAX),
    ],
);

/// Construct a PCI bus. Parameters: `window` (words per target window,
/// default 1 &lt;&lt; 20).
pub fn pci_bus(params: &Params) -> Result<Instantiated, SimError> {
    let window = params.int_or("window", 1 << 20)? as u64;
    if window == 0 {
        return Err(SimError::param("pci_bus: window must be >= 1"));
    }
    Ok((
        PCI_BUS_SPEC,
        Box::new(PciBus {
            window,
            rr: 0,
            busy_until: 0,
            inflight: None,
            ready: Vec::new(),
            pending_fwd: None,
        }),
    ))
}

/// A burst-capable memory exposed as a PCI target.
pub struct PciMem {
    words: SharedMem,
    latency: u64,
    pending: Option<(u64, PciResp)>,
}

const PM_REQ: PortId = PortId(0);
const PM_RESP: PortId = PortId(1);

impl Module for PciMem {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.pending {
            Some((due, r)) if *due <= ctx.now() => ctx.send(PM_RESP, 0, Value::wrap(r.clone()))?,
            _ => ctx.send_nothing(PM_RESP, 0)?,
        }
        ctx.set_ack(PM_REQ, 0, self.pending.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(PM_RESP, 0) {
            self.pending = None;
        }
        if let Some(v) = ctx.transferred_in(PM_REQ, 0) {
            let t = v.downcast_ref::<PciTxn>().ok_or_else(|| {
                SimError::type_err(format!("pci_mem: expected PciTxn, got {}", v.kind()))
            })?;
            let mut w = self.words.lock();
            let len = w.len();
            let data = if t.write {
                for (i, d) in t.data.iter().enumerate() {
                    w[(t.addr as usize + i) % len] = *d;
                }
                ctx.count("writes", t.data.len() as u64);
                Vec::new()
            } else {
                ctx.count("reads", u64::from(t.read_len));
                (0..t.read_len)
                    .map(|i| w[(t.addr as usize + i as usize) % len])
                    .collect()
            };
            let burst = u64::from(t.burst_len().max(1));
            self.pending = Some((
                ctx.now() + self.latency + burst,
                PciResp { tag: t.tag, data },
            ));
        }
        Ok(())
    }
}

const PCI_MEM_SPEC: ModuleSpec = ModuleSpec::fixed(
    "pci_mem",
    &[PortSpec::input("req", 1, 1), PortSpec::output("resp", 1, 1)],
);

/// Construct a PCI memory target. Parameters: `words` (default 1 &lt;&lt; 16),
/// `latency` (default 3). Returns the observable storage handle.
pub fn pci_mem(params: &Params) -> Result<(ModuleSpec, Box<dyn Module>, SharedMem), SimError> {
    let words = params.usize_or("words", 1 << 16)?;
    if words == 0 {
        return Err(SimError::param("pci_mem: words must be >= 1"));
    }
    let latency = params.usize_or("latency", 3)? as u64;
    let handle: SharedMem = std::sync::Arc::new(parking_lot::Mutex::new(vec![0; words]));
    Ok((
        PCI_MEM_SPEC,
        Box::new(PciMem {
            words: handle.clone(),
            latency,
            pending: None,
        }),
        handle,
    ))
}
