//! The snooping coherent cache — a "pluggable cache coherence controller"
//! (paper §3.4) implementing a write-through invalidate protocol.
//!
//! Protocol (two stable states per line, Valid/Invalid):
//! * load hit → respond from the line;
//! * load miss → `BusRd`; install the returned word; Valid;
//! * store → `BusWr` (write-through); update own line if present; every
//!   *other* cache snooping the `BusWr` invalidates its copy.
//!
//! Coherence invariants (checked by the property tests): memory is always
//! current, and no cache ever holds a value that differs from memory's
//! at snoop-order time — the single-writer/multiple-reader discipline is
//! enforced by bus serialization.
//!
//! Lines here are single words: the protocol is the point, not spatial
//! locality (the UPL `cache` covers that; plugging it *under* this module
//! would add a private L2).
//!
//! ## Ports
//! * `req` (in, 1) / `resp` (out, 1): CPU side (MemReq/MemResp).
//! * `breq` (out, 1) / `bresp` (in, 1): bus side.
//! * `snoop` (in, 1): bus broadcast.

use crate::bus::BusMsg;
use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};
use std::collections::HashMap;

const P_REQ: PortId = PortId(0);
const P_RESP: PortId = PortId(1);
const P_BREQ: PortId = PortId(2);
const P_BRESP: PortId = PortId(3);
const P_SNOOP: PortId = PortId(4);

enum Mode {
    Idle,
    /// Waiting for the bus to grant and answer our transaction.
    /// `clobbered` is set when another cache's write to the same address
    /// serializes while we wait — installing our value then would be
    /// stale.
    Waiting {
        orig: MemReq,
        clobbered: bool,
    },
}

/// The snooping cache module. Construct with [`snoop_cache`].
pub struct SnoopCache {
    my_id: u32,
    capacity: usize,
    /// Valid lines: addr -> word. Bounded by `capacity` (random-ish
    /// eviction: the oldest inserted goes first via insertion order).
    lines: HashMap<u64, u64>,
    order: Vec<u64>,
    mode: Mode,
    ready: Option<MemResp>,
}

impl SnoopCache {
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

impl Module for SnoopCache {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_SNOOP, 0, true)?;
        ctx.set_ack(P_BRESP, 0, true)?;
        // CPU-side response.
        match &self.ready {
            Some(r) => ctx.send(P_RESP, 0, Value::wrap(r.clone()))?,
            None => ctx.send_nothing(P_RESP, 0)?,
        }
        match &self.mode {
            Mode::Idle => {
                ctx.send_nothing(P_BREQ, 0)?;
                // Accept a new CPU request when idle and the response
                // register is free.
                ctx.set_ack(P_REQ, 0, self.ready.is_none())?;
            }
            Mode::Waiting { orig, .. } => {
                ctx.set_ack(P_REQ, 0, false)?;
                // Keep the bus request asserted until granted.
                ctx.send(
                    P_BREQ,
                    0,
                    Value::wrap(BusMsg {
                        write: orig.write,
                        addr: orig.addr,
                        data: orig.data,
                        src: self.my_id,
                        tag: orig.tag,
                    }),
                )?;
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_RESP, 0) {
            self.ready = None;
        }
        // Snoop: the bus broadcast is the serialization point. Our own
        // write becomes locally visible here; another cache's write
        // invalidates our copy and clobbers any in-flight fill of the
        // same address.
        if let Some(v) = ctx.transferred_in(P_SNOOP, 0) {
            let m = v.downcast_ref::<BusMsg>().ok_or_else(|| {
                SimError::type_err(format!("snoop_cache: expected BusMsg, got {}", v.kind()))
            })?;
            if m.write {
                if m.src == self.my_id {
                    self.insert(m.addr, m.data);
                } else {
                    if self.invalidate(m.addr) {
                        ctx.count("invalidations", 1);
                    }
                    if let Mode::Waiting { orig, clobbered } = &mut self.mode {
                        if orig.addr == m.addr {
                            *clobbered = true;
                        }
                    }
                }
            }
        }
        // Bus response completes the outstanding transaction.
        if let Some(v) = ctx.transferred_in(P_BRESP, 0) {
            let r = v.downcast_ref::<MemResp>().ok_or_else(|| {
                SimError::type_err(format!("snoop_cache: expected MemResp, got {}", v.kind()))
            })?;
            if let Mode::Waiting { orig, clobbered } = &self.mode {
                debug_assert_eq!(r.tag, orig.tag);
                if !orig.write && !*clobbered {
                    self.insert(orig.addr, r.data);
                }
                self.ready = Some(r.clone());
                self.mode = Mode::Idle;
            }
        }
        // New CPU request.
        if let Some(v) = ctx.transferred_in(P_REQ, 0) {
            let r = v.downcast_ref::<MemReq>().cloned().ok_or_else(|| {
                SimError::type_err(format!("snoop_cache: expected MemReq, got {}", v.kind()))
            })?;
            if r.write {
                ctx.count("store_txns", 1);
                self.mode = Mode::Waiting {
                    orig: r,
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
                self.mode = Mode::Waiting {
                    orig: r,
                    clobbered: false,
                };
            }
        }
        Ok(())
    }
}

const SNOOP_CACHE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "snoop_cache",
    &[
        PortSpec::input("req", 0, 1),
        PortSpec::output("resp", 0, 1),
        PortSpec::output("breq", 1, 1),
        PortSpec::input("bresp", 1, 1),
        PortSpec::input("snoop", 1, 1),
    ],
);

/// Construct a snooping cache. Parameters: `id` (required: this cache's
/// `req` connection index on the bus), `capacity` (lines, default 64).
pub fn snoop_cache(params: &Params) -> Result<Instantiated, SimError> {
    let my_id = params.require_int("id")? as u32;
    let capacity = params.usize_or("capacity", 64)?.max(1);
    Ok((
        SNOOP_CACHE_SPEC,
        Box::new(SnoopCache {
            my_id,
            capacity,
            lines: HashMap::new(),
            order: Vec::new(),
            mode: Mode::Idle,
            ready: None,
        }),
    ))
}
