//! Pluggable memory-ordering controller (paper §3.4: "pluggable memory
//! ordering controllers to restrict the reordering allowed by the
//! processor according to desired constraints").
//!
//! Sits between a CPU-side MemReq producer and the coherent memory
//! hierarchy. The *policy* is an algorithmic parameter:
//!
//! * `"sc"` — sequential consistency: every access issues and completes
//!   in order, one at a time.
//! * `"tso"` — total store order: stores complete immediately into a
//!   FIFO store buffer; loads check the store buffer first (forwarding)
//!   and may bypass pending stores; buffered stores drain to memory in
//!   order.
//! * `"rc"` — release-consistency approximation: as TSO, plus stores to
//!   the same address coalesce in the buffer.
//!
//! ## Ports
//! * `cpu_req` (in, 1) / `cpu_resp` (out, 1): CPU side.
//! * `mem_req` (out, 1) / `mem_resp` (in, 1): memory side.

use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};
use std::collections::VecDeque;

const P_CREQ: PortId = PortId(0);
const P_CRESP: PortId = PortId(1);
const P_MREQ: PortId = PortId(2);
const P_MRESP: PortId = PortId(3);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Policy {
    Sc,
    Tso,
    Rc,
}

/// The single request occupying the memory port.
struct Inflight {
    req: MemReq,
    sent: bool,
    /// True for a store-buffer drain (no CPU response owed).
    drain: bool,
}

/// The ordering controller. Construct with [`order_ctl`].
pub struct OrderCtl {
    policy: Policy,
    depth: usize,
    store_buf: VecDeque<MemReq>,
    inflight: Option<Inflight>,
    ready: Option<MemResp>,
}

impl OrderCtl {
    /// Store-buffer forwarding: youngest matching store wins; the
    /// draining store still counts (it has not completed in memory).
    fn forward(&self, addr: u64) -> Option<u64> {
        self.store_buf
            .iter()
            .rev()
            .find(|s| s.addr == addr)
            .map(|s| s.data)
            .or_else(|| {
                self.inflight
                    .as_ref()
                    .filter(|i| i.drain && i.req.addr == addr)
                    .map(|i| i.req.data)
            })
    }

    /// Can the offered CPU request be accepted this cycle?
    fn can_accept(&self, r: &MemReq) -> bool {
        if self.ready.is_some() {
            return false;
        }
        match (self.policy, r.write) {
            (Policy::Sc, _) => self.inflight.is_none(),
            (_, true) => self.store_buf.len() < self.depth,
            (_, false) => self.forward(r.addr).is_some() || self.inflight.is_none(),
        }
    }
}

impl Module for OrderCtl {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_MRESP, 0, true)?;
        match &self.ready {
            Some(r) => ctx.send(P_CRESP, 0, Value::wrap(r.clone()))?,
            None => ctx.send_nothing(P_CRESP, 0)?,
        }
        match &self.inflight {
            Some(i) if !i.sent => ctx.send(P_MREQ, 0, Value::wrap(i.req.clone()))?,
            _ => ctx.send_nothing(P_MREQ, 0)?,
        }
        match ctx.data(P_CREQ, 0) {
            Res::Unknown => Ok(()),
            Res::No => ctx.set_ack(P_CREQ, 0, true),
            Res::Yes(v) => {
                let r = v.downcast_ref::<MemReq>().ok_or_else(|| {
                    SimError::type_err(format!("order_ctl: expected MemReq, got {}", v.kind()))
                })?;
                ctx.set_ack(P_CREQ, 0, self.can_accept(r))
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_CRESP, 0) {
            self.ready = None;
        }
        if ctx.transferred_out(P_MREQ, 0) {
            if let Some(i) = &mut self.inflight {
                i.sent = true;
            }
        }
        if let Some(v) = ctx.transferred_in(P_MRESP, 0) {
            let r = v.downcast_ref::<MemResp>().cloned().ok_or_else(|| {
                SimError::type_err(format!("order_ctl: expected MemResp, got {}", v.kind()))
            })?;
            let i = self.inflight.take().ok_or_else(|| {
                SimError::model("order_ctl: response with nothing in flight".to_owned())
            })?;
            debug_assert_eq!(r.tag, i.req.tag);
            if i.drain {
                ctx.count("stores_drained", 1);
            } else {
                self.ready = Some(r);
                ctx.count(
                    if i.req.write {
                        "stores_completed"
                    } else {
                        "loads_completed"
                    },
                    1,
                );
            }
        }
        if let Some(v) = ctx.transferred_in(P_CREQ, 0) {
            let r = v.downcast_ref::<MemReq>().cloned().ok_or_else(|| {
                SimError::type_err(format!("order_ctl: expected MemReq, got {}", v.kind()))
            })?;
            match (self.policy, r.write) {
                (Policy::Sc, _) => {
                    self.inflight = Some(Inflight {
                        req: r,
                        sent: false,
                        drain: false,
                    });
                }
                (_, true) => {
                    ctx.count("stores_buffered", 1);
                    self.ready = Some(MemResp {
                        tag: r.tag,
                        data: r.data,
                    });
                    if self.policy == Policy::Rc {
                        if let Some(e) = self.store_buf.iter_mut().find(|e| e.addr == r.addr) {
                            e.data = r.data;
                            ctx.count("stores_coalesced", 1);
                            return Ok(());
                        }
                    }
                    self.store_buf.push_back(r);
                }
                (_, false) => {
                    if let Some(d) = self.forward(r.addr) {
                        ctx.count("forwarded_loads", 1);
                        self.ready = Some(MemResp {
                            tag: r.tag,
                            data: d,
                        });
                    } else {
                        self.inflight = Some(Inflight {
                            req: r,
                            sent: false,
                            drain: false,
                        });
                    }
                }
            }
        }
        // Start a drain when the port is free.
        if self.inflight.is_none() {
            if let Some(s) = self.store_buf.pop_front() {
                self.inflight = Some(Inflight {
                    req: s,
                    sent: false,
                    drain: true,
                });
            }
        }
        ctx.sample("store_buf_occupancy", self.store_buf.len() as f64);
        Ok(())
    }
}

const ORDER_CTL_SPEC: ModuleSpec = ModuleSpec::fixed(
    "order_ctl",
    &[
        PortSpec::input("cpu_req", 0, 1),
        PortSpec::output("cpu_resp", 0, 1),
        PortSpec::output("mem_req", 1, 1),
        PortSpec::input("mem_resp", 1, 1),
    ],
);

/// Construct an ordering controller. Parameters: `policy`
/// (= sc | tso | rc, default sc), `depth` (store-buffer entries,
/// default 8).
pub fn order_ctl(params: &Params) -> Result<Instantiated, SimError> {
    let policy = match params.str_or("policy", "sc")?.as_str() {
        "sc" => Policy::Sc,
        "tso" => Policy::Tso,
        "rc" => Policy::Rc,
        other => {
            return Err(SimError::param(format!(
                "order_ctl: unknown policy {other:?} (sc, tso, rc)"
            )))
        }
    };
    Ok((
        ORDER_CTL_SPEC,
        Box::new(OrderCtl {
            policy,
            depth: params.usize_or("depth", 8)?.max(1),
            store_buf: VecDeque::new(),
            inflight: None,
            ready: None,
        }),
    ))
}
