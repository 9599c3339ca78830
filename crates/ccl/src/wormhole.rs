//! Flit-level wormhole switching — the granularity Orion models (§3.3).
//!
//! Packets are segmented into flits by a [`packetizer`]; a
//! [`wormhole_switch`] routes the head flit and then *locks* the chosen
//! output to that input until the tail flit passes (so a packet's flits
//! are contiguous on every link, at the cost of head-of-line blocking —
//! the classic wormhole trade). A [`depacketizer`] reassembles packets at
//! the destination. On a mesh with XY routing the flit-level fabric is
//! deadlock-free like its packet-level sibling.
//!
//! The router composition mirrors [`crate::router`]: per-input PCL queues
//! feed the switch; per-output registers form the switch-traversal stage.
//! Only the switch itself is new — everything else is reuse.

use crate::packet::Packet;
use crate::route::RouteKind;
use liberty_core::prelude::*;
use liberty_pcl::queue::queue;
use liberty_pcl::register::reg;

/// Flit position within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit (carries routing info).
    Head,
    /// Middle flit.
    Body,
    /// Last flit (releases the wormhole).
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

/// One flit.
#[derive(Clone, Debug, PartialEq)]
pub struct Flit {
    /// Originating node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Packet id at the source (for reassembly checks).
    pub pkt_id: u64,
    /// Position in the packet.
    pub kind: FlitKind,
    /// Flit index within the packet.
    pub index: u32,
    /// The whole packet, carried on the tail (models payload transport
    /// without duplicating it on every flit).
    pub packet: Option<Packet>,
}

/// Layout: `[src, dst, pkt_id, kind, index, packet?]`. `kind` counts
/// `Head` 0, `Body` 1, `Tail` 2, `HeadTail` 3; `packet?` is `0`, or `1`
/// then the packet's own words inline ([`Packet`]'s layout).
impl Payload for Flit {
    const KIND: &'static str = "ccl.Flit";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.src));
        out.word(u64::from(self.dst));
        out.word(self.pkt_id);
        out.word(self.kind as u64);
        out.word(u64::from(self.index));
        match &self.packet {
            None => out.word(0),
            Some(p) => {
                out.word(1);
                p.encode(out);
            }
        }
    }
}

impl Flit {
    fn from_value(v: &Value) -> Result<&Flit, SimError> {
        v.downcast_ref::<Flit>()
            .ok_or_else(|| SimError::type_err(format!("expected Flit, got {}", v.kind())))
    }
}

// ---------------------------------------------------------------------
// Packetizer / depacketizer.
// ---------------------------------------------------------------------

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Packetizer {
    current: Option<(Packet, u32)>, // packet, next flit index
}

impl Module for Packetizer {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.current {
            Some((p, i)) => {
                let n = p.flits.max(1);
                let kind = match (n, *i) {
                    (1, _) => FlitKind::HeadTail,
                    (_, 0) => FlitKind::Head,
                    (n, i) if i + 1 == n => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let is_last = *i + 1 == n;
                ctx.send(
                    P_OUT,
                    0,
                    Value::wrap(Flit {
                        src: p.src,
                        dst: p.dst,
                        pkt_id: p.id,
                        kind,
                        index: *i,
                        packet: is_last.then(|| p.clone()),
                    }),
                )?;
                ctx.set_ack(P_IN, 0, false)?;
            }
            None => {
                ctx.send_nothing(P_OUT, 0)?;
                ctx.set_ack(P_IN, 0, true)?;
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            let (p, i) = self.current.take().expect("sending implies packet");
            if i + 1 < p.flits.max(1) {
                self.current = Some((p, i + 1));
            } else {
                ctx.count("packets_segmented", 1);
            }
            ctx.count("flits_out", 1);
        }
        if let Some(v) = ctx.transferred_in(P_IN, 0) {
            let p = Packet::from_value(&v)?.clone();
            self.current = Some((p, 0));
        }
        Ok(())
    }
}

const PACKETIZER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "packetizer",
    &[PortSpec::input("in", 1, 1), PortSpec::output("out", 1, 1)],
);

/// Segment packets into flit streams.
pub fn packetizer() -> Instantiated {
    (PACKETIZER_SPEC, Box::new(Packetizer { current: None }))
}

struct Depacketizer {
    /// Flits seen of the in-progress packet (wormhole guarantees
    /// contiguity on a link, so one in-progress packet suffices).
    in_progress: u32,
    expected: Option<(u64, u32)>, // (pkt_id, src)
    ready: Option<Packet>,
}

impl Module for Depacketizer {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.ready {
            Some(p) => ctx.send(P_OUT, 0, p.clone().into_value())?,
            None => ctx.send_nothing(P_OUT, 0)?,
        }
        // Accept flits unless a completed packet is still waiting.
        ctx.set_ack(P_IN, 0, self.ready.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.ready = None;
        }
        if let Some(v) = ctx.transferred_in(P_IN, 0) {
            let f = Flit::from_value(&v)?;
            match f.kind {
                FlitKind::Head => {
                    if self.expected.is_some() {
                        return Err(SimError::model(
                            "depacketizer: interleaved packets on one link".to_owned(),
                        ));
                    }
                    self.expected = Some((f.pkt_id, f.src));
                    self.in_progress = 1;
                }
                FlitKind::Body => {
                    if self.expected != Some((f.pkt_id, f.src)) {
                        return Err(SimError::model(
                            "depacketizer: body flit without matching head".to_owned(),
                        ));
                    }
                    self.in_progress += 1;
                }
                FlitKind::Tail | FlitKind::HeadTail => {
                    if f.kind == FlitKind::Tail && self.expected != Some((f.pkt_id, f.src)) {
                        return Err(SimError::model(
                            "depacketizer: tail flit without matching head".to_owned(),
                        ));
                    }
                    let p = f.packet.clone().ok_or_else(|| {
                        SimError::model("depacketizer: tail without packet payload".to_owned())
                    })?;
                    let seen = if f.kind == FlitKind::HeadTail {
                        1
                    } else {
                        self.in_progress + 1
                    };
                    if seen != p.flits.max(1) {
                        return Err(SimError::model(format!(
                            "depacketizer: packet {} reassembled from {} of {} flits",
                            p.id,
                            seen,
                            p.flits.max(1)
                        )));
                    }
                    self.expected = None;
                    self.in_progress = 0;
                    self.ready = Some(p);
                    ctx.count("packets_reassembled", 1);
                }
            }
            ctx.count("flits_in", 1);
        }
        Ok(())
    }
}

const DEPACKETIZER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "depacketizer",
    &[PortSpec::input("in", 1, 1), PortSpec::output("out", 1, 1)],
);

/// Reassemble flit streams into packets (verifying flit accounting).
pub fn depacketizer() -> Instantiated {
    (
        DEPACKETIZER_SPEC,
        Box::new(Depacketizer {
            in_progress: 0,
            expected: None,
            ready: None,
        }),
    )
}

// ---------------------------------------------------------------------
// The wormhole switch.
// ---------------------------------------------------------------------

struct WormholeSwitch {
    kind: RouteKind,
    /// Per input: the output this input's packet currently owns.
    in_route: Vec<Option<u32>>,
    /// Per output: the input currently owning it.
    out_owner: Vec<Option<usize>>,
    /// Per output round-robin pointer for head arbitration.
    rr: Vec<usize>,
}

/// Per-input desired `(output, flit kind)`; outer `None` = an input is
/// still unresolved this pass.
type Desires = Option<Vec<Option<(u32, FlitKind)>>>;

impl WormholeSwitch {
    /// Desired output per input, given resolved offers. `None` = no offer.
    fn desires(&self, n: usize, data: impl Fn(usize) -> Res<Value>) -> Result<Desires, SimError> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match data(i) {
                Res::Unknown => return Ok(None),
                Res::No => out.push(None),
                Res::Yes(v) => {
                    let f = Flit::from_value(&v)?;
                    let port = match self.in_route[i] {
                        Some(p) => p,
                        None => self.kind.route(f.dst)?,
                    };
                    out.push(Some((port, f.kind)));
                }
            }
        }
        Ok(Some(out))
    }

    /// One winner per output: the owner if locked, else round-robin among
    /// heads.
    fn allocate(&self, desires: &[Option<(u32, FlitKind)>], m: usize) -> Vec<Option<usize>> {
        let n = desires.len();
        let mut winners = vec![None; m];
        for (j, winner) in winners.iter_mut().enumerate() {
            if let Some(owner) = self.out_owner[j] {
                if desires
                    .get(owner)
                    .and_then(|d| *d)
                    .is_some_and(|(p, _)| p as usize == j)
                {
                    *winner = Some(owner);
                }
                continue; // locked output: only the owner proceeds
            }
            let requesters: Vec<usize> = (0..n)
                .filter(|&i| {
                    desires[i].is_some_and(|(p, k)| {
                        p as usize == j
                            && matches!(k, FlitKind::Head | FlitKind::HeadTail)
                            && self.in_route[i].is_none()
                    })
                })
                .collect();
            if requesters.is_empty() {
                continue;
            }
            let ptr = self.rr.get(j).copied().unwrap_or(0);
            *winner = requesters
                .iter()
                .min_by_key(|&&i| (i + n - ptr % n.max(1)) % n)
                .copied();
        }
        winners
    }
}

impl Module for WormholeSwitch {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        let m = ctx.width(P_OUT);
        debug_assert!(self.in_route.len() >= n && self.out_owner.len() >= m);
        let Some(desires) = self.desires(n, |i| ctx.data(P_IN, i))? else {
            return Ok(());
        };
        let winners = self.allocate(&desires, m);
        for (j, w) in winners.iter().enumerate() {
            match w {
                Some(i) => {
                    if let Res::Yes(v) = ctx.data(P_IN, *i) {
                        ctx.send(P_OUT, j, v)?;
                    }
                }
                None => ctx.send_nothing(P_OUT, j)?,
            }
        }
        for (i, &desire) in desires.iter().enumerate() {
            match desire {
                None => ctx.set_ack(P_IN, i, true)?,
                Some((p, _)) => {
                    let j = p as usize;
                    if winners[j] == Some(i) {
                        match ctx.ack(P_OUT, j)? {
                            Res::Unknown => {}
                            Res::Yes(()) => ctx.set_ack(P_IN, i, true)?,
                            Res::No => ctx.set_ack(P_IN, i, false)?,
                        }
                    } else {
                        ctx.set_ack(P_IN, i, false)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        for i in 0..n {
            if let Some(v) = ctx.transferred_in(P_IN, i) {
                let f = Flit::from_value(&v)?;
                let j = match self.in_route[i] {
                    Some(p) => p as usize,
                    None => self.kind.route(f.dst)? as usize,
                };
                match f.kind {
                    FlitKind::Head => {
                        self.in_route[i] = Some(j as u32);
                        self.out_owner[j] = Some(i);
                    }
                    FlitKind::Tail => {
                        self.in_route[i] = None;
                        self.out_owner[j] = None;
                        if self.rr.len() > j {
                            self.rr[j] = (i + 1) % n.max(1);
                        }
                        ctx.count("packets", 1);
                    }
                    FlitKind::HeadTail => {
                        if self.rr.len() > j {
                            self.rr[j] = (i + 1) % n.max(1);
                        }
                        ctx.count("packets", 1);
                    }
                    FlitKind::Body => {}
                }
                ctx.count("flits", 1);
            }
        }
        Ok(())
    }
}

const WORMHOLE_SWITCH_SPEC: ModuleSpec = ModuleSpec::fixed(
    "wormhole_switch",
    &[
        PortSpec::input("in", 0, u32::MAX),
        PortSpec::output("out", 0, u32::MAX),
    ],
)
.with_ack_in_react();

/// Construct a wormhole switch for a routing kind (ports sized to the
/// topology's port count).
pub fn wormhole_switch(kind: RouteKind) -> Instantiated {
    let ports = kind.ports();
    (
        WORMHOLE_SWITCH_SPEC,
        Box::new(WormholeSwitch {
            kind,
            in_route: vec![None; ports],
            out_owner: vec![None; ports],
            rr: vec![0; ports],
        }),
    )
}

// ---------------------------------------------------------------------
// Flit-level mesh builder.
// ---------------------------------------------------------------------

/// A built flit-level mesh: inject packets at `local_in`, receive
/// reassembled packets from `local_out`.
pub struct FlitFabric {
    /// Node count.
    pub nodes: u32,
    /// Per node: packet-granularity injection point (the packetizer).
    pub local_in: Vec<(InstanceId, &'static str)>,
    /// Per node: packet-granularity delivery point (the depacketizer).
    pub local_out: Vec<(InstanceId, &'static str)>,
}

/// Build a `w`×`h` flit-level wormhole mesh under `prefix`: per router,
/// per-input flit queues, the wormhole switch, and per-output registers;
/// per node, a packetizer/depacketizer pair on the local port.
pub fn build_flit_grid(
    b: &mut NetlistBuilder,
    prefix: &str,
    w: u32,
    h: u32,
    buf_depth: usize,
) -> Result<FlitFabric, SimError> {
    let nodes = w * h;
    struct R {
        inputs: Vec<(InstanceId, &'static str)>,
        outputs: Vec<(InstanceId, &'static str)>,
    }
    let mut routers = Vec::new();
    for id in 0..nodes {
        let kind = RouteKind::MeshXy { w, h, my: id };
        let ports = kind.ports();
        let rp = format!("{prefix}r{id}.");
        let (sw_spec, sw_mod) = wormhole_switch(kind);
        let sw = b.add(format!("{rp}xbar"), sw_spec, sw_mod)?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for i in 0..ports {
            let (q_spec, q_mod) = queue(&Params::new().with("depth", buf_depth.max(1)))?;
            let q = b.add(format!("{rp}ibuf{i}"), q_spec, q_mod)?;
            b.connect(q, "out", sw, "in")?;
            inputs.push((q, "in"));
        }
        for j in 0..ports {
            let (o_spec, o_mod) = reg(&Params::new())?;
            let o = b.add(format!("{rp}obuf{j}"), o_spec, o_mod)?;
            b.connect(sw, "out", o, "in")?;
            outputs.push((o, "out"));
        }
        routers.push(R { inputs, outputs });
    }
    const OPP: [usize; 4] = [2, 3, 0, 1];
    for y in 0..h {
        for x in 0..w {
            let id = (y * w + x) as usize;
            for (dir, &opp) in OPP.iter().enumerate() {
                let (nx, ny) = match dir {
                    0 => (x as i64, y as i64 - 1),
                    1 => (x as i64 + 1, y as i64),
                    2 => (x as i64, y as i64 + 1),
                    _ => (x as i64 - 1, y as i64),
                };
                if nx >= 0 && nx < w as i64 && ny >= 0 && ny < h as i64 {
                    let nid = (ny as u32 * w + nx as u32) as usize;
                    let (fo, fp) = routers[id].outputs[dir];
                    let (ti, tp) = routers[nid].inputs[opp];
                    // Flit links are single-cycle wires: connect directly
                    // (the output register is the link stage).
                    b.connect(fo, fp, ti, tp)?;
                }
            }
        }
    }
    let mut local_in = Vec::new();
    let mut local_out = Vec::new();
    for id in 0..nodes {
        let (pk_spec, pk_mod) = packetizer();
        let pk = b.add(format!("{prefix}pkz{id}"), pk_spec, pk_mod)?;
        let (ti, tp) = routers[id as usize].inputs[4];
        b.connect(pk, "out", ti, tp)?;
        local_in.push((pk, "in"));
        let (dp_spec, dp_mod) = depacketizer();
        let dp = b.add(format!("{prefix}dpk{id}"), dp_spec, dp_mod)?;
        let (fo, fp) = routers[id as usize].outputs[4];
        b.connect(fo, fp, dp, "in")?;
        local_out.push((dp, "out"));
    }
    Ok(FlitFabric {
        nodes,
        local_in,
        local_out,
    })
}
