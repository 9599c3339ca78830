//! Route computation: maps a packet's destination node to an output port
//! of the current router. One template, customized by topology parameters
//! (paper §2.1's algorithmic parameters).
//!
//! Port conventions:
//! * mesh/torus: `0 = N, 1 = E, 2 = S, 3 = W, 4 = local` (x grows E,
//!   y grows S, node id = y * w + x);
//! * ring: `0 = clockwise (id + 1), 1 = counter-clockwise, 2 = local`.
//!
//! ## Ports
//! * `in` (in, 1): [`Packet`].
//! * `out` (out, 1): [`Routed`] whose `dst` is the chosen output port and
//!   whose payload is the packet.

use crate::packet::Packet;
use liberty_core::prelude::*;
use liberty_pcl::Routed;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

/// Routing function kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RouteKind {
    /// Dimension-ordered (XY) routing on a `w`×`h` mesh from node `my`.
    MeshXy {
        /// Mesh width.
        w: u32,
        /// Mesh height.
        h: u32,
        /// This router's node id.
        my: u32,
    },
    /// Dimension-ordered routing on a `w`×`h` torus (wraparound-aware).
    TorusXy {
        /// Torus width.
        w: u32,
        /// Torus height.
        h: u32,
        /// This router's node id.
        my: u32,
    },
    /// Shortest-direction routing on an `n`-node ring from node `my`.
    Ring {
        /// Ring size.
        n: u32,
        /// This router's node id.
        my: u32,
    },
}

impl RouteKind {
    /// Number of router ports this kind expects (including local).
    pub fn ports(&self) -> usize {
        match self {
            RouteKind::MeshXy { .. } | RouteKind::TorusXy { .. } => 5,
            RouteKind::Ring { .. } => 3,
        }
    }

    /// The output port for a packet destined to `dst`.
    pub fn route(&self, dst: u32) -> Result<u32, SimError> {
        Ok(match *self {
            RouteKind::MeshXy { w, h, my } => {
                if dst >= w * h {
                    return Err(SimError::model(format!("mesh: dst {dst} out of range")));
                }
                let (x, y) = (my % w, my / w);
                let (dx, dy) = (dst % w, dst / w);
                if dx > x {
                    1 // E
                } else if dx < x {
                    3 // W
                } else if dy > y {
                    2 // S
                } else if dy < y {
                    0 // N
                } else {
                    4 // local
                }
            }
            RouteKind::TorusXy { w, h, my } => {
                if dst >= w * h {
                    return Err(SimError::model(format!("torus: dst {dst} out of range")));
                }
                let (x, y) = (my % w, my / w);
                let (dx, dy) = (dst % w, dst / w);
                if dx != x {
                    // Shortest wrap direction in x.
                    let east = (dx + w - x) % w;
                    let west = (x + w - dx) % w;
                    if east <= west {
                        1
                    } else {
                        3
                    }
                } else if dy != y {
                    let south = (dy + h - y) % h;
                    let north = (y + h - dy) % h;
                    if south <= north {
                        2
                    } else {
                        0
                    }
                } else {
                    4
                }
            }
            RouteKind::Ring { n, my } => {
                if dst >= n {
                    return Err(SimError::model(format!("ring: dst {dst} out of range")));
                }
                if dst == my {
                    2
                } else {
                    let cw = (dst + n - my) % n;
                    if cw <= n - cw {
                        0
                    } else {
                        1
                    }
                }
            }
        })
    }
}

/// The route-compute module. Construct with [`route_compute`].
pub struct RouteCompute {
    kind: RouteKind,
}

impl Module for RouteCompute {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.data(P_IN, 0) {
            Res::Unknown => Ok(()),
            Res::No => {
                ctx.send_nothing(P_OUT, 0)?;
                ctx.set_ack(P_IN, 0, true)
            }
            Res::Yes(v) => {
                let pkt = Packet::from_value(&v)?;
                let port = self.kind.route(pkt.dst)?;
                ctx.send(P_OUT, 0, Routed::wrap(port, v.clone()))?;
                match ctx.ack(P_OUT, 0)? {
                    Res::Unknown => Ok(()),
                    Res::Yes(()) => ctx.set_ack(P_IN, 0, true),
                    Res::No => ctx.set_ack(P_IN, 0, false),
                }
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_in(P_IN, 0).is_some() {
            ctx.count("routed", 1);
        }
        Ok(())
    }
}

const ROUTE_COMPUTE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "route_compute",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 1, 1)],
)
.with_ack_in_react();

/// Construct a route-compute stage for a routing kind.
pub fn route_compute(kind: RouteKind) -> Instantiated {
    (ROUTE_COMPUTE_SPEC, Box::new(RouteCompute { kind }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_xy_routes_x_first() {
        // 3x3 mesh, center node 4 (x=1, y=1).
        let k = RouteKind::MeshXy { w: 3, h: 3, my: 4 };
        assert_eq!(k.route(5).unwrap(), 1); // (2,1): E
        assert_eq!(k.route(3).unwrap(), 3); // (0,1): W
        assert_eq!(k.route(7).unwrap(), 2); // (1,2): S
        assert_eq!(k.route(1).unwrap(), 0); // (1,0): N
        assert_eq!(k.route(4).unwrap(), 4); // here
        assert_eq!(k.route(2).unwrap(), 1); // (2,0): x first -> E
        assert!(k.route(9).is_err());
    }

    #[test]
    fn torus_takes_wraparound_shortcut() {
        // 4x1 torus, node 0: going to 3 is 1 hop west via wrap.
        let k = RouteKind::TorusXy { w: 4, h: 1, my: 0 };
        assert_eq!(k.route(1).unwrap(), 1); // E, 1 hop
        assert_eq!(k.route(3).unwrap(), 3); // W via wrap, 1 hop
        assert_eq!(k.route(2).unwrap(), 1); // tie -> E
    }

    #[test]
    fn ring_picks_shorter_direction() {
        let k = RouteKind::Ring { n: 8, my: 0 };
        assert_eq!(k.route(2).unwrap(), 0); // CW
        assert_eq!(k.route(6).unwrap(), 1); // CCW
        assert_eq!(k.route(4).unwrap(), 0); // tie -> CW
        assert_eq!(k.route(0).unwrap(), 2); // local
    }

    #[test]
    fn ports_counts() {
        assert_eq!(RouteKind::MeshXy { w: 2, h: 2, my: 0 }.ports(), 5);
        assert_eq!(RouteKind::Ring { n: 4, my: 0 }.ports(), 3);
    }
}
