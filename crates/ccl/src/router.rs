//! A router is not a monolithic module: it is *composed* from PCL
//! primitives exactly as the paper prescribes — per-input buffer queues
//! (the same `queue` template that serves as instruction window and ROB,
//! §2.1), per-input route computation, a PCL crossbar with round-robin
//! output arbitration, and per-output registers (the switch-traversal
//! stage).
//!
//! ```text
//!  in[i] → [queue ibuf_i] → [route_compute rc_i] → ┐
//!                                                 [crossbar xbar] → [register obuf_j] → out[j]
//! ```

use crate::route::{route_compute, RouteKind};
use liberty_core::prelude::*;
use liberty_pcl::crossbar::crossbar;
use liberty_pcl::queue::queue;
use liberty_pcl::register::reg;

/// Connection points of a built router.
pub struct RouterPorts {
    /// Per input port: the instance/port to connect incoming links to.
    pub inputs: Vec<(InstanceId, &'static str)>,
    /// Per output port: the instance/port outgoing links connect from.
    pub outputs: Vec<(InstanceId, &'static str)>,
}

/// Build one router under `prefix` for the given routing kind.
///
/// `buf_depth` sets the input-buffer queue depth (the head-of-line
/// resource the power model charges for).
pub fn build_router(
    b: &mut NetlistBuilder,
    prefix: &str,
    kind: RouteKind,
    buf_depth: usize,
) -> Result<RouterPorts, SimError> {
    let ports = kind.ports();
    let (x_spec, x_mod) = crossbar(
        &Params::new()
            .with("strip", true)
            .with("policy", "round_robin"),
    )?;
    let xbar = b.add(format!("{prefix}xbar"), x_spec, x_mod)?;

    let mut inputs = Vec::with_capacity(ports);
    let mut outputs = Vec::with_capacity(ports);
    for i in 0..ports {
        let (q_spec, q_mod) = queue(&Params::new().with("depth", buf_depth.max(1)))?;
        let ibuf = b.add(format!("{prefix}ibuf{i}"), q_spec, q_mod)?;
        let (r_spec, r_mod) = route_compute(kind);
        let rc = b.add(format!("{prefix}rc{i}"), r_spec, r_mod)?;
        b.connect(ibuf, "out", rc, "in")?;
        b.connect(rc, "out", xbar, "in")?;
        inputs.push((ibuf, "in"));
    }
    for j in 0..ports {
        let (o_spec, o_mod) = reg(&Params::new())?;
        let obuf = b.add(format!("{prefix}obuf{j}"), o_spec, o_mod)?;
        b.connect(xbar, "out", obuf, "in")?;
        outputs.push((obuf, "out"));
    }
    Ok(RouterPorts { inputs, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use liberty_pcl::{sink, source};

    #[test]
    fn router_delivers_local_traffic_to_right_port() {
        // 2x1 mesh router at node 0; inject at local port, packets for
        // node 1 leave E (port 1), packets for node 0 leave local (4).
        let mut b = NetlistBuilder::new();
        let kind = RouteKind::MeshXy { w: 2, h: 1, my: 0 };
        let r = build_router(&mut b, "r.", kind, 4).unwrap();
        let pkt = |id, dst| {
            Packet {
                id,
                src: 0,
                dst,
                flits: 1,
                created: 0,
                payload: None,
            }
            .into_value()
        };
        let (s_spec, s_mod) = source::script(vec![pkt(0, 1), pkt(1, 0), pkt(2, 1)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        b.connect(s, "out", r.inputs[4].0, r.inputs[4].1).unwrap();
        let mut sinks = Vec::new();
        for (j, (inst, port)) in r.outputs.iter().enumerate() {
            let (k_spec, k_mod, h) = sink::collecting();
            let k = b.add(format!("k{j}"), k_spec, k_mod).unwrap();
            b.connect(*inst, port, k, "in").unwrap();
            sinks.push(h);
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(20).unwrap();
        let ids = |h: &sink::Collected| -> Vec<u64> {
            h.values()
                .iter()
                .map(|v| Packet::from_value(v).unwrap().id)
                .collect()
        };
        assert_eq!(ids(&sinks[1]), vec![0, 2]); // east
        assert_eq!(ids(&sinks[4]), vec![1]); // local
        assert!(sinks[0].is_empty() && sinks[2].is_empty() && sinks[3].is_empty());
    }

    #[test]
    fn contending_inputs_share_an_output_losslessly() {
        let mut b = NetlistBuilder::new();
        let kind = RouteKind::MeshXy { w: 2, h: 1, my: 0 };
        let r = build_router(&mut b, "r.", kind, 2).unwrap();
        let pkt = |id| {
            Packet {
                id,
                src: 0,
                dst: 1,
                flits: 1,
                created: 0,
                payload: None,
            }
            .into_value()
        };
        // Two inputs (W and local) both sending east.
        let (a_spec, a_mod) = source::script((0..4).map(pkt).collect());
        let a = b.add("a", a_spec, a_mod).unwrap();
        b.connect(a, "out", r.inputs[3].0, r.inputs[3].1).unwrap();
        let (c_spec, c_mod) = source::script((10..14).map(pkt).collect());
        let c = b.add("c", c_spec, c_mod).unwrap();
        b.connect(c, "out", r.inputs[4].0, r.inputs[4].1).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(r.outputs[1].0, r.outputs[1].1, k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(40).unwrap();
        let mut ids: Vec<u64> = h
            .values()
            .iter()
            .map(|v| Packet::from_value(v).unwrap().id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 10, 11, 12, 13]);
    }
}
