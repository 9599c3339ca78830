//! The immutable structure of a constructed simulator.
//!
//! Everything that never changes after `Netlist::build` lives here, in
//! forms chosen for the kernel's hot loops:
//!
//! * instance metadata (name + customized template spec, nothing else);
//! * the **port table** — one entry per (instance, port) for the whole
//!   netlist ([`PortMeta`]: direction, connection count, offset) over one
//!   flat port→edge slab holding each port's edges in connection-index
//!   order; [`Topology::new`] fills both straight from the edges' slot
//!   indices, a counting pass and then a placement pass;
//! * connection metadata ([`EdgeMeta`], indexed by [`EdgeId`]);
//! * the **reader table** — one flat array, three entries per edge
//!   (data, enable, ack): the instance whose `react` handler must re-run
//!   when that wire of that edge newly resolves, or [`NO_READER`]. An
//!   edge has one source and one destination, so a wire has at most one
//!   reader: data and enable flow to the receiver; ack flows back to the
//!   sender only when the sender declared `reads_ack_in_react` (otherwise
//!   its `commit` sees the final value anyway and no reactive wake is
//!   needed);
//! * the compiled plan, computed lazily and cached, so one
//!   `Arc<Topology>` shared by several simulators analyzes the netlist
//!   once.
//!
//! A [`Topology`] is scheduler-agnostic and holds no per-timestep state;
//! the signal valuation lives in [`crate::store::SignalStore`] and the
//! execution policy in [`crate::exec::Simulator`].

use crate::compile::CompiledPlan;
use crate::module::{Dir, PortId};
use crate::netlist::{EdgeId, EdgeMeta, Endpoint, InstanceId, InstanceMeta};
use crate::signal::Wire;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Immutable per-instance metadata: the hierarchical name and the
/// customized template spec, as the netlist built them. The instance's
/// ports live in the topology's flat port table
/// ([`Topology::hot_ports`], [`Topology::port_edges`]).
pub type InstanceInfo = InstanceMeta;

/// One port of one instance in the topology's port table (see
/// [`Topology::hot_ports`]): the fields every `ReactCtx` drive or read
/// needs, dense and contiguous for the whole netlist.
#[derive(Clone, Copy, Debug)]
pub struct PortMeta {
    /// First edge of this port in [`Topology::edges_flat`].
    pub off: u32,
    /// Number of connections on this port.
    pub len: u32,
    /// Port direction.
    pub dir: Dir,
}

/// Marker in the reader table for a wire nobody reads reactively.
pub const NO_READER: u32 = u32::MAX;

/// The immutable composition structure shared by all schedulers.
///
/// Built once from a validated [`crate::netlist::Netlist`] (via
/// [`crate::netlist::Netlist::into_parts`]); wrap it in an `Arc` to share
/// between simulators — the cached compiled plan is then computed once.
#[derive(Debug)]
pub struct Topology {
    insts: Vec<InstanceInfo>,
    edges: Vec<EdgeMeta>,
    /// `readers[3 * e + wire.idx()]`: the one reactive reader of that
    /// wire, or [`NO_READER`].
    readers: Vec<u32>,
    /// Per instance: true when the template opted into activity-gated
    /// commit via [`crate::module::ModuleSpec::commit_only_when_active`].
    commit_gated: Vec<bool>,
    /// Per instance: true when the template declared its commit a no-op
    /// via [`crate::module::ModuleSpec::no_commit`].
    commit_noop: Vec<bool>,
    /// True when at least one instance is activity-gated — lets the
    /// commit phase skip per-transfer endpoint marking entirely when
    /// nobody consumes it.
    any_commit_gated: bool,
    /// True when *every* template declared `no_commit` — the commit
    /// phase then skips its instance sweep outright.
    all_commit_noop: bool,
    /// The port table: instance `i`'s ports are
    /// `ports_flat[inst_port_base[i] .. inst_port_base[i+1]]`, and each
    /// entry's `off`/`len` index [`Topology::edges_flat`]. The only
    /// port→edge map there is.
    ports_flat: Vec<PortMeta>,
    inst_port_base: Vec<u32>,
    edges_flat: Vec<EdgeId>,
    plan: OnceLock<Arc<CompiledPlan>>,
}

impl Topology {
    /// Flatten validated netlist parts into kernel form.
    pub fn new(instances: Vec<InstanceMeta>, edges: Vec<EdgeMeta>) -> Self {
        let mut readers = vec![NO_READER; 3 * edges.len()];
        let mut set_reader = |e: usize, wire: Wire, inst: InstanceId| {
            let slot = &mut readers[3 * e + wire.idx()];
            assert_eq!(*slot, NO_READER, "a wire has one reader");
            *slot = inst.0;
        };
        for (e, em) in edges.iter().enumerate() {
            set_reader(e, Wire::Data, em.dst.inst);
            set_reader(e, Wire::Enable, em.dst.inst);
            if instances[em.src.inst.0 as usize].spec.reads_ack_in_react {
                set_reader(e, Wire::Ack, em.src.inst);
            }
        }
        let commit_gated: Vec<bool> = instances
            .iter()
            .map(|m| m.spec.commit_only_when_active)
            .collect();
        let commit_noop: Vec<bool> = instances.iter().map(|m| m.spec.commit_is_noop).collect();
        let any_commit_gated = commit_gated.iter().any(|&g| g);
        let all_commit_noop = commit_noop.iter().all(|&g| g);

        // The port table: every instance's ports in id order, then a
        // counting pass over the edges' two ends and a prefix sum.
        let n_ports = instances.iter().map(|m| m.spec.ports.len()).sum();
        let mut ports_flat = Vec::with_capacity(n_ports);
        let mut inst_port_base = Vec::with_capacity(instances.len() + 1);
        inst_port_base.push(0);
        for m in &instances {
            ports_flat.extend(m.spec.ports.iter().map(|p| PortMeta {
                off: 0,
                len: 0,
                dir: p.dir,
            }));
            inst_port_base.push(ports_flat.len() as u32);
        }
        let port_of =
            |end: &Endpoint| inst_port_base[end.inst.0 as usize] as usize + end.port.0 as usize;
        for em in &edges {
            ports_flat[port_of(&em.src)].len += 1;
            ports_flat[port_of(&em.dst)].len += 1;
        }
        let mut off = 0;
        for p in &mut ports_flat {
            p.off = off;
            off += p.len;
        }
        // Placement: an end's slot index is its position within its port.
        let mut edges_flat = vec![EdgeId(0); off as usize];
        for (e, em) in edges.iter().enumerate() {
            for end in [&em.src, &em.dst] {
                let p = ports_flat[port_of(end)];
                debug_assert!(end.index < p.len, "slot index past the port's count");
                edges_flat[(p.off + end.index) as usize] = EdgeId(e as u32);
            }
        }
        Topology {
            insts: instances,
            edges,
            readers,
            commit_gated,
            commit_noop,
            any_commit_gated,
            all_commit_noop,
            ports_flat,
            inst_port_base,
            edges_flat,
            plan: OnceLock::new(),
        }
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of connections.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Immutable metadata of one instance.
    #[inline]
    pub fn instance(&self, inst: InstanceId) -> &InstanceInfo {
        &self.insts[inst.0 as usize]
    }

    /// The dense hot-path port table of one instance (entries index
    /// [`Topology::edges_flat`]).
    #[inline]
    pub fn hot_ports(&self, inst: InstanceId) -> &[PortMeta] {
        let i = inst.0 as usize;
        &self.ports_flat[self.inst_port_base[i] as usize..self.inst_port_base[i + 1] as usize]
    }

    /// The edges attached to a port of an instance, in connection-index
    /// order.
    #[inline]
    pub fn port_edges(&self, inst: InstanceId, port: PortId) -> &[EdgeId] {
        let p = self.hot_ports(inst)[port.0 as usize];
        &self.edges_flat[p.off as usize..(p.off + p.len) as usize]
    }

    /// The topology-global flattened port→edge slab that
    /// [`Topology::hot_ports`] entries index into.
    #[inline]
    pub fn edges_flat(&self) -> &[EdgeId] {
        &self.edges_flat
    }

    /// Static metadata of one connection.
    #[inline]
    pub fn edge_meta(&self, e: EdgeId) -> &EdgeMeta {
        &self.edges[e.0 as usize]
    }

    /// All connection metas, indexed by [`EdgeId`].
    pub fn edge_metas(&self) -> &[EdgeMeta] {
        &self.edges
    }

    /// The instance whose `react` must re-run when `wire` of edge `e`
    /// newly resolves, if any (one load from the flat reader table).
    #[inline]
    pub fn reader(&self, wire: Wire, e: EdgeId) -> Option<u32> {
        let r = self.readers[3 * e.0 as usize + wire.idx()];
        (r != NO_READER).then_some(r)
    }

    /// True when the instance's template opted into activity-gated commit.
    #[inline]
    pub fn commit_gated(&self, inst: usize) -> bool {
        self.commit_gated[inst]
    }

    /// True when the instance's template declared its commit a no-op.
    #[inline]
    pub fn commit_noop(&self, inst: usize) -> bool {
        self.commit_noop[inst]
    }

    /// True when any instance is activity-gated (the commit phase only
    /// needs per-transfer endpoint marking in that case).
    #[inline]
    pub fn any_commit_gated(&self) -> bool {
        self.any_commit_gated
    }

    /// True when every template declared its commit a no-op.
    #[inline]
    pub fn all_commit_noop(&self) -> bool {
        self.all_commit_noop
    }

    /// Instance name by id.
    #[inline]
    pub fn name(&self, inst: InstanceId) -> &str {
        &self.insts[inst.0 as usize].name
    }

    /// Look up an instance id by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        self.insts
            .iter()
            .position(|m| m.name == name)
            .map(|i| InstanceId(i as u32))
    }

    /// Instance names in id order.
    pub fn instance_names(&self) -> impl Iterator<Item = &str> {
        self.insts.iter().map(|m| m.name.as_str())
    }

    /// How many instances of each template the netlist contains — the
    /// ground truth for the reuse census (experiment E6).
    pub fn template_census(&self) -> BTreeMap<String, usize> {
        crate::netlist::template_census(&self.insts)
    }

    /// The compiled static schedule (SCC-condensed invocation plan, paper
    /// ref [22]); compiled on first use and cached for the lifetime of
    /// the topology, so every simulator sharing one `Arc<Topology>` runs
    /// the same plan without re-analysis.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        self.plan
            .get_or_init(|| Arc::new(CompiledPlan::compile(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::exec::{CommitCtx, ReactCtx};
    use crate::module::{Module, ModuleSpec};
    use crate::netlist::NetlistBuilder;

    struct Nop;
    impl Module for Nop {
        fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn two_stage() -> Topology {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 0, u32::MAX),
                Box::new(Nop),
            )
            .unwrap();
        let k = b
            .add(
                "k",
                ModuleSpec::new("snk").input("in", 0, u32::MAX),
                Box::new(Nop),
            )
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let (topo, _mods) = b.build().unwrap().into_parts();
        topo
    }

    #[test]
    fn port_slabs_match_connection_order() {
        let topo = two_stage();
        for inst in [InstanceId(0), InstanceId(1)] {
            assert_eq!(topo.port_edges(inst, PortId(0)), &[EdgeId(0), EdgeId(1)]);
            let p = topo.hot_ports(inst)[0];
            assert_eq!((p.off, p.len), (2 * inst.0, 2));
        }
        assert_eq!(topo.hot_ports(InstanceId(0))[0].dir, Dir::Out);
        assert_eq!(topo.hot_ports(InstanceId(1))[0].dir, Dir::In);
    }

    #[test]
    fn port_table_files_every_end_by_its_slot() {
        // Three instances with an input and an output each, connected in
        // an interleaved order with a self-loop: every port lists exactly
        // the edges whose end names it, in slot order.
        let spec = || {
            ModuleSpec::new("t")
                .input("in", 0, u32::MAX)
                .output("out", 0, u32::MAX)
        };
        let mut b = NetlistBuilder::new();
        let ids: Vec<_> = (0..3)
            .map(|i| b.add(format!("m{i}"), spec(), Box::new(Nop)).unwrap())
            .collect();
        for (s, d) in [(0, 1), (2, 1), (1, 1), (0, 2), (1, 0), (0, 1), (2, 2)] {
            b.connect(ids[s], "out", ids[d], "in").unwrap();
        }
        let (topo, _) = b.build().unwrap().into_parts();
        for inst in &ids {
            for (p, meta) in topo.hot_ports(*inst).iter().enumerate() {
                let port = PortId(p as u16);
                let mut want: Vec<(u32, EdgeId)> = Vec::new();
                for (e, em) in topo.edge_metas().iter().enumerate() {
                    for end in [em.src, em.dst] {
                        if end.inst == *inst && end.port == port {
                            want.push((end.index, EdgeId(e as u32)));
                        }
                    }
                }
                want.sort_by_key(|w| w.0);
                let want: Vec<EdgeId> = want.into_iter().map(|w| w.1).collect();
                assert_eq!(topo.port_edges(*inst, port), want.as_slice());
                assert_eq!(meta.len as usize, want.len());
            }
        }
        assert_eq!(topo.edges_flat().len(), 2 * topo.edge_count());
    }

    #[test]
    fn data_and_enable_wake_the_receiver() {
        let topo = two_stage();
        assert_eq!(topo.reader(Wire::Data, EdgeId(0)), Some(1));
        assert_eq!(topo.reader(Wire::Enable, EdgeId(1)), Some(1));
    }

    #[test]
    fn ack_wakes_nobody_without_declaration() {
        let topo = two_stage();
        assert_eq!(topo.reader(Wire::Ack, EdgeId(0)), None);
        assert_eq!(topo.reader(Wire::Ack, EdgeId(1)), None);
    }

    #[test]
    fn ack_wakes_declared_sender() {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src")
                    .output("out", 0, 1)
                    .with_ack_in_react(),
                Box::new(Nop),
            )
            .unwrap();
        let k = b
            .add("k", ModuleSpec::new("snk").input("in", 0, 1), Box::new(Nop))
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        assert_eq!(topo.reader(Wire::Ack, EdgeId(0)), Some(0));
    }

    #[test]
    fn gating_flag_tracks_spec() {
        let mut b = NetlistBuilder::new();
        b.add(
            "a",
            ModuleSpec::new("t").commit_only_when_active(),
            Box::new(Nop),
        )
        .unwrap();
        b.add("b", ModuleSpec::new("t"), Box::new(Nop)).unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        assert!(topo.commit_gated(0));
        assert!(!topo.commit_gated(1));
    }

    #[test]
    fn census_and_lookup() {
        let topo = two_stage();
        assert_eq!(topo.template_census()["src"], 1);
        assert_eq!(topo.instance_by_name("k"), Some(InstanceId(1)));
        assert_eq!(topo.instance_names().collect::<Vec<_>>(), vec!["s", "k"]);
    }
}
