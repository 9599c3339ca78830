//! The immutable structure of a constructed simulator.
//!
//! Everything that never changes after `Netlist::build` lives here, in
//! forms chosen for the kernel's hot loops:
//!
//! * instance metadata (name + customized template spec) with the
//!   per-instance **port→edge slab** flattened into one `Vec<EdgeId>` per
//!   instance (indexed through a small offsets table) instead of a
//!   `Vec<Vec<EdgeId>>` of tiny heap allocations;
//! * connection metadata ([`EdgeMeta`], indexed by [`EdgeId`]);
//! * the **reader table** — one flat array, three entries per edge
//!   (data, enable, ack): the instance whose `react` handler must re-run
//!   when that wire of that edge newly resolves, or [`NO_READER`]. An
//!   edge has one source and one destination, so a wire has at most one
//!   reader: data and enable flow to the receiver; ack flows back to the
//!   sender only when the sender declared `reads_ack_in_react` (otherwise
//!   its `commit` sees the final value anyway and no reactive wake is
//!   needed);
//! * the static schedule's instance ranks, computed lazily and cached, so
//!   one `Arc<Topology>` shared by several simulators analyzes the
//!   netlist once.
//!
//! A [`Topology`] is scheduler-agnostic and holds no per-timestep state;
//! the signal valuation lives in [`crate::store::SignalStore`] and the
//! execution policy in [`crate::exec::Simulator`].

use crate::compile::CompiledPlan;
use crate::module::{Dir, ModuleSpec, PortId};
use crate::netlist::{EdgeId, EdgeMeta, InstanceId, InstanceMeta};
use crate::signal::Wire;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Immutable per-instance metadata with the flattened port→edge slab.
#[derive(Debug)]
pub struct InstanceInfo {
    /// Hierarchical instance name (dotted path after elaboration).
    pub name: String,
    /// The instance's customized template spec.
    pub spec: ModuleSpec,
    /// `port_edges[port_offsets[p] .. port_offsets[p+1]]` are port `p`'s
    /// edges in connection-index order.
    port_offsets: Vec<u32>,
    port_edges: Vec<EdgeId>,
    /// Port directions, flattened out of the spec's `PortSpec` array so
    /// the per-drive direction check is a single dense load instead of a
    /// walk through the (string-bearing, ~40-byte stride) spec entries.
    port_dirs: Vec<Dir>,
}

impl InstanceInfo {
    fn from_meta(meta: InstanceMeta) -> Self {
        let mut port_offsets = Vec::with_capacity(meta.edges.len() + 1);
        let mut port_edges = Vec::new();
        port_offsets.push(0);
        for port in &meta.edges {
            port_edges.extend_from_slice(port);
            port_offsets.push(port_edges.len() as u32);
        }
        let port_dirs = meta.spec.ports.iter().map(|p| p.dir).collect();
        InstanceInfo {
            name: meta.name,
            spec: meta.spec,
            port_offsets,
            port_edges,
            port_dirs,
        }
    }

    /// The edges attached to a port, in connection-index order.
    #[inline]
    pub fn port_edges(&self, port: PortId) -> &[EdgeId] {
        let p = port.0 as usize;
        &self.port_edges[self.port_offsets[p] as usize..self.port_offsets[p + 1] as usize]
    }

    /// Number of connections attached to a port.
    #[inline]
    pub fn width(&self, port: PortId) -> usize {
        self.port_edges(port).len()
    }

    /// The edge on a connection slot of a port, if connected.
    #[inline]
    pub fn edge(&self, port: PortId, index: usize) -> Option<EdgeId> {
        self.port_edges(port).get(index).copied()
    }

    /// The direction of a port (dense lookup; panics on a bad id, like
    /// [`ModuleSpec::port_spec`]).
    #[inline]
    pub fn port_dir(&self, port: PortId) -> Dir {
        self.port_dirs[port.0 as usize]
    }
}

/// Hot per-port metadata, packed into one topology-global dense slab
/// (see [`Topology::hot_ports`]): the fields every `ReactCtx` drive or
/// read needs, without chasing the per-instance `InstanceInfo` heap
/// vectors. For a whole netlist this fits in a few KB of contiguous
/// memory, where the scattered `InstanceInfo` path touches several cache
/// lines per instance.
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
/// between simulators — the cached static-schedule ranks are then
/// computed once.
#[derive(Debug)]
pub struct Topology {
    insts: Vec<InstanceInfo>,
    edges: Vec<EdgeMeta>,
    /// `readers[3 * e + wire.idx()]`: the one reactive reader of that
    /// wire, or [`NO_READER`].
    readers: Vec<u32>,
    /// Per instance: true when the template opted into activity-gated
    /// commit via [`ModuleSpec::commit_only_when_active`].
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
    /// Dense hot-path port metadata: instance `i`'s ports are
    /// `ports_flat[inst_port_base[i] .. inst_port_base[i+1]]`, and each
    /// entry's `off`/`len` index [`Topology::edges_flat`].
    ports_flat: Vec<PortMeta>,
    inst_port_base: Vec<u32>,
    edges_flat: Vec<EdgeId>,
    ranks: OnceLock<Vec<u32>>,
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
        let insts: Vec<InstanceInfo> = instances.into_iter().map(InstanceInfo::from_meta).collect();
        let mut ports_flat = Vec::new();
        let mut inst_port_base = Vec::with_capacity(insts.len() + 1);
        let mut edges_flat = Vec::new();
        inst_port_base.push(0);
        for info in &insts {
            for (p, spec) in info.spec.ports.iter().enumerate() {
                let es = info.port_edges(PortId(p as u16));
                ports_flat.push(PortMeta {
                    off: edges_flat.len() as u32,
                    len: es.len() as u32,
                    dir: spec.dir,
                });
                edges_flat.extend_from_slice(es);
            }
            inst_port_base.push(ports_flat.len() as u32);
        }
        Topology {
            insts,
            edges,
            readers,
            commit_gated,
            commit_noop,
            any_commit_gated,
            all_commit_noop,
            ports_flat,
            inst_port_base,
            edges_flat,
            ranks: OnceLock::new(),
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
        let mut census = BTreeMap::new();
        for m in &self.insts {
            *census.entry(m.spec.template.clone()).or_insert(0) += 1;
        }
        census
    }

    /// The static schedule's instance ranks (paper ref [22]); computed on
    /// first use and cached for the lifetime of the topology.
    pub fn ranks(&self) -> &[u32] {
        self.ranks.get_or_init(|| crate::sched::compute_ranks(self))
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
    use crate::module::Module;
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
        let s = topo.instance(InstanceId(0));
        assert_eq!(s.width(PortId(0)), 2);
        assert_eq!(s.edge(PortId(0), 0), Some(EdgeId(0)));
        assert_eq!(s.edge(PortId(0), 1), Some(EdgeId(1)));
        assert_eq!(s.edge(PortId(0), 2), None);
        assert_eq!(s.port_edges(PortId(0)), &[EdgeId(0), EdgeId(1)]);
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
    fn ranks_are_cached_and_topological() {
        let topo = two_stage();
        let r1 = topo.ranks().as_ptr();
        let r2 = topo.ranks().as_ptr();
        assert_eq!(r1, r2, "ranks computed once");
        assert!(topo.ranks()[0] < topo.ranks()[1], "sender before receiver");
    }

    #[test]
    fn census_and_lookup() {
        let topo = two_stage();
        assert_eq!(topo.template_census()["src"], 1);
        assert_eq!(topo.instance_by_name("k"), Some(InstanceId(1)));
        assert_eq!(topo.instance_names().collect::<Vec<_>>(), vec!["s", "k"]);
    }
}
