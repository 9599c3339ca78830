//! Flat netlists: customized module instances plus their interconnections.
//!
//! This is the output of elaboration (the LSS front end flattens hierarchy
//! into this form) and the input of the simulator constructor. Building a
//! netlist is separate from running it so that construction errors —
//! dangling required ports, direction mismatches, over-connected ports —
//! surface before the first cycle, with structural diagnostics.

use crate::error::SimError;
use crate::module::{Dir, Module, ModuleSpec, PortId};
use crate::names::NameIndex;
use crate::topology::Topology;
use std::collections::BTreeMap;

/// Identifier of an instance within a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Identifier of a connection (one three-wire bundle) within a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

/// One end of a connection: an indexed slot of a port of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The instance owning the port.
    pub inst: InstanceId,
    /// The port on that instance.
    pub port: PortId,
    /// Connection index within the port (ports scale bandwidth by taking
    /// multiple connections, paper §2.1).
    pub index: u32,
}

/// Static metadata of one connection.
#[derive(Clone, Copy, Debug)]
pub struct EdgeMeta {
    /// Sender side (an output port slot).
    pub src: Endpoint,
    /// Receiver side (an input port slot).
    pub dst: Endpoint,
}

/// Static metadata of one instance: its name and customized spec. Its
/// connections are the [`EdgeMeta`] entries naming it; the topology files
/// them per port ([`Topology::port_edges`]).
#[derive(Debug)]
pub struct InstanceMeta {
    /// Hierarchical instance name (dotted path after elaboration).
    pub name: String,
    /// The instance's customized template spec.
    pub spec: ModuleSpec,
}

/// A complete, validated netlist ready for simulator construction.
pub struct Netlist {
    /// Instance metadata, indexed by [`InstanceId`].
    pub instances: Vec<InstanceMeta>,
    /// The module behaviours, parallel to `instances`.
    pub modules: Vec<Box<dyn Module>>,
    /// Connection metadata, indexed by [`EdgeId`].
    pub edges: Vec<EdgeMeta>,
}

impl Netlist {
    /// Look up an instance id by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        self.instances
            .iter()
            .position(|m| m.name == name)
            .map(|i| InstanceId(i as u32))
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the netlist has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// How many instances of each template the netlist contains.
    pub fn template_census(&self) -> BTreeMap<String, usize> {
        template_census(&self.instances)
    }

    /// Split into the layered-kernel constructor inputs: the immutable
    /// [`Topology`] (reader table, flattened port slabs) and the module
    /// behaviours. Wrap the topology in an `Arc` and hand both to
    /// [`crate::exec::Simulator::from_parts`].
    pub fn into_parts(self) -> (Topology, Vec<Box<dyn Module>>) {
        (Topology::new(self.instances, self.edges), self.modules)
    }
}

/// How many of `insts` instantiate each template. A netlist holds few
/// distinct templates, so they are counted in a short list and sorted
/// once, without a string per instance.
pub(crate) fn template_census(insts: &[InstanceMeta]) -> BTreeMap<String, usize> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for m in insts {
        match counts.iter_mut().find(|(t, _)| *t == m.spec.template) {
            Some((_, n)) => *n += 1,
            None => counts.push((m.spec.template, 1)),
        }
    }
    counts.into_iter().map(|(t, n)| (t.to_owned(), n)).collect()
}

/// Incrementally builds a [`Netlist`], validating as it goes.
#[derive(Default)]
pub struct NetlistBuilder {
    instances: Vec<InstanceMeta>,
    modules: Vec<Box<dyn Module>>,
    edges: Vec<EdgeMeta>,
    /// Instance names to ids. Each name is stored once, in its
    /// [`InstanceMeta`].
    names: NameIndex,
    /// Connections made so far on each (instance, port), one flat table:
    /// instance `i`'s ports are `conns[port_base[i]..]`, in [`PortId`]
    /// order. The count is the next free slot index.
    conns: Vec<u32>,
    port_base: Vec<u32>,
}

impl NetlistBuilder {
    /// Start an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an instance with a unique name. Returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        spec: ModuleSpec,
        module: Box<dyn Module>,
    ) -> Result<InstanceId, SimError> {
        let id = InstanceId(self.instances.len() as u32);
        let name = name.into();
        let instances = &self.instances;
        if self
            .names
            .insert(&name, |i| instances[i as usize].name.as_str())
            .is_err()
        {
            return Err(SimError::netlist(format!(
                "duplicate instance name {name:?}"
            )));
        }
        self.port_base.push(self.conns.len() as u32);
        self.conns.resize(self.conns.len() + spec.ports.len(), 0);
        self.instances.push(InstanceMeta { name, spec });
        self.modules.push(module);
        Ok(id)
    }

    /// The connection counter of an (instance, port) in the flat table.
    fn conns_slot(&self, inst: InstanceId, port: PortId) -> usize {
        self.port_base[inst.0 as usize] as usize + port.0 as usize
    }

    /// Look up a previously added instance by name.
    pub fn lookup(&self, name: &str) -> Option<InstanceId> {
        let instances = &self.instances;
        self.names
            .get(name, |i| instances[i as usize].name.as_str())
            .map(InstanceId)
    }

    /// Borrow an instance's spec (e.g. to resolve port names).
    pub fn spec(&self, inst: InstanceId) -> &ModuleSpec {
        &self.instances[inst.0 as usize].spec
    }

    /// Connect the next free slot of `src`'s output port `src_port` to the
    /// next free slot of `dst`'s input port `dst_port`. Port names are
    /// resolved against the instances' specs; directions are checked.
    pub fn connect(
        &mut self,
        src: InstanceId,
        src_port: &str,
        dst: InstanceId,
        dst_port: &str,
    ) -> Result<EdgeId, SimError> {
        let sp = self.instance_meta(src)?.spec.port(src_port)?;
        let dp = self.instance_meta(dst)?.spec.port(dst_port)?;
        self.connect_ids(src, sp, dst, dp)
    }

    /// Bounds-checked instance access: a stale or foreign `InstanceId` is
    /// a caller bug, reported as a netlist error rather than a panic.
    fn instance_meta(&self, id: InstanceId) -> Result<&InstanceMeta, SimError> {
        self.instances.get(id.0 as usize).ok_or_else(|| {
            SimError::netlist(format!(
                "instance id {} out of range ({} instances)",
                id.0,
                self.instances.len()
            ))
        })
    }

    /// [`NetlistBuilder::connect`] with pre-resolved port ids.
    pub fn connect_ids(
        &mut self,
        src: InstanceId,
        src_port: PortId,
        dst: InstanceId,
        dst_port: PortId,
    ) -> Result<EdgeId, SimError> {
        let port_of = |m: &InstanceMeta, p: PortId| -> Result<(), SimError> {
            if (p.0 as usize) >= m.spec.ports.len() {
                return Err(SimError::netlist(format!(
                    "{}: port id {} out of range ({} ports)",
                    m.name,
                    p.0,
                    m.spec.ports.len()
                )));
            }
            Ok(())
        };
        {
            let sm = self.instance_meta(src)?;
            port_of(sm, src_port)?;
            let ps = sm.spec.port_spec(src_port);
            if ps.dir != Dir::Out {
                return Err(SimError::netlist(format!(
                    "{}.{} is not an output port",
                    sm.name, ps.name
                )));
            }
        }
        {
            let dm = self.instance_meta(dst)?;
            port_of(dm, dst_port)?;
            let pd = dm.spec.port_spec(dst_port);
            if pd.dir != Dir::In {
                return Err(SimError::netlist(format!(
                    "{}.{} is not an input port",
                    dm.name, pd.name
                )));
            }
        }
        let id = EdgeId(self.edges.len() as u32);
        let (s, d) = (
            self.conns_slot(src, src_port),
            self.conns_slot(dst, dst_port),
        );
        let src_index = self.conns[s];
        let dst_index = self.conns[d];
        self.conns[s] += 1;
        self.conns[d] += 1;
        self.edges.push(EdgeMeta {
            src: Endpoint {
                inst: src,
                port: src_port,
                index: src_index,
            },
            dst: Endpoint {
                inst: dst,
                port: dst_port,
                index: dst_index,
            },
        });
        Ok(id)
    }

    /// Validate connection-count constraints and produce the netlist.
    pub fn build(self) -> Result<Netlist, SimError> {
        for (inst, &base) in self.instances.iter().zip(&self.port_base) {
            let counts = &self.conns[base as usize..];
            for (port, &n) in inst.spec.ports.iter().zip(counts) {
                if n < port.min_conns {
                    return Err(SimError::netlist(format!(
                        "{}.{}: has {} connection(s), needs at least {}",
                        inst.name, port.name, n, port.min_conns
                    )));
                }
                if n > port.max_conns {
                    return Err(SimError::netlist(format!(
                        "{}.{}: has {} connection(s), allows at most {}",
                        inst.name, port.name, n, port.max_conns
                    )));
                }
            }
        }
        Ok(Netlist {
            instances: self.instances,
            modules: self.modules,
            edges: self.edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CommitCtx, ReactCtx};

    struct Nop;
    impl Module for Nop {
        fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn spec_src() -> ModuleSpec {
        ModuleSpec::new("src").output("out", 0, u32::MAX)
    }
    fn spec_sink() -> ModuleSpec {
        ModuleSpec::new("sink").input("in", 1, 2)
    }

    #[test]
    fn connect_assigns_slots_in_order() {
        let mut b = NetlistBuilder::new();
        let s = b.add("s", spec_src(), Box::new(Nop)).unwrap();
        let k = b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        let e0 = b.connect(s, "out", k, "in").unwrap();
        let e1 = b.connect(s, "out", k, "in").unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.edges[e0.0 as usize].src.index, 0);
        assert_eq!(net.edges[e1.0 as usize].src.index, 1);
        assert_eq!(net.edges[e1.0 as usize].dst.index, 1);
        let (topo, _) = net.into_parts();
        assert_eq!(topo.port_edges(k, PortId(0)), &[e0, e1]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetlistBuilder::new();
        b.add("x", spec_src(), Box::new(Nop)).unwrap();
        assert!(b.add("x", spec_src(), Box::new(Nop)).is_err());
    }

    #[test]
    fn out_of_range_ids_are_errors_not_panics() {
        let mut b = NetlistBuilder::new();
        let s = b.add("s", spec_src(), Box::new(Nop)).unwrap();
        let k = b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        let bogus = InstanceId(99);
        assert!(b.connect(bogus, "out", k, "in").is_err());
        assert!(b.connect(s, "out", bogus, "in").is_err());
        assert!(b.connect_ids(s, PortId(7), k, PortId(0)).is_err());
        assert!(b.connect_ids(s, PortId(0), k, PortId(7)).is_err());
        // The builder is still usable after the rejected calls.
        b.connect(s, "out", k, "in").unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn direction_mismatch_rejected() {
        let mut b = NetlistBuilder::new();
        let s = b.add("s", spec_src(), Box::new(Nop)).unwrap();
        let k = b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        assert!(b.connect(k, "in", s, "out").is_err());
    }

    #[test]
    fn min_conns_enforced() {
        let mut b = NetlistBuilder::new();
        b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn max_conns_enforced() {
        let mut b = NetlistBuilder::new();
        let s = b.add("s", spec_src(), Box::new(Nop)).unwrap();
        let k = b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        for _ in 0..3 {
            b.connect(s, "out", k, "in").unwrap();
        }
        assert!(b.build().is_err());
    }

    #[test]
    fn lookup_by_name() {
        let mut b = NetlistBuilder::new();
        let s = b.add("s", spec_src(), Box::new(Nop)).unwrap();
        assert_eq!(b.lookup("s"), Some(s));
        assert_eq!(b.lookup("nope"), None);
        let k = b.add("k", spec_sink(), Box::new(Nop)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.instance_by_name("k"), Some(k));
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
    }
}
