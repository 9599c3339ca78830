//! Module templates, port specifications and the two-phase `Module` trait.
//!
//! An LSE module instance executes *concurrently* with all other instances
//! (paper §2.1): the kernel invokes its [`Module::react`] handler whenever
//! more of its inputs resolve within the current time-step, and its
//! [`Module::commit`] handler exactly once at the end of the time-step.
//!
//! The contract modules must follow:
//!
//! * `react` may be invoked several times per time-step. It must be
//!   *monotone*: look at the currently resolved signals and drive whatever
//!   outputs are determined by them; never retract a driven wire; never
//!   guess the value of an `Unknown` wire. Internal state must **not** be
//!   mutated in `react`.
//! * `commit` runs once, after every wire has resolved (explicitly or by
//!   the default control semantics). All internal state updates — queue
//!   pushes/pops, register writes, statistics — belong here.

use crate::error::SimError;
use crate::exec::{CommitCtx, ReactCtx};
use std::borrow::Cow;

/// Direction of a port, from the owning module's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Data and enable arrive; the module drives ack.
    In,
    /// The module drives data and enable; ack arrives.
    Out,
}

/// Index of a port within its module's [`ModuleSpec`].
///
/// Library modules build their own specs, so they know port indices
/// statically and can store them in `const`s for allocation-free access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortId(pub u16);

/// Static description of one port of a module template.
#[derive(Clone, Copy, Debug)]
pub struct PortSpec {
    /// Port name, used by specifications and diagnostics.
    pub name: &'static str,
    /// Port direction.
    pub dir: Dir,
    /// Minimum number of connections required for a valid netlist.
    /// `0` means the port may be left unconnected (partial specification).
    pub min_conns: u32,
    /// Maximum number of connections allowed (`u32::MAX` = unbounded).
    pub max_conns: u32,
}

impl PortSpec {
    /// An input port.
    pub const fn input(name: &'static str, min_conns: u32, max_conns: u32) -> Self {
        PortSpec {
            name,
            dir: Dir::In,
            min_conns,
            max_conns,
        }
    }

    /// An output port.
    pub const fn output(name: &'static str, min_conns: u32, max_conns: u32) -> Self {
        PortSpec {
            name,
            dir: Dir::Out,
            min_conns,
            max_conns,
        }
    }
}

/// Static description of a module template instance: its ports plus the
/// scheduling declarations used by the optimizing static scheduler
/// (paper ref [22]).
///
/// A template whose ports do not depend on its parameters declares its
/// spec once, as a `const` built with [`ModuleSpec::fixed`]; every
/// instance then shares the template's name and port table, and building
/// one allocates nothing. The chained [`ModuleSpec::input`] /
/// [`ModuleSpec::output`] form builds an owned port table instead.
#[derive(Clone, Debug)]
pub struct ModuleSpec {
    /// Template name this instance was created from.
    pub template: &'static str,
    /// All ports, in declaration order ([`PortId`] indexes this).
    pub ports: Cow<'static, [PortSpec]>,
    /// True if the module's `react` handler reads ack wires on its output
    /// ports (rare). When false, ack dependencies are excluded from the
    /// static schedule's dependency graph, breaking most cycles.
    pub reads_ack_in_react: bool,
    /// True if the kernel may skip this module's `commit` on time-steps
    /// where it was not an endpoint of a completed transfer and does not
    /// report [`Module::pending`] internal state. See the contract on
    /// [`ModuleSpec::commit_only_when_active`].
    pub commit_only_when_active: bool,
    /// True if this template's `commit` is *always* a no-op — the kernel
    /// then never calls it at all. See [`ModuleSpec::no_commit`].
    pub commit_is_noop: bool,
}

impl ModuleSpec {
    /// Start a spec for the named template, with no ports yet.
    pub const fn new(template: &'static str) -> Self {
        Self::fixed(template, &[])
    }

    /// A spec over a static port table: usable in a `const`, so a
    /// template states its ports once and every instance shares them.
    pub const fn fixed(template: &'static str, ports: &'static [PortSpec]) -> Self {
        ModuleSpec {
            template,
            ports: Cow::Borrowed(ports),
            reads_ack_in_react: false,
            commit_only_when_active: false,
            commit_is_noop: false,
        }
    }

    /// Add an input port; returns `self` for chaining. Ports get sequential
    /// [`PortId`]s in declaration order.
    pub fn input(mut self, name: &'static str, min_conns: u32, max_conns: u32) -> Self {
        self.ports
            .to_mut()
            .push(PortSpec::input(name, min_conns, max_conns));
        self
    }

    /// Add an output port; returns `self` for chaining.
    pub fn output(mut self, name: &'static str, min_conns: u32, max_conns: u32) -> Self {
        self.ports
            .to_mut()
            .push(PortSpec::output(name, min_conns, max_conns));
        self
    }

    /// Declare that `react` reads ack wires (forces conservative ack
    /// dependencies in the static schedule).
    pub const fn with_ack_in_react(mut self) -> Self {
        self.reads_ack_in_react = true;
        self
    }

    /// Opt into activity-gated commit. The template thereby promises that
    /// its `commit` is a no-op — no state change, no statistics — on any
    /// time-step where (a) no transfer completed on any of its ports and
    /// (b) [`Module::pending`] returns false. The kernel then skips the
    /// call on such steps. The commit *set* is derived from the completed
    /// transfers of the time-step's unique fixed point, so it is identical
    /// under every scheduler.
    pub const fn commit_only_when_active(mut self) -> Self {
        self.commit_only_when_active = true;
        self
    }

    /// Declare that this template's `commit` handler does nothing —
    /// stateless combinational modules (forwarders, muxes, arithmetic)
    /// whose entire behavior lives in `react`. The kernel then skips the
    /// commit call entirely, every step, removing a virtual dispatch per
    /// instance per step from the hot loop. Stronger than
    /// [`ModuleSpec::commit_only_when_active`]: the promise is
    /// unconditional, so [`Module::pending`] is never consulted either.
    pub const fn no_commit(mut self) -> Self {
        self.commit_is_noop = true;
        self
    }

    /// Resolve a port name to its id.
    pub fn port(&self, name: &str) -> Result<PortId, SimError> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| PortId(i as u16))
            .ok_or_else(|| {
                SimError::port(format!(
                    "template {:?} has no port {:?} (has: {})",
                    self.template,
                    name,
                    self.ports
                        .iter()
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }

    /// The spec of a port by id. Panics on an out-of-range id (ids are
    /// library-internal constants, so this indicates a library bug).
    pub fn port_spec(&self, id: PortId) -> &PortSpec {
        &self.ports[id.0 as usize]
    }
}

/// A concurrently executing hardware model component.
///
/// See the module-level documentation for the two-phase contract.
pub trait Module: Send {
    /// Reactive handler: runs one or more times per time-step as inputs
    /// resolve. Drive outputs; do not mutate state.
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError>;

    /// Commit handler: runs once per time-step after full resolution.
    /// Mutate state based on completed transfers.
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError>;

    /// For templates that declared
    /// [`ModuleSpec::commit_only_when_active`]: report whether internal
    /// state still needs per-step commit processing (e.g. a non-empty
    /// queue aging its occupancy statistics). Returning `true` forces the
    /// commit call even on transfer-free steps. The default (`false`)
    /// means only completed transfers trigger commits; templates that
    /// never opted in are committed unconditionally and can ignore this.
    fn pending(&self) -> bool {
        false
    }

    /// Serialize the module's internal state for a checkpoint
    /// (`crate::snapshot`). Called at step boundaries only, never inside
    /// a time-step. The default returns an empty blob — correct for
    /// stateless modules, which is why partial specifications checkpoint
    /// out of the box. Stateful templates encode their fields with a
    /// [`crate::snapshot::StateWriter`]; state that cannot be serialized
    /// (e.g. [`crate::value::Value::Opaque`] payloads, which encode to
    /// words but have no decoder) should return an error rather than save
    /// a lie.
    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        Ok(Vec::new())
    }

    /// Restore internal state from a blob produced by
    /// [`Module::state_save`] on an identically constructed instance.
    ///
    /// An **empty** blob means "reset to the initial (post-construction)
    /// state": stateful templates must implement that arm too — the
    /// kernel uses it to scrub possibly-torn state out of an instance
    /// whose handler panicked mid-mutation before quarantining it. The
    /// default accepts only the empty blob (it has no state to restore)
    /// and rejects anything else as a shape mismatch.
    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(SimError::model(
                "state_restore: non-empty state blob for a module without state hooks",
            ))
        }
    }

    /// Offer a [`crate::kernel::KernelHint`] describing this instance as a
    /// candidate for lowering into a type-specialized kernel once its
    /// algorithmic parameters and wire types resolve at plan-compile time
    /// (`crate::kernel`). The hint carries the fully resolved parameters
    /// (depth, latency, script, ...) so the compiler can monomorphize
    /// without re-parsing anything. The default (`None`) keeps the
    /// instance on the dynamic `Module::react` path — always correct,
    /// which is why arbitrary user modules need not opt in.
    fn specialize(&self) -> Option<crate::kernel::KernelHint> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_assigns_sequential_ids() {
        let spec = ModuleSpec::new("t")
            .input("a", 1, 1)
            .output("b", 0, u32::MAX)
            .input("c", 0, 4);
        assert_eq!(spec.port("a").unwrap(), PortId(0));
        assert_eq!(spec.port("b").unwrap(), PortId(1));
        assert_eq!(spec.port("c").unwrap(), PortId(2));
        assert_eq!(spec.port_spec(PortId(1)).dir, Dir::Out);
        assert_eq!(spec.port_spec(PortId(2)).max_conns, 4);
    }

    #[test]
    fn unknown_port_reports_candidates() {
        let spec = ModuleSpec::new("t").input("a", 1, 1);
        let err = spec.port("zz").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("zz") && msg.contains('a'));
    }

    #[test]
    fn ack_in_react_flag() {
        let spec = ModuleSpec::new("t").with_ack_in_react();
        assert!(spec.reads_ack_in_react);
        assert!(!ModuleSpec::new("t").reads_ack_in_react);
    }

    #[test]
    fn commit_gating_flag() {
        let spec = ModuleSpec::new("t").commit_only_when_active();
        assert!(spec.commit_only_when_active);
        assert!(!ModuleSpec::new("t").commit_only_when_active);
    }
}
