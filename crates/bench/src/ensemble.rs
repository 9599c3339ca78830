//! Shared fixture for the ensemble resilience suite: one LSS target with
//! a sweepable parameter, a [`ReplicaFactory`] that exercises the
//! topology-sharing path, and the grid geometry the `sweep_child` kill
//! target and the in-process tests must agree on.

use liberty_core::prelude::*;
use liberty_ensemble::{ReplicaFactory, ReplicaSpec, SweepConfig, TopoCache};
use std::sync::Arc;

/// A PCL mix whose sources stay busy for the whole test horizon (so a
/// cut at any step lands between real events) and whose queue depth is
/// the swept parameter.
pub const ENSEMBLE_SPEC: &str = r#"
module main {
    param depth = 4;
    instance a : seq_source { count = 100000; };
    instance b : seq_source { count = 100000; start = 500000; };
    instance arb : arbiter { policy = "round_robin"; };
    instance q : queue { depth = depth; };
    instance d : delay { latency = 2; };
    instance dst : sink;
    connect a.out -> arb.in;
    connect b.out -> arb.in;
    connect arb.out -> q.in;
    connect q.out -> d.in;
    connect d.out -> dst.in;
}
"#;

/// Replica factory over an LSS source: parse + elaborate per replica
/// (with the swept parameter bound), then run the fresh modules over the
/// parameter point's shared [`Topology`](liberty_core::prelude::Topology)
/// through a [`TopoCache`] — the same construction path the CLI driver
/// uses.
pub struct LssFactory {
    src: String,
    registry: Registry,
    cache: TopoCache,
    sched: SchedKind,
}

impl LssFactory {
    /// Factory for `src` building replicas on `sched`.
    pub fn new(src: &str, sched: SchedKind) -> LssFactory {
        LssFactory {
            src: src.to_owned(),
            registry: liberty_systems::full_registry(),
            cache: TopoCache::new(),
            sched,
        }
    }
}

impl ReplicaFactory for LssFactory {
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        let ast = liberty_lss::parse(&self.src)?;
        let (net, _report) =
            liberty_lss::elaborate(&ast, &self.registry, "main", &spec.params(&Params::new()))?;
        let (topo, modules) = net.into_parts();
        let shared = self.cache.unify(&spec.point_label(), topo);
        Ok(Simulator::from_parts(
            Arc::clone(&shared),
            modules,
            self.sched,
        ))
    }
}

/// The grid the `sweep_child` binary runs and the kill/SIGINT tests
/// resume: `depth=2..3` x 2 seeds = 4 replicas on 2 lanes. Geometry here
/// must stay in lockstep between the child invocation and the resuming
/// test — both call this.
pub fn child_config(cycles: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(cycles);
    cfg.sweep = Some(liberty_ensemble::ParamSweep::parse("depth=2..3").expect("static sweep"));
    cfg.seeds = 2;
    cfg.base_seed = 7;
    cfg.threads = 2;
    cfg.checkpoint_every = 16;
    cfg
}
