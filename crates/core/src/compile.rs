//! The schedule compiler: SCC-condensed execution plans (paper ref [22]
//! taken to its conclusion).
//!
//! A worklist scheduler discovers the reaction-phase fixed point every
//! step: seed every instance, wake the reader of each newly resolved
//! wire, repeat until quiescent. Because LSE fixes a single
//! reactive model of computation, that discovery can instead happen once,
//! at construction time. The compiler condenses the instance dependency
//! graph (data/enable order sender before receiver; ack orders receiver
//! before sender only for declared reactive ack readers) into strongly
//! connected components, topologically orders the condensation, and emits
//! a [`CompiledPlan`]:
//!
//! * a **straight node** for every acyclic instance — at run time it
//!   reacts exactly once per step, with no worklist, no wake-table
//!   probing, and its wakes dropped (every reader is a strictly later
//!   plan node and will see the final wire values when its turn comes);
//! * an **island node** for every cyclic SCC (including singletons with a
//!   self-connection) — at run time its members run a bounded local
//!   fixed-point iteration on a worklist fed from the plan's **wake
//!   table**, and reuse the watchdog / oscillation diagnostics when a
//!   cyclically inconsistent island fails to converge.
//!
//! The wake table answers, ahead of the run, the one question an island
//! iteration used to ask per resolved wire: *who must react again?* For
//! every (edge, wire) it holds the wire's reader iff that reader sits in
//! the same island as the wire's writer, else [`NO_WAKE`] — a reader
//! anywhere else is a strictly later plan node and runs regardless. The
//! wire-write path pushes that entry straight onto the island worklist
//! ([`crate::sched::WakeSink`]); no reader lookup or island comparison is
//! left for run time.
//!
//! Nodes are additionally grouped into **levels** (equal topological
//! rank). No dependency edge connects two nodes of the same level: every
//! wire has one writing endpoint per side, and both endpoints of an edge
//! sit either in the same island or in strictly different levels, so
//! same-level nodes never write the same slot and never read a slot
//! another same-level node writes. Within a level, straight nodes come
//! first (in ascending instance id), then islands — the fixed order that
//! defines the plan. The engine walks `nodes` front to back and does not
//! read the level table; it stays as a description of the plan's shape
//! (the benchmark reports it as `core.compile.levels`).
//!
//! **Correctness.** Module handlers are monotone and the per-step fixed
//! point is unique (paper §2.1), so invoking an acyclic instance once —
//! after all of its producers have fully settled — drives exactly the
//! wires the dynamic fixed point would. Islands see final external inputs
//! for the same reason, and their internal iteration is the ordinary
//! worklist algorithm restricted to the SCC. The compiled scheduler
//! therefore completes the same transfers, resolves the same defaults,
//! and commits the same instances as the dynamic ones; only handler
//! re-invocation counts differ.

use crate::netlist::EdgeId;
use crate::sched::{self, Csr};
use crate::signal::Wire;
use crate::topology::Topology;
use std::sync::Arc;

/// Marker in [`CompiledPlan::island_of`] for instances outside any island.
pub const NO_ISLAND: u32 = u32::MAX;

/// Marker in the wake table for a wire whose resolution re-queues nobody.
pub const NO_WAKE: u32 = u32::MAX;

/// One entry of the compiled invocation sequence.
#[derive(Debug)]
pub enum PlanNode {
    /// An acyclic instance: react exactly once per step.
    Straight(u32),
    /// A cyclic SCC: run members to a bounded local fixed point.
    Island {
        /// Ordinal of this island (dense, plan order).
        island: u32,
        /// Member instance ids, ascending.
        members: Vec<u32>,
    },
}

/// One topological level of the plan: a range of `nodes` with equal rank.
/// `nodes[start..straight_end]` are [`PlanNode::Straight`] in ascending
/// instance id; `nodes[straight_end..end]` are islands.
#[derive(Clone, Copy, Debug)]
pub struct PlanLevel {
    /// First node of the level.
    pub start: u32,
    /// End of the straight-node prefix.
    pub straight_end: u32,
    /// End of the level (exclusive).
    pub end: u32,
}

/// The compiled static schedule: SCC condensation nodes in topological
/// order, grouped into levels. Built once per [`Topology`] (see
/// [`Topology::plan`], which caches it) and shared by every simulator
/// running a compiled scheduler over that topology.
#[derive(Debug)]
pub struct CompiledPlan {
    nodes: Vec<PlanNode>,
    levels: Vec<PlanLevel>,
    /// Per instance: ordinal of its island, or [`NO_ISLAND`].
    island_of: Vec<u32>,
    /// `wake[3 * e + wire.idx()]`: the instance to re-queue when that
    /// wire newly resolves — its reader, iff reader and writer share an
    /// island — or [`NO_WAKE`]. Shared (not copied) into every
    /// simulator's worklist.
    wake: Arc<[u32]>,
    n_islands: u32,
    /// The straight nodes' instance ids, plan order — the dense form the
    /// fully-acyclic serial fast path iterates (no per-node enum match).
    straights: Vec<u32>,
}

impl CompiledPlan {
    /// Compile the plan for a topology.
    pub fn compile(topo: &Topology) -> CompiledPlan {
        let n = topo.instance_count();
        let g = sched::dep_graph(topo);
        let comp = sched::tarjan_scc(&g.adj);
        let n_comp = comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let cranks = sched::condensation_ranks(&g.adj, &comp, n_comp);

        // Members per component, by counting sort: placed in instance-id
        // order, so each row is ascending.
        let members = Csr::from_arcs(n_comp, || {
            comp.iter().enumerate().map(|(i, &c)| (c, i as u32))
        });

        // Plan order: by (rank, straight-before-island, first member id).
        struct Entry {
            rank: u32,
            cyclic: bool,
            first: u32,
            comp: usize,
        }
        let mut entries: Vec<Entry> = (0..n_comp)
            .map(|c| {
                let m = members.row(c);
                Entry {
                    rank: cranks[c],
                    cyclic: m.len() > 1 || g.self_loop[m[0] as usize],
                    first: m[0],
                    comp: c,
                }
            })
            .collect();
        entries.sort_by_key(|e| (e.rank, e.cyclic, e.first));

        let mut nodes = Vec::with_capacity(n_comp);
        let mut levels: Vec<PlanLevel> = Vec::new();
        let mut island_of = vec![NO_ISLAND; n];
        let mut n_islands = 0u32;
        let mut cur_rank = None;
        for e in entries {
            if cur_rank != Some(e.rank) {
                cur_rank = Some(e.rank);
                let at = nodes.len() as u32;
                levels.push(PlanLevel {
                    start: at,
                    straight_end: at,
                    end: at,
                });
            }
            let level = levels.last_mut().expect("level opened above");
            if e.cyclic {
                let island = n_islands;
                n_islands += 1;
                let m = members.row(e.comp);
                for &i in m {
                    island_of[i as usize] = island;
                }
                nodes.push(PlanNode::Island {
                    island,
                    members: m.to_vec(),
                });
            } else {
                debug_assert_eq!(level.straight_end, nodes.len() as u32, "straights first");
                nodes.push(PlanNode::Straight(e.first));
                level.straight_end += 1;
            }
            level.end = nodes.len() as u32;
        }
        let mut wake = vec![NO_WAKE; 3 * topo.edge_count()];
        for (e, em) in topo.edge_metas().iter().enumerate() {
            for wire in [Wire::Data, Wire::Enable, Wire::Ack] {
                // The sender drives data and enable, the receiver ack.
                let writer = match wire {
                    Wire::Data | Wire::Enable => em.src.inst,
                    Wire::Ack => em.dst.inst,
                };
                let island = island_of[writer.0 as usize];
                if let Some(r) = topo.reader(wire, EdgeId(e as u32)) {
                    if island != NO_ISLAND && island_of[r as usize] == island {
                        wake[3 * e + wire.idx()] = r;
                    }
                }
            }
        }
        let straights = nodes
            .iter()
            .filter_map(|n| match n {
                &PlanNode::Straight(i) => Some(i),
                PlanNode::Island { .. } => None,
            })
            .collect();
        CompiledPlan {
            nodes,
            levels,
            island_of,
            wake: wake.into(),
            n_islands,
            straights,
        }
    }

    /// The full invocation sequence, topological order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The level structure (ranges over [`CompiledPlan::nodes`]).
    pub fn levels(&self) -> &[PlanLevel] {
        &self.levels
    }

    /// The island ordinal of an instance, or [`NO_ISLAND`].
    #[inline]
    pub fn island_of(&self, inst: u32) -> u32 {
        self.island_of[inst as usize]
    }

    /// The instance an island iteration re-queues when `wire` of edge `e`
    /// newly resolves: the wire's reader, iff it shares an island with the
    /// wire's writer.
    pub fn wake_target(&self, wire: Wire, e: EdgeId) -> Option<u32> {
        let t = self.wake[3 * e.0 as usize + wire.idx()];
        (t != NO_WAKE).then_some(t)
    }

    /// The whole wake table, three entries per edge (see
    /// [`CompiledPlan::wake_target`]), as the worklist shares it.
    pub(crate) fn wake_table(&self) -> &Arc<[u32]> {
        &self.wake
    }

    /// Number of islands (cyclic SCCs, including self-connected
    /// singletons).
    pub fn island_count(&self) -> usize {
        self.n_islands as usize
    }

    /// Number of straight (acyclic) nodes.
    pub fn straight_count(&self) -> usize {
        self.straights.len()
    }

    /// The straight nodes' instance ids in plan order (dense; for the
    /// fully-acyclic fast path).
    #[inline]
    pub fn straight_ids(&self) -> &[u32] {
        &self.straights
    }

    /// Number of instances the plan covers.
    pub fn instance_count(&self) -> usize {
        self.island_of.len()
    }

    /// True when the whole netlist is acyclic: pure straight-line
    /// execution, no fixed-point iteration anywhere.
    pub fn is_fully_acyclic(&self) -> bool {
        self.n_islands == 0
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

    fn spec() -> ModuleSpec {
        ModuleSpec::new("t")
            .input("in", 0, u32::MAX)
            .output("out", 0, u32::MAX)
    }

    fn straight_ids(plan: &CompiledPlan) -> Vec<u32> {
        plan.nodes()
            .iter()
            .filter_map(|n| match n {
                PlanNode::Straight(i) => Some(*i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn chain_compiles_to_straight_line() {
        // a -> b -> c: three straight nodes, three levels, topo order.
        let mut b = NetlistBuilder::new();
        let ids: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| b.add(*n, spec(), Box::new(Nop)).unwrap())
            .collect();
        b.connect(ids[0], "out", ids[1], "in").unwrap();
        b.connect(ids[1], "out", ids[2], "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        assert!(plan.is_fully_acyclic());
        assert_eq!(plan.straight_count(), 3);
        assert_eq!(straight_ids(&plan), vec![0, 1, 2]);
        assert_eq!(plan.levels().len(), 3);
        assert_eq!(plan.island_of(1), NO_ISLAND);
        assert_eq!(plan.wake_target(Wire::Data, EdgeId(0)), None, "no island");
    }

    #[test]
    fn diamond_shares_a_level() {
        // a -> {b, c} -> d: b and c share the middle level.
        let mut b = NetlistBuilder::new();
        let ids: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| b.add(*n, spec(), Box::new(Nop)).unwrap())
            .collect();
        b.connect(ids[0], "out", ids[1], "in").unwrap();
        b.connect(ids[0], "out", ids[2], "in").unwrap();
        b.connect(ids[1], "out", ids[3], "in").unwrap();
        b.connect(ids[2], "out", ids[3], "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        assert_eq!(plan.levels().len(), 3);
        let mid = plan.levels()[1];
        assert_eq!(mid.end - mid.start, 2);
        assert_eq!(mid.straight_end, mid.end, "no islands in the diamond");
        // Straight nodes within a level are id-ordered.
        assert_eq!(straight_ids(&plan), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cycle_collapses_to_island() {
        // a -> b -> c -> a, plus c -> d downstream.
        let mut b = NetlistBuilder::new();
        let ids: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| b.add(*n, spec(), Box::new(Nop)).unwrap())
            .collect();
        b.connect(ids[0], "out", ids[1], "in").unwrap();
        b.connect(ids[1], "out", ids[2], "in").unwrap();
        b.connect(ids[2], "out", ids[0], "in").unwrap();
        b.connect(ids[2], "out", ids[3], "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        assert!(!plan.is_fully_acyclic());
        assert_eq!(plan.island_count(), 1);
        assert_eq!(plan.straight_count(), 1);
        let Some(PlanNode::Island { island, members }) = plan
            .nodes()
            .iter()
            .find(|n| matches!(n, PlanNode::Island { .. }))
        else {
            panic!("island expected");
        };
        assert_eq!(members, &[0, 1, 2]);
        assert_eq!(plan.island_of(0), *island);
        assert_eq!(plan.island_of(3), NO_ISLAND);
        // Wakes stay inside the island: a -> b re-queues b, c -> d (a
        // later plan node) and every ack (nobody reads one) nobody.
        assert_eq!(plan.wake_target(Wire::Data, EdgeId(0)), Some(1));
        assert_eq!(plan.wake_target(Wire::Enable, EdgeId(2)), Some(0));
        assert_eq!(plan.wake_target(Wire::Data, EdgeId(3)), None);
        assert_eq!(plan.wake_target(Wire::Ack, EdgeId(0)), None);
        // The island's level precedes the downstream straight node.
        assert!(matches!(plan.nodes().last(), Some(PlanNode::Straight(3))));
    }

    #[test]
    fn self_connection_is_a_singleton_island() {
        let mut b = NetlistBuilder::new();
        let a = b.add("a", spec(), Box::new(Nop)).unwrap();
        b.connect(a, "out", a, "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        assert_eq!(plan.island_count(), 1);
        assert_eq!(plan.island_of(0), 0);
        assert!(matches!(
            &plan.nodes()[0],
            PlanNode::Island { members, .. } if members.as_slice() == [0]
        ));
    }

    #[test]
    fn reactive_ack_reader_forms_an_island_with_its_receiver() {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src")
                    .output("out", 1, 1)
                    .with_ack_in_react(),
                Box::new(Nop),
            )
            .unwrap();
        let k = b
            .add("k", ModuleSpec::new("snk").input("in", 1, 1), Box::new(Nop))
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        assert_eq!(plan.island_count(), 1);
        assert_eq!(plan.island_of(0), plan.island_of(1));
        // The receiver's ack re-queues the declared sender.
        assert_eq!(plan.wake_target(Wire::Ack, EdgeId(0)), Some(0));
        assert_eq!(plan.wake_target(Wire::Data, EdgeId(0)), Some(1));
    }

    #[test]
    fn levels_partition_the_nodes() {
        let mut b = NetlistBuilder::new();
        let ids: Vec<_> = (0..6)
            .map(|i| b.add(format!("m{i}"), spec(), Box::new(Nop)).unwrap())
            .collect();
        b.connect(ids[0], "out", ids[1], "in").unwrap();
        b.connect(ids[2], "out", ids[3], "in").unwrap();
        b.connect(ids[3], "out", ids[2], "in").unwrap(); // 2<->3 island
        b.connect(ids[1], "out", ids[4], "in").unwrap();
        let (topo, _) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        let mut covered = 0usize;
        for l in plan.levels() {
            assert!(l.start <= l.straight_end && l.straight_end <= l.end);
            covered += (l.end - l.start) as usize;
        }
        assert_eq!(covered, plan.nodes().len());
        // Every instance is in exactly one node.
        let mut seen = [false; 6];
        for n in plan.nodes() {
            match n {
                PlanNode::Straight(i) => {
                    assert!(!seen[*i as usize]);
                    seen[*i as usize] = true;
                }
                PlanNode::Island { members, .. } => {
                    for &m in members {
                        assert!(!seen[m as usize]);
                        seen[m as usize] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
