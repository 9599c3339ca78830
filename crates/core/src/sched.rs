//! Static-schedule analysis (paper ref [22], Penry & August DAC'03).
//!
//! Because LSE fixes a single reactive model of computation, the netlist
//! can be *analyzed*: we build the instance-level dependency graph (data
//! and enable wires order sender before receiver; ack wires order receiver
//! before sender only when the sender declared it reads acks in `react`),
//! condense strongly connected components with Tarjan's algorithm, and
//! rank the components topologically. [`crate::compile`] turns that
//! analysis into the plan the engine runs; the [`WakeSink`] here is the
//! worklist its islands and its default phase iterate on.

use crate::compile::NO_WAKE;
use crate::netlist::EdgeId;
use crate::signal::Wire;
use crate::topology::Topology;
use std::collections::VecDeque;
use std::sync::Arc;

/// A directed graph over nodes `0..len` in compressed sparse row form:
/// node `u`'s successors are `targets[offsets[u] .. offsets[u + 1]]`.
/// The one adjacency form of the static analyses (dependency graph,
/// condensation, component members).
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Place the arcs `(u, v)` by counting sort: `arcs` is called twice
    /// (count, then place) and must yield the same arcs both times. A row
    /// keeps its arcs in the order they were yielded.
    pub(crate) fn from_arcs<I: Iterator<Item = (u32, u32)>>(n: usize, arcs: impl Fn() -> I) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for (u, _) in arcs() {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        // `offsets[u]` is row u's cursor while placing; it ends at row
        // u's end, which is row u + 1's start: shift back by one.
        for (u, v) in arcs() {
            let at = &mut offsets[u as usize];
            targets[*at as usize] = v;
            *at += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Csr { offsets, targets }
    }

    /// Sort every row and drop repeated targets, compacting in place.
    pub(crate) fn sort_dedup_rows(&mut self) {
        let mut kept = 0usize;
        let mut start = 0usize;
        for u in 0..self.len() {
            let end = self.offsets[u + 1] as usize;
            self.targets[start..end].sort_unstable();
            let row = kept;
            for k in start..end {
                let t = self.targets[k];
                if kept == row || self.targets[kept - 1] != t {
                    self.targets[kept] = t;
                    kept += 1;
                }
            }
            start = end;
            self.offsets[u + 1] = kept as u32;
        }
        self.targets.truncate(kept);
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node `u`'s successors.
    #[inline]
    pub(crate) fn row(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// The instance-level dependency graph the static analyses share.
///
/// `adj.row(u)` lists the instances that depend on `u` (must react after
/// it), ascending and without repeats; self-edges are excluded from `adj`
/// but recorded in `self_loop`, because an instance connected to itself
/// reacts to its own writes — a singleton cycle the schedule compiler
/// must treat as an island even though Tarjan reports a singleton
/// component.
pub(crate) struct DepGraph {
    pub(crate) adj: Csr,
    pub(crate) self_loop: Vec<bool>,
}

/// Build the dependency graph: data and enable wires order sender before
/// receiver; ack wires order receiver before sender only when the sender
/// declared it reads acks in `react`.
pub(crate) fn dep_graph(topo: &Topology) -> DepGraph {
    let n = topo.instance_count();
    let mut self_loop = vec![false; n];
    for e in topo.edge_metas() {
        if e.src.inst == e.dst.inst {
            self_loop[e.src.inst.0 as usize] = true;
        }
    }
    let arcs = || {
        topo.edge_metas()
            .iter()
            .filter(|e| e.src.inst != e.dst.inst)
            .flat_map(|e| {
                let (u, v) = (e.src.inst.0, e.dst.inst.0);
                // Receiver depends on sender's data/enable; sender depends
                // on receiver's ack only if it reads acks reactively.
                let acks = topo.instance(e.src.inst).spec.reads_ack_in_react;
                std::iter::once((u, v)).chain(acks.then_some((v, u)))
            })
    };
    let mut adj = Csr::from_arcs(n, arcs);
    adj.sort_dedup_rows();
    DepGraph { adj, self_loop }
}

/// Longest-path topological rank of each condensation component (Kahn).
pub(crate) fn condensation_ranks(adj: &Csr, comp: &[u32], n_comp: usize) -> Vec<u32> {
    let mut cadj = Csr::from_arcs(n_comp, || {
        (0..adj.len())
            .flat_map(|u| adj.row(u).iter().map(move |&v| (comp[u], comp[v as usize])))
            .filter(|(cu, cv)| cu != cv)
    });
    cadj.sort_dedup_rows();
    let mut indeg = vec![0u32; n_comp];
    for &v in &cadj.targets {
        indeg[v as usize] += 1;
    }
    let mut rank = vec![0u32; n_comp];
    let mut q: VecDeque<u32> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i as u32)
        .collect();
    while let Some(c) = q.pop_front() {
        for &v in cadj.row(c as usize) {
            rank[v as usize] = rank[v as usize].max(rank[c as usize] + 1);
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                q.push_back(v);
            }
        }
    }
    rank
}

/// Iterative Tarjan SCC. Returns the component id of each node; component
/// ids are assigned in reverse topological order of discovery, but callers
/// only rely on ids being equal within one SCC.
pub(crate) fn tarjan_scc(adj: &Csr) -> Vec<u32> {
    let n = adj.len();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next_index = 0u32;
    let mut next_comp = 0u32;

    // Explicit DFS stack: (node, next child position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNSET {
            continue;
        }
        call.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let row = adj.row(v as usize);
            if *ci < row.len() {
                let w = row[*ci];
                *ci += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// The FIFO worklist, as a wire write sees it: what the serial reaction
/// contexts ([`crate::exec::ReactCtx`]'s direct sink, the kernel lanes'
/// `Io`) hand every newly resolved wire to.
///
/// During a plan walk the sink **pushes at write**: the plan's wake table
/// ([`crate::compile::CompiledPlan::wake_target`]) names the one instance
/// to re-queue, and it goes onto the FIFO the moment the write reports a
/// new resolution — unless it is already queued, or already *settled*
/// this epoch. Dropping a settled target here rather than when it is
/// popped is equivalent: a settled instance never runs again this epoch,
/// so its queue entry could only ever be discarded. (A member that wakes
/// itself through a self-loop is pushed while it runs and discarded at
/// the pop if that run settled it.) Wires are pushed in resolution order,
/// which is the order a post-react sweep over a resolve list would visit
/// them in.
///
/// The **resolve log** is that list, kept only for who still asks for
/// it: a probe that wants `resolve` events, the Sweep scheduler's progress
/// test, and the reader lookup of a drain ([`WakeSink::worklist`]).
pub(crate) struct WakeSink {
    pub(crate) fifo: VecDeque<u32>,
    pub(crate) queued: Vec<bool>,
    /// Per instance: the store epoch of the step in which an island
    /// driver settled it. Sized only when the plan has islands.
    pub(crate) settled: Vec<u64>,
    /// The plan's wake table; empty without a plan.
    targets: Arc<[u32]>,
    /// `Some` while a plan walk pushes at write: the epoch whose settle
    /// stamps drop a target.
    pushing: Option<u64>,
    /// Wires newly resolved by the current `react`, in resolution order.
    pub(crate) log: Vec<(EdgeId, Wire)>,
    logging: bool,
}

impl WakeSink {
    /// A worklist over `n` instances (`0`: none is kept, the Sweep
    /// scheduler only logs), pushing from `targets`.
    pub(crate) fn new(n: usize, targets: Arc<[u32]>, any_island: bool) -> Self {
        WakeSink {
            fifo: VecDeque::with_capacity(n),
            queued: vec![false; n],
            settled: vec![0; if any_island { n } else { 0 }],
            targets,
            pushing: None,
            log: Vec::new(),
            logging: true,
        }
    }

    /// Serve a plan walk: push at write, dropping targets settled in
    /// `settle_epoch` (`None`, a resilient walk: nobody settles, nothing
    /// is dropped), and log resolutions only if `logging`.
    pub(crate) fn plan_walk(&mut self, settle_epoch: Option<u64>, logging: bool) {
        // Epochs count steps up from 1: no stamp ever carries the maximum.
        self.pushing = Some(settle_epoch.unwrap_or(u64::MAX));
        self.logging = logging;
    }

    /// Serve a drain outside the plan walk (Sweep, or the compiled
    /// scheduler's default-phase resume): log every resolution, push
    /// nothing.
    pub(crate) fn worklist(&mut self) {
        self.pushing = None;
        self.logging = true;
    }

    /// A write newly resolved (or, tolerating oscillation, re-resolved)
    /// `wire` of edge `e`.
    #[inline]
    pub(crate) fn resolved(&mut self, e: EdgeId, wire: Wire) {
        if self.logging {
            self.keep(e, wire);
        }
        if let Some(epoch) = self.pushing {
            let t = self.targets[3 * e.0 as usize + wire.idx()];
            if t != NO_WAKE && !self.queued[t as usize] && self.settled[t as usize] != epoch {
                self.queued[t as usize] = true;
                self.fifo.push_back(t);
            }
        }
    }

    /// Out of line: the log's growth path would otherwise cost every
    /// inlined copy of [`WakeSink::resolved`] its spilled registers.
    #[inline(never)]
    fn keep(&mut self, e: EdgeId, wire: Wire) {
        self.log.push((e, wire));
    }

    /// Queue an instance (no-op if already queued).
    #[inline]
    pub(crate) fn push(&mut self, i: u32) {
        if !self.queued[i as usize] {
            self.queued[i as usize] = true;
            self.fifo.push_back(i);
        }
    }

    /// Pop the longest-queued instance.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u32> {
        let i = self.fifo.pop_front()?;
        self.queued[i as usize] = false;
        Some(i)
    }

    /// Forget everything queued (after a failed step).
    pub(crate) fn clear(&mut self) {
        self.fifo.clear();
        self.queued.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_sink_pushes_unqueued_unsettled_targets_only() {
        // Edge 0: data wakes 1, enable wakes 2, ack nobody. Edge 1: data
        // wakes 1 again.
        let targets: Arc<[u32]> = vec![1, 2, NO_WAKE, 1, NO_WAKE, NO_WAKE].into();
        let mut w = WakeSink::new(3, targets, true);
        w.settled[2] = 7;
        w.plan_walk(Some(7), false);
        w.resolved(EdgeId(0), Wire::Data);
        w.resolved(EdgeId(0), Wire::Enable); // settled this epoch: dropped
        w.resolved(EdgeId(0), Wire::Ack);
        w.resolved(EdgeId(1), Wire::Data); // already queued
        assert_eq!(w.fifo, [1]);
        assert!(w.log.is_empty(), "nobody asked for the resolve log");
        // A stamp from another epoch does not drop; a popped instance can
        // be queued again.
        w.plan_walk(Some(8), true);
        w.resolved(EdgeId(0), Wire::Enable);
        assert_eq!(w.pop(), Some(1));
        w.resolved(EdgeId(1), Wire::Data);
        assert_eq!(w.fifo, [2, 1]);
        assert_eq!(
            w.log,
            [(EdgeId(0), Wire::Enable), (EdgeId(1), Wire::Data)],
            "resolution order"
        );
        // A drain only logs.
        w.clear();
        w.log.clear();
        w.worklist();
        w.resolved(EdgeId(0), Wire::Data);
        assert!(w.fifo.is_empty());
        assert_eq!(w.log, [(EdgeId(0), Wire::Data)]);
    }

    /// A graph from its adjacency lists.
    fn csr(rows: &[&[u32]]) -> Csr {
        Csr::from_arcs(rows.len(), || {
            rows.iter()
                .enumerate()
                .flat_map(|(u, r)| r.iter().map(move |&v| (u as u32, v)))
        })
    }

    #[test]
    fn csr_rows_sort_and_dedup_in_place() {
        // Arcs arrive interleaved across rows, with repeats.
        let arcs = [
            (2, 5),
            (0, 3),
            (2, 1),
            (0, 3),
            (2, 5),
            (3, 0),
            (0, 1),
            (2, 1),
        ];
        let mut g = Csr::from_arcs(4, || arcs.iter().copied());
        assert_eq!(g.len(), 4);
        assert_eq!(g.row(0), &[3, 3, 1], "placement keeps arc order");
        assert_eq!(g.row(1), &[] as &[u32]);
        assert_eq!(g.row(2), &[5, 1, 5, 1]);
        g.sort_dedup_rows();
        assert_eq!(g.row(0), &[1, 3]);
        assert_eq!(g.row(1), &[] as &[u32]);
        assert_eq!(g.row(2), &[1, 5]);
        assert_eq!(g.row(3), &[0]);
        assert_eq!(g.targets.len(), 5, "repeats compacted away");
        let empty = Csr::from_arcs(0, std::iter::empty);
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn tarjan_simple_chain() {
        // 0 -> 1 -> 2 : three singleton SCCs.
        let adj = csr(&[&[1], &[2], &[]]);
        let comp = tarjan_scc(&adj);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[2]);
    }

    #[test]
    fn tarjan_cycle_collapses() {
        // 0 -> 1 -> 2 -> 0 plus 2 -> 3.
        let adj = csr(&[&[1], &[2], &[0, 3], &[]]);
        let comp = tarjan_scc(&adj);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[2], comp[3]);
    }

    #[test]
    fn tarjan_self_loop_and_isolated() {
        let adj = csr(&[&[0], &[]]);
        let comp = tarjan_scc(&adj);
        assert_ne!(comp[0], comp[1]);
    }
}
