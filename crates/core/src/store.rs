//! The per-timestep signal valuation: an epoch-stamped arena.
//!
//! The naive kernel reset every connection's three wires at the start of
//! every time-step — an O(edges) sweep that dominates idle netlists. The
//! arena instead stamps each slot with the epoch (time-step serial) it was
//! last written in:
//!
//! * **begin_step** bumps a single counter — O(1) regardless of netlist
//!   size;
//! * a **read** of a slot whose stamp is stale returns `Unknown`, exactly
//!   what an explicit reset would have produced;
//! * a **write** lazily freshens the slot (resets its wires, restamps it)
//!   before applying, so only the edges actually touched in a step cost
//!   any slot traffic.
//!
//! The store also owns the **per-step transfer list**: every write goes
//! through [`SignalStore::write_with`], which records the edge the moment
//! a newly-resolved wire completes its three-way handshake. Because wire
//! resolution is monotonic, that moment occurs exactly once per edge per
//! step — the list is duplicate-free by construction. The commit phase
//! reads it to mark active instances, feed the tracer, and maintain
//! per-edge transfer counts without rescanning every edge.

use crate::error::SimError;
use crate::netlist::EdgeId;
use crate::signal::{flag, Res, SignalState, WireWrite, WriteOutcome};
use crate::value::Value;

#[derive(Clone, Debug, Default)]
struct Slot {
    state: SignalState,
    stamp: u64,
}

/// Epoch-stamped arena of [`SignalState`]s, one per edge.
#[derive(Debug, Default)]
pub struct SignalStore {
    slots: Vec<Slot>,
    /// Current time-step serial. Starts at 1 so freshly allocated slots
    /// (stamp 0) are stale, i.e. read as `Unknown`.
    epoch: u64,
    transfers: Vec<EdgeId>,
    slot_writes: u64,
    /// Wires newly resolved this step. Monotonicity bounds it by
    /// `3 * len()`; hitting that bound means every wire is resolved and
    /// the default phase has nothing to sweep for.
    resolved: u64,
    /// Set when an oscillation-tolerant write re-resolved a wire this
    /// step: the transfer list may then hold duplicates or stale entries
    /// and must be repaired by [`SignalStore::finalize_transfers`].
    osc_dirty: bool,
}

impl SignalStore {
    /// An arena for `n_edges` connections, all wires `Unknown`.
    pub fn new(n_edges: usize) -> Self {
        SignalStore {
            slots: vec![Slot::default(); n_edges],
            epoch: 1,
            transfers: Vec::new(),
            slot_writes: 0,
            resolved: 0,
            osc_dirty: false,
        }
    }

    /// Number of connections in the arena.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the arena holds no connections.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Start a new time-step: one counter bump, no slot traffic.
    #[inline]
    pub fn begin_step(&mut self) {
        self.epoch += 1;
        self.transfers.clear();
        self.resolved = 0;
        self.osc_dirty = false;
    }

    /// The current time-step serial. It only ever grows, so a value
    /// remembered from one step never equals a later step's.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once every wire of every edge resolved this step — the
    /// default phase can then skip its cursor sweep entirely. Oscillation
    /// breaks the one-resolution-per-wire invariant the counter relies
    /// on, so a dirtied step conservatively reports `false`.
    #[inline]
    pub fn fully_resolved_step(&self) -> bool {
        !self.osc_dirty && self.resolved == 3 * self.slots.len() as u64
    }

    #[inline]
    fn fresh(&self, e: EdgeId) -> Option<&SignalState> {
        let slot = &self.slots[e.0 as usize];
        (slot.stamp == self.epoch).then_some(&slot.state)
    }

    /// Current resolution of the data wire (`Unknown` when untouched this
    /// step). Returns a clone; `Value` payloads are reference counted.
    #[inline]
    pub fn data(&self, e: EdgeId) -> Res<Value> {
        self.fresh(e).map_or(Res::Unknown, |s| s.data.clone())
    }

    /// Current resolution of the enable wire.
    #[inline]
    pub fn enable(&self, e: EdgeId) -> Res<()> {
        self.fresh(e).map_or(Res::Unknown, |s| s.enable.clone())
    }

    /// Current resolution of the ack wire.
    #[inline]
    pub fn ack(&self, e: EdgeId) -> Res<()> {
        self.fresh(e).map_or(Res::Unknown, |s| s.ack.clone())
    }

    /// True once all three wires of the edge resolved this step.
    #[inline]
    pub fn is_fully_resolved(&self, e: EdgeId) -> bool {
        self.fresh(e)
            .is_some_and(|s| s.data.is_resolved() && s.enable.is_resolved() && s.ack.is_resolved())
    }

    /// True iff a transfer completes on the edge this step.
    #[inline]
    pub fn transfers_on(&self, e: EdgeId) -> bool {
        self.fresh(e).is_some_and(|s| s.transfers())
    }

    /// The transferred value, if the edge's handshake completed this step.
    #[inline]
    pub fn transferred(&self, e: EdgeId) -> Option<&Value> {
        self.fresh(e).and_then(|s| s.transferred())
    }

    /// Apply a monotonic wire write. The slot is lazily freshened first;
    /// when the write completes the edge's three-way handshake, the edge
    /// is appended to the per-step transfer list.
    #[inline]
    pub fn write_with(
        &mut self,
        e: EdgeId,
        f: impl FnOnce(&mut SignalState) -> Result<WriteOutcome, SimError>,
    ) -> Result<WriteOutcome, SimError> {
        let slot = &mut self.slots[e.0 as usize];
        if slot.stamp != self.epoch {
            slot.state.reset();
            slot.stamp = self.epoch;
            self.slot_writes += 1;
        }
        let outcome = f(&mut slot.state)?;
        self.note(e, outcome);
        Ok(outcome)
    }

    /// Apply a [`WireWrite`] under the strict monotonic discipline,
    /// maintaining the per-step transfer list like
    /// [`SignalStore::write_with`].
    ///
    /// First-touch fast path: when the slot is stale (this is the first
    /// write on the edge this step), all three wires are by definition
    /// `Unknown`, so the write can neither conflict (no monotonicity
    /// comparison — for `Value` payloads that comparison is a deep
    /// equality walk) nor complete the three-way handshake (no transfer
    /// probe). The module hot path — one fresh resolution per wire per
    /// step — therefore runs branch-light and, for scalar values, without
    /// touching any `Arc` refcount.
    #[inline]
    pub fn write(&mut self, e: EdgeId, w: WireWrite) -> Result<WriteOutcome, SimError> {
        let slot = &mut self.slots[e.0 as usize];
        if slot.stamp != self.epoch {
            slot.state.reset();
            slot.stamp = self.epoch;
            self.slot_writes += 1;
            slot.state.resolve_first(w)?;
            self.slot_writes += 1;
            self.resolved += 1;
            return Ok(WriteOutcome::NewlyResolved);
        }
        let outcome = slot.state.write(w)?;
        self.note(e, outcome);
        Ok(outcome)
    }

    /// `ctx.send` / `ctx.send_nothing`: drive the data wire and an enable
    /// wire of the same polarity in one slot access — the hottest write
    /// in the kernel. On first touch (the overwhelmingly common case: one
    /// sender resolving its output exactly once per step) this costs a
    /// single stamp check and no monotonicity comparison; a fresh slot
    /// falls back to two strict per-wire writes. The ack wire is
    /// necessarily `Unknown` on the first-touch path, so no transfer can
    /// complete there and the transfer-list probe is skipped too. Inlined
    /// into its callers: in `ctx.send` / `ctx.send_nothing` the polarity
    /// of `data` is a constant, so `send_nothing` has no value to build,
    /// compare or drop.
    #[inline(always)]
    pub fn send(&mut self, e: EdgeId, data: Res<Value>) -> Result<[WriteOutcome; 2], SimError> {
        let enable = match data {
            Res::Yes(_) => Res::Yes(()),
            Res::No => Res::No,
            Res::Unknown => {
                return Err(SimError::contract(
                    "attempt to drive a sender wire back to Unknown".to_owned(),
                ))
            }
        };
        let slot = &mut self.slots[e.0 as usize];
        if slot.stamp != self.epoch {
            slot.stamp = self.epoch;
            slot.state.data = data;
            slot.state.enable = enable;
            slot.state.ack = Res::Unknown;
            self.slot_writes += 3;
            self.resolved += 2;
            return Ok([WriteOutcome::NewlyResolved; 2]);
        }
        let o1 = slot.state.write_data(data)?;
        self.note(e, o1);
        let o2 = self.slots[e.0 as usize].state.write_enable(enable)?;
        self.note(e, o2);
        Ok([o1, o2])
    }

    /// Account one strict wire write: count a new resolution and record
    /// the edge when it completed the handshake.
    #[inline]
    fn note(&mut self, e: EdgeId, outcome: WriteOutcome) {
        if outcome == WriteOutcome::NewlyResolved {
            self.slot_writes += 1;
            self.resolved += 1;
            if self.slots[e.0 as usize].state.transfers() {
                self.transfers.push(e);
            }
        }
    }

    /// `ctx.set_enable`: drive the enable wire from a plain bool.
    #[inline]
    pub fn write_enable(&mut self, e: EdgeId, yes: bool) -> Result<WriteOutcome, SimError> {
        self.write_flag::<false>(e, yes)
    }

    /// `ctx.set_ack`: drive the ack wire from a plain bool.
    #[inline]
    pub fn write_ack(&mut self, e: EdgeId, yes: bool) -> Result<WriteOutcome, SimError> {
        self.write_flag::<true>(e, yes)
    }

    /// The scalar write of a payload-free wire (`ACK`: the ack wire,
    /// otherwise enable): a strict monotonic write with the transfer-list
    /// upkeep of [`SignalStore::write`], minus the [`WireWrite`] value.
    /// On first touch the other two wires are `Unknown`: nothing to
    /// compare against and no transfer to complete.
    #[inline]
    fn write_flag<const ACK: bool>(
        &mut self,
        e: EdgeId,
        yes: bool,
    ) -> Result<WriteOutcome, SimError> {
        let slot = &mut self.slots[e.0 as usize];
        if slot.stamp != self.epoch {
            slot.state.reset();
            slot.stamp = self.epoch;
            if ACK {
                slot.state.ack = flag(yes);
            } else {
                slot.state.enable = flag(yes);
            }
            self.slot_writes += 2;
            self.resolved += 1;
            return Ok(WriteOutcome::NewlyResolved);
        }
        let outcome = if ACK {
            slot.state.write_ack(flag(yes))?
        } else {
            slot.state.write_enable(flag(yes))?
        };
        self.note(e, outcome);
        Ok(outcome)
    }

    /// Apply a [`WireWrite`] tolerating oscillation (see
    /// [`SignalState::write_tolerant`]). An oscillated wire may complete
    /// *or break* an already-recorded handshake, so the transfer list is
    /// marked dirty and repaired lazily by
    /// [`SignalStore::finalize_transfers`] before the commit phase reads
    /// it.
    #[inline]
    pub fn write_tolerant(&mut self, e: EdgeId, w: WireWrite) -> Result<WriteOutcome, SimError> {
        let slot = &mut self.slots[e.0 as usize];
        if slot.stamp != self.epoch {
            slot.state.reset();
            slot.stamp = self.epoch;
            self.slot_writes += 1;
        }
        let outcome = slot.state.write_tolerant(w)?;
        match outcome {
            WriteOutcome::NewlyResolved => self.note(e, outcome),
            WriteOutcome::Oscillated => {
                self.slot_writes += 1;
                self.osc_dirty = true;
                // The flip may have *created* a completed handshake; a
                // possible duplicate (or a broken, stale entry) is fixed
                // up in finalize_transfers().
                if slot.state.transfers() {
                    self.transfers.push(e);
                }
            }
            WriteOutcome::Idempotent => {}
        }
        Ok(outcome)
    }

    /// Repair the transfer list after oscillation-tolerant writes: drop
    /// entries whose handshake no longer completes and deduplicate. A
    /// no-op (and O(1)) unless an oscillated write dirtied the list this
    /// step; the repaired list is in edge-id order.
    pub fn finalize_transfers(&mut self) {
        if !self.osc_dirty {
            return;
        }
        self.osc_dirty = false;
        let mut list = std::mem::take(&mut self.transfers);
        list.sort_unstable_by_key(|e| e.0);
        list.dedup();
        list.retain(|&e| self.transfers_on(e));
        self.transfers = list;
    }

    /// Credit the resolution counter for wires resolved outside the
    /// store's slots — the specialized kernels' unboxed fast lanes
    /// (`crate::kernel`). Fast-lane edges never touch their slots, so
    /// without the credit [`SignalStore::fully_resolved_step`] could
    /// never report true on a plan with specialized instances and the
    /// default phase would sweep every step.
    #[inline]
    pub(crate) fn credit_fast_resolved(&mut self, wires: u64) {
        self.resolved += wires;
    }

    /// Edges whose transfer completed this step, in resolution order.
    /// Duplicate-free (monotonicity: the handshake completes exactly once).
    #[inline]
    pub fn transfers(&self) -> &[EdgeId] {
        &self.transfers
    }

    /// Total slot mutations (lazy freshens + newly-resolved writes) since
    /// construction. Exposed so tests can verify that starting a time-step
    /// costs zero slot traffic.
    pub fn slot_writes(&self) -> u64 {
        self.slot_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E0: EdgeId = EdgeId(0);
    const E1: EdgeId = EdgeId(1);

    fn complete(store: &mut SignalStore, e: EdgeId, v: u64) {
        store
            .write_with(e, |s| s.write_data(Res::Yes(Value::Word(v))))
            .unwrap();
        store
            .write_with(e, |s| s.write_enable(Res::Yes(())))
            .unwrap();
        store.write_with(e, |s| s.write_ack(Res::Yes(()))).unwrap();
    }

    #[test]
    fn fresh_store_reads_unknown() {
        let store = SignalStore::new(2);
        assert_eq!(store.data(E0), Res::Unknown);
        assert_eq!(store.enable(E1), Res::Unknown);
        assert_eq!(store.ack(E0), Res::Unknown);
        assert!(!store.is_fully_resolved(E0));
        assert!(!store.transfers_on(E0));
    }

    #[test]
    fn begin_step_staleness_reads_as_reset() {
        let mut store = SignalStore::new(2);
        complete(&mut store, E0, 7);
        assert!(store.transfers_on(E0));
        store.begin_step();
        // No slot was touched, yet every read sees a reset wire.
        assert_eq!(store.data(E0), Res::Unknown);
        assert!(!store.transfers_on(E0));
        assert!(store.transfers().is_empty());
    }

    #[test]
    fn begin_step_costs_zero_slot_writes() {
        // The acceptance test for O(1) reset: an idle time-step (begin,
        // nothing driven) performs no slot mutation at all, independent of
        // how many edges exist or how many were dirtied before.
        let mut store = SignalStore::new(64);
        for i in 0..64 {
            complete(&mut store, EdgeId(i), u64::from(i));
        }
        let dirtied = store.slot_writes();
        assert!(dirtied > 0);
        store.begin_step();
        assert_eq!(
            store.slot_writes(),
            dirtied,
            "starting a step must not write any slot"
        );
        for i in 0..64 {
            assert_eq!(store.data(EdgeId(i)), Res::Unknown);
        }
    }

    #[test]
    fn write_lazily_freshens_only_touched_slot() {
        let mut store = SignalStore::new(2);
        complete(&mut store, E0, 1);
        complete(&mut store, E1, 2);
        store.begin_step();
        let before = store.slot_writes();
        store.write_with(E0, |s| s.write_data(Res::No)).unwrap();
        // One freshen + one resolved write, both on the touched slot only.
        assert_eq!(store.slot_writes(), before + 2);
        assert_eq!(store.data(E0), Res::No);
        assert_eq!(store.data(E1), Res::Unknown, "untouched slot stays stale");
    }

    #[test]
    fn transfer_list_records_each_edge_once() {
        let mut store = SignalStore::new(3);
        complete(&mut store, E1, 5);
        // Idempotent re-writes after completion must not duplicate.
        store.write_with(E1, |s| s.write_ack(Res::Yes(()))).unwrap();
        complete(&mut store, E0, 6);
        assert_eq!(store.transfers(), &[E1, E0], "resolution order, one-shot");
        assert_eq!(store.transferred(E1).and_then(Value::as_word), Some(5));
    }

    #[test]
    fn incomplete_handshake_not_recorded() {
        let mut store = SignalStore::new(1);
        store
            .write_with(E0, |s| s.write_data(Res::Yes(Value::Word(9))))
            .unwrap();
        store
            .write_with(E0, |s| s.write_enable(Res::Yes(())))
            .unwrap();
        store.write_with(E0, |s| s.write_ack(Res::No)).unwrap();
        assert!(store.transfers().is_empty());
        assert!(store.transferred(E0).is_none());
    }

    #[test]
    fn value_write_matches_closure_write() {
        let mut store = SignalStore::new(1);
        assert_eq!(
            store
                .write(E0, WireWrite::Data(Res::Yes(Value::Word(3))))
                .unwrap(),
            WriteOutcome::NewlyResolved
        );
        assert_eq!(store.data(E0).as_yes().and_then(Value::as_word), Some(3));
        assert!(store.write(E0, WireWrite::Data(Res::No)).is_err());
    }

    /// One handler-level drive, applied through the scalar entry points
    /// or as the `WireWrite` values it stands for.
    #[derive(Clone, Copy, Debug)]
    enum Drive {
        Send(u64),
        SendNothing,
        Enable(bool),
        Ack(bool),
    }

    fn scalar(store: &mut SignalStore, d: Drive) -> Result<(), SimError> {
        match d {
            Drive::Send(v) => store.send(E0, Res::Yes(Value::Word(v))).map(|_| ()),
            Drive::SendNothing => store.send(E0, Res::No).map(|_| ()),
            Drive::Enable(en) => store.write_enable(E0, en).map(|_| ()),
            Drive::Ack(a) => store.write_ack(E0, a).map(|_| ()),
        }
    }

    fn by_value(store: &mut SignalStore, d: Drive) -> Result<(), SimError> {
        let pair = |store: &mut SignalStore, data: Res<Value>, en: bool| {
            store.write(E0, WireWrite::Data(data))?;
            store.write(E0, WireWrite::Enable(flag(en))).map(|_| ())
        };
        match d {
            Drive::Send(v) => pair(store, Res::Yes(Value::Word(v)), true),
            Drive::SendNothing => pair(store, Res::No, false),
            Drive::Enable(en) => store.write(E0, WireWrite::Enable(flag(en))).map(|_| ()),
            Drive::Ack(a) => store.write(E0, WireWrite::Ack(flag(a))).map(|_| ()),
        }
    }

    #[test]
    fn scalar_entry_points_match_the_value_writes() {
        // Every sequence of three drives on one edge, second step of a
        // store (so the first drive meets a stale slot holding last
        // step's values): same verdicts, same messages, same wires, same
        // transfer list and the same resolution accounting.
        let drives = [
            Drive::Send(1),
            Drive::Send(2),
            Drive::SendNothing,
            Drive::Enable(true),
            Drive::Enable(false),
            Drive::Ack(true),
            Drive::Ack(false),
        ];
        for a in drives {
            for b in drives {
                for c in drives {
                    let mut s = SignalStore::new(1);
                    let mut v = SignalStore::new(1);
                    complete(&mut s, E0, 9);
                    complete(&mut v, E0, 9);
                    s.begin_step();
                    v.begin_step();
                    for d in [a, b, c] {
                        let (rs, rv) = (scalar(&mut s, d), by_value(&mut v, d));
                        assert_eq!(
                            rs.as_ref().map_err(|e| e.to_string()),
                            rv.as_ref().map_err(|e| e.to_string()),
                            "{a:?} {b:?} {c:?} at {d:?}"
                        );
                        assert_eq!(s.data(E0), v.data(E0));
                        assert_eq!(s.enable(E0), v.enable(E0));
                        assert_eq!(s.ack(E0), v.ack(E0));
                        assert_eq!(s.transfers(), v.transfers());
                        assert_eq!(s.fully_resolved_step(), v.fully_resolved_step());
                        assert_eq!(s.slot_writes(), v.slot_writes());
                        if rs.is_err() {
                            break; // a rejected write fails the step
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tolerant_write_repairs_transfer_list() {
        let mut store = SignalStore::new(2);
        complete(&mut store, E0, 7);
        assert_eq!(store.transfers(), &[E0]);
        // Break the recorded handshake by flipping ack to No.
        assert_eq!(
            store.write_tolerant(E0, WireWrite::Ack(Res::No)).unwrap(),
            WriteOutcome::Oscillated
        );
        store.finalize_transfers();
        assert!(store.transfers().is_empty(), "broken handshake dropped");
        // Flip it back: the handshake completes again, recorded once.
        store
            .write_tolerant(E0, WireWrite::Ack(Res::Yes(())))
            .unwrap();
        complete(&mut store, E1, 8);
        store.finalize_transfers();
        assert_eq!(store.transfers(), &[E0, E1], "deduped, edge-id order");
        // With no oscillation this step, finalize is a no-op.
        store.begin_step();
        complete(&mut store, E1, 9);
        store.finalize_transfers();
        assert_eq!(store.transfers(), &[E1]);
    }

    #[test]
    fn monotonicity_violations_surface_through_write_with() {
        let mut store = SignalStore::new(1);
        store.write_with(E0, |s| s.write_data(Res::No)).unwrap();
        assert!(store
            .write_with(E0, |s| s.write_data(Res::Yes(Value::Word(1))))
            .is_err());
    }
}
