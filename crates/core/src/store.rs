//! The per-timestep signal valuation: an epoch-stamped arena of packed
//! slots.
//!
//! The naive kernel reset every connection's three wires at the start of
//! every time-step — an O(edges) sweep that dominates idle netlists. The
//! arena instead keeps, per edge, one **state word** — `epoch << 6` over
//! two bits each for the data, enable and ack wires (`Unknown`, `No`,
//! `Yes`) — beside the data wire's payload:
//!
//! * **begin_step** bumps a single counter — O(1) regardless of netlist
//!   size;
//! * a **read** of a slot whose word carries another epoch returns
//!   `Unknown`, exactly what an explicit reset would have produced;
//! * a **write** of a stale slot starts from three `Unknown` wires, so
//!   only the edges actually touched in a step cost any slot traffic.
//!
//! Freshness, resolution, the transfer test and every enable / ack /
//! `No` write are integer operations on that one word. The payload is
//! touched only by a `Yes` data write (which stores it) and a `Yes` data
//! read (which clones it).
//!
//! **Payload lifetime.** Nothing clears a payload when its step ends or
//! when the data wire next resolves `No`: a stale payload outlives the
//! step that wrote it. It is unobservable — every read checks the state
//! word first and hands the payload out only under a `Yes` of the current
//! epoch — and it is released by the next `Yes` data write on the same
//! edge, or when the store is dropped. A model that sends one large
//! shared value and then falls silent therefore keeps that value alive
//! until the edge carries data again.
//!
//! The store also owns the **per-step transfer list**: every write
//! records the edge the moment a newly-resolved wire completes its
//! three-way handshake. Because wire resolution is monotonic, that moment
//! occurs exactly once per edge per step — the list is duplicate-free by
//! construction. The commit phase reads it to mark active instances, feed
//! the tracer, and maintain per-edge transfer counts without rescanning
//! every edge.

use crate::error::SimError;
use crate::netlist::EdgeId;
use crate::signal::{Res, Wire, WireWrite, WriteOutcome};
use crate::value::Value;

/// Two-bit wire states inside a slot's state word.
const UNKNOWN: u64 = 0;
const NO: u64 = 1;
const YES: u64 = 2;
/// Bits of the state word below the epoch: three wires, two bits each,
/// at `2 * Wire::idx()`.
const WIRE_BITS: u32 = 6;
/// All three wires `Yes`: the handshake completed.
const ALL_YES: u64 = YES | YES << 2 | YES << 4;
/// The low bit of every wire field; a wire is resolved when either of its
/// bits is set.
const EACH_WIRE: u64 = 0b01_01_01;

/// One connection: the packed state word and the data wire's payload
/// (meaningful only while the word says data is `Yes` this epoch).
#[derive(Clone, Debug)]
struct Slot {
    word: u64,
    payload: Value,
}

#[inline]
fn flag_state(yes: bool) -> u64 {
    if yes {
        YES
    } else {
        NO
    }
}

#[inline]
fn polarity(state: u64) -> Res<()> {
    match state {
        UNKNOWN => Res::Unknown,
        NO => Res::No,
        _ => Res::Yes(()),
    }
}

/// Epoch-stamped arena of connection states, one packed slot per edge.
#[derive(Debug)]
pub struct SignalStore {
    slots: Vec<Slot>,
    /// Current time-step serial, pre-shifted over the wire bits. Starts
    /// at serial 1 so freshly allocated slots (word 0) are stale, i.e.
    /// read as `Unknown`.
    base: u64,
    transfers: Vec<EdgeId>,
    /// Stale slots opened for writing since construction.
    freshened: u64,
    /// Wire resolutions stored since construction — one counter on the
    /// write path. Over a step free of oscillation each is a *new*
    /// resolution, and monotonicity bounds those by `3 * len()`: hitting
    /// that bound means every wire is resolved and the default phase has
    /// nothing to sweep for.
    stored: u64,
    /// `stored` when this step began.
    stored_at_step: u64,
    /// Wires the kernel lanes resolved this step, outside the slots.
    lane_resolved: u64,
    /// Set when an oscillation-tolerant write re-resolved a wire this
    /// step: the transfer list may then hold duplicates or stale entries
    /// and must be repaired by [`SignalStore::finalize_transfers`].
    osc_dirty: bool,
}

impl SignalStore {
    /// An arena for `n_edges` connections, all wires `Unknown`.
    pub fn new(n_edges: usize) -> Self {
        let empty = Slot {
            word: 0,
            payload: Value::Unit,
        };
        SignalStore {
            slots: vec![empty; n_edges],
            base: 1 << WIRE_BITS,
            transfers: Vec::new(),
            freshened: 0,
            stored: 0,
            stored_at_step: 0,
            lane_resolved: 0,
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
        self.base += 1 << WIRE_BITS;
        self.transfers.clear();
        self.stored_at_step = self.stored;
        self.lane_resolved = 0;
        self.osc_dirty = false;
    }

    /// The current time-step serial. It only ever grows, so a value
    /// remembered from one step never equals a later step's.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.base >> WIRE_BITS
    }

    /// True once every wire of every edge resolved this step — the
    /// default phase can then skip its cursor sweep entirely. Oscillation
    /// breaks the one-resolution-per-wire invariant the counter relies
    /// on, so a dirtied step conservatively reports `false`.
    #[inline]
    pub fn fully_resolved_step(&self) -> bool {
        let resolved = self.stored - self.stored_at_step + self.lane_resolved;
        !self.osc_dirty && resolved == 3 * self.slots.len() as u64
    }

    /// This step's wire bits of a slot: zero (three `Unknown`s) when its
    /// word carries another epoch.
    #[inline]
    fn bits(&self, slot: &Slot) -> u64 {
        let bits = slot.word ^ self.base;
        if bits >> WIRE_BITS == 0 {
            bits
        } else {
            0
        }
    }

    #[inline]
    fn wire(&self, e: EdgeId, wire: Wire) -> u64 {
        self.bits(&self.slots[e.0 as usize]) >> (2 * wire.idx()) & 3
    }

    /// Current resolution of the data wire (`Unknown` when untouched this
    /// step). Returns a clone; `Value` payloads are reference counted.
    #[inline]
    pub fn data(&self, e: EdgeId) -> Res<Value> {
        let slot = &self.slots[e.0 as usize];
        match self.bits(slot) & 3 {
            UNKNOWN => Res::Unknown,
            NO => Res::No,
            _ => Res::Yes(slot.payload.clone()),
        }
    }

    /// Current resolution of the enable wire.
    #[inline]
    pub fn enable(&self, e: EdgeId) -> Res<()> {
        polarity(self.wire(e, Wire::Enable))
    }

    /// Current resolution of the ack wire.
    #[inline]
    pub fn ack(&self, e: EdgeId) -> Res<()> {
        polarity(self.wire(e, Wire::Ack))
    }

    /// True once all three wires of the edge resolved this step.
    #[inline]
    pub fn is_fully_resolved(&self, e: EdgeId) -> bool {
        let bits = self.bits(&self.slots[e.0 as usize]);
        (bits | bits >> 1) & EACH_WIRE == EACH_WIRE
    }

    /// True iff a transfer completes on the edge this step.
    #[inline]
    pub fn transfers_on(&self, e: EdgeId) -> bool {
        self.slots[e.0 as usize].word == self.base | ALL_YES
    }

    /// The transferred value, if the edge's handshake completed this step.
    #[inline]
    pub fn transferred(&self, e: EdgeId) -> Option<&Value> {
        let slot = &self.slots[e.0 as usize];
        (slot.word == self.base | ALL_YES).then_some(&slot.payload)
    }

    /// Open a slot for writing: its wire bits this step, counting the
    /// freshen of a stale one. The first resolution of a stale slot always
    /// succeeds and stores the word, so the count is never left dangling.
    #[inline(always)]
    fn open(&mut self, e: EdgeId) -> u64 {
        let bits = self.slots[e.0 as usize].word ^ self.base;
        if bits >> WIRE_BITS == 0 {
            bits
        } else {
            self.freshened += 1;
            0
        }
    }

    /// Store a resolution already decided: `wire` of `e` becomes `state`,
    /// with the transfer list and the resolution accounting kept.
    #[inline(always)]
    fn commit(
        &mut self,
        e: EdgeId,
        bits: &mut u64,
        wire: Wire,
        state: u64,
        outcome: WriteOutcome,
    ) -> Result<WriteOutcome, SimError> {
        let shift = 2 * wire.idx();
        *bits = *bits & !(3 << shift) | state << shift;
        self.slots[e.0 as usize].word = self.base | *bits;
        self.stored += 1;
        if outcome == WriteOutcome::Oscillated {
            self.osc_dirty = true;
        }
        // A fresh resolution completes the handshake exactly once; an
        // oscillated one may have *created* a completed handshake, and a
        // possible duplicate (or a broken, stale entry) is fixed up in
        // finalize_transfers().
        if *bits == ALL_YES {
            self.transfers.push(e);
        }
        Ok(outcome)
    }

    /// The write path of everything that carries no payload — enable,
    /// ack, and a data `No`: resolve `wire` of `e` to `state` given the
    /// slot's current `bits`. Integer work on the state word only.
    /// Monotonic unless `tolerant`, where a conflicting drive re-resolves
    /// the wire instead of erroring.
    #[inline(always)]
    fn resolve(
        &mut self,
        e: EdgeId,
        bits: &mut u64,
        wire: Wire,
        state: u64,
        tolerant: bool,
    ) -> Result<WriteOutcome, SimError> {
        let current = *bits >> (2 * wire.idx()) & 3;
        if current == UNKNOWN {
            self.commit(e, bits, wire, state, WriteOutcome::NewlyResolved)
        } else if current == state {
            Ok(WriteOutcome::Idempotent)
        } else if tolerant {
            self.commit(e, bits, wire, state, WriteOutcome::Oscillated)
        } else if wire == Wire::Data {
            // Only `No` arrives here as data, so the wire holds a `Yes`.
            let held = self.slots[e.0 as usize].payload.clone();
            Err(non_monotonic(wire, Res::Yes(held), Res::No))
        } else {
            Err(non_monotonic(wire, polarity(current), polarity(state)))
        }
    }

    /// The write path of a data `Yes`: the only one that stores, compares
    /// or releases a payload.
    #[inline(always)]
    fn resolve_payload(
        &mut self,
        e: EdgeId,
        bits: &mut u64,
        v: Value,
        tolerant: bool,
    ) -> Result<WriteOutcome, SimError> {
        let slot = &mut self.slots[e.0 as usize];
        let current = *bits & 3;
        if current == UNKNOWN {
            // The one place a payload an earlier step left is released
            // (moved out first: assigning over it would keep `v` on the
            // stack across the old value's drop).
            drop(std::mem::replace(&mut slot.payload, v));
            return self.commit(e, bits, Wire::Data, YES, WriteOutcome::NewlyResolved);
        }
        if current == YES && slot.payload == v {
            return Ok(WriteOutcome::Idempotent);
        }
        if !tolerant {
            let old = match current {
                NO => Res::No,
                _ => Res::Yes(slot.payload.clone()),
            };
            return Err(non_monotonic(Wire::Data, old, Res::Yes(v.clone())));
        }
        slot.payload = v;
        self.commit(e, bits, Wire::Data, YES, WriteOutcome::Oscillated)
    }

    #[inline(always)]
    fn write_impl(
        &mut self,
        e: EdgeId,
        w: WireWrite,
        tolerant: bool,
    ) -> Result<WriteOutcome, SimError> {
        let wire = w.wire();
        let state = match w {
            WireWrite::Data(Res::Yes(v)) => {
                let mut bits = self.open(e);
                return self.resolve_payload(e, &mut bits, v, tolerant);
            }
            WireWrite::Enable(Res::Yes(())) | WireWrite::Ack(Res::Yes(())) => YES,
            WireWrite::Data(Res::No) | WireWrite::Enable(Res::No) | WireWrite::Ack(Res::No) => NO,
            _ => {
                return Err(SimError::contract(format!(
                    "attempt to drive {wire:?} back to Unknown"
                )))
            }
        };
        let mut bits = self.open(e);
        self.resolve(e, &mut bits, wire, state, tolerant)
    }

    /// Apply a [`WireWrite`] under the strict monotonic discipline:
    /// `Unknown -> No|Yes` only, with idempotent re-writes of an equal
    /// value allowed. When the write completes the edge's three-way
    /// handshake, the edge is appended to the per-step transfer list.
    #[inline]
    pub fn write(&mut self, e: EdgeId, w: WireWrite) -> Result<WriteOutcome, SimError> {
        self.write_impl(e, w, false)
    }

    /// Apply a [`WireWrite`] tolerating oscillation: a conflicting write
    /// re-resolves the wire instead of erroring, reported as
    /// [`WriteOutcome::Oscillated`]. An oscillated wire may complete *or
    /// break* an already-recorded handshake, so the transfer list is
    /// marked dirty and repaired lazily by
    /// [`SignalStore::finalize_transfers`] before the commit phase reads
    /// it.
    #[inline]
    pub fn write_tolerant(&mut self, e: EdgeId, w: WireWrite) -> Result<WriteOutcome, SimError> {
        self.write_impl(e, w, true)
    }

    /// `ctx.send`: drive the data wire to `Yes(v)` and the enable wire to
    /// `Yes` in one slot access — with [`SignalStore::send_nothing`] the
    /// hottest write in the kernel. `v` arrives as a `Value`, not inside a
    /// `Res`: unwrapping one splits the move around the tag just matched
    /// on, and the reload behind it stalls (docs/KERNEL.md §8).
    #[inline(always)]
    pub fn send(&mut self, e: EdgeId, v: Value) -> Result<[WriteOutcome; 2], SimError> {
        let mut bits = self.open(e);
        let data = self.resolve_payload(e, &mut bits, v, false)?;
        let enable = self.resolve(e, &mut bits, Wire::Enable, YES, false)?;
        Ok([data, enable])
    }

    /// `ctx.send_nothing`: drive the data and enable wires to `No` — two
    /// field updates of one word; the payload is not looked at.
    #[inline(always)]
    pub fn send_nothing(&mut self, e: EdgeId) -> Result<[WriteOutcome; 2], SimError> {
        let mut bits = self.open(e);
        let data = self.resolve(e, &mut bits, Wire::Data, NO, false)?;
        let enable = self.resolve(e, &mut bits, Wire::Enable, NO, false)?;
        Ok([data, enable])
    }

    /// `ctx.set_enable`: drive the enable wire from a plain bool.
    #[inline]
    pub fn write_enable(&mut self, e: EdgeId, yes: bool) -> Result<WriteOutcome, SimError> {
        let mut bits = self.open(e);
        self.resolve(e, &mut bits, Wire::Enable, flag_state(yes), false)
    }

    /// `ctx.set_ack`: drive the ack wire from a plain bool.
    #[inline]
    pub fn write_ack(&mut self, e: EdgeId, yes: bool) -> Result<WriteOutcome, SimError> {
        let mut bits = self.open(e);
        self.resolve(e, &mut bits, Wire::Ack, flag_state(yes), false)
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
        self.lane_resolved += wires;
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
        self.freshened + self.stored
    }
}

/// The contract violation of a strict write. Off the hot path: the only
/// place that rebuilds the [`Res`] values a conflicting write stands for.
#[cold]
#[inline(never)]
fn non_monotonic<T: std::fmt::Debug>(wire: Wire, old: Res<T>, new: Res<T>) -> SimError {
    SimError::contract(format!(
        "non-monotonic write on {wire:?}: already {old:?}, new {new:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::flag;

    const E0: EdgeId = EdgeId(0);
    const E1: EdgeId = EdgeId(1);

    fn complete(store: &mut SignalStore, e: EdgeId, v: u64) {
        let data = WireWrite::Data(Res::Yes(Value::Word(v)));
        store.write(e, data).unwrap();
        store.write(e, WireWrite::Enable(Res::Yes(()))).unwrap();
        store.write(e, WireWrite::Ack(Res::Yes(()))).unwrap();
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
        store.write(E0, WireWrite::Data(Res::No)).unwrap();
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
        store.write(E1, WireWrite::Ack(Res::Yes(()))).unwrap();
        complete(&mut store, E0, 6);
        assert_eq!(store.transfers(), &[E1, E0], "resolution order, one-shot");
        assert_eq!(store.transferred(E1).and_then(Value::as_word), Some(5));
    }

    #[test]
    fn incomplete_handshake_not_recorded() {
        let mut store = SignalStore::new(1);
        let data = WireWrite::Data(Res::Yes(Value::Word(9)));
        store.write(E0, data).unwrap();
        store.write(E0, WireWrite::Enable(Res::Yes(()))).unwrap();
        store.write(E0, WireWrite::Ack(Res::No)).unwrap();
        assert!(store.transfers().is_empty());
        assert!(store.transferred(E0).is_none());
    }

    #[test]
    fn slot_is_one_word_and_one_payload() {
        // Two slots to a cache line; state word and payload together, so
        // a send touches one line (a words/payloads split costs two).
        assert_eq!(std::mem::size_of::<Slot>(), 32);
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
            Drive::Send(v) => store.send(E0, Value::Word(v)).map(|_| ()),
            Drive::SendNothing => store.send_nothing(E0).map(|_| ()),
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
}
