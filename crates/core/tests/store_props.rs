//! Property test of the epoch-stamped [`SignalStore`] against a reference
//! model that pays for an explicit O(edges) reset sweep at every step
//! boundary. Over arbitrary interleavings of monotonic wire writes,
//! reads, and step boundaries, the two must be observationally identical:
//! same read results, same write errors, same completed-transfer sets.
//!
//! Below it, what the packed slot must keep to itself: a payload
//! outlives its step inside the store, and no read may ever return it.

use liberty_core::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N_EDGES: usize = 8;

/// One operation in a random store workout.
#[derive(Clone, Debug)]
enum Op {
    /// Write `Res::No` / `Res::Yes(..)` to one wire of one edge.
    Write { edge: usize, wire: u8, yes: bool },
    /// Advance to the next time-step.
    BeginStep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Roughly one step boundary per eight writes.
    (0u8..9, 0..N_EDGES, 0u8..3, any::<bool>()).prop_map(|(sel, edge, wire, yes)| {
        if sel == 0 {
            Op::BeginStep
        } else {
            Op::Write { edge, wire, yes }
        }
    })
}

/// Reference store: a plain slot vector reset by an explicit sweep.
struct ModelStore {
    slots: Vec<SignalState>,
    transfers: Vec<EdgeId>,
}

impl ModelStore {
    fn new() -> Self {
        Self {
            slots: (0..N_EDGES).map(|_| SignalState::default()).collect(),
            transfers: Vec::new(),
        }
    }

    fn begin_step(&mut self) {
        // The cost the epoch stamp avoids: touch every slot.
        for s in &mut self.slots {
            s.reset();
        }
        self.transfers.clear();
    }

    fn write(&mut self, edge: usize, wire: u8, yes: bool) -> Result<WriteOutcome, SimError> {
        let s = &mut self.slots[edge];
        let out = s.write(wire_write(wire, yes))?;
        if out == WriteOutcome::NewlyResolved && s.transfers() {
            self.transfers.push(EdgeId(edge as u32));
        }
        Ok(out)
    }
}

/// The write an op stands for: the model applies it to its
/// [`SignalState`], the store to its packed slot.
fn wire_write(wire: u8, yes: bool) -> WireWrite {
    let flag = if yes { Res::Yes(()) } else { Res::No };
    match wire {
        0 if yes => WireWrite::Data(Res::Yes(Value::Word(7))),
        0 => WireWrite::Data(Res::No),
        1 => WireWrite::Enable(flag),
        _ => WireWrite::Ack(flag),
    }
}

/// Every observable of both stores must match.
fn assert_equiv(store: &SignalStore, model: &ModelStore) {
    for e in 0..N_EDGES {
        let id = EdgeId(e as u32);
        let m = &model.slots[e];
        assert_eq!(store.data(id), m.data.clone());
        assert_eq!(store.enable(id), m.enable.clone());
        assert_eq!(store.ack(id), m.ack.clone());
        let resolved = m.data.is_resolved() && m.enable.is_resolved() && m.ack.is_resolved();
        assert_eq!(store.is_fully_resolved(id), resolved);
        assert_eq!(store.transfers_on(id), m.transfers());
        assert_eq!(store.transferred(id).cloned(), m.transferred().cloned());
    }
    assert_eq!(store.transfers(), model.transfers.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The epoch-stamped store and the explicit-reset model agree on
    /// every read, every write outcome (including rejected contradictory
    /// writes), and the per-step transfer list, under random op streams.
    #[test]
    fn epoch_store_matches_explicit_reset_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut store = SignalStore::new(N_EDGES);
        let mut model = ModelStore::new();
        // Both start inside a step, as the simulator uses them.
        store.begin_step();
        model.begin_step();
        for op in &ops {
            match *op {
                Op::Write { edge, wire, yes } => {
                    let got = store.write(EdgeId(edge as u32), wire_write(wire, yes));
                    let want = model.write(edge, wire, yes);
                    match (got, want) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                        (a, b) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", a, b),
                    }
                }
                Op::BeginStep => {
                    store.begin_step();
                    model.begin_step();
                }
            }
            assert_equiv(&store, &model);
        }
    }

    /// Stale slots read as fully Unknown no matter what the previous step
    /// left in them — begin_step alone invalidates everything.
    #[test]
    fn begin_step_invalidates_all_reads(writes in prop::collection::vec((0..N_EDGES, 0u8..3, any::<bool>()), 0..40)) {
        let mut store = SignalStore::new(N_EDGES);
        store.begin_step();
        for &(edge, wire, yes) in &writes {
            // Contradictory writes may error; the surviving state is
            // irrelevant here, only that begin_step clears it.
            let _ = store.write(EdgeId(edge as u32), wire_write(wire, yes));
        }
        store.begin_step();
        for e in 0..N_EDGES {
            let id = EdgeId(e as u32);
            prop_assert_eq!(store.data(id), Res::Unknown);
            prop_assert_eq!(store.enable(id), Res::Unknown);
            prop_assert_eq!(store.ack(id), Res::Unknown);
            prop_assert!(!store.transfers_on(id));
        }
        prop_assert!(store.transfers().is_empty());
    }
}

const E0: EdgeId = EdgeId(0);
const E1: EdgeId = EdgeId(1);

#[test]
fn earlier_payload_is_never_observable() {
    let mut store = SignalStore::new(1);
    store.send(E0, Value::Word(7)).unwrap();
    store.write_ack(E0, true).unwrap();
    assert_eq!(store.transferred(E0).and_then(Value::as_word), Some(7));
    // A `No` step: the slot still holds the 7, no read returns it.
    store.begin_step();
    store.send_nothing(E0).unwrap();
    store.write_ack(E0, true).unwrap();
    assert_eq!(store.data(E0), Res::No);
    assert!(store.is_fully_resolved(E0));
    assert!(!store.transfers_on(E0));
    assert!(store.transferred(E0).is_none());
    assert!(store.transfers().is_empty());
    // An untouched step.
    store.begin_step();
    assert_eq!(store.data(E0), Res::Unknown);
    assert!(!store.transfers_on(E0));
    assert!(store.transferred(E0).is_none());
    // Enable and ack alone do not make the old payload a transfer.
    store.write_enable(E0, true).unwrap();
    store.write_ack(E0, true).unwrap();
    assert_eq!(store.data(E0), Res::Unknown);
    assert!(!store.transfers_on(E0));
    assert!(store.transferred(E0).is_none());
    // A fresh `Yes` replaces it.
    store
        .write(E0, WireWrite::Data(Res::Yes(Value::Word(8))))
        .unwrap();
    assert_eq!(store.transferred(E0).and_then(Value::as_word), Some(8));
}

/// Opaque payload counting its drops.
#[derive(Debug)]
struct Tracked(Arc<AtomicUsize>);
impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}
/// Layout: `[address of the counter]`, the identity `==` compares.
impl Payload for Tracked {
    const KIND: &'static str = "test.Tracked";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(Arc::as_ptr(&self.0) as u64);
    }
}
impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn payload_is_released_by_the_next_payload_write_or_the_drop() {
    let drops = Arc::new(AtomicUsize::new(0));
    let dropped = || drops.load(Ordering::Relaxed);
    let tracked = || Value::wrap(Tracked(drops.clone()));
    let mut store = SignalStore::new(2);
    store.send(E0, tracked()).unwrap();
    // It outlives its step, a `No` step and an untouched step ...
    store.begin_step();
    store.send_nothing(E0).unwrap();
    store.begin_step();
    store.begin_step();
    assert_eq!(dropped(), 0);
    // ... another edge's traffic ...
    store.send(E1, Value::Word(1)).unwrap();
    assert_eq!(dropped(), 0);
    // ... and goes with the next payload written on its edge.
    store.send(E0, tracked()).unwrap();
    assert_eq!(dropped(), 1);
    // An equal re-send is idempotent: the offered copy is dropped,
    // the held one stays. (Two `Tracked` are equal iff they count
    // into the same cell.)
    store.send(E0, tracked()).unwrap();
    assert_eq!(dropped(), 2);
    assert!(store.data(E0).is_yes());
    // Dropping the store releases what it still holds.
    drop(store);
    assert_eq!(dropped(), 3);
}

#[test]
fn contract_violations_name_both_values() {
    let mut store = SignalStore::new(1);
    store.write(E0, WireWrite::Data(Res::No)).unwrap();
    let err = store
        .write(E0, WireWrite::Data(Res::Yes(Value::Word(1))))
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("non-monotonic write on Data: already No, new Yes(Word(1))"),
        "{err}"
    );
    store.write_ack(E0, true).unwrap();
    let err = store.write_ack(E0, false).unwrap_err();
    assert!(
        err.to_string()
            .contains("non-monotonic write on Ack: already Yes(()), new No"),
        "{err}"
    );
    let err = store
        .write(E0, WireWrite::Enable(Res::Unknown))
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("attempt to drive Enable back to Unknown"),
        "{err}"
    );
}
