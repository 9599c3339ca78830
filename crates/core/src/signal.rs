//! Three-signal connection state and the monotonic resolution discipline.
//!
//! Every LSE connection is really three wires (paper §2.1): a **data** wire
//! and an **enable** wire driven by the sender, and an **ack** wire driven
//! by the receiver. Within one time-step each wire resolves *monotonically*
//! from [`Res::Unknown`] to either [`Res::No`] or [`Res::Yes`]; once
//! resolved it may not change. This is the strict-but-general communication
//! contract that lets independently developed components interoperate: a
//! transfer happens in a time-step iff all three wires resolve to `Yes`.

use crate::error::SimError;
use crate::value::Value;

/// Resolution state of one wire within a time-step.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Res<T> {
    /// Not yet driven this time-step.
    #[default]
    Unknown,
    /// Resolved: nothing (no data / not enabled / not accepted).
    No,
    /// Resolved: present, with the wire's payload.
    Yes(T),
}

impl<T> Res<T> {
    /// True once the wire has resolved to `No` or `Yes`.
    pub fn is_resolved(&self) -> bool {
        !matches!(self, Res::Unknown)
    }

    /// True iff resolved to `Yes`.
    pub fn is_yes(&self) -> bool {
        matches!(self, Res::Yes(_))
    }

    /// True iff resolved to `No`.
    pub fn is_no(&self) -> bool {
        matches!(self, Res::No)
    }

    /// The payload if resolved `Yes`.
    pub fn as_yes(&self) -> Option<&T> {
        match self {
            Res::Yes(v) => Some(v),
            _ => None,
        }
    }
}

/// The resolution of a payload-free wire (enable, ack) from a plain bool.
#[inline]
pub(crate) fn flag(yes: bool) -> Res<()> {
    if yes {
        Res::Yes(())
    } else {
        Res::No
    }
}

/// Which of the three wires of a connection a write touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Payload wire, sender-driven.
    Data,
    /// Qualification wire, sender-driven (may be derived from control).
    Enable,
    /// Flow-control wire, receiver-driven.
    Ack,
}

impl Wire {
    /// Position of this wire in a three-per-edge table (data, enable,
    /// ack): the topology's reader table, the plan's wake table, the
    /// store's packed state word.
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self as usize
    }
}

/// State of one connection (all three wires) within the current time-step.
#[derive(Clone, Debug, Default)]
pub struct SignalState {
    /// Sender-driven payload wire.
    pub data: Res<Value>,
    /// Sender-driven qualification wire.
    pub enable: Res<()>,
    /// Receiver-driven flow-control wire.
    pub ack: Res<()>,
}

/// Outcome of a monotonic write attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The wire resolved for the first time; readers must be re-woken.
    NewlyResolved,
    /// The wire was already resolved to an equal value; no-op.
    Idempotent,
    /// Oscillation-tolerant mode only: the wire was already resolved to a
    /// *different* value and has been re-resolved to the new one. Readers
    /// must be re-woken; the convergence watchdog counts these.
    Oscillated,
}

/// A wire write as a value (rather than a closure), so the kernel can
/// inspect and transform it in flight — the interception point for
/// handshake-level fault injection.
#[derive(Clone, Debug, PartialEq)]
pub enum WireWrite {
    /// Drive the data wire.
    Data(Res<Value>),
    /// Drive the enable wire.
    Enable(Res<()>),
    /// Drive the ack wire.
    Ack(Res<()>),
}

impl WireWrite {
    /// Which of the three wires this write targets.
    pub fn wire(&self) -> Wire {
        match self {
            WireWrite::Data(_) => Wire::Data,
            WireWrite::Enable(_) => Wire::Enable,
            WireWrite::Ack(_) => Wire::Ack,
        }
    }
}

impl SignalState {
    /// Reset all three wires to `Unknown` for a new time-step.
    pub fn reset(&mut self) {
        self.data = Res::Unknown;
        self.enable = Res::Unknown;
        self.ack = Res::Unknown;
    }

    /// True iff a transfer completes on this connection this time-step:
    /// data present, enabled, and accepted.
    pub fn transfers(&self) -> bool {
        self.data.is_yes() && self.enable.is_yes() && self.ack.is_yes()
    }

    /// The transferred value, if [`SignalState::transfers`].
    pub fn transferred(&self) -> Option<&Value> {
        if self.enable.is_yes() && self.ack.is_yes() {
            self.data.as_yes()
        } else {
            None
        }
    }

    /// Drive the data wire. Monotonic: `Unknown -> No|Yes` only, with
    /// idempotent re-writes of an equal value allowed.
    pub fn write_data(&mut self, v: Res<Value>) -> Result<WriteOutcome, SimError> {
        Self::write_wire(&mut self.data, v, Wire::Data)
    }

    /// Drive the enable wire.
    pub fn write_enable(&mut self, v: Res<()>) -> Result<WriteOutcome, SimError> {
        Self::write_wire(&mut self.enable, v, Wire::Enable)
    }

    /// Drive the ack wire.
    pub fn write_ack(&mut self, v: Res<()>) -> Result<WriteOutcome, SimError> {
        Self::write_wire(&mut self.ack, v, Wire::Ack)
    }

    /// Apply a [`WireWrite`] under the strict monotonic discipline.
    pub fn write(&mut self, w: WireWrite) -> Result<WriteOutcome, SimError> {
        match w {
            WireWrite::Data(v) => self.write_data(v),
            WireWrite::Enable(v) => self.write_enable(v),
            WireWrite::Ack(v) => self.write_ack(v),
        }
    }

    /// Apply a [`WireWrite`] tolerating oscillation: a conflicting write
    /// re-resolves the wire instead of erroring, reported as
    /// [`WriteOutcome::Oscillated`]. Driving a wire back to `Unknown` is
    /// still a contract violation. This is the watchdog's execution mode:
    /// cyclically inconsistent specifications keep stepping until the
    /// iteration budget runs out, at which point the oscillation counts
    /// name the guilty wires.
    pub fn write_tolerant(&mut self, w: WireWrite) -> Result<WriteOutcome, SimError> {
        match w {
            WireWrite::Data(v) => Self::write_wire_tolerant(&mut self.data, v, Wire::Data),
            WireWrite::Enable(v) => Self::write_wire_tolerant(&mut self.enable, v, Wire::Enable),
            WireWrite::Ack(v) => Self::write_wire_tolerant(&mut self.ack, v, Wire::Ack),
        }
    }

    fn write_wire<T: PartialEq + std::fmt::Debug>(
        slot: &mut Res<T>,
        v: Res<T>,
        wire: Wire,
    ) -> Result<WriteOutcome, SimError> {
        if matches!(v, Res::Unknown) {
            return Err(SimError::contract(format!(
                "attempt to drive {wire:?} back to Unknown"
            )));
        }
        match slot {
            Res::Unknown => {
                *slot = v;
                Ok(WriteOutcome::NewlyResolved)
            }
            old if *old == v => Ok(WriteOutcome::Idempotent),
            old => Err(SimError::contract(format!(
                "non-monotonic write on {wire:?}: already {old:?}, new {v:?}"
            ))),
        }
    }

    fn write_wire_tolerant<T: PartialEq + std::fmt::Debug>(
        slot: &mut Res<T>,
        v: Res<T>,
        wire: Wire,
    ) -> Result<WriteOutcome, SimError> {
        if matches!(v, Res::Unknown) {
            return Err(SimError::contract(format!(
                "attempt to drive {wire:?} back to Unknown"
            )));
        }
        match slot {
            Res::Unknown => {
                *slot = v;
                Ok(WriteOutcome::NewlyResolved)
            }
            old if *old == v => Ok(WriteOutcome::Idempotent),
            old => {
                *old = v;
                Ok(WriteOutcome::Oscillated)
            }
        }
    }

    /// Apply end-of-phase default control semantics (paper §2.1):
    /// undriven data resolves to `No` (nothing sent), undriven enable
    /// mirrors data, and undriven ack resolves to `Yes` (accept anything).
    /// Returns true if any wire changed.
    pub fn apply_defaults(&mut self) -> bool {
        let mut changed = false;
        if !self.data.is_resolved() {
            self.data = Res::No;
            changed = true;
        }
        if !self.enable.is_resolved() {
            self.enable = if self.data.is_yes() {
                Res::Yes(())
            } else {
                Res::No
            };
            changed = true;
        }
        if !self.ack.is_resolved() {
            self.ack = Res::Yes(());
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_unknown() {
        let s = SignalState::default();
        assert!(!s.data.is_resolved());
        assert!(!s.enable.is_resolved());
        assert!(!s.ack.is_resolved());
        assert!(!s.transfers());
    }

    #[test]
    fn monotonic_write_ok() {
        let mut s = SignalState::default();
        assert_eq!(
            s.write_data(Res::Yes(Value::Word(1))).unwrap(),
            WriteOutcome::NewlyResolved
        );
        assert_eq!(
            s.write_data(Res::Yes(Value::Word(1))).unwrap(),
            WriteOutcome::Idempotent
        );
    }

    #[test]
    fn non_monotonic_write_is_contract_violation() {
        let mut s = SignalState::default();
        s.write_data(Res::No).unwrap();
        assert!(s.write_data(Res::Yes(Value::Word(1))).is_err());
        let mut s2 = SignalState::default();
        s2.write_ack(Res::Yes(())).unwrap();
        assert!(s2.write_ack(Res::No).is_err());
    }

    #[test]
    fn cannot_unresolve() {
        let mut s = SignalState::default();
        assert!(s.write_data(Res::Unknown).is_err());
    }

    #[test]
    fn transfer_requires_all_three() {
        let mut s = SignalState::default();
        s.write_data(Res::Yes(Value::Word(9))).unwrap();
        assert!(!s.transfers());
        s.write_enable(Res::Yes(())).unwrap();
        assert!(!s.transfers());
        s.write_ack(Res::Yes(())).unwrap();
        assert!(s.transfers());
        assert_eq!(s.transferred().unwrap().as_word(), Some(9));
    }

    #[test]
    fn rejected_transfer_has_no_value() {
        let mut s = SignalState::default();
        s.write_data(Res::Yes(Value::Word(9))).unwrap();
        s.write_enable(Res::Yes(())).unwrap();
        s.write_ack(Res::No).unwrap();
        assert!(!s.transfers());
        assert!(s.transferred().is_none());
    }

    #[test]
    fn defaults_complete_a_bare_send() {
        // Sender drove data only; defaults must complete the handshake
        // (default control semantics: accept everything).
        let mut s = SignalState::default();
        s.write_data(Res::Yes(Value::Word(5))).unwrap();
        assert!(s.apply_defaults());
        assert!(s.transfers());
    }

    #[test]
    fn defaults_on_silent_connection() {
        let mut s = SignalState::default();
        s.apply_defaults();
        assert!(s.data.is_no());
        assert!(s.enable.is_no());
        assert!(s.ack.is_yes());
        assert!(!s.transfers());
    }

    #[test]
    fn tolerant_write_oscillates_instead_of_erroring() {
        let mut s = SignalState::default();
        assert_eq!(
            s.write_tolerant(WireWrite::Data(Res::No)).unwrap(),
            WriteOutcome::NewlyResolved
        );
        assert_eq!(
            s.write_tolerant(WireWrite::Data(Res::Yes(Value::Word(1))))
                .unwrap(),
            WriteOutcome::Oscillated
        );
        assert_eq!(s.data.as_yes().and_then(Value::as_word), Some(1));
        // Equal re-writes stay idempotent even in tolerant mode.
        assert_eq!(
            s.write_tolerant(WireWrite::Data(Res::Yes(Value::Word(1))))
                .unwrap(),
            WriteOutcome::Idempotent
        );
        // Unresolving is illegal in every mode.
        assert!(s.write_tolerant(WireWrite::Data(Res::Unknown)).is_err());
    }

    #[test]
    fn wire_write_names_its_wire() {
        assert_eq!(WireWrite::Data(Res::No).wire(), Wire::Data);
        assert_eq!(WireWrite::Enable(Res::Yes(())).wire(), Wire::Enable);
        assert_eq!(WireWrite::Ack(Res::No).wire(), Wire::Ack);
    }

    #[test]
    fn reset_clears_all() {
        let mut s = SignalState::default();
        s.write_data(Res::Yes(Value::Unit)).unwrap();
        s.apply_defaults();
        s.reset();
        assert!(!s.data.is_resolved());
        assert!(!s.enable.is_resolved());
        assert!(!s.ack.is_resolved());
    }
}
