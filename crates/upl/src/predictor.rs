//! Branch predictors: not-taken, bimodal and gshare, each with a
//! direct-mapped BTB. One template, selected by an algorithmic parameter —
//! the paper's customization mechanism (§2.1).
//!
//! ## Ports
//! * `q` (in, 1): queried pc as `Value::Word`.
//! * `a` (out, 1): [`Prediction`] answer, same cycle (combinational).
//! * `update` (in, 0..1): [`BrUpdate`] training from execute.
//!
//! ## Parameters
//! * `kind` (str): `"not_taken"` (default), `"bimodal"`, `"gshare"`.
//! * `entries` (int, default 256) — counter/BTB table size.
//! * `history` (int, default 8) — gshare global-history bits.

use crate::uop::{BrUpdate, Prediction};
use liberty_core::prelude::*;

const P_Q: PortId = PortId(0);
const P_A: PortId = PortId(1);
const P_UPDATE: PortId = PortId(2);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    NotTaken,
    Bimodal,
    Gshare,
}

/// The predictor module. Construct with [`predictor`].
pub struct Predictor {
    kind: Kind,
    /// 2-bit saturating counters.
    counters: Vec<u8>,
    /// Direct-mapped branch target buffer: `(pc, target)`.
    btb: Vec<Option<(u64, u64)>>,
    /// Global history register (gshare).
    ghr: u64,
    history_mask: u64,
}

impl Predictor {
    fn index(&self, pc: u64) -> usize {
        let n = self.counters.len();
        match self.kind {
            Kind::Gshare => ((pc ^ (self.ghr & self.history_mask)) as usize) % n,
            _ => (pc as usize) % n,
        }
    }

    fn predict(&self, pc: u64) -> Prediction {
        if self.kind == Kind::NotTaken {
            return Prediction {
                taken: false,
                target: None,
            };
        }
        let taken = self.counters[self.index(pc)] >= 2;
        let target = self.btb[(pc as usize) % self.btb.len()]
            .filter(|(tag, _)| *tag == pc)
            .map(|(_, t)| t);
        Prediction {
            // Predicting taken without a target is useless: fall back.
            taken: taken && target.is_some(),
            target,
        }
    }

    fn train(&mut self, u: &BrUpdate) {
        if self.kind == Kind::NotTaken {
            return;
        }
        let i = self.index(u.pc);
        let c = &mut self.counters[i];
        if u.taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if u.taken {
            let bi = (u.pc as usize) % self.btb.len();
            self.btb[bi] = Some((u.pc, u.target));
        }
        if self.kind == Kind::Gshare {
            self.ghr = (self.ghr << 1) | u64::from(u.taken);
        }
    }
}

impl Module for Predictor {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if ctx.width(P_UPDATE) > 0 {
            ctx.set_ack(P_UPDATE, 0, true)?;
        }
        match ctx.data(P_Q, 0) {
            Res::Unknown => Ok(()),
            Res::No => {
                ctx.send_nothing(P_A, 0)?;
                ctx.set_ack(P_Q, 0, true)
            }
            Res::Yes(v) => {
                let pc = v.as_word().ok_or_else(|| {
                    SimError::type_err(format!("predictor: expected Word pc, got {}", v.kind()))
                })?;
                ctx.send(P_A, 0, Value::wrap(self.predict(pc)))?;
                ctx.set_ack(P_Q, 0, true)
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.width(P_UPDATE) > 0 {
            if let Some(v) = ctx.transferred_in(P_UPDATE, 0) {
                let u = v.downcast_ref::<BrUpdate>().ok_or_else(|| {
                    SimError::type_err(format!("predictor: expected BrUpdate, got {}", v.kind()))
                })?;
                // Accuracy accounting against the *pre-update* state.
                let p = self.predict(u.pc);
                let correct = p.taken == u.taken && (!u.taken || p.target == Some(u.target));
                ctx.count(if correct { "correct" } else { "incorrect" }, 1);
                self.train(&u.clone());
            }
        }
        Ok(())
    }
}

impl Predictor {
    fn from_params(params: &Params) -> Result<Predictor, SimError> {
        let kind = match params.str_or("kind", "not_taken")?.as_str() {
            "not_taken" => Kind::NotTaken,
            "bimodal" => Kind::Bimodal,
            "gshare" => Kind::Gshare,
            other => {
                return Err(SimError::param(format!(
                    "predictor: unknown kind {other:?} (not_taken, bimodal, gshare)"
                )))
            }
        };
        let entries = params.usize_or("entries", 256)?.max(1);
        let history = params.usize_or("history", 8)?.min(63) as u32;
        Ok(Predictor {
            kind,
            counters: vec![1; entries], // weakly not-taken
            btb: vec![None; entries],
            ghr: 0,
            history_mask: (1u64 << history) - 1,
        })
    }
}

const PREDICTOR_SPEC: ModuleSpec = ModuleSpec::fixed(
    "predictor",
    &[
        PortSpec::input("q", 0, 1),
        PortSpec::output("a", 0, 1),
        PortSpec::input("update", 0, 1),
    ],
);

/// Construct a predictor (see module docs).
pub fn predictor(params: &Params) -> Result<Instantiated, SimError> {
    Ok((PREDICTOR_SPEC, Box::new(Predictor::from_params(params)?)))
}

/// Register the `predictor` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "upl",
        "predictor",
        "branch predictor; params: kind = not_taken | bimodal | gshare, entries, history",
        predictor,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(kind: &str) -> Predictor {
        Predictor::from_params(&Params::new().with("kind", kind).with("entries", 64i64)).unwrap()
    }

    #[test]
    fn bimodal_learns_a_loop_branch() {
        let mut p = mk("bimodal");
        let u = BrUpdate {
            pc: 10,
            taken: true,
            target: 3,
        };
        assert!(!p.predict(10).taken); // starts weakly not-taken
        p.train(&u);
        p.train(&u);
        let pred = p.predict(10);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(3));
    }

    #[test]
    fn bimodal_unlearns() {
        let mut p = mk("bimodal");
        let t = BrUpdate {
            pc: 5,
            taken: true,
            target: 1,
        };
        let n = BrUpdate {
            pc: 5,
            taken: false,
            target: 1,
        };
        p.train(&t);
        p.train(&t);
        assert!(p.predict(5).taken);
        p.train(&n);
        p.train(&n);
        assert!(!p.predict(5).taken);
    }

    #[test]
    fn not_taken_never_predicts_taken() {
        let mut p = mk("not_taken");
        let u = BrUpdate {
            pc: 7,
            taken: true,
            target: 2,
        };
        for _ in 0..8 {
            p.train(&u);
        }
        assert!(!p.predict(7).taken);
    }

    #[test]
    fn gshare_separates_by_history() {
        let mut p = mk("gshare");
        // Alternating pattern on one pc: bimodal would thrash, gshare
        // keys on history. Train the alternation thoroughly.
        let mk_u = |taken| BrUpdate {
            pc: 9,
            taken,
            target: 4,
        };
        for i in 0..64 {
            let taken = i % 2 == 0;
            p.train(&mk_u(taken));
        }
        // After heavy training the two history contexts disagree; at least
        // the predictor must have a target cached.
        assert_eq!(p.btb[(9usize) % p.btb.len()].map(|(_, t)| t), Some(4));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(predictor(&Params::new().with("kind", "oracle")).is_err());
    }
}
