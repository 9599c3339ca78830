//! Arbiters — the paper's example of a primitive reused across libraries:
//! "the same arbiter module can be used in CCL to control access to
//! network buffers and links, and in UPL to regulate access to
//! synchronization locks" (§3.1).
//!
//! ## Ports
//! * `in` (input, any width): competing requests (values to forward).
//! * `out` (output, width 1): the granted request.
//!
//! ## Parameters
//! * `policy` (str): `"fixed"` (lowest connection index wins, default),
//!   `"round_robin"`, or `"lru"` (least-recently-granted wins).
//!
//! The arbiter is combinational and lossless: the winner's input is
//! accepted only if the downstream consumer accepts the grant, so the
//! arbiter reads its output ack reactively (an explicit control override
//! of the default semantics, §2.1).

use liberty_core::prelude::*;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Policy {
    Fixed,
    RoundRobin,
    Lru,
    Matrix,
}

struct Arbiter {
    policy: Policy,
    /// Round-robin: next index with highest priority.
    rr_next: usize,
    /// LRU: grant order, most recent last.
    lru: Vec<usize>,
    /// Matrix arbiter: `matrix[i * n + j]` = input i has priority over j.
    /// Initialized lazily to the upper-triangular (fixed-priority) matrix;
    /// a grant moves the winner to lowest priority.
    matrix: Vec<bool>,
    matrix_n: usize,
    /// Scratch, rebuilt by every `react` and `commit` (so not state):
    /// which request wires carry a request this step.
    present: Vec<bool>,
}

impl Arbiter {
    fn ensure_matrix(&mut self, n: usize) {
        if self.matrix_n != n {
            self.matrix_n = n;
            self.matrix = (0..n * n).map(|k| k / n < k % n).collect();
        }
    }
}

impl Arbiter {
    /// Deterministic winner among the requests in `present`; used
    /// identically in react and commit (state is not mutated between
    /// them).
    fn winner(&self) -> Option<usize> {
        let n = self.present.len();
        let mut candidates = (0..n).filter(|&i| self.present[i]);
        match self.policy {
            Policy::Fixed => candidates.next(),
            Policy::RoundRobin => candidates.min_by_key(|&i| (i + n - self.rr_next % n.max(1)) % n),
            Policy::Lru => candidates.min_by_key(|&i| {
                self.lru
                    .iter()
                    .position(|&x| x == i)
                    .map(|p| p + 1)
                    .unwrap_or(0) // never granted: most deserving
            }),
            // The winner beats every other candidate in the matrix.
            // (The matrix encodes a total order, so one always exists;
            // before lazy init fall back to fixed priority.)
            Policy::Matrix if self.matrix_n == n => candidates
                .clone()
                .find(|&i| candidates.clone().all(|j| j == i || self.matrix[i * n + j]))
                .or_else(|| candidates.next()),
            Policy::Matrix => candidates.next(),
        }
    }
}

impl Module for Arbiter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        self.present.clear();
        for i in 0..n {
            self.present.push(match ctx.data(P_IN, i) {
                Res::Unknown => return Ok(()), // wait for every request wire
                Res::No => false,
                Res::Yes(_) => true,
            });
        }
        let winner = self.winner();
        match winner {
            Some(w) => {
                if let Res::Yes(v) = ctx.data(P_IN, w) {
                    ctx.send(P_OUT, 0, v)?;
                }
            }
            None => ctx.send_nothing(P_OUT, 0)?,
        }
        // Losers and idle connections resolve immediately; the winner's
        // acceptance mirrors the downstream ack (lossless arbitration).
        for (i, &p) in self.present.iter().enumerate() {
            if Some(i) != winner {
                ctx.set_ack(P_IN, i, !p)?;
            }
        }
        if let Some(w) = winner {
            match ctx.ack(P_OUT, 0)? {
                Res::Unknown => {} // re-woken when the ack resolves
                Res::Yes(()) => ctx.set_ack(P_IN, w, true)?,
                Res::No => ctx.set_ack(P_IN, w, false)?,
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        self.present.clear();
        self.present
            .extend((0..n).map(|i| matches!(ctx.data(P_IN, i), Res::Yes(_))));
        let requests = self.present.iter().filter(|&&p| p).count();
        if requests > 0 {
            ctx.sample("requesters", requests as f64);
        }
        if ctx.transferred_out(P_OUT, 0) {
            let w = self.winner().expect("transfer implies winner");
            ctx.count("grants", 1);
            match self.policy {
                Policy::RoundRobin => self.rr_next = (w + 1) % n.max(1),
                Policy::Lru => {
                    self.lru.retain(|&x| x != w);
                    self.lru.push(w);
                }
                Policy::Matrix => {
                    self.ensure_matrix(n);
                    for j in 0..n {
                        if j != w {
                            self.matrix[w * n + j] = false;
                            self.matrix[j * n + w] = true;
                        }
                    }
                }
                Policy::Fixed => {}
            }
        } else if requests > 0 {
            ctx.count("stalled", 1);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        // The whole grant history a policy needs: round-robin cursor, LRU
        // order, priority matrix. `policy` itself is configuration.
        let mut w = StateWriter::new();
        w.put_u64(self.rr_next as u64);
        w.put_len(self.lru.len());
        for &i in &self.lru {
            w.put_u64(i as u64);
        }
        w.put_u64(self.matrix_n as u64);
        for &bit in &self.matrix {
            w.put_bool(bit);
        }
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.rr_next = 0;
            self.lru.clear();
            self.matrix.clear();
            self.matrix_n = 0;
            return Ok(());
        }
        let mut r = StateReader::new(state);
        let rr_next = r.get_u64()? as usize;
        let n_lru = r.get_len()?;
        let mut lru = Vec::with_capacity(n_lru);
        for _ in 0..n_lru {
            lru.push(r.get_u64()? as usize);
        }
        let matrix_n = r.get_u64()? as usize;
        let cells = matrix_n
            .checked_mul(matrix_n)
            .ok_or_else(|| SimError::model("arbiter: matrix dimension overflow"))?;
        let mut matrix = Vec::with_capacity(cells);
        for _ in 0..cells {
            matrix.push(r.get_bool()?);
        }
        r.expect_end()?;
        self.rr_next = rr_next;
        self.lru = lru;
        self.matrix = matrix;
        self.matrix_n = matrix_n;
        Ok(())
    }
}

const ARBITER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "arbiter",
    &[
        PortSpec::input("in", 0, u32::MAX),
        PortSpec::output("out", 0, 1),
    ],
)
.with_ack_in_react();

/// Construct an arbiter instance (see module docs).
pub fn arbiter(params: &Params) -> Result<Instantiated, SimError> {
    let policy = match params.str_or("policy", "fixed")?.as_str() {
        "fixed" => Policy::Fixed,
        "round_robin" => Policy::RoundRobin,
        "lru" => Policy::Lru,
        "matrix" => Policy::Matrix,
        other => {
            return Err(SimError::param(format!(
                "arbiter: unknown policy {other:?} (fixed, round_robin, lru, matrix)"
            )))
        }
    };
    Ok((
        ARBITER_SPEC,
        Box::new(Arbiter {
            policy,
            rr_next: 0,
            lru: Vec::new(),
            matrix: Vec::new(),
            matrix_n: 0,
            present: Vec::new(),
        }),
    ))
}

/// Register the `arbiter` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "arbiter",
        "lossless N-to-1 arbiter; params: policy = fixed | round_robin | lru | matrix",
        arbiter,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    fn contend(policy: &str, cycles: u64) -> Vec<u64> {
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::repeating(Value::Word(1));
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (c_spec, c_mod) = source::repeating(Value::Word(2));
        let c = b.add("c", c_spec, c_mod).unwrap();
        let (d_spec, d_mod) = source::repeating(Value::Word(3));
        let d = b.add("d", d_spec, d_mod).unwrap();
        let (ar_spec, ar_mod) = arbiter(&Params::new().with("policy", policy)).unwrap();
        let ar = b.add("arb", ar_spec, ar_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(a, "out", ar, "in").unwrap();
        b.connect(c, "out", ar, "in").unwrap();
        b.connect(d, "out", ar, "in").unwrap();
        b.connect(ar, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        h.values().iter().filter_map(|v| v.as_word()).collect()
    }

    #[test]
    fn fixed_priority_starves_low_priority() {
        let got = contend("fixed", 6);
        assert_eq!(got, vec![1; 6]);
    }

    #[test]
    fn round_robin_rotates() {
        let got = contend("round_robin", 6);
        assert_eq!(got, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn lru_is_fair_under_full_contention() {
        let got = contend("lru", 6);
        // Never-granted inputs win first in index order, then LRU cycles.
        assert_eq!(got, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn matrix_is_least_recently_granted() {
        // Under full contention the matrix arbiter degenerates to
        // least-recently-granted rotation, like LRU.
        let got = contend("matrix", 9);
        assert_eq!(got, vec![1, 2, 3, 1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn matrix_demotes_only_the_winner() {
        // Input 2 transmits alone first; later under full contention it
        // must wait for 1 and 3 (it was demoted to lowest priority).
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::script(std::iter::repeat_n(Value::Word(1), 6).collect());
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (c_spec, c_mod) = source::repeating(Value::Word(2));
        let c = b.add("c", c_spec, c_mod).unwrap();
        let (ar_spec, ar_mod) = arbiter(&Params::new().with("policy", "matrix")).unwrap();
        let ar = b.add("arb", ar_spec, ar_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(a, "out", ar, "in").unwrap();
        b.connect(c, "out", ar, "in").unwrap();
        b.connect(ar, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(8).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(|v| v.as_word()).collect();
        // Alternation: after each grant the winner is demoted.
        assert_eq!(got, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn unknown_policy_rejected() {
        assert!(arbiter(&Params::new().with("policy", "coin_flip")).is_err());
    }

    #[test]
    fn single_requester_always_wins() {
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::script(vec![Value::Word(7), Value::Word(8)]);
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (ar_spec, ar_mod) = arbiter(&Params::new().with("policy", "round_robin")).unwrap();
        let ar = b.add("arb", ar_spec, ar_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(a, "out", ar, "in").unwrap();
        b.connect(ar, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(4).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(|v| v.as_word()).collect();
        assert_eq!(got, vec![7, 8]);
    }

    /// When downstream refuses, the winner must not be consumed (lossless).
    struct Refuser;
    impl Module for Refuser {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, false)
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    #[test]
    fn refused_grant_is_not_consumed() {
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::script(vec![Value::Word(7)]);
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (ar_spec, ar_mod) = arbiter(&Params::new()).unwrap();
        let ar = b.add("arb", ar_spec, ar_mod).unwrap();
        let r = b
            .add(
                "r",
                ModuleSpec::new("refuser").input("in", 1, 1),
                Box::new(Refuser),
            )
            .unwrap();
        b.connect(a, "out", ar, "in").unwrap();
        b.connect(ar, "out", r, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(5).unwrap();
        assert_eq!(sim.stats().counter(ar, "grants"), 0);
        assert_eq!(sim.stats().counter(ar, "stalled"), 5);
        assert_eq!(sim.stats().counter(a, "emitted"), 0);
    }

    #[test]
    fn rr_fairness_bound_under_contention() {
        let got = contend("round_robin", 30);
        let mut counts = [0u64; 4];
        for w in got {
            counts[w as usize] += 1;
        }
        // Perfect rotation: equal shares.
        assert_eq!(counts[1], 10);
        assert_eq!(counts[2], 10);
        assert_eq!(counts[3], 10);
    }
}
