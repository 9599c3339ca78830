//! Traffic workload models: open-loop generators with the classic
//! synthetic patterns, and measuring sinks.
//!
//! The statistical generator is the paper's §2.2 abstraction-mixing
//! example: the same interconnect model runs under a statistical packet
//! generator or under detailed processor/NI models, by swapping only this
//! component.

use crate::packet::Packet;
use liberty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P_OUT: PortId = PortId(0);
const P_IN: PortId = PortId(0);

/// Destination pattern for synthetic traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Uniformly random destination (excluding self).
    Uniform,
    /// Matrix transpose on a `w`×`h` grid: `(x, y) -> (y, x)`.
    Transpose,
    /// Bitwise complement of the node id (within `nodes`).
    BitComplement,
    /// With probability `hot_frac`, send to node 0; else uniform.
    Hotspot,
}

impl Pattern {
    /// Parse a pattern name.
    pub fn parse(s: &str) -> Result<Pattern, SimError> {
        Ok(match s {
            "uniform" => Pattern::Uniform,
            "transpose" => Pattern::Transpose,
            "bit_complement" => Pattern::BitComplement,
            "hotspot" => Pattern::Hotspot,
            other => {
                return Err(SimError::param(format!(
                "traffic: unknown pattern {other:?} (uniform, transpose, bit_complement, hotspot)"
            )))
            }
        })
    }
}

/// Configuration of one traffic generator.
#[derive(Clone, Debug)]
pub struct TrafficCfg {
    /// Total node count.
    pub nodes: u32,
    /// Grid width (for transpose).
    pub width: u32,
    /// This generator's node id.
    pub my: u32,
    /// Injection rate in packets/cycle (Bernoulli).
    pub rate: f64,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Packet size in flits.
    pub flits: u32,
    /// Hotspot fraction (only for [`Pattern::Hotspot`]).
    pub hot_frac: f64,
    /// RNG seed (combined with `my` for per-node streams).
    pub seed: u64,
    /// Stop after this many packets (`u64::MAX` = unbounded).
    pub limit: u64,
    /// Exponential random backoff after a refused offer (for shared media
    /// like the wireless channel, where persistent simultaneous senders
    /// would otherwise livelock in collisions).
    pub backoff: bool,
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            nodes: 1,
            width: 1,
            my: 0,
            rate: 0.1,
            pattern: Pattern::Uniform,
            flits: 4,
            hot_frac: 0.5,
            seed: 7,
            limit: u64::MAX,
            backoff: false,
        }
    }
}

/// Open-loop traffic generator. Construct with [`traffic_gen`].
///
/// Randomness is drawn in `commit` (never in the re-entrant `react`), so
/// the generator stays deterministic under any scheduler.
pub struct TrafficGen {
    cfg: TrafficCfg,
    rng: StdRng,
    pending: Option<Packet>,
    next_id: u64,
    emitted: u64,
    mute_until: u64,
    backoff_window: u64,
}

impl TrafficGen {
    fn pick_dst(&mut self) -> u32 {
        let n = self.cfg.nodes;
        match self.cfg.pattern {
            Pattern::Uniform => {
                if n <= 1 {
                    return self.cfg.my;
                }
                loop {
                    let d = self.rng.gen_range(0..n);
                    if d != self.cfg.my {
                        return d;
                    }
                }
            }
            Pattern::Transpose => {
                let w = self.cfg.width.max(1);
                let (x, y) = (self.cfg.my % w, self.cfg.my / w);
                // Destination on the transposed grid, clamped into range.
                (x * (n / w) + y).min(n - 1)
            }
            Pattern::BitComplement => {
                // Complement within the smallest covering power of two,
                // folded back into range for non-power-of-two node counts.
                let mask = n.next_power_of_two() - 1;
                ((self.cfg.my ^ mask) % n).min(n - 1)
            }
            Pattern::Hotspot => {
                if self.rng.gen_bool(self.cfg.hot_frac) {
                    0
                } else if n <= 1 {
                    self.cfg.my
                } else {
                    loop {
                        let d = self.rng.gen_range(0..n);
                        if d != self.cfg.my {
                            return d;
                        }
                    }
                }
            }
        }
    }
}

impl Module for TrafficGen {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.pending {
            Some(p) if ctx.now() >= self.mute_until => ctx.send(P_OUT, 0, p.clone().into_value()),
            _ => ctx.send_nothing(P_OUT, 0),
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.pending = None;
            self.emitted += 1;
            self.backoff_window = 2;
            ctx.count("injected", 1);
        } else if self.cfg.backoff && self.pending.is_some() && ctx.now() >= self.mute_until {
            // Offer refused (collision / busy medium): back off randomly.
            let wait = 1 + self.rng.gen_range(0..self.backoff_window);
            self.mute_until = ctx.now() + wait;
            self.backoff_window = (self.backoff_window * 2).min(128);
            ctx.count("backoffs", 1);
        }
        if self.pending.is_none()
            && self.emitted < self.cfg.limit
            && self.rng.gen_bool(self.cfg.rate.clamp(0.0, 1.0))
        {
            let dst = self.pick_dst();
            if dst != self.cfg.my {
                self.pending = Some(Packet {
                    id: self.next_id,
                    src: self.cfg.my,
                    dst,
                    flits: self.cfg.flits,
                    created: ctx.now() + 1,
                    payload: None,
                });
                self.next_id += 1;
            }
        }
        Ok(())
    }
}

const TRAFFIC_GEN_SPEC: ModuleSpec =
    ModuleSpec::fixed("traffic_gen", &[PortSpec::output("out", 0, 1)]);

/// Construct a traffic generator.
pub fn traffic_gen(cfg: TrafficCfg) -> Instantiated {
    let rng = StdRng::seed_from_u64(cfg.seed ^ (u64::from(cfg.my) << 32) ^ 0x9E37_79B9);
    (
        TRAFFIC_GEN_SPEC,
        Box::new(TrafficGen {
            cfg,
            rng,
            pending: None,
            next_id: 0,
            emitted: 0,
            mute_until: 0,
            backoff_window: 2,
        }),
    )
}

/// Measuring sink: accepts every packet, records delivery latency and
/// flit counts. Construct with [`traffic_sink`].
pub struct TrafficSink {
    expect_dst: Option<u32>,
}

impl Module for TrafficSink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_IN) {
            ctx.set_ack(P_IN, i, true)?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_IN) {
            if let Some(v) = ctx.transferred_in(P_IN, i) {
                let p = Packet::from_value(&v)?;
                if let Some(d) = self.expect_dst {
                    if p.dst != d {
                        return Err(SimError::model(format!(
                            "misrouted packet: id {} for node {} arrived at node {d}",
                            p.id, p.dst
                        )));
                    }
                }
                ctx.count("received", 1);
                ctx.count("flits", u64::from(p.flits));
                ctx.sample("latency", (ctx.now().saturating_sub(p.created)) as f64);
            }
        }
        Ok(())
    }
}

const TRAFFIC_SINK_SPEC: ModuleSpec =
    ModuleSpec::fixed("traffic_sink", &[PortSpec::input("in", 0, u32::MAX)]);

/// Construct a traffic sink; when `expect_dst` is set, a misrouted packet
/// is a model error (used to prove routing correctness in every run).
pub fn traffic_sink(expect_dst: Option<u32>) -> Instantiated {
    (TRAFFIC_SINK_SPEC, Box::new(TrafficSink { expect_dst }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_parsing() {
        assert_eq!(Pattern::parse("uniform").unwrap(), Pattern::Uniform);
        assert_eq!(Pattern::parse("transpose").unwrap(), Pattern::Transpose);
        assert!(Pattern::parse("zigzag").is_err());
    }

    #[test]
    fn generator_respects_rate_and_limit() {
        let mut b = NetlistBuilder::new();
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: 4,
            rate: 1.0,
            limit: 5,
            ..TrafficCfg::default()
        });
        let g = b.add("g", g_spec, g_mod).unwrap();
        let (k_spec, k_mod) = traffic_sink(None);
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(g, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(20).unwrap();
        assert_eq!(sim.stats().counter(g, "injected"), 5);
        assert_eq!(sim.stats().counter(k, "received"), 5);
    }

    #[test]
    fn bit_complement_is_deterministic() {
        let mut g = TrafficGen {
            cfg: TrafficCfg {
                nodes: 8,
                my: 3,
                pattern: Pattern::BitComplement,
                ..TrafficCfg::default()
            },
            rng: StdRng::seed_from_u64(1),
            pending: None,
            next_id: 0,
            emitted: 0,
            mute_until: 0,
            backoff_window: 2,
        };
        assert_eq!(g.pick_dst(), 4); // 7 ^ 3
    }

    #[test]
    fn bit_complement_stays_in_range_for_any_node_count() {
        for n in 2u32..20 {
            for my in 0..n {
                let mut g = TrafficGen {
                    cfg: TrafficCfg {
                        nodes: n,
                        my,
                        pattern: Pattern::BitComplement,
                        ..TrafficCfg::default()
                    },
                    rng: StdRng::seed_from_u64(1),
                    pending: None,
                    next_id: 0,
                    emitted: 0,
                    mute_until: 0,
                    backoff_window: 2,
                };
                assert!(g.pick_dst() < n, "n={n} my={my}");
            }
        }
    }

    #[test]
    fn uniform_never_self() {
        let mut g = TrafficGen {
            cfg: TrafficCfg {
                nodes: 4,
                my: 2,
                pattern: Pattern::Uniform,
                ..TrafficCfg::default()
            },
            rng: StdRng::seed_from_u64(1),
            pending: None,
            next_id: 0,
            emitted: 0,
            mute_until: 0,
            backoff_window: 2,
        };
        for _ in 0..100 {
            assert_ne!(g.pick_dst(), 2);
        }
    }

    #[test]
    fn misrouted_packet_is_caught() {
        let mut b = NetlistBuilder::new();
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: 4,
            rate: 1.0,
            ..TrafficCfg::default()
        });
        let g = b.add("g", g_spec, g_mod).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(0));
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(g, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        // Generator at node 0 sends to 1..3, sink expects only dst 0.
        let res = sim.run(50);
        assert!(res.is_err());
    }
}
