//! Seed-driven generator for the `lss_front` input: one LSS text with a
//! flat, fully unrolled section (bytes for the lexer and parser) and a
//! hierarchical section (templates, instance arrays, `for` loops and
//! parameter overrides for the elaborator). The seed varies only the
//! sources' start values, at fixed width, so every seed yields the same
//! byte count, the same netlist shape and the same simulated counts.

use std::fmt::Write;

/// Shape of the generated specification.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Unrolled source→queue→register→queue→register→sink chains.
    pub chains: u64,
    /// `cluster` instances, each `ROWS` rows of `LANES` lanes.
    pub clusters: u64,
}

/// The full-size input: ~3 MB of text, 40 000 leaf instances.
pub const FULL: Shape = Shape {
    chains: 5000,
    clusters: 25,
};

/// The `--smoke` input.
pub const SMOKE: Shape = Shape {
    chains: 250,
    clusters: 2,
};

pub const ROWS: u64 = 40;
/// Queue/register pairs in a hierarchical row, and in an unrolled chain.
pub const LANES: u64 = 4;
pub const CHAIN_LANES: u64 = 2;

impl Shape {
    pub fn leaves(self) -> u64 {
        // A source, a sink and two leaves a lane.
        self.chains * (2 + 2 * CHAIN_LANES) + self.clusters * ROWS * (2 + 2 * LANES)
    }
}

/// splitmix64: the benchmark's only random source.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seven-digit start value.
fn start(rng: &mut u64) -> u64 {
    1_000_000 + splitmix(rng) % 9_000_000
}

const TEMPLATES: &str = "\
// Hierarchical section: a lane is a queue feeding a register; a row is a
// source, LANES lanes in series and a sink; a cluster is an array of rows.
module lane {
    param depth = 2;
    port in rx;
    port out tx;
    instance q : queue { depth = depth; };
    instance r : register;
    connect self.rx -> q.in;
    connect q.out -> r.in;
    connect r.out -> self.tx;
}
module row {
    param n = 4;
    param depth = 2;
    param first = 0;
    instance gen : seq_source { start = first; };
    instance st[n] : lane { depth = depth; };
    instance dst : sink;
    connect gen.out -> st[0].rx;
    for i in 0..n - 1 {
        connect st[i].tx -> st[i + 1].rx;
    }
    connect st[n - 1].tx -> dst.in;
}
module cluster {
    param rows = 1;
    param lanes = 4;
    param base = 0;
    instance r[rows] : row { n = lanes; depth = 2; first = base; };
}
";

/// Generate the specification text for `seed`.
pub fn generate(seed: u64, shape: Shape) -> String {
    let mut rng = seed ^ 0x6c73_735f_6672_6f6e; // "lss_fron"
    let mut s = String::with_capacity(shape.chains as usize * 640 + 4096);
    s.push_str(TEMPLATES);
    s.push_str("module main {\n");
    for c in 0..shape.clusters {
        writeln!(
            s,
            "    instance cluster{c:03} : cluster {{ rows = {ROWS}; lanes = {LANES}; base = {}; }};",
            start(&mut rng)
        )
        .expect("write to String");
    }
    s.push_str("    // Flat section: every chain written out.\n");
    for c in 0..shape.chains {
        let p = format!("chain{c:04}");
        writeln!(
            s,
            "    instance {p}_source : seq_source {{ start = {}; step = 1; }};",
            start(&mut rng)
        )
        .expect("write to String");
        for st in 0..CHAIN_LANES {
            writeln!(s, "    instance {p}_queue{st} : queue {{ depth = 2; }};")
                .expect("write to String");
            writeln!(s, "    instance {p}_register{st} : register;").expect("write to String");
        }
        writeln!(s, "    instance {p}_sink : sink;").expect("write to String");
        writeln!(s, "    connect {p}_source.out -> {p}_queue0.in;").expect("write to String");
        for st in 0..CHAIN_LANES {
            writeln!(s, "    connect {p}_queue{st}.out -> {p}_register{st}.in;")
                .expect("write to String");
            if st + 1 < CHAIN_LANES {
                writeln!(
                    s,
                    "    connect {p}_register{st}.out -> {p}_queue{}.in;",
                    st + 1
                )
                .expect("write to String");
            }
        }
        writeln!(
            s,
            "    connect {p}_register{}.out -> {p}_sink.in;",
            CHAIN_LANES - 1
        )
        .expect("write to String");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_values_not_size() {
        let a = generate(1, SMOKE);
        let b = generate(2, SMOKE);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert_eq!(a, generate(1, SMOKE));
    }

    #[test]
    fn generated_text_elaborates_to_the_stated_shape() {
        let spec = liberty_lss::parse(&generate(7, SMOKE)).unwrap();
        let reg = liberty_systems::full_registry();
        let (net, _) =
            liberty_lss::elaborate(&spec, &reg, "main", &liberty_core::prelude::Params::new())
                .unwrap();
        assert_eq!(net.len() as u64, SMOKE.leaves());
    }
}
