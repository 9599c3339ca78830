//! Orion-style power models (paper §3.3, refs [26] and [7]).
//!
//! Orion's approach: attach per-component energy coefficients to the
//! *structural* network model and integrate activity counts. Dynamic
//! energy comes from event counters the components already publish
//! (buffer reads/writes, crossbar traversals, arbitration conflicts, link
//! flits); leakage is a per-component static power burned every cycle
//! (ref [7]); a lumped thermal resistance converts total power to a
//! temperature estimate.
//!
//! Coefficient defaults are representative of a ~100 nm-class router (the
//! paper's era); they are *inputs*, not the contribution — experiment E9
//! reproduces the decomposition shape, not absolute watts.

use liberty_core::prelude::StatsReport;
use std::collections::BTreeMap;

/// Energy and leakage coefficients.
#[derive(Clone, Debug)]
pub struct PowerCoeffs {
    /// Energy per flit written into a buffer (pJ).
    pub e_buf_write_pj: f64,
    /// Energy per flit read from a buffer (pJ).
    pub e_buf_read_pj: f64,
    /// Energy per flit crossing the crossbar (pJ).
    pub e_xbar_pj: f64,
    /// Energy per arbitration with contention (pJ).
    pub e_arb_pj: f64,
    /// Energy per flit traversing a link (pJ).
    pub e_link_pj: f64,
    /// Leakage power per buffer instance (mW).
    pub p_leak_buf_mw: f64,
    /// Leakage power per crossbar instance (mW).
    pub p_leak_xbar_mw: f64,
    /// Leakage power per link instance (mW).
    pub p_leak_link_mw: f64,
    /// Clock frequency (GHz) converting cycles to seconds.
    pub freq_ghz: f64,
    /// Ambient temperature (°C).
    pub t_ambient_c: f64,
    /// Lumped thermal resistance (°C per W).
    pub r_thermal_c_per_w: f64,
}

impl Default for PowerCoeffs {
    fn default() -> Self {
        PowerCoeffs {
            e_buf_write_pj: 1.2,
            e_buf_read_pj: 0.9,
            e_xbar_pj: 0.6,
            e_arb_pj: 0.12,
            e_link_pj: 1.8,
            p_leak_buf_mw: 0.35,
            p_leak_xbar_mw: 0.5,
            p_leak_link_mw: 0.2,
            freq_ghz: 1.0,
            t_ambient_c: 45.0,
            r_thermal_c_per_w: 25.0,
        }
    }
}

/// A power breakdown for one network.
#[derive(Clone, Debug, Default)]
pub struct PowerReport {
    /// Dynamic power by component class (mW).
    pub dynamic_mw: BTreeMap<String, f64>,
    /// Leakage power by component class (mW).
    pub leakage_mw: BTreeMap<String, f64>,
    /// Total dynamic power (mW).
    pub total_dynamic_mw: f64,
    /// Total leakage power (mW).
    pub total_leakage_mw: f64,
    /// Total power (mW).
    pub total_mw: f64,
    /// Leakage share of total power.
    pub leakage_fraction: f64,
    /// Estimated steady-state temperature (°C).
    pub temp_c: f64,
}

fn is_buf(name: &str) -> bool {
    name.contains("ibuf") || name.contains("obuf")
}

fn is_xbar(name: &str) -> bool {
    name.contains("xbar")
}

fn is_link(name: &str) -> bool {
    name.contains("link")
}

/// Integrate a run's statistics into a power report.
///
/// `instance_names` must be the simulator's full instance list (idle
/// components leak even when they never produced a counter); any slice of
/// string-likes works, e.g. `Simulator::instance_names().collect()`.
/// `avg_flits` scales per-packet counters into flit events.
pub fn analyze<S: AsRef<str>>(
    instance_names: &[S],
    report: &StatsReport,
    cycles: u64,
    avg_flits: f64,
    coeffs: &PowerCoeffs,
) -> PowerReport {
    let seconds = cycles as f64 / (coeffs.freq_ghz * 1e9);
    let mut dyn_pj: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |class: &str, pj: f64| {
        *dyn_pj.entry(class.to_owned()).or_insert(0.0) += pj;
    };
    for (key, &count) in &report.counters {
        let (inst, stat) = match key.rsplit_once('.') {
            Some(p) => p,
            None => continue,
        };
        let events = count as f64 * avg_flits;
        if is_buf(inst) {
            match stat {
                "enq" => add("buffer", events * coeffs.e_buf_write_pj),
                "deq" | "forwarded" => add("buffer", events * coeffs.e_buf_read_pj),
                _ => {}
            }
        } else if is_xbar(inst) {
            match stat {
                "forwarded" => add("crossbar", events * coeffs.e_xbar_pj),
                "conflicts" => add("arbiter", count as f64 * coeffs.e_arb_pj),
                _ => {}
            }
        } else if is_link(inst) && stat == "delivered" {
            add("link", events * coeffs.e_link_pj);
        }
    }
    let mut dynamic_mw = BTreeMap::new();
    let mut total_dynamic_mw = 0.0;
    for (class, pj) in dyn_pj {
        // pJ over the run -> mW: 1e-12 J / s * 1e3.
        let mw = if seconds > 0.0 {
            pj * 1e-12 / seconds * 1e3
        } else {
            0.0
        };
        total_dynamic_mw += mw;
        dynamic_mw.insert(class, mw);
    }

    let mut leakage_mw = BTreeMap::new();
    let mut total_leakage_mw = 0.0;
    let mut leak = |class: &str, mw: f64| {
        *leakage_mw.entry(class.to_owned()).or_insert(0.0) += mw;
        total_leakage_mw += mw;
    };
    for name in instance_names {
        let name = name.as_ref();
        if is_buf(name) {
            leak("buffer", coeffs.p_leak_buf_mw);
        } else if is_xbar(name) {
            leak("crossbar", coeffs.p_leak_xbar_mw);
        } else if is_link(name) {
            leak("link", coeffs.p_leak_link_mw);
        }
    }

    let total_mw = total_dynamic_mw + total_leakage_mw;
    PowerReport {
        dynamic_mw,
        leakage_mw,
        total_dynamic_mw,
        total_leakage_mw,
        total_mw,
        leakage_fraction: if total_mw > 0.0 {
            total_leakage_mw / total_mw
        } else {
            0.0
        },
        temp_c: coeffs.t_ambient_c + coeffs.r_thermal_c_per_w * total_mw * 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_core::prelude::*;

    fn fake_report() -> StatsReport {
        let mut stats = Stats::new();
        stats.count(InstanceId(0), "enq", 100);
        stats.count(InstanceId(0), "deq", 100);
        stats.count(InstanceId(1), "forwarded", 100);
        stats.count(InstanceId(1), "conflicts", 10);
        stats.count(InstanceId(2), "delivered", 100);
        stats.report(&[
            "n.r0.ibuf0".to_owned(),
            "n.r0.xbar".to_owned(),
            "n.link_0_1".to_owned(),
        ])
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let names = vec![
            "n.r0.ibuf0".to_owned(),
            "n.r0.xbar".to_owned(),
            "n.link_0_1".to_owned(),
        ];
        let r = analyze(&names, &fake_report(), 1000, 4.0, &PowerCoeffs::default());
        assert!(r.dynamic_mw["buffer"] > 0.0);
        assert!(r.dynamic_mw["crossbar"] > 0.0);
        assert!(r.dynamic_mw["link"] > 0.0);
        assert!(r.total_mw > r.total_leakage_mw);
        // Twice the run length at the same activity halves dynamic power.
        let r2 = analyze(&names, &fake_report(), 2000, 4.0, &PowerCoeffs::default());
        let d1 = r.total_dynamic_mw;
        let d2 = r2.total_dynamic_mw;
        assert!((d1 / d2 - 2.0).abs() < 1e-9);
        // ...but leakage stays constant, so its fraction grows.
        assert!(r2.leakage_fraction > r.leakage_fraction);
    }

    #[test]
    fn idle_network_is_all_leakage() {
        let names = vec!["n.r0.ibuf0".to_owned(), "n.r0.xbar".to_owned()];
        let empty = Stats::new().report::<&str>(&[]);
        let r = analyze(&names, &empty, 1000, 4.0, &PowerCoeffs::default());
        assert_eq!(r.total_dynamic_mw, 0.0);
        assert!(r.total_leakage_mw > 0.0);
        assert_eq!(r.leakage_fraction, 1.0);
        assert!(r.temp_c > PowerCoeffs::default().t_ambient_c);
    }

    #[test]
    fn leakage_counts_idle_instances() {
        let a = analyze(
            &["x.ibuf0"],
            &Stats::new().report::<&str>(&[]),
            10,
            1.0,
            &PowerCoeffs::default(),
        );
        let b = analyze(
            &["x.ibuf0", "y.ibuf1"],
            &Stats::new().report::<&str>(&[]),
            10,
            1.0,
            &PowerCoeffs::default(),
        );
        assert!(b.total_leakage_mw > a.total_leakage_mw);
    }
}
