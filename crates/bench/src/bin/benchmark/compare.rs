//! Result files (`--out`) and `benchmark compare <base.json> <new.json>`:
//! one row per (metric, workload) with base, new, ratio, bound and a
//! verdict. This is how two sets of the same commit are shown to agree,
//! and how a later change reports against its parent.

use crate::json::{num, quote, Json};
use crate::names::{unit_of, Better, END_TO_END, PER_LAYER};
use std::fmt::Write;

/// One workload's results in a set.
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Share of untraced window samples within 5% of their floor.
    pub fast_share: f64,
    /// The set never reached the host's fast regime (see
    /// `metrics::MIN_FAST_SHARE`): its times are not reported as results.
    pub unresolved: bool,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, every value with all its
/// digits.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*v),
                quote(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result file for one set.
pub fn render_set(seed: u64, results: &[WorkloadResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!("{{\n  \"schema\": 1,\n  \"seed\": {seed},\n  \"nproc\": {nproc},\n");
    s.push_str("  \"workloads\": {\n");
    for (i, r) in results.iter().enumerate() {
        write!(
            s,
            "    {}: {{\n      \"attempted\": {}, \"failed\": {}, \"fast_share\": {}, \
             \"unresolved\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{}\n",
            quote(&r.name),
            r.attempted,
            r.failed,
            num(r.fast_share),
            r.unresolved,
            metrics_json(&r.end_to_end),
            metrics_json(&r.per_layer),
            if i + 1 < results.len() { "," } else { "" }
        )
        .expect("write to String");
    }
    s.push_str("  }\n}\n");
    s
}

/// How `new` stands against `base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `new` is worse when it moved against `better` by more than `bound`
/// (a share of `base`), better when it moved the other way by more than
/// that, and otherwise the same.
pub fn judge(base: f64, new: f64, better: Better, bound: f64) -> Verdict {
    let gain = match better {
        Better::Higher => new - base,
        Better::Lower => base - new,
    };
    let band = bound * base.abs();
    if gain < -band {
        Verdict::Worse
    } else if gain > band {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Compare two result files; the table, and whether any end-to-end
/// metric (or the failure ratio) got worse or could not be resolved.
pub fn compare(base: &str, new: &str) -> Result<(String, bool), String> {
    let base = Json::parse(base).map_err(|e| format!("base: {e}"))?;
    let new = Json::parse(new).map_err(|e| format!("new: {e}"))?;
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no \"workloads\" object")
    };
    let (base_w, new_w) = (workloads(&base)?, workloads(&new)?);
    let mut out = format!(
        "{:<34} {:<14} {:>16} {:>16} {:>8} {:>6}  verdict\n",
        "metric", "workload", "base", "new", "ratio", "bound"
    );
    let mut regressed = false;
    let mut row = |metric: &str, w: &str, b: f64, n: f64, bound: Option<f64>, v: Verdict| {
        let ratio = if b != 0.0 { n / b } else { 0.0 };
        let bound = bound.map_or("-".to_owned(), |x| format!("{:.0}%", x * 100.0));
        writeln!(
            out,
            "{metric:<34} {w:<14} {b:>16.6} {n:>16.6} {ratio:>8.4} {bound:>6}  {}",
            v.label()
        )
        .expect("write to String");
    };
    for (w, bw) in &base_w {
        let Some((_, nw)) = new_w.iter().find(|(k, _)| k == w) else {
            return Err(format!("workload {w} is missing from the new file"));
        };
        let flag = |j: &Json| j.get("unresolved") == Some(&Json::Bool(true));
        let unresolved = flag(bw) || flag(nw);
        let fail_ratio = |j: &Json| {
            let f = |k| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            if f("attempted") > 0.0 {
                f("failed") / f("attempted")
            } else {
                1.0
            }
        };
        let (bf, nf) = (fail_ratio(bw), fail_ratio(nw));
        let v = judge(bf, nf, Better::Lower, 0.0);
        regressed |= v == Verdict::Worse;
        row("fail_ratio", w, bf, nf, Some(0.0), v);
        for (m, bound) in &END_TO_END {
            let (Some(b), Some(n)) = (
                value(bw, "end_to_end", m.name),
                value(nw, "end_to_end", m.name),
            ) else {
                return Err(format!("{} is missing for {w}", m.name));
            };
            let v = if unresolved {
                Verdict::Unresolved
            } else {
                judge(b, n, m.better, *bound)
            };
            regressed |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            row(m.name, w, b, n, Some(*bound), v);
        }
        // Per-layer metrics have no bound: counts must repeat exactly,
        // times are shown for attribution and judged with no band.
        for m in &PER_LAYER {
            if let (Some(b), Some(n)) = (
                value(bw, "per_layer", m.name),
                value(nw, "per_layer", m.name),
            ) {
                row(m.name, w, b, n, None, judge(b, n, m.better, 0.0));
            }
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_and_bound() {
        assert_eq!(judge(100.0, 94.0, Better::Higher, 0.05), Verdict::Worse);
        assert_eq!(judge(100.0, 96.0, Better::Higher, 0.05), Verdict::Same);
        assert_eq!(judge(100.0, 106.0, Better::Higher, 0.05), Verdict::Better);
        assert_eq!(judge(1.0, 1.2, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(judge(1.0, 0.8, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(judge(0.0, 0.0, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(judge(0.0, 0.1, Better::Lower, 0.0), Verdict::Worse);
    }

    fn set(steps_per_s: f64, reacts: f64, unresolved: bool) -> String {
        render_set(
            1,
            &[WorkloadResult {
                name: "cmp8".to_owned(),
                attempted: 20,
                failed: 0,
                fast_share: 0.4,
                unresolved,
                end_to_end: vec![
                    ("steps_per_s", steps_per_s),
                    ("peak_rss_mb", 10.0),
                    ("setup_s", 0.01),
                ],
                per_layer: vec![("core.exec.reacts_per_step", reacts)],
            }],
        )
    }

    #[test]
    fn compares_two_result_files() {
        let (table, regressed) = compare(&set(1000.0, 423.0, false), &set(990.0, 423.0, false))
            .expect("well-formed files");
        assert!(!regressed, "{table}");
        assert!(table.contains("steps_per_s"));
        assert!(table
            .lines()
            .any(|l| l.starts_with("core.exec.reacts_per_step") && l.ends_with("same")));
        let (_, regressed) = compare(&set(1000.0, 423.0, false), &set(700.0, 423.0, false))
            .expect("well-formed files");
        assert!(regressed);
        let (table, regressed) = compare(&set(1000.0, 423.0, false), &set(1000.0, 423.0, true))
            .expect("well-formed files");
        assert!(regressed && table.contains("unresolved"));
        assert!(compare("{}", "{}").is_err());
    }
}
