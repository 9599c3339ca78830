//! The driver side: spawn one repetition at a time as a fresh child
//! process of this binary, interleave the workloads round-robin, and
//! collect what the children print.
//!
//! One child runs at a time from this one thread, and every child is
//! single-threaded: the host has two cores whose fast spells do not
//! coincide (each child moves to whichever is fast, see `cpu.rs`).

use crate::child::{scratch_root, Mode};
use crate::cpu;
use crate::spans::Span;
use crate::workloads::SinkKind;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Traced repetitions per workload, and the fewest rounds of sink
/// variants (more follow while the set's time lasts).
const TRACED_REPS: usize = 3;
const SINK_ROUNDS: usize = 2;
/// Untraced repetitions a workload gets even when the time budget is
/// already spent.
const MIN_REPS: usize = 3;

/// What one child reported.
#[derive(Default)]
pub struct Rep {
    /// Why the repetition failed, if it did.
    pub failure: Option<String>,
    /// Host ns per phase of set-up.
    pub setup: Vec<u64>,
    /// `(host ns, simulated steps)` per timed window.
    pub windows: Vec<(u64, u64)>,
    /// Every window timed identical work.
    pub uniform: bool,
    pub counts: BTreeMap<String, u64>,
    pub spans: Vec<Span>,
}

impl Rep {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn window_ns(&self) -> Vec<u64> {
        self.windows.iter().map(|w| w.0).collect()
    }

    pub fn steps(&self) -> u64 {
        self.windows.iter().map(|w| w.1).sum()
    }

    fn parse(stdout: &str) -> Rep {
        let mut rep = Rep::default();
        let mut ok = false;
        let bad = |line: &str| Some(format!("unreadable record line {line:?}"));
        for line in stdout.lines() {
            let mut f = line.split(' ');
            match f.next() {
                Some("window") => {
                    let v: Vec<u64> = f.filter_map(|x| x.parse().ok()).collect();
                    match v[..] {
                        [k, ns, steps] if k as usize == rep.windows.len() => {
                            rep.windows.push((ns, steps));
                        }
                        _ => rep.failure = bad(line),
                    }
                }
                Some("setup") => {
                    let v: Vec<u64> = f.filter_map(|x| x.parse().ok()).collect();
                    match v[..] {
                        [k, ns] if k as usize == rep.setup.len() => rep.setup.push(ns),
                        _ => rep.failure = bad(line),
                    }
                }
                Some("count") => match (f.next(), f.next().and_then(|v| v.parse().ok())) {
                    (Some(name), Some(v)) => {
                        rep.counts.insert(name.to_owned(), v);
                    }
                    _ => rep.failure = bad(line),
                },
                Some("span") => {
                    let v: Vec<&str> = f.collect();
                    let parsed = match v[..] {
                        [_, parent, name, start, end] => start
                            .parse()
                            .ok()
                            .zip(end.parse().ok())
                            .map(|(start, end)| Span {
                                name: name.to_owned(),
                                start,
                                end,
                                parent: parent.parse().ok(),
                            }),
                        _ => None,
                    };
                    match parsed {
                        Some(s) => rep.spans.push(s),
                        None => rep.failure = bad(line),
                    }
                }
                Some("fail") => {
                    rep.failure
                        .get_or_insert_with(|| line["fail".len()..].trim().to_owned());
                }
                Some("uniform") => rep.uniform = true,
                Some("ok") => ok = true,
                _ => rep.failure = bad(line),
            }
        }
        if !ok && rep.failure.is_none() {
            rep.failure = Some("child ended without a record".to_owned());
        }
        rep
    }
}

/// Run one repetition in a fresh child and wait for it.
pub fn spawn(workload: &str, seed: u64, mode: Mode, windows: Option<usize>, smoke: bool) -> Rep {
    let fail = |why: String| Rep {
        failure: Some(why),
        ..Rep::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--seed", &seed.to_string()]);
    let mode = match mode {
        Mode::Plain => "plain".to_owned(),
        Mode::Traced => "traced".to_owned(),
        Mode::Sink(k) => format!("sink:{}", k.label()),
    };
    cmd.args(["--mode", &mode]);
    if let Some(w) = windows {
        cmd.args(["--windows", &w.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // What "fast" reads on this host, as far as the children so far know.
    if let Some(ns) = cpu::reference() {
        cmd.args(["--probe-ref", &ns.to_string()]);
    }
    let child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn();
    let child = match child {
        Ok(c) => c,
        Err(e) => return fail(format!("spawn: {e}")),
    };
    let pid = child.id();
    let out = child.wait_with_output();
    // A child that died mid-run leaves its scratch directory behind.
    let _ = std::fs::remove_dir_all(scratch_root().join(pid.to_string()));
    match out {
        Ok(o) if o.status.success() => {
            let rep = Rep::parse(&String::from_utf8_lossy(&o.stdout));
            cpu::note(rep.count("probe_ref"));
            rep
        }
        Ok(o) => fail(format!("child exited with {}", o.status)),
        Err(e) => fail(format!("wait: {e}")),
    }
}

/// Everything measured for one workload in one set.
#[derive(Default)]
pub struct Samples {
    pub plain: Vec<Rep>,
    pub traced: Vec<Rep>,
    /// Shortened runs per sink variant, keyed by its label.
    pub sinks: BTreeMap<&'static str, Vec<Rep>>,
}

impl Samples {
    pub fn all(&self) -> impl Iterator<Item = &Rep> {
        self.plain
            .iter()
            .chain(&self.traced)
            .chain(self.sinks.values().flatten())
    }
}

/// How many leading windows a sink-variant run covers: enough to time,
/// short enough that six variants fit beside the traced repetitions.
fn variant_windows(workload: &str) -> usize {
    match workload {
        "cmp8" | "cmp8_observed" => 8,
        "lss_front" => 5,
        _ => 3,
    }
}

pub struct SetPlan<'a> {
    pub workloads: &'a [&'a str],
    pub seed: u64,
    /// Measuring time per workload, in seconds. A traced set spends half
    /// of it on untraced repetitions (the floors the traced numbers are
    /// compared with) and the rest on traced ones and sink variants.
    pub seconds: f64,
    pub trace: bool,
    /// Two repetitions of shortened runs.
    pub smoke: bool,
}

/// Run one set: untraced repetitions interleaved round-robin across the
/// workloads until the time is used, then (with `trace`) the traced
/// repetitions and the sink variants, interleaved the same way.
pub fn run_set(plan: &SetPlan) -> BTreeMap<String, Samples> {
    let mut set: BTreeMap<String, Samples> = plan
        .workloads
        .iter()
        .map(|w| ((*w).to_owned(), Samples::default()))
        .collect();
    let limit = plan.smoke.then_some(2);
    let total = plan.seconds * plan.workloads.len() as f64;
    let budget = if plan.trace { total / 2.0 } else { total };
    let start = Instant::now();
    let mut longest = 0.0f64;
    for round in 0.. {
        let used = start.elapsed().as_secs_f64();
        let stop = if plan.smoke {
            round >= 2
        } else {
            // Stop before a round that would overrun, judging by the
            // longest round so far.
            round >= MIN_REPS && used + longest > budget
        };
        if stop {
            break;
        }
        for w in plan.workloads {
            let rep = spawn(w, plan.seed, Mode::Plain, limit, plan.smoke);
            set.get_mut(*w).expect("workload in set").plain.push(rep);
        }
        longest = longest.max(start.elapsed().as_secs_f64() - used);
    }
    if plan.trace {
        for _ in 0..if plan.smoke { 2 } else { TRACED_REPS } {
            for w in plan.workloads {
                let rep = spawn(w, plan.seed, Mode::Traced, limit, plan.smoke);
                set.get_mut(*w).expect("workload in set").traced.push(rep);
            }
        }
        for round in 0.. {
            let spent = start.elapsed().as_secs_f64() > total;
            if round >= if plan.smoke { 1 } else { SINK_ROUNDS } && (plan.smoke || spent) {
                break;
            }
            for w in plan.workloads.iter().filter(|w| **w != "sweep_durable") {
                for kind in SinkKind::VARIANTS {
                    let windows = Some(variant_windows(w));
                    let rep = spawn(w, plan.seed, Mode::Sink(kind), windows, plan.smoke);
                    set.get_mut(*w)
                        .expect("workload in set")
                        .sinks
                        .entry(kind.label())
                        .or_default()
                        .push(rep);
                }
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let rep = Rep::parse(
            "setup 0 40\nsetup 1 37\nwindow 0 1200 512\nwindow 1 900 100\ncount rss_kb 77\n\
             span 0 - rep 0 5000\nspan 1 0 lss.parse 10 20\nok\n",
        );
        assert!(rep.ok());
        assert_eq!(rep.window_ns(), vec![1200, 900]);
        assert_eq!(rep.steps(), 612);
        assert_eq!(rep.setup, vec![40, 37]);
        assert_eq!(rep.count("rss_kb"), 77);
        assert_eq!(rep.spans[1].parent, Some(0));
        assert_eq!(rep.spans[0].parent, None);
    }

    #[test]
    fn a_fail_line_or_a_missing_ok_fails_the_repetition() {
        let failed = Rep::parse("window 0 5 5\nfail window 0 made no simulated progress\n");
        assert_eq!(
            failed.failure.as_deref(),
            Some("window 0 made no simulated progress")
        );
        assert!(!Rep::parse("window 0 5 5\n").ok());
        assert!(!Rep::parse("window 1 5 5\nok\n").ok());
        assert!(!Rep::parse("garbage\nok\n").ok());
    }
}
