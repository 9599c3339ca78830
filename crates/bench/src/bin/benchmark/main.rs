//! The repo benchmark: six run-to-completion workloads on
//! `SchedKind::Compiled`, each repetition in a fresh child process of
//! this binary, timed by the floor statistic of `stats.rs`, checked
//! against closed forms, an independent emulator and pinned digests.
//! README.md (beside this file) says why each workload and metric is
//! here; `/BENCHMARK.json` is the contract it is run under.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, result as the last line
//! benchmark --out FILE [--seed N] [--seconds S] [--trace] [--smoke]   all six, interleaved, to a file
//! benchmark compare BASE.json NEW.json                      row per (metric, workload) with verdict
//! ```

mod alloc;
mod child;
mod compare;
mod cpu;
mod driver;
mod json;
mod lssgen;
mod metrics;
mod names;
mod spans;
mod stats;
mod sweep;
mod workloads;

use child::{ChildArgs, Mode};
use compare::WorkloadResult;
use driver::{run_set, Samples, SetPlan};
use names::WORKLOADS;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--flag value` pairs and bare words, as typed.
struct Args {
    words: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.words.iter().position(|w| w == flag)?;
        self.words.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.words.iter().any(|w| w == flag)
    }

    /// A flag's value parsed as `T`; an unparsable value is an error, an
    /// absent flag is `default`.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args {
        words: std::env::args().skip(1).collect(),
    };
    let outcome = match args.words.first().map(String::as_str) {
        Some("child") => return child_mode(&args),
        Some("compare") => compare_mode(&args),
        _ if args.has("--workload") => contract_mode(&args),
        _ if args.has("--out") => set_mode(&args),
        _ => Err(
            "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n       \
                  benchmark --out FILE [--seed N] [--seconds S] [--trace] [--smoke]\n       \
                  benchmark compare BASE.json NEW.json"
                .to_owned(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn child_mode(args: &Args) -> ExitCode {
    let parsed = (|| {
        let mode = match args.value("--mode") {
            Some("plain") => Mode::Plain,
            Some("traced") => Mode::Traced,
            Some(m) => m
                .strip_prefix("sink:")
                .and_then(workloads::SinkKind::parse)
                .map(Mode::Sink)
                .ok_or_else(|| format!("--mode: cannot read {m:?}"))?,
            None => return Err("child needs --mode".to_owned()),
        };
        Ok(ChildArgs {
            workload: args
                .value("--workload")
                .ok_or("child needs --workload")?
                .to_owned(),
            seed: args.parsed("--seed", 1)?,
            mode,
            windows: args
                .value("--windows")
                .map(str::parse)
                .transpose()
                .map_err(|_| "--windows")?,
            smoke: args.has("--smoke"),
        })
    })();
    // The fastest probe the repetitions before this one saw.
    if let Some(ns) = args.value("--probe-ref").and_then(|v| v.parse().ok()) {
        cpu::note(ns);
    }
    match parsed {
        Ok(a) => child::run(&a),
        Err(why) => {
            eprintln!("benchmark child: {why}");
            ExitCode::from(2)
        }
    }
}

fn compare_mode(args: &Args) -> Result<ExitCode, String> {
    let [_, base, new] = &args.words[..] else {
        return Err("compare takes two result files".to_owned());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = compare::compare(&read(base)?, &read(new)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn result_of(name: &str, s: &Samples, trace: bool) -> Result<WorkloadResult, String> {
    let (attempted, failed) = metrics::tally(s);
    let none = || {
        format!(
            "{name}: no repetition succeeded ({})",
            metrics::first_failure(s).unwrap_or("no child ran")
        )
    };
    Ok(WorkloadResult {
        name: name.to_owned(),
        attempted,
        failed,
        fast_share: metrics::set_fast_share(s),
        unresolved: metrics::set_fast_share(s) < metrics::MIN_FAST_SHARE,
        end_to_end: metrics::end_to_end(s).ok_or_else(none)?,
        per_layer: if trace {
            metrics::per_layer(s).ok_or_else(none)?
        } else {
            Vec::new()
        },
    })
}

/// Every metric by name with its unit, and what went wrong, for people.
fn report(r: &WorkloadResult, samples: &Samples) {
    for (name, v) in r.end_to_end.iter().chain(&r.per_layer) {
        println!(
            "{:<14} {name:<34} {v:>18.6} {}",
            r.name,
            names::unit_of(name)
        );
    }
    if let Some(why) = metrics::first_failure(samples) {
        println!("{}: a repetition failed: {why}", r.name);
    }
    if r.unresolved {
        println!(
            "{}: unresolved — the host never settled into its fast regime",
            r.name
        );
    }
}

/// The contract of `/BENCHMARK.json`: one workload, measured for
/// `--seconds`, its metrics as one JSON object on the last line.
fn contract_mode(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload needs a name")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace: cannot read {t:?}")),
    };
    let plan = SetPlan {
        workloads: &[workload],
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", 20.0)?,
        trace,
        smoke: args.has("--smoke"),
    };
    let set = run_set(&plan);
    let r = result_of(workload, &set[workload], trace)?;
    report(&r, &set[workload]);
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        compare::metrics_json(metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// A full set: all six workloads interleaved, written to `--out`.
fn set_mode(args: &Args) -> Result<ExitCode, String> {
    let out = args.value("--out").ok_or("--out needs a file")?;
    let seed = args.parsed("--seed", 1)?;
    let trace = args.has("--trace");
    let plan = SetPlan {
        workloads: &WORKLOADS,
        seed,
        seconds: args.parsed("--seconds", 20.0)?,
        trace,
        smoke: args.has("--smoke"),
    };
    let set = run_set(&plan);
    let mut results = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let r = result_of(w, &set[w], trace)?;
        report(&r, &set[w]);
        failed |= r.failed > 0;
        results.push(r);
    }
    std::fs::write(out, compare::render_set(seed, &results)).map_err(|e| format!("{out}: {e}"))?;
    if trace {
        // The spans of every traced repetition, one JSON object a line.
        let mut lines = String::new();
        for w in WORKLOADS {
            for (rep, r) in set[w].traced.iter().enumerate() {
                for (id, s) in r.spans.iter().enumerate() {
                    let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                    lines.push_str(&format!(
                        "{{\"workload\": {}, \"rep\": {rep}, \"id\": {id}, \"parent\": {parent}, \
                         \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                        json::quote(w),
                        json::quote(&s.name),
                        s.start,
                        s.end
                    ));
                }
            }
        }
        let path = format!("{out}.trace.jsonl");
        std::fs::write(&path, lines).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use names::{END_TO_END, PER_LAYER};

    /// `/BENCHMARK.json` and `names.rs` must list the same things.
    #[test]
    fn names_match_the_contract_file() {
        let file = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            file.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    let field = |k| e.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |m: &names::Metric| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.label().to_owned(),
            )
        };
        let e2e: Vec<_> = END_TO_END.iter().map(|(m, _)| ours(m)).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER.iter().map(ours).collect();
        assert_eq!(names("per_layer"), layers);
        let bounds: Vec<f64> = file
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_f64).expect("a bound"))
            .collect();
        assert_eq!(bounds, END_TO_END.map(|(_, b)| b));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .into_iter()
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }
}
