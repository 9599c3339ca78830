//! Shared observability front end for the example binaries.
//!
//! Every example accepts the same flags and wires them to the kernel's
//! [`Probe`] sinks:
//!
//! ```text
//! --trace [--trace-limit N]   print transfers as they happen (default cap 200)
//! --vcd PATH                  dump waveforms for GTKWave
//! --jsonl PATH                stream structured events as JSON lines
//! --profile                   print a per-instance hot-spot table at exit
//! --metrics-out PATH          write engine metrics + statistics as JSON
//! --faults SEED               inject a random fault plan (chaos mode)
//! --fault-horizon N           fault activity window for --faults (default 64)
//! --fault-policy P            abort | quarantine (default: quarantine)
//! --max-iters N               convergence watchdog bound per time-step
//! --threads N                 ensemble mode: replicas run concurrently (sweep lanes)
//! --explain-plan              print which instances specialize
//! --no-specialize             keep every handler on the dynamic path
//! --max-steps N               run-governance step budget
//! --deadline SECS             run-governance wall-clock deadline
//! --retries N                 retry supervisor (arms rollback)
//! --sink-backpressure P[:B]   block | drop, bounded at B bytes (default 1 MiB)
//! --report-json PATH          write the run (or sweep) report as JSON
//! --sweep KEY=LO..HI          ensemble mode: sweep a root parameter range
//! --seeds N                   ensemble mode: replicas per parameter point
//! --base-seed S               ensemble mode: base seed for replica seeds
//! --sweep-dir DIR             ensemble output directory (default sweep_out)
//! --resume-manifest DIR       resume the interrupted sweep recorded in DIR
//! ```
//!
//! Usage inside an example:
//!
//! ```ignore
//! let opts = liberty_examples::ObsOpts::parse_env()?;
//! // ... opts.rest holds the example's own positional args ...
//! let obs = opts.install(&mut sim)?;
//! let report = opts.run(&mut sim, cycles)?;
//! obs.finish(&mut sim)?;
//! ```
//!
//! [`ObsOpts::run`] / [`ObsOpts::run_until`] route through the kernel's
//! governed run loop: they install a SIGINT handler (Ctrl-C trips a
//! [`CancelToken`], the run drains at the next step boundary, writes a
//! final checkpoint and reports instead of dying mid-step), apply the
//! governance flags above, and print the [`RunReport`] whenever the run
//! stopped early or any governance flag was given.

use liberty_core::prelude::*;
use liberty_core::probe::json_escape;
use liberty_ensemble::{ParamSweep, ReplicaSpec, SweepConfig, SweepReport, TopoCache};
use std::io::Write;
use std::path::PathBuf;

/// Parsed observability flags (plus the remaining, example-specific args).
#[derive(Debug, Default)]
pub struct ObsOpts {
    trace: bool,
    trace_limit: u64,
    vcd: Option<PathBuf>,
    jsonl: Option<PathBuf>,
    profile: bool,
    metrics_out: Option<PathBuf>,
    faults: Option<u64>,
    fault_horizon: u64,
    fault_policy: FailurePolicy,
    max_iters: Option<u64>,
    threads: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    max_steps: Option<u64>,
    deadline: Option<std::time::Duration>,
    retries: Option<u64>,
    sink_backpressure: Option<(SinkPolicy, usize)>,
    explain_plan: bool,
    no_specialize: bool,
    report_json: Option<PathBuf>,
    sweep: Option<ParamSweep>,
    seeds: Option<u64>,
    base_seed: Option<u64>,
    sweep_dir: Option<PathBuf>,
    resume_manifest: Option<PathBuf>,
    /// Arguments not consumed by the observability layer, in order.
    pub rest: Vec<String>,
}

/// One line per flag, for embedding in an example's usage message.
pub const OBS_USAGE: &str = "  --trace             print transfers (cap with --trace-limit N, default 200)\n  --vcd PATH          dump data/enable/ack waveforms for GTKWave\n  --jsonl PATH        stream structured events as JSON lines\n  --profile           print a per-instance hot-spot table at exit\n  --metrics-out PATH  write engine metrics + statistics as JSON\n  --faults SEED       inject a seeded random fault plan (chaos mode)\n  --fault-horizon N   fault activity window for --faults (default 64)\n  --fault-policy P    abort | quarantine on module failure (default quarantine)\n  --max-iters N       convergence watchdog: bound reactions per time-step\n  --threads N         ensemble mode: replicas run concurrently (sweep lanes, default 1)\n  --explain-plan      print which instances run as specialized kernels and why\n  --no-specialize     disable handler specialization (dynamic handler bodies)\n  --checkpoint-every N  take a checkpoint every N steps\n  --checkpoint-dir DIR  persist checkpoints as DIR/step-NNNNNNNN.ckpt\n  --resume FILE       restore a checkpoint before running\n  --max-steps N       stop (with a run report) after N executed steps\n  --deadline SECS     stop (with a run report) after SECS wall-clock seconds\n  --retries N         retry from checkpoint up to N times on quarantine/divergence\n  --sink-backpressure P[:BYTES]  bound VCD/JSONL buffering: block | drop (default 1 MiB)\n  --report-json PATH  write the run (or sweep) report as machine-readable JSON\n  --sweep KEY=LO..HI  ensemble mode: one replica per value of a root parameter\n  --seeds N           ensemble mode: replicas per parameter point (default 1)\n  --base-seed S       ensemble mode: base seed replica seeds derive from\n  --sweep-dir DIR     ensemble output directory (default sweep_out)\n  --resume-manifest DIR  resume the interrupted sweep recorded in DIR's manifest";

impl ObsOpts {
    /// Parse `std::env::args().skip(1)`.
    pub fn parse_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an argument stream; unrecognized arguments land in `rest`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut o = ObsOpts {
            trace_limit: 200,
            fault_horizon: 64,
            fault_policy: FailurePolicy::Quarantine,
            ..ObsOpts::default()
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => o.trace = true,
                "--profile" => o.profile = true,
                "--trace-limit" => {
                    o.trace_limit = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--trace-limit requires a number")?;
                }
                "--faults" => {
                    o.faults = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--faults requires a seed (u64)")?,
                    );
                }
                "--fault-horizon" => {
                    o.fault_horizon = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fault-horizon requires a number of cycles")?;
                }
                "--fault-policy" => {
                    o.fault_policy = match args.next().as_deref() {
                        Some("abort") => FailurePolicy::Abort,
                        Some("quarantine") => FailurePolicy::Quarantine,
                        _ => return Err("--fault-policy requires abort or quarantine".into()),
                    };
                }
                "--max-iters" => {
                    o.max_iters = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--max-iters requires a number")?,
                    );
                }
                "--threads" => {
                    o.threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or("--threads requires a positive number")?,
                    );
                }
                "--checkpoint-every" => {
                    o.checkpoint_every = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or("--checkpoint-every requires a positive step count")?,
                    );
                }
                "--max-steps" => {
                    o.max_steps = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--max-steps requires a step count")?,
                    );
                }
                "--deadline" => {
                    let secs: f64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--deadline requires a number of seconds")?;
                    o.deadline = Some(std::time::Duration::from_secs_f64(secs));
                }
                "--retries" => {
                    o.retries = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--retries requires a retry count")?,
                    );
                }
                "--sweep" => {
                    let v = args.next().ok_or("--sweep requires KEY=LO..HI")?;
                    o.sweep = Some(ParamSweep::parse(&v)?);
                }
                "--seeds" => {
                    o.seeds = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or("--seeds requires a positive replica count")?,
                    );
                }
                "--base-seed" => {
                    o.base_seed = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--base-seed requires a seed (u64)")?,
                    );
                }
                "--explain-plan" => o.explain_plan = true,
                "--no-specialize" => o.no_specialize = true,
                "--sink-backpressure" => {
                    let v = args
                        .next()
                        .ok_or("--sink-backpressure requires block | drop (optionally :BYTES)")?;
                    o.sink_backpressure = Some(parse_sink_backpressure(&v)?);
                }
                _ if a == "--vcd" || a.starts_with("--vcd=") => {
                    o.vcd = Some(flag_path(&a, "--vcd", &mut args)?);
                }
                _ if a == "--jsonl" || a.starts_with("--jsonl=") => {
                    o.jsonl = Some(flag_path(&a, "--jsonl", &mut args)?);
                }
                _ if a == "--metrics-out" || a.starts_with("--metrics-out=") => {
                    o.metrics_out = Some(flag_path(&a, "--metrics-out", &mut args)?);
                }
                _ if a == "--checkpoint-dir" || a.starts_with("--checkpoint-dir=") => {
                    o.checkpoint_dir = Some(flag_path(&a, "--checkpoint-dir", &mut args)?);
                }
                _ if a == "--resume-manifest" || a.starts_with("--resume-manifest=") => {
                    o.resume_manifest = Some(flag_path(&a, "--resume-manifest", &mut args)?);
                }
                _ if a == "--resume" || a.starts_with("--resume=") => {
                    o.resume = Some(flag_path(&a, "--resume", &mut args)?);
                }
                _ if a == "--report-json" || a.starts_with("--report-json=") => {
                    o.report_json = Some(flag_path(&a, "--report-json", &mut args)?);
                }
                _ if a == "--sweep-dir" || a.starts_with("--sweep-dir=") => {
                    o.sweep_dir = Some(flag_path(&a, "--sweep-dir", &mut args)?);
                }
                _ => o.rest.push(a),
            }
        }
        Ok(o)
    }

    /// Attach the requested sinks to a constructed simulator. Call
    /// [`ObsSession::finish`] after the run to emit end-of-run outputs.
    pub fn install(&self, sim: &mut Simulator) -> Result<ObsSession, std::io::Error> {
        let mut multi = MultiProbe::new();
        if self.trace {
            multi.push(Box::new(TextTracer::new(
                std::io::stdout(),
                self.trace_limit,
            )));
        }
        let mut sinks: Vec<(&'static str, SinkStats)> = Vec::new();
        if let Some(path) = &self.vcd {
            if let Some((policy, cap)) = self.sink_backpressure {
                let f = std::io::BufWriter::new(std::fs::File::create(path)?);
                let w = BackpressureWriter::new(f, cap, policy);
                sinks.push(("vcd", w.stats()));
                multi.push(Box::new(VcdProbe::new(w)));
            } else {
                multi.push(Box::new(VcdProbe::create(path)?));
            }
        }
        if let Some(path) = &self.jsonl {
            let f = std::io::BufWriter::new(std::fs::File::create(path)?);
            if let Some((policy, cap)) = self.sink_backpressure {
                let w = BackpressureWriter::new(f, cap, policy);
                sinks.push(("jsonl", w.stats()));
                multi.push(Box::new(JsonlProbe::new(w)));
            } else {
                multi.push(Box::new(JsonlProbe::new(f)));
            }
        }
        let mut profile = None;
        if self.profile {
            let (probe, handle) = Profiler::new();
            multi.push(Box::new(probe));
            profile = Some(handle);
        }
        if !multi.is_empty() {
            sim.set_probe(Box::new(multi));
        }
        if let Some(seed) = self.faults {
            let topo = sim.topology().clone();
            let plan = FaultPlan::random(seed, &topo, self.fault_horizon, 0.3);
            eprintln!(
                "chaos: seed {seed}, {} wire faults, {} instance faults, policy {:?}",
                plan.signal_faults().len(),
                plan.instance_faults().len(),
                self.fault_policy
            );
            sim.set_fault_plan(plan);
            sim.set_failure_policy(self.fault_policy);
        }
        if let Some(n) = self.max_iters {
            sim.set_watchdog(n);
        }
        if let Some(path) = &self.resume {
            let snap = Snapshot::read_file(path)
                .map_err(|e| std::io::Error::other(format!("--resume {}: {e}", path.display())))?;
            sim.restore(&snap)
                .map_err(|e| std::io::Error::other(format!("--resume {}: {e}", path.display())))?;
            eprintln!("resumed from {} at step {}", path.display(), snap.now());
        }
        if let Some(every) = self.checkpoint_every {
            sim.set_auto_checkpoint(every);
        }
        if let Some(dir) = &self.checkpoint_dir {
            // A checkpoint directory with no explicit period defaults to
            // every 64 steps, so the flag is useful on its own.
            if self.checkpoint_every.is_none() {
                sim.set_auto_checkpoint(64);
            }
            sim.set_checkpoint_dir(dir.clone());
        }
        if self.max_steps.is_some() || self.deadline.is_some() {
            let mut budget = RunBudget::new();
            if let Some(n) = self.max_steps {
                budget = budget.max_steps(n);
            }
            if let Some(d) = self.deadline {
                budget = budget.deadline(d);
            }
            sim.set_budget(budget);
        }
        if let Some(n) = self.retries {
            sim.set_retry_policy(RetryPolicy::with_max_retries(n));
            // Retries rewind to the last checkpoint; give them periodic
            // targets when the host did not configure any.
            if self.checkpoint_every.is_none() {
                sim.set_auto_checkpoint(64);
            }
        }
        if self.no_specialize {
            sim.set_specialization(false);
        }
        if self.explain_plan {
            // After every other flag, so the summary's `enabled` state
            // reflects probes/faults/--no-specialize suppression. A Sweep
            // simulator has no plan and so nothing to explain.
            if let Some(summary) = sim.plan_summary() {
                eprintln!("{summary}");
            }
        }
        Ok(ObsSession {
            profile,
            metrics_out: self.metrics_out.clone(),
            sinks,
        })
    }

    /// True when any run-governance flag was given (and a report should
    /// therefore always be printed).
    pub fn governed(&self) -> bool {
        self.max_steps.is_some() || self.deadline.is_some() || self.retries.is_some()
    }

    /// Run `cycles` steps through the governed loop: Ctrl-C cancels at
    /// the next step boundary (writing a final checkpoint), the
    /// governance flags bound the run, and the [`RunReport`] is printed
    /// to stderr whenever the run stopped early or governance was
    /// requested. Returns the report; `Err` only for a failed run (the
    /// report is printed first).
    pub fn run(&self, sim: &mut Simulator, cycles: u64) -> Result<RunReport, SimError> {
        sim.set_cancel_token(sigint_token());
        let report = sim.run_governed(cycles);
        self.emit_report(&report);
        self.write_report_json(&report.to_json())?;
        match report.error.clone() {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// [`ObsOpts::run`] with an early-exit predicate — the governed
    /// analogue of `Simulator::run_until`.
    pub fn run_until(
        &self,
        sim: &mut Simulator,
        max_cycles: u64,
        pred: impl FnMut(&Stats) -> bool,
    ) -> Result<RunReport, SimError> {
        sim.set_cancel_token(sigint_token());
        let report = sim.run_governed_until(max_cycles, pred);
        self.emit_report(&report);
        self.write_report_json(&report.to_json())?;
        match report.error.clone() {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    fn emit_report(&self, report: &RunReport) {
        if self.governed() || report.stopped_early() || report.error.is_some() {
            eprint!("{}", report.render());
        }
    }

    /// Write `--report-json` output (a no-op without the flag). An
    /// unwritable report file is a hard error: CI consumes these.
    fn write_report_json(&self, json: &str) -> Result<(), SimError> {
        if let Some(path) = &self.report_json {
            std::fs::write(path, format!("{json}\n")).map_err(|e| {
                SimError::Internal(format!("--report-json {}: {e}", path.display()))
            })?;
        }
        Ok(())
    }

    /// True when any ensemble flag was given — the example should route
    /// through [`ObsOpts::run_lss_sweep`] instead of a single run.
    pub fn sweep_requested(&self) -> bool {
        self.sweep.is_some() || self.seeds.is_some() || self.resume_manifest.is_some()
    }

    /// Run (or resume) a replica sweep over an LSS specification.
    ///
    /// Geometry comes from `--sweep`/`--seeds`/`--base-seed` (or, on
    /// `--resume-manifest`, from the recorded manifest header, with any
    /// explicitly repeated flag validated against it); execution knobs
    /// (`--threads`, `--checkpoint-every`, `--max-steps`, `--deadline`,
    /// `--retries`) apply per invocation. `--faults SEED` turns the
    /// sweep into a chaos sweep: every replica gets a fault plan seeded
    /// by its replica seed, and SEED doubles as the base seed unless
    /// `--base-seed` overrides it.
    ///
    /// Each parameter point's replicas share one `Arc<Topology>` (and
    /// its cached compiled plan) through a [`TopoCache`]; SIGINT fans
    /// out to every in-flight replica, which park resumably. Prints the
    /// sweep summary, honours `--report-json`, and returns the report.
    pub fn run_lss_sweep(
        &self,
        src: &str,
        registry: &Registry,
        root: &str,
        base: &Params,
        cycles: u64,
    ) -> Result<SweepReport, Box<dyn std::error::Error>> {
        let dir = self
            .resume_manifest
            .clone()
            .or_else(|| self.sweep_dir.clone())
            .unwrap_or_else(|| PathBuf::from("sweep_out"));
        let mut cfg = match &self.resume_manifest {
            Some(d) => liberty_ensemble::resume_config(d)?,
            None => SweepConfig::new(cycles),
        };
        if let Some(s) = &self.sweep {
            cfg.sweep = Some(s.clone());
        }
        if let Some(n) = self.seeds {
            cfg.seeds = n;
        }
        if let Some(b) = self.base_seed {
            cfg.base_seed = b;
        }
        if let Some(seed) = self.faults {
            cfg.fault_rate = Some(0.3);
            cfg.fault_policy = self.fault_policy;
            if self.base_seed.is_none() && self.resume_manifest.is_none() {
                cfg.base_seed = seed;
            }
        }
        if let Some(t) = self.threads {
            cfg.threads = t;
        }
        if let Some(e) = self.checkpoint_every {
            cfg.checkpoint_every = e;
        }
        if self.max_steps.is_some() {
            cfg.max_steps = self.max_steps;
        }
        if self.deadline.is_some() {
            cfg.deadline = self.deadline;
        }
        if let Some(n) = self.retries {
            cfg.retry = Some(RetryPolicy::with_max_retries(n));
        }
        if let Some(w) = self.max_iters {
            cfg.watchdog = w;
        }

        let spec_ast = liberty_lss::parse(src)?;
        let cache = TopoCache::new();
        let factory = |spec: &ReplicaSpec| -> Result<Simulator, SimError> {
            let params = spec.params(base);
            let (net, _report) = liberty_lss::elaborate(&spec_ast, registry, root, &params)?;
            let (topo, modules) = net.into_parts();
            let shared = cache.unify(&spec.point_label(), topo);
            Ok(Simulator::from_parts(shared, modules, SchedKind::Compiled))
        };

        let cancel = sigint_token();
        let report = match &self.resume_manifest {
            Some(d) => liberty_ensemble::resume_sweep(d, &cfg, &cancel, &factory)?,
            None => liberty_ensemble::run_sweep(&dir, &cfg, &cancel, &factory)?,
        };
        print!("{}", report.render());
        if !report.complete() {
            eprintln!(
                "sweep incomplete; resume with --resume-manifest {}",
                dir.display()
            );
        }
        self.write_report_json(&report.to_json())?;
        Ok(report)
    }
}

/// Parse `block`, `drop`, `block:BYTES` or `drop:BYTES`.
fn parse_sink_backpressure(v: &str) -> Result<(SinkPolicy, usize), String> {
    const DEFAULT_CAP: usize = 1 << 20; // 1 MiB
    let (name, cap) = match v.split_once(':') {
        Some((name, bytes)) => {
            let cap = bytes
                .parse()
                .ok()
                .filter(|&b: &usize| b > 0)
                .ok_or("--sink-backpressure BYTES must be a positive byte count")?;
            (name, cap)
        }
        None => (v, DEFAULT_CAP),
    };
    let policy = match name {
        "block" => SinkPolicy::Block,
        "drop" => SinkPolicy::DropOldest,
        _ => return Err("--sink-backpressure requires block | drop (optionally :BYTES)".into()),
    };
    Ok((policy, cap))
}

/// The process-wide SIGINT cancellation token. The first call installs
/// the handler; Ctrl-C then trips the flag and every governed run
/// observes it at its next step boundary. On non-Unix targets the token
/// simply never trips.
pub fn sigint_token() -> CancelToken {
    static CANCELLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    #[cfg(unix)]
    {
        use std::sync::atomic::{AtomicBool, Ordering};
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        extern "C" fn on_sigint(_signum: i32) {
            // Async-signal-safe: a single relaxed store.
            CANCELLED.store(true, Ordering::Relaxed);
        }
        if !INSTALLED.swap(true, Ordering::Relaxed) {
            // `signal` is in libc, which std already links; declaring it
            // directly avoids a dependency for one call.
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            unsafe {
                signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
            }
        }
    }
    CancelToken::from_static(&CANCELLED)
}

/// Take a flag's path value from `--flag=PATH` or the next argument.
fn flag_path(
    a: &str,
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<PathBuf, String> {
    if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
        Ok(PathBuf::from(v))
    } else {
        args.next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{name} requires a path argument"))
    }
}

/// End-of-run half of the observability session.
pub struct ObsSession {
    profile: Option<ProfileHandle>,
    metrics_out: Option<PathBuf>,
    sinks: Vec<(&'static str, SinkStats)>,
}

impl ObsSession {
    /// Detach the simulator's probe and flush its sinks, print the
    /// profiler's hot-spot table (when `--profile`) and write the metrics
    /// JSON (when `--metrics-out`). A sink that failed to write its
    /// `--vcd` / `--jsonl` file makes this an `Err`, after the rest is
    /// done.
    pub fn finish(self, sim: &mut Simulator) -> Result<(), std::io::Error> {
        let synced = sim.take_probe().map_or(Ok(()), |mut p| p.sync());
        if let Some(handle) = &self.profile {
            let report = handle.report();
            println!("\nhot spots (handler wall-clock time):");
            print!("{}", report.render_table(20));
        }
        if let Some(path) = &self.metrics_out {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            f.write_all(metrics_json(sim).as_bytes())?;
            f.flush()?;
        }
        for (name, stats) in &self.sinks {
            eprintln!(
                "sink {name}: {} records dropped ({} bytes), {} blocking flushes",
                stats.dropped_records(),
                stats.dropped_bytes(),
                stats.blocking_flushes()
            );
        }
        synced
    }
}

/// Render engine metrics + the full statistics report as a JSON document.
/// Hand-rolled: the kernel keeps zero mandatory dependencies.
pub fn metrics_json(sim: &Simulator) -> String {
    let m = sim.metrics();
    let rep = sim.report();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"engine\": {{\"steps\": {}, \"reacts\": {}, \"commits\": {}, \"defaults\": {}}},\n",
        m.steps, m.reacts, m.commits, m.defaults
    ));
    let transfers: u64 = sim.transfer_counts().iter().sum();
    out.push_str(&format!("  \"transfers\": {transfers},\n"));

    out.push_str("  \"counters\": {");
    let mut first = true;
    for (k, v) in &rep.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {v}", json_escape(k)));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"samples\": {");
    let mut first = true;
    for (k, s) in &rep.samples {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{\"n\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
            json_escape(k),
            s.n,
            s.min,
            s.max,
            s.mean()
        ));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"histograms\": {");
    let mut first = true;
    for (k, h) in &rep.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            json_escape(k),
            h.count(),
            h.sum()
        ));
        let mut bfirst = true;
        for (lo, hi, n) in h.buckets() {
            if !bfirst {
                out.push_str(", ");
            }
            bfirst = false;
            out.push_str(&format!("[{lo}, {hi}, {n}]"));
        }
        out.push_str("]}");
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ObsOpts {
        ObsOpts::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    /// Sends its step number every step and counts what was taken.
    struct Src;
    impl Module for Src {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            if ctx.transferred_out(PortId(0), 0) {
                ctx.count("emitted", 1);
            }
            Ok(())
        }
    }

    /// `s`, alone, under the compiled scheduler.
    fn src_sim() -> Simulator {
        let mut b = NetlistBuilder::new();
        let spec = ModuleSpec::new("src").output("out", 0, 1);
        b.add("s", spec, Box::new(Src)).unwrap();
        Simulator::new(b.build().unwrap(), SchedKind::Compiled)
    }

    #[test]
    fn parses_flags_and_leaves_rest() {
        let o = parse(&[
            "specs/pipeline.lss",
            "--vcd",
            "out.vcd",
            "60",
            "--profile",
            "--trace",
            "--trace-limit",
            "9",
            "--metrics-out=metrics.json",
        ]);
        assert_eq!(o.rest, vec!["specs/pipeline.lss", "60"]);
        assert_eq!(o.vcd.as_deref(), Some(std::path::Path::new("out.vcd")));
        assert!(o.profile && o.trace);
        assert_eq!(o.trace_limit, 9);
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("metrics.json"))
        );
        assert!(o.jsonl.is_none());
    }

    #[test]
    fn missing_path_is_an_error() {
        assert!(ObsOpts::parse(["--vcd".to_string()].into_iter()).is_err());
        assert!(ObsOpts::parse(["--trace-limit".to_string()].into_iter()).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let o = parse(&[
            "--faults",
            "42",
            "--fault-horizon",
            "128",
            "--fault-policy",
            "abort",
            "--max-iters",
            "5000",
        ]);
        assert_eq!(o.faults, Some(42));
        assert_eq!(o.fault_horizon, 128);
        assert_eq!(o.fault_policy, FailurePolicy::Abort);
        assert_eq!(o.max_iters, Some(5000));
        assert!(o.rest.is_empty());
    }

    #[test]
    fn fault_defaults_are_quarantine() {
        let o = parse(&["--faults", "7"]);
        assert_eq!(o.fault_horizon, 64);
        assert_eq!(o.fault_policy, FailurePolicy::Quarantine);
        assert!(o.max_iters.is_none());
    }

    #[test]
    fn parses_checkpoint_flags() {
        let o = parse(&[
            "--checkpoint-every",
            "32",
            "--checkpoint-dir",
            "ckpts",
            "--resume=ckpts/step-00000032.ckpt",
        ]);
        assert_eq!(o.checkpoint_every, Some(32));
        assert_eq!(
            o.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("ckpts"))
        );
        assert_eq!(
            o.resume.as_deref(),
            Some(std::path::Path::new("ckpts/step-00000032.ckpt"))
        );
        assert!(o.rest.is_empty());
        assert!(
            ObsOpts::parse(["--checkpoint-every".to_string(), "0".to_string()].into_iter())
                .is_err()
        );
        assert!(ObsOpts::parse(["--resume".to_string()].into_iter()).is_err());
    }

    #[test]
    fn install_resumes_from_checkpoint_file() {
        let dir = std::env::temp_dir().join(format!("lse-obs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // First run persists checkpoints...
        let o = parse(&[
            "--checkpoint-every",
            "2",
            &format!("--checkpoint-dir={}", dir.display()),
        ]);
        let mut sim = src_sim();
        let obs = o.install(&mut sim).unwrap();
        sim.run(4).unwrap();
        obs.finish(&mut sim).unwrap();
        let file = dir.join("step-00000004.ckpt");
        assert!(file.exists(), "checkpoint file written");

        // ...and a second process-equivalent resumes from one.
        let o = parse(&[&format!("--resume={}", file.display())]);
        let mut sim2 = src_sim();
        let obs = o.install(&mut sim2).unwrap();
        assert_eq!(sim2.now(), 4);
        sim2.run(2).unwrap();
        obs.finish(&mut sim2).unwrap();
        assert_eq!(sim2.metrics().steps, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_governance_flags() {
        let o = parse(&[
            "--max-steps",
            "500",
            "--deadline",
            "2.5",
            "--retries",
            "3",
            "--sink-backpressure",
            "drop:4096",
        ]);
        assert_eq!(o.max_steps, Some(500));
        assert_eq!(o.deadline, Some(std::time::Duration::from_millis(2500)));
        assert_eq!(o.retries, Some(3));
        assert_eq!(o.sink_backpressure, Some((SinkPolicy::DropOldest, 4096)));
        assert!(o.governed());
        assert!(o.rest.is_empty());

        let o = parse(&["--sink-backpressure", "block"]);
        assert_eq!(o.sink_backpressure, Some((SinkPolicy::Block, 1 << 20)));
        assert!(!o.governed());

        for bad in [
            vec!["--max-steps"],
            vec!["--deadline", "-1"],
            vec!["--deadline", "soon"],
            vec!["--retries", "x"],
            vec!["--sink-backpressure", "lossless"],
            vec!["--sink-backpressure", "drop:0"],
        ] {
            assert!(
                ObsOpts::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn governed_run_stops_at_the_step_budget_and_reports() {
        let mut sim = src_sim();
        let o = parse(&["--max-steps", "5"]);
        let obs = o.install(&mut sim).unwrap();
        let report = o.run(&mut sim, 100).unwrap();
        assert_eq!(
            report.outcome,
            RunOutcome::BudgetExhausted(BudgetKind::Steps)
        );
        assert_eq!(report.steps_executed, 5);
        assert_eq!(sim.metrics().steps, 5);
        obs.finish(&mut sim).unwrap();
    }

    #[test]
    fn sink_backpressure_wraps_the_jsonl_sink() {
        let mut sim = src_sim();
        let path = std::env::temp_dir().join(format!("lse-obs-bp-{}.jsonl", std::process::id()));
        let o = parse(&[
            &format!("--jsonl={}", path.display()),
            "--sink-backpressure",
            "block:256",
        ]);
        let obs = o.install(&mut sim).unwrap();
        sim.run(32).unwrap();
        obs.finish(&mut sim).unwrap(); // flushes through the bounded buffer
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 32, "events written through: {text}");
        std::fs::remove_file(&path).ok();
    }

    /// `/dev/full` opens fine and fails every write: `finish` must say
    /// so instead of leaving a truncated file behind an exit code of 0.
    #[cfg(target_os = "linux")]
    #[test]
    fn finish_reports_a_sink_that_could_not_write() {
        for flag in ["--vcd=/dev/full", "--jsonl=/dev/full"] {
            let mut sim = src_sim();
            let obs = parse(&[flag]).install(&mut sim).unwrap();
            sim.run(4).unwrap();
            let err = obs.finish(&mut sim).expect_err(flag);
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{flag}: {err}");
            assert!(sim.take_probe().is_none(), "finish detached the probe");
        }
    }

    #[test]
    fn parses_ensemble_flags() {
        let o = parse(&[
            "specs/pipeline.lss",
            "--sweep",
            "depth=1..4",
            "--seeds",
            "3",
            "--base-seed",
            "99",
            "--threads",
            "4",
            "--sweep-dir",
            "out",
            "--report-json=report.json",
        ]);
        assert!(o.sweep_requested());
        let s = o.sweep.as_ref().unwrap();
        assert_eq!((s.key.as_str(), s.lo, s.hi), ("depth", 1, 4));
        assert_eq!(o.seeds, Some(3));
        assert_eq!(o.base_seed, Some(99));
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.sweep_dir.as_deref(), Some(std::path::Path::new("out")));
        assert_eq!(
            o.report_json.as_deref(),
            Some(std::path::Path::new("report.json"))
        );
        assert_eq!(o.rest, vec!["specs/pipeline.lss"]);

        let o = parse(&["--resume-manifest", "out"]);
        assert!(o.sweep_requested());
        assert_eq!(
            o.resume_manifest.as_deref(),
            Some(std::path::Path::new("out"))
        );
        // `--resume FILE` (single-run checkpoint restore) stays distinct.
        assert!(o.resume.is_none());

        assert!(!parse(&["--jsonl", "x.jsonl"]).sweep_requested());
        assert!(parse(&["run"]).threads.is_none());
        for bad in [
            vec!["--threads", "0"],
            vec!["--sweep", "depth"],
            vec!["--sweep", "depth=4..1"],
            vec!["--seeds", "0"],
            vec!["--base-seed", "x"],
            vec!["--sweep-dir"],
            vec!["--resume-manifest"],
        ] {
            assert!(
                ObsOpts::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn report_json_is_written_by_governed_runs() {
        let mut sim = src_sim();
        let path = std::env::temp_dir().join(format!("lse-obs-rj-{}.json", std::process::id()));
        let o = parse(&[
            "--max-steps",
            "3",
            &format!("--report-json={}", path.display()),
        ]);
        let obs = o.install(&mut sim).unwrap();
        o.run(&mut sim, 100).unwrap();
        obs.finish(&mut sim).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"outcome\":\"budget-exhausted\"") || text.contains("\"budget_axis\""),
            "{text}"
        );
        assert!(text.contains("\"steps_executed\":3"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_runs_and_resumes_from_the_cli_surface() {
        let dir = std::env::temp_dir().join(format!("lse-obs-sweep-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let src = r#"
            module main {
                param depth = 2;
                instance gen : seq_source { count = 24; };
                instance q   : queue { depth = depth; };
                instance dst : sink;
                connect gen.out -> q.in;
                connect q.out -> dst.in;
            }
        "#;
        let mut reg = Registry::new();
        liberty_pcl::register_all(&mut reg);

        // Interrupted first pass: a 10-step budget parks every replica.
        let o = parse(&[
            "--sweep",
            "depth=1..2",
            "--seeds",
            "2",
            &format!("--sweep-dir={}", dir.display()),
            "--max-steps",
            "10",
            "--checkpoint-every",
            "4",
        ]);
        sigint_token().reset();
        let r = o
            .run_lss_sweep(src, &reg, "main", &Params::new(), 32)
            .unwrap();
        // (Not asserting the exact interrupted count: the SIGINT token is
        // process-global and another test briefly trips it.)
        assert_eq!((r.total, r.done), (4, 0));
        assert!(!r.complete());

        // Resume with geometry from the manifest alone.
        let o = parse(&[&format!("--resume-manifest={}", dir.display())]);
        let r = o
            .run_lss_sweep(src, &reg, "main", &Params::new(), 32)
            .unwrap();
        assert!(r.complete(), "{}", r.render());
        assert_eq!(r.done, 4);
        assert!(dir.join("metrics.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sigint_token_is_shared_and_initially_clear() {
        let t = sigint_token();
        assert!(!t.is_cancelled());
        // The same process-wide flag backs every token.
        let t2 = sigint_token();
        t.cancel();
        assert!(t2.is_cancelled());
        t.reset();
        assert!(!t2.is_cancelled());
    }

    #[test]
    fn bad_fault_flags_are_errors() {
        assert!(ObsOpts::parse(["--faults".to_string()].into_iter()).is_err());
        assert!(
            ObsOpts::parse(["--fault-policy".to_string(), "explode".to_string()].into_iter())
                .is_err()
        );
        assert!(ObsOpts::parse(["--max-iters".to_string(), "x".to_string()].into_iter()).is_err());
    }

    #[test]
    fn metrics_json_is_balanced() {
        let mut b = NetlistBuilder::new();
        struct Nop;
        impl Module for Nop {
            fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
                Ok(())
            }
            fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
                ctx.count("ticks", 1);
                Ok(())
            }
        }
        b.add("n", ModuleSpec::new("nop"), Box::new(Nop)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(3).unwrap();
        let j = metrics_json(&sim);
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces: {j}"
        );
        assert!(j.contains("\"steps\": 3"), "{j}");
        assert!(j.contains("\"n.ticks\": 3"), "{j}");
    }
}
