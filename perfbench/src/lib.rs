//! # perfbench — the DISTINCT engine's benchmark
//!
//! One workload per process (`--workload catalog|names|updates|durable`),
//! its inputs generated from `--seed`, its measured phase bounded by
//! `--seconds`. The process checks every answer it gets, then prints one
//! JSON [`metrics::Report`] as its last line and exits non-zero if any
//! check failed. `run.py` builds both binaries and turns that record into
//! the benchmark's result line; `README.md` in this directory documents
//! every workload and metric.
//!
//! Layers are timed from outside only: the traced binary wraps the calls
//! a workload makes into each layer's public functions, and reads the
//! counters the engine already returns. Nothing inside the engine is
//! instrumented.

#![warn(missing_docs)]

pub mod metrics;
pub mod vfs;
pub mod workloads;
pub mod worlds;

use metrics::{quantile, with_units, Report, Trace, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use worlds::Scale;

/// Worker threads every engine call is given: the benchmark host has two
/// cores, and one closed-loop client drives one engine.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// World sizes.
    pub scale: Scale,
    /// Directory the durable workload may write run directories under.
    pub scratch: PathBuf,
    /// Corrupt the first answer comparison, to prove the checks bite.
    pub inject_mismatch: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S [--scale full|tiny]
    /// [--scratch DIR] [--inject-mismatch]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 0,
            seconds: Duration::from_secs(10),
            scale: Scale::Full,
            scratch: PathBuf::from(".bench_build/perfbench-runs"),
            inject_mismatch: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--inject-mismatch" {
                out.inject_mismatch = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => out.workload = value,
                "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| bad(&e))?;
                    out.seconds = Duration::try_from_secs_f64(s).map_err(|e| bad(&e))?;
                }
                "--scale" => {
                    out.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad(&"want full or tiny")),
                    }
                }
                "--scratch" => out.scratch = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !workloads::NAMES.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}, got `{}`",
                workloads::NAMES,
                out.workload
            ));
        }
        Ok(out)
    }
}

/// What a workload accumulates while it runs.
#[derive(Debug)]
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// Per-layer sums (a no-op in the untraced binary).
    pub trace: Trace,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per measured operation.
    pub op_ms: Vec<f64>,
    /// References resolved by the measured operations.
    pub refs: u64,
    /// Time spent in the measured operations.
    pub op_time: Duration,
    /// B³ F-measure of the workload's answers against the ground truth.
    pub b3_f: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    inject: bool,
}

impl Ctx {
    /// A fresh context; `traced` turns the layer timers on.
    pub fn new(args: Args, traced: bool) -> Ctx {
        Ctx {
            inject: args.inject_mismatch,
            args,
            trace: Trace::new(traced),
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            refs: 0,
            op_time: Duration::ZERO,
            b3_f: 0.0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one operation or check; report it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Check that two partitions are identical (the first comparison of
    /// the run is corrupted under `--inject-mismatch`).
    pub fn same_labels(&mut self, what: &str, got: &[usize], want: &[usize]) {
        let ok = got == want && !std::mem::take(&mut self.inject);
        self.check(ok, || format!("{what}: partitions differ"));
    }

    /// Record one measured operation that resolved `refs` references.
    pub fn measured(&mut self, wall: Duration, refs: usize) {
        self.op_ms.push(metrics::ms(wall));
        self.op_time += wall;
        self.refs += refs as u64;
    }

    fn report(&self, wall: Duration) -> Report {
        let mean = self.op_ms.iter().sum::<f64>() / self.op_ms.len().max(1) as f64;
        let peak = distinct::peak_rss_bytes().unwrap_or(0) as f64;
        let e2e: BTreeMap<&str, f64> = BTreeMap::from([
            ("setup_s", quantile(&self.setup_s, 0.5)),
            ("peak_rss_mb", peak / (1024.0 * 1024.0)),
            ("op_mean_ms", mean),
            ("b3_f", self.b3_f),
        ]);
        let mut layers = self.trace.layer_metrics();
        layers.extend([
            ("op.p50_ms", quantile(&self.op_ms, 0.5)),
            ("op.p95_ms", quantile(&self.op_ms, 0.95)),
            ("op.max_ms", quantile(&self.op_ms, 1.0)),
            ("op.count", self.op_ms.len() as f64),
            (
                "op.refs_per_s",
                self.refs as f64 / self.op_time.as_secs_f64().max(1e-9),
            ),
            (
                "failed_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        ]);
        if self.trace.on() {
            layers.insert(
                "coverage",
                self.trace.layer_time_ms() / metrics::ms(wall).max(1e-9),
            );
        }
        Report {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: with_units(END_TO_END, &e2e),
            layers: with_units(PER_LAYER, &layers),
            threads: THREADS,
        }
    }
}

/// Entry point of both binaries.
pub fn main(traced: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args, traced);
    let mut started = None;
    if let Err(e) = workloads::run(&mut ctx, &mut started) {
        ctx.check(false, || e);
    }
    let wall = started.map_or(Duration::ZERO, |t: Instant| t.elapsed());
    let report = ctx.report(wall);
    match serde_json::to_string(&report) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: cannot encode the report: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
