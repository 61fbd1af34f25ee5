//! The scorpio-rs benchmark: end-to-end and per-layer figures for the
//! serving daemon and the offline paper pipeline.
//!
//! ```text
//! scorpio-perfbench --workload serve_batch|serve_dct|offline_paper
//!                   --seed N --seconds S --trace 0|1
//!                   --server PATH/TO/scorpio_serve --out-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and the daemon, then runs it.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! — every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`, whatever the workload. Diagnostics go to standard
//! error; traced runs also write their spans as JSONL into
//! `--out-dir`. See `perfbench/NOTES.md` for what each workload and
//! metric is for.

mod net;
mod offline;
mod scan;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use scorpio_core::audit::SplitMix64;
use scorpio_interval::Interval;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
    /// The `scorpio_serve` binary under test.
    pub server: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |flag: &str| -> Result<f64, String> {
            value(flag)?
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag} must be a non-negative number"))
        };
        let seconds = num("--seconds")?;
        if seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: value("--workload")?.to_string(),
            seed: value("--seed")?
                .parse()
                .map_err(|_| "--seed must be a non-negative integer".to_string())?,
            seconds,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                _ => return Err("--trace must be 0 or 1".into()),
            },
            server: PathBuf::from(value("--server")?),
            out_dir: PathBuf::from(value("--out-dir")?),
        })
    }
}

/// Output checks of one run: every check is an attempt, every failed
/// check a failure.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 10 {
                self.first_failures.push(what());
            }
        }
    }
}

/// A run's checks and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(checks: Checks) -> Outcome {
        Outcome {
            checks,
            metrics: Vec::new(),
        }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line. A non-finite value cannot be a measurement, so
    /// it is written as `null` and marks the run incorrect.
    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            finite && self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// Nanoseconds per outward-rounded interval operation over a fixed
/// seeded mix (add, sub, mul, div, sqr, sqrt, exp, ln, sin, hypot and
/// scaling; 14 per item) —
/// the arithmetic every recorded and replayed node pays. Median of
/// several passes.
pub fn interval_op_ns(seed: u64) -> f64 {
    const N: usize = 4096;
    const OPS_PER_ITEM: usize = 14;
    const PASSES: usize = 15;
    let mut rng = SplitMix64::new(seed ^ 0x1A7E);
    let mut draw = || {
        let lo = 0.5 + 4.0 * rng.next_f64();
        Interval::new(lo, lo + 0.25 * rng.next_f64())
    };
    let xs: Vec<(Interval, Interval)> = (0..N).map(|_| (draw(), draw())).collect();
    let mut per_op = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = std::time::Instant::now();
        let mut acc = Interval::new(0.0, 0.0);
        for &(a, b) in std::hint::black_box(&xs) {
            let s = a + b;
            let d = a - b;
            let m = a * b;
            let q = a / b;
            let e = (d.sqr() + m.sqrt()).exp();
            let l = q.ln() + s.sin();
            acc += e.hypot(l) * 1e-3;
        }
        std::hint::black_box(acc);
        per_op.push(t0.elapsed().as_nanos() as f64 / (N * OPS_PER_ITEM) as f64);
    }
    stats::median(&per_op)
}

/// The aggregate `cpu` line of `/proc/stat`: jiffies per state (user,
/// nice, system, idle, iowait, irq, softirq, steal, …).
fn cpu_jiffies() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|x| x.parse().ok()).collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_jiffies`] readings: when it is high, every timing of the run
/// is inflated, whatever the program did.
fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    Some(*delta.get(7)? as f64 / total.max(1) as f64)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scorpio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jiffies = cpu_jiffies();
    let outcome = match args.workload.as_str() {
        "serve_batch" => serve::run(&serve::SERVE_BATCH, &args),
        "serve_dct" => serve::run(&serve::SERVE_DCT, &args),
        "offline_paper" => offline::run(&args),
        other => {
            eprintln!("scorpio-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(steal) = jiffies
        .zip(cpu_jiffies())
        .and_then(|(before, after)| steal_share(&before, &after))
    {
        eprintln!(
            "[{}] host steal {:.1}% of CPU time during the run",
            args.workload,
            steal * 100.0
        );
    }
    match outcome {
        Ok(outcome) => {
            for failure in &outcome.checks.first_failures {
                eprintln!("check failed: {failure}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scorpio-perfbench: {} run failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_marks_failures_and_non_finite_values() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let mut out = Outcome::new(checks);
        out.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            out.to_json(),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        out.metric("bad", f64::NAN, "ms");
        assert!(out.to_json().starts_with(r#"{"correct":false,"#));
        out.checks.check(false, || "boom".into());
        assert!(out.to_json().contains(r#""attempted":2,"failed":1"#));
    }

    #[test]
    fn steal_share_is_the_steal_delta_over_all_states() {
        let before = [100, 0, 10, 500, 0, 0, 0, 20, 0, 0];
        let after = [160, 0, 20, 520, 0, 0, 0, 30, 0, 0];
        // 60 user + 10 system + 20 idle + 10 steal jiffies.
        assert_eq!(steal_share(&before, &after), Some(0.1));
        assert_eq!(steal_share(&before[..4], &after[..4]), None);
    }

    #[test]
    fn args_require_every_flag() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Args::parse(&argv(
            "--workload serve_dct --seed 3 --seconds 10 --trace 1 --server s --out-dir o",
        ))
        .unwrap();
        assert_eq!(ok.seed, 3);
        assert!(ok.trace);
        assert!(Args::parse(&argv(
            "--workload x --seed 3 --seconds 10 --trace 2 --server s --out-dir o"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload x --seed 3 --seconds 0 --trace 0 --server s --out-dir o"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload x --seconds 1 --trace 0 --server s --out-dir o"
        ))
        .is_err());
    }
}
