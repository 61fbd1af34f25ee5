//! Run-to-run comparison and regression gate.
//!
//! Loads two artifacts written by the harness binaries — two
//! `BENCH_qor.json`, `BENCH_adaptive.json`, `BENCH_jpeg.json` or
//! `BENCH_obs.json` reports, or two `RUN_*.json` run manifests — and
//! compares the flat `metrics` lists they carry, metric by metric (see
//! `scorpio_bench::diff`): quality and energy direction-aware, counters
//! and bitrates two-sided, deterministic values exactly, contract bits
//! on the candidate alone, and repeated timing samples with Welch's
//! t-test (bootstrap CI fallback). A baseline metric the candidate
//! lacks is a regression. Inputs marked `degraded` (the producing run
//! overflowed its event ring) are compared normally but flagged with a
//! WARNING line.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin scorpio_diff -- \
//!     baseline.json candidate.json [--gate] [--threshold PCT] [--quality-only]
//! ```
//!
//! * `--gate` — exit non-zero (1) when any statistically significant
//!   regression beyond the threshold is found.
//! * `--threshold PCT` — relative-change gate threshold in percent
//!   (default 5).
//! * `--quality-only` — skip every metric with a time unit (`ns`, `us`,
//!   `ms`, `s`); use this when gating against a baseline produced on
//!   different hardware.
//!
//! Exit codes: 0 = clean (or regressions found without `--gate`),
//! 1 = gated regression, 2 = usage or file error (including artifacts
//! with different `schema` tags or without a `metrics` list).

use std::path::PathBuf;
use std::process::ExitCode;

use scorpio_bench::diff::{diff_files, DiffOptions};

struct Args {
    baseline: PathBuf,
    candidate: PathBuf,
    gate: bool,
    opts: DiffOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: scorpio_diff <baseline.json> <candidate.json> \
         [--gate] [--threshold PCT] [--quality-only]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut gate = false;
    let mut opts = DiffOptions::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gate" => gate = true,
            "--quality-only" => opts.quality_only = true,
            "--threshold" => {
                opts.threshold_pct = value(&mut args, "--threshold")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            arg => match arg.strip_prefix("--threshold=") {
                Some(v) => opts.threshold_pct = v.parse().unwrap_or_else(|_| usage()),
                None if arg.starts_with("--") => {
                    eprintln!("unknown flag {arg}");
                    usage();
                }
                None => positional.push(PathBuf::from(arg)),
            },
        }
    }
    if positional.len() != 2 {
        usage();
    }
    let candidate = positional.pop().expect("two positionals");
    let baseline = positional.pop().expect("two positionals");
    Args {
        baseline,
        candidate,
        gate,
        opts,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let report = match diff_files(&args.baseline, &args.candidate, &args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scorpio_diff: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    let regressions = report.regressions();
    if args.gate && regressions > 0 {
        println!(
            "gate: FAILED — {regressions} regression(s) beyond {:.1}%",
            args.opts.threshold_pct
        );
        return ExitCode::from(1);
    }
    if args.gate {
        println!("gate: passed (threshold {:.1}%)", args.opts.threshold_pct);
    }
    ExitCode::SUCCESS
}
