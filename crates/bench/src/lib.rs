//! Shared helpers for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! CGO'16 paper (see DESIGN.md for the experiment index); this library
//! holds the presentation plumbing they share.

#![warn(missing_docs)]

pub mod adaptive;
pub mod diff;
pub mod jpeg;
pub mod obs;
pub mod probe;
pub mod qor;
pub mod stats;

pub use adaptive::{
    AdaptiveKernel, AdaptiveOutcome, AdaptiveReport, StaticBest, ADAPTIVE_SCHEMA,
};
pub use jpeg::{JpegAdaptive, JpegImage, JpegPoint, JpegReport, JPEG_SCHEMA};
pub use obs::{ObsContract, ObsMode, ObsReport, OBS_SCHEMA};
pub use qor::{QorKernel, QorPoint, QorReport, QOR_SCHEMA};

use std::fmt::Write as _;

/// Renders a matrix of values as an ASCII heat map: one glyph per cell,
/// darker glyph = higher value (the terminal stand-in for the paper's
/// grayscale figures).
///
/// NaN and infinite values render as `?`.
///
/// ```
/// use scorpio_bench::heat_map;
/// let map = heat_map(&[vec![0.0, 0.5], vec![0.75, 1.0]]);
/// assert_eq!(map.lines().count(), 2);
/// ```
pub fn heat_map(rows: &[Vec<f64>]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let finite: Vec<f64> = rows
        .iter()
        .flatten()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut out = String::new();
    for row in rows {
        for &v in row {
            if !v.is_finite() {
                out.push('?');
                continue;
            }
            let t = ((v - lo) / span).clamp(0.0, 1.0);
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Formats a numeric matrix with a fixed precision, row per line.
///
/// ```
/// use scorpio_bench::matrix_table;
/// let t = matrix_table(&[vec![1.0, 2.0]], 2);
/// assert!(t.contains("1.00"));
/// ```
pub fn matrix_table(rows: &[Vec<f64>], precision: usize) -> String {
    let mut out = String::new();
    for row in rows {
        for v in row {
            let _ = write!(out, " {v:>9.precision$}");
        }
        out.push('\n');
    }
    out
}

/// Parses the shared `--threads N` worker-count knob from the process
/// arguments (accepts both `--threads N` and `--threads=N`). Returns
/// `None` when the flag is absent so each harness can pick its own
/// default (serial for the analysis figures, machine-sized for the
/// execution sweep).
///
/// # Panics
///
/// Panics on a missing, non-numeric, or zero value so a mistyped knob
/// fails loudly instead of silently running serially.
pub fn threads_arg() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            let v = args.next().expect("--threads needs a value");
            return Some(parse_threads(&v));
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return Some(parse_threads(v));
        }
    }
    None
}

fn parse_threads(v: &str) -> usize {
    let n: usize = v
        .parse()
        .unwrap_or_else(|_| panic!("invalid --threads value {v:?}"));
    assert!(n > 0, "--threads must be at least 1");
    n
}

/// Checks the process arguments before a bin reads any: on `--help` /
/// `-h` it prints `synopsis` and exits 0; on a `--flag` (or
/// `--flag=value`) not in `known` it names the flag, prints `synopsis`
/// to stderr and exits 2. Without it a bin that looks only for its own
/// flags would run (or start a daemon) whatever else it was given.
pub fn usage_check(synopsis: &str, known: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{synopsis}");
        std::process::exit(0);
    }
    let unknown: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with("--"))
        .map(|a| a.split_once('=').map_or(a.as_str(), |(flag, _)| flag))
        .filter(|flag| !known.contains(flag))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown flag {}\n{synopsis}", unknown.join(", "));
        std::process::exit(2);
    }
}

/// Reads the value of a `--flag value` / `--flag=value` argument pair
/// from the process arguments, if present.
///
/// # Panics
///
/// Panics if the flag is given without a value.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(args.next().unwrap_or_else(|| panic!("{flag} needs a value")));
        }
        if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                assert!(!v.is_empty(), "{flag} needs a value");
                return Some(v.to_string());
            }
        }
    }
    None
}

/// `true` when the bare `--flag` switch appears in the process
/// arguments.
pub fn flag_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Parses the shared `--out-dir <dir>` knob: the directory the harness
/// binaries write their artifacts into (`fig7_results.csv`,
/// `RUN_*.json`, `BENCH_*.json`, event logs…). Defaults to `out/` so
/// generated files never land in the repository root; the directory is
/// created on first write.
///
/// # Panics
///
/// Panics if the flag is given without a value.
pub fn out_dir_arg() -> std::path::PathBuf {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out-dir" {
            let v = args.next().expect("--out-dir needs a directory");
            return v.into();
        }
        if let Some(v) = a.strip_prefix("--out-dir=") {
            assert!(!v.is_empty(), "--out-dir needs a directory");
            return v.into();
        }
    }
    std::path::PathBuf::from("out")
}

/// Parses the shared `--reps N` knob: how many timed repetitions of
/// each measured point a harness records (for run-to-run statistics in
/// `scorpio_diff`). Returns `default` when absent.
///
/// # Panics
///
/// Panics on a missing, non-numeric, or zero value.
pub fn reps_arg(default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--reps" {
            let v = args.next().expect("--reps needs a value");
            return parse_reps(&v);
        }
        if let Some(v) = a.strip_prefix("--reps=") {
            return parse_reps(v);
        }
    }
    default
}

fn parse_reps(v: &str) -> usize {
    let n: usize = v
        .parse()
        .unwrap_or_else(|_| panic!("invalid --reps value {v:?}"));
    assert!(n > 0, "--reps must be at least 1");
    n
}

/// Parses the shared `--trace <path>` observability knob from the
/// process arguments (accepts both `--trace path` and `--trace=path`).
/// When present, the harness enables `scorpio-obs` instrumentation for
/// the run and writes a Chrome-trace-format file to the given path
/// (viewable in `about:tracing` / Perfetto) next to the
/// `RUN_<name>.json` run manifest.
///
/// # Panics
///
/// Panics if the flag is given without a value.
pub fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            let v = args.next().expect("--trace needs a path");
            return Some(v.into());
        }
        if let Some(v) = a.strip_prefix("--trace=") {
            assert!(!v.is_empty(), "--trace needs a path");
            return Some(v.into());
        }
    }
    None
}

/// Standard end-of-run observability hook for the harness binaries:
/// finishes `session`, writing `RUN_<name>.json` into `out_dir`, the
/// Chrome trace to `trace_path` when given, and — when the run emitted
/// structured task events — `EVENTS_<name>.jsonl` (one event object per
/// line) next to the manifest. Prints a one-line summary of where the
/// artifacts went and how much of the wall clock the instrumented
/// phases covered.
///
/// The session must have been started with [`scorpio_obs::RunSession::start`]
/// before the measured work; `config` records the harness knobs in the
/// manifest.
pub fn finish_trace(
    session: scorpio_obs::RunSession,
    out_dir: &std::path::Path,
    threads: usize,
    config: &[(String, String)],
    trace_path: Option<&std::path::Path>,
) {
    let name = session.name().to_owned();
    match session.finish_in(out_dir, threads, config, trace_path) {
        Ok(manifest) => {
            let coverage = if manifest.wall_clock_ns > 0 {
                100.0 * manifest.phase_total_ns as f64 / manifest.wall_clock_ns as f64
            } else {
                0.0
            };
            let manifest_path = out_dir.join(format!("RUN_{name}.json"));
            let mut wrote = match trace_path {
                Some(p) => format!("{} and {}", p.display(), manifest_path.display()),
                None => manifest_path.display().to_string(),
            };
            if !manifest.task_events.is_empty() {
                let events_path = out_dir.join(format!("EVENTS_{name}.jsonl"));
                match std::fs::write(&events_path, scorpio_obs::records_jsonl(&manifest.task_events))
                {
                    Ok(()) => {
                        let _ = write!(
                            wrote,
                            " and {} ({} events, {} dropped)",
                            events_path.display(),
                            manifest.task_events.len(),
                            manifest.task_events_dropped
                        );
                    }
                    Err(e) => eprintln!("trace: failed to write {}: {e}", events_path.display()),
                }
            }
            println!("trace: wrote {wrote} ({coverage:.1}% of wall clock in phases)");
        }
        Err(e) => eprintln!("trace: failed to write run artifacts: {e}"),
    }
}

/// Fisheye image side (pixels) of every [`request_line`].
const FISHEYE_DIM: usize = 32;
/// Maclaurin series length of every [`request_line`].
const MACLAURIN_N: usize = 12;

/// Builds one deterministic serve-protocol analyze request for
/// `kernel` with `batch` items drawn from `rng`, in one fixed shape per
/// kernel (fisheye 32×32, Maclaurin `n` 12, DCT radius 1) so a server's
/// cache holds one trace per kernel. The line for a given seed is part
/// of the contract: `bench_obs`'s paired arms send the same bytes, so
/// the draw order must not change.
///
/// ```
/// use scorpio_bench::request_line;
/// use scorpio_core::audit::SplitMix64;
/// let line = request_line(7, "maclaurin", 2, 0.7, &mut SplitMix64::new(1));
/// assert!(line.starts_with(r#"{"id":7,"kernel":"maclaurin","ratio":0.7,"n":12,"items":["#));
/// ```
///
/// # Panics
///
/// Panics if `kernel` is not a served kernel name.
pub fn request_line(
    id: u64,
    kernel: &str,
    batch: usize,
    ratio: f64,
    rng: &mut scorpio_core::audit::SplitMix64,
) -> String {
    let mut line = format!(r#"{{"id":{id},"kernel":"{kernel}","ratio":{ratio}"#);
    match kernel {
        "fisheye" => {
            let _ = write!(line, r#","width":{FISHEYE_DIM},"height":{FISHEYE_DIM}"#);
        }
        "maclaurin" => {
            let _ = write!(line, r#","n":{MACLAURIN_N}"#);
        }
        "dct" => line.push_str(r#","radius":1.0"#),
        "blackscholes" | "nbody" => {}
        _ => panic!("unserved kernel {kernel:?}"),
    }
    line.push_str(r#","items":["#);
    for i in 0..batch {
        if i > 0 {
            line.push(',');
        }
        match kernel {
            "fisheye" => {
                let u = rng.next_f64() * FISHEYE_DIM as f64;
                let v = rng.next_f64() * FISHEYE_DIM as f64;
                let _ = write!(line, r#"{{"u":{u},"v":{v}}}"#);
            }
            "blackscholes" => {
                let spot = 80.0 + 40.0 * rng.next_f64();
                let strike = 80.0 + 40.0 * rng.next_f64();
                let rate = 0.01 + 0.04 * rng.next_f64();
                let vol = 0.1 + 0.4 * rng.next_f64();
                let time = 0.25 + 1.75 * rng.next_f64();
                let _ = write!(
                    line,
                    r#"{{"spot":{spot},"strike":{strike},"rate":{rate},"volatility":{vol},"time":{time}}}"#
                );
            }
            "dct" => {
                line.push('[');
                for p in 0..64 {
                    if p > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{:.3}", rng.next_f64() * 255.0);
                }
                line.push(']');
            }
            "maclaurin" => {
                let _ = write!(line, "{}", rng.next_f64() * 0.9 - 0.45);
            }
            "nbody" => {
                let r0 = 0.9 + 1.1 * rng.next_f64();
                let radius = 0.01 + 0.09 * rng.next_f64();
                let _ = write!(line, r#"{{"r0":{r0},"radius":{radius}}}"#);
            }
            _ => unreachable!("kernel checked above"),
        }
    }
    line.push_str("]}");
    line
}

/// One row of the Fig. 7 sweep CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// `"significance"` or `"perforation"`.
    pub method: &'static str,
    /// The accurate-computation ratio knob.
    pub ratio: f64,
    /// `"psnr_db"` or `"rel_error"`.
    pub quality_metric: &'static str,
    /// The measured quality value.
    pub quality: f64,
    /// Modeled energy in Joules.
    pub energy_j: f64,
}

/// Serialises sweep rows as CSV (with header).
///
/// ```
/// use scorpio_bench::{to_csv, SweepRow};
/// let csv = to_csv(&[SweepRow {
///     benchmark: "sobel", method: "significance", ratio: 0.5,
///     quality_metric: "psnr_db", quality: 30.0, energy_j: 2.5,
/// }]);
/// assert!(csv.starts_with("benchmark,"));
/// assert!(csv.contains("sobel"));
/// ```
pub fn to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from("benchmark,method,ratio,quality_metric,quality,energy_j\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.benchmark, r.method, r.ratio, r.quality_metric, r.quality, r.energy_j
        );
    }
    out
}

/// Counts the source lines of the body of function `name` in `source`
/// (first match), by brace balancing from the signature. Used by the
/// Table 2 line-count harness. Returns `None` if not found.
///
/// ```
/// use scorpio_bench::fn_loc;
/// let src = "fn a() {\n let x = 1;\n}\nfn b() {}\n";
/// assert_eq!(fn_loc(src, "a"), Some(3));
/// ```
pub fn fn_loc(source: &str, name: &str) -> Option<usize> {
    let needle = format!("fn {name}");
    let mut search_from = 0;
    loop {
        let at = source[search_from..].find(&needle)? + search_from;
        // Make sure the match is the full identifier (next char not
        // alphanumeric).
        let after = source[at + needle.len()..].chars().next();
        if matches!(after, Some(c) if c.is_alphanumeric() || c == '_') {
            search_from = at + needle.len();
            continue;
        }
        let open = source[at..].find('{')? + at;
        let close = matching_brace(source, open)?;
        let lines = source[at..=close].lines().count();
        return Some(lines);
    }
}

/// Counts the lines spanned by every `Some(move |ctx` approximate-body
/// closure inside function `name` — the paper's "Approx. Function (A)"
/// column.
pub fn approx_body_loc(source: &str, name: &str) -> Option<usize> {
    let needle = format!("fn {name}");
    let at = source.find(&needle)?;
    let open = source[at..].find('{')? + at;
    let close = matching_brace(source, open)?;
    let body = &source[open..=close];
    let mut total = 0;
    let mut from = 0;
    while let Some(pos) = body[from..].find("Some(move |ctx") {
        let start = from + pos + 4; // the '(' of Some(
        if let Some(end) = matching_paren(body, start) {
            total += body[start..=end].lines().count();
            from = end;
        } else {
            break;
        }
    }
    Some(total)
}

fn matching_brace(source: &str, open: usize) -> Option<usize> {
    matching_delim(source, open, b'{', b'}')
}

fn matching_paren(source: &str, open: usize) -> Option<usize> {
    matching_delim(source, open, b'(', b')')
}

/// Finds the index of the delimiter matching the one at `open`,
/// ignoring string/char literals well enough for rustfmt-formatted code.
fn matching_delim(source: &str, open: usize, od: u8, cd: u8) -> Option<usize> {
    let bytes = source.as_bytes();
    debug_assert_eq!(bytes[open], od);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut i = open;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if b == b'\\' {
                i += 2;
                continue;
            }
            if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == od {
            depth += 1;
        } else if b == cd {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod json_golden;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_counts() {
        assert_eq!(parse_threads("1"), 1);
        assert_eq!(parse_threads("16"), 16);
    }

    #[test]
    #[should_panic(expected = "--threads must be at least 1")]
    fn parse_threads_rejects_zero() {
        parse_threads("0");
    }

    #[test]
    #[should_panic(expected = "invalid --threads value")]
    fn parse_threads_rejects_garbage() {
        parse_threads("eight");
    }

    #[test]
    fn heat_map_extremes() {
        let map = heat_map(&[vec![0.0, 1.0]]);
        assert!(map.starts_with(' '));
        assert!(map.contains('@'));
    }

    #[test]
    fn heat_map_handles_nan() {
        let map = heat_map(&[vec![f64::NAN, 1.0, 2.0]]);
        assert!(map.starts_with('?'));
    }

    #[test]
    fn csv_round_numbers() {
        let csv = to_csv(&[SweepRow {
            benchmark: "dct",
            method: "perforation",
            ratio: 0.2,
            quality_metric: "psnr_db",
            quality: 25.5,
            energy_j: 1.25,
        }]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("dct,perforation,0.2,psnr_db,25.5,1.25"));
    }

    #[test]
    fn fn_loc_brace_matching() {
        let src = r#"
pub fn outer() {
    if true {
        nested();
    }
}
fn other() { one_liner(); }
"#;
        assert_eq!(fn_loc(src, "outer"), Some(5));
        assert_eq!(fn_loc(src, "other"), Some(1));
        assert_eq!(fn_loc(src, "missing"), None);
    }

    #[test]
    fn fn_loc_skips_prefix_matches() {
        let src = "fn foobar() {\n}\nfn foo() {\n  x();\n}\n";
        assert_eq!(fn_loc(src, "foo"), Some(3));
    }

    #[test]
    fn approx_body_counts_closures() {
        let src = r#"
fn tasked() {
    group.spawn(
        0.5,
        move |ctx| { accurate(); },
        Some(move |ctx| {
            approx();
        }),
    );
}
"#;
        let loc = approx_body_loc(src, "tasked").unwrap();
        assert!(loc >= 3, "counted {loc}");
    }

    #[test]
    fn strings_do_not_confuse_matching() {
        let src = "fn f() {\n let s = \"}\";\n done();\n}\n";
        assert_eq!(fn_loc(src, "f"), Some(4));
    }
}
