//! Soundness-audit battery: runs the differential containment oracles
//! of `scorpio_core::audit` over the paper's five evaluation kernels
//! (plus the Maclaurin worked example), the cross-mode bit-identity
//! oracle, and a random-DAG fuzz sweep over every operator family,
//! then writes `AUDIT.json` and exits non-zero if any oracle observed
//! a violation.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin scorpio_audit            # full battery
//! cargo run --release -p scorpio-bench --bin scorpio_audit -- --quick # CI-sized
//! ```
//!
//! Full mode samples ≥ 100 000 concrete points per kernel; `--quick`
//! drops to 2 000 points and a smaller fuzz sweep (seconds, suitable
//! for the verify recipe). `--trace <path>` writes a Chrome trace and
//! a `RUN_scorpio_audit.json` run manifest.

use std::fmt::Write as _;
use std::time::Instant;

use scorpio_bench::{finish_trace, out_dir_arg, trace_arg, usage_check};
use scorpio_core::audit::{
    audit_containment, audit_cross_mode, minimal_repro, AuditConfig, AuditOutcome, DagSpec,
    OpFamily, SplitMix64,
};
use scorpio_core::Report;
use scorpio_kernels::{blackscholes, dct, fisheye, maclaurin, nbody, sobel, Kernel};

/// One kernel's aggregated battery result.
struct KernelResult {
    name: &'static str,
    reports: usize,
    outcome: AuditOutcome,
    empty_nodes: usize,
    secs: f64,
}

/// Audits `reports`, splitting `total_points` across them evenly.
fn audit_kernel(
    name: &'static str,
    reports: &[Report],
    total_points: usize,
    seed: u64,
) -> KernelResult {
    let t0 = Instant::now();
    let per_report = (total_points / reports.len()).max(1);
    let mut outcome = AuditOutcome::empty();
    let mut empty_nodes = 0;
    for (i, report) in reports.iter().enumerate() {
        let cfg = AuditConfig {
            points: per_report,
            seed: seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            max_violations: 16,
        };
        outcome.merge(&audit_containment(report, &cfg), 16);
        empty_nodes += report.empty_enclosures().len();
    }
    KernelResult {
        name,
        reports: reports.len(),
        outcome,
        empty_nodes,
        secs: t0.elapsed().as_secs_f64(),
    }
}

const SYNOPSIS: &str = "usage: scorpio_audit [--quick] [--out-dir DIR] [--trace PATH]";

fn main() {
    usage_check(SYNOPSIS, &["--quick", "--out-dir", "--trace"]);
    let quick = std::env::args().any(|a| a == "--quick");
    let trace_path = trace_arg();
    let session = trace_path
        .as_ref()
        .map(|_| scorpio_obs::RunSession::start("scorpio_audit"));
    let points_per_kernel: usize = if quick { 2_000 } else { 100_000 };
    let fuzz_cases_per_family: usize = if quick { 60 } else { 1_000 };
    let fuzz_points: usize = if quick { 30 } else { 60 };
    let t_start = Instant::now();

    println!(
        "=== scorpio_audit: {} points/kernel, {} fuzz cases/family ===\n",
        points_per_kernel, fuzz_cases_per_family
    );

    // ── Kernel batteries ─────────────────────────────────────────────
    // Small-trace kernels spread their point budget over several
    // operating points; the large-trace ones (Sobel, DCT, the full
    // BlackScholes chain) use a single report.
    let kernels = {
        let _span = scorpio_obs::span("kernel_batteries");
        let maclaurin_reports: Vec<Report> = [0.2, 0.49, 0.8, 1.2]
            .iter()
            .map(|&x0| maclaurin::analysis(x0, 8).expect("maclaurin analysis"))
            .collect();
        let sobel_reports = vec![sobel::analysis().expect("sobel analysis")];
        let dct_reports = vec![dct::analysis_default().expect("dct analysis")];
        let bs_reports = vec![blackscholes::analysis().expect("blackscholes analysis")];
        let fisheye = fisheye::InverseMapping {
            lens: fisheye::Lens::for_image(1280, 960),
        };
        let fisheye_reports: Vec<Report> = [(640.0, 480.0), (200.0, 150.0), (1100.0, 900.0)]
            .iter()
            .map(|pixel| fisheye.report(pixel).expect("fisheye analysis"))
            .collect();
        let nbody_reports: Vec<Report> = [(1.0, 0.05), (1.5, 0.1), (2.5, 0.2)]
            .iter()
            .map(|&(r0, rad)| {
                let pair = nbody::Pair::new(r0, rad).expect("non-negative radius");
                nbody::PairForce.report(&pair).expect("nbody analysis")
            })
            .collect();

        [
            audit_kernel("maclaurin", &maclaurin_reports, points_per_kernel, 0xA11D_0001),
            audit_kernel("sobel", &sobel_reports, points_per_kernel, 0xA11D_0002),
            audit_kernel("dct", &dct_reports, points_per_kernel, 0xA11D_0003),
            audit_kernel("blackscholes", &bs_reports, points_per_kernel, 0xA11D_0004),
            audit_kernel("fisheye", &fisheye_reports, points_per_kernel, 0xA11D_0005),
            audit_kernel("nbody", &nbody_reports, points_per_kernel, 0xA11D_0006),
        ]
    };

    let mut total_violations = 0u64;
    for k in &kernels {
        total_violations += k.outcome.violation_count;
        println!(
            "{:<13} {:>2} report(s)  {:>10} checks  {:>3} violations  {:>8} domain misses  \
             {:>2} empty nodes  {:.2}s",
            k.name,
            k.reports,
            k.outcome.checks,
            k.outcome.violation_count,
            k.outcome.domain_misses,
            k.empty_nodes,
            k.secs
        );
        for v in &k.outcome.violations {
            println!("    {v}");
        }
    }

    // ── Cross-mode bit-identity ──────────────────────────────────────
    println!("\ncross-mode bit-identity:");
    let mut cross_results: Vec<(&'static str, usize, bool, usize)> = Vec::new();
    {
        let _span = scorpio_obs::span("cross_mode");
        let cross = audit_cross_mode(|ctx| {
            let x = ctx.input_centered("x", 0.49, 0.5);
            let mut acc = ctx.constant(0.0);
            for i in 0..8 {
                acc = acc + x.powi(i);
            }
            ctx.output(&acc, "result");
            Ok(())
        })
        .expect("cross-mode maclaurin");
        cross_results.push(("maclaurin", cross.nodes, cross.replayed, cross.mismatches.len()));
        let mut fuzz_rng = SplitMix64::new(0xC105_5AFE);
        for family in OpFamily::ALL {
            let spec = DagSpec::random(family, &mut fuzz_rng);
            let out = audit_cross_mode(|ctx| spec.register(ctx)).expect("cross-mode dag");
            cross_results.push((family.name(), out.nodes, out.replayed, out.mismatches.len()));
        }
    }
    let mut cross_mismatches = 0usize;
    for (name, nodes, replayed, mismatches) in &cross_results {
        cross_mismatches += mismatches;
        println!(
            "  {:<15} {:>5} nodes  replayed={}  {} mismatch(es)",
            name, nodes, replayed, mismatches
        );
    }

    // ── Random-DAG fuzz sweep ────────────────────────────────────────
    println!("\nDAG fuzz sweep ({fuzz_cases_per_family} cases/family):");
    let mut fuzz_violations = 0u64;
    let mut fuzz_summaries: Vec<(&'static str, u64, u64)> = Vec::new();
    let _fuzz_span = scorpio_obs::span("dag_fuzz");
    for family in OpFamily::ALL {
        let mut rng = SplitMix64::new(0xDA6_0000 + family as u64);
        let mut checks = 0u64;
        let mut fam_violations = 0u64;
        for case in 0..fuzz_cases_per_family {
            let spec = DagSpec::random(family, &mut rng);
            let cfg = AuditConfig {
                points: fuzz_points,
                seed: 0xF12_0000 + case as u64,
                max_violations: 4,
            };
            let out = spec.audit(&cfg).expect("dag analysis");
            checks += out.checks;
            if !out.is_sound() {
                fam_violations += out.violation_count;
                let fails = |s: &DagSpec| {
                    s.audit(&cfg).map(|o| !o.is_sound()).unwrap_or(false)
                };
                let small = minimal_repro(&spec, &fails);
                println!(
                    "  {} case {case}: {} violation(s); minimal repro:\n{small}",
                    family.name(),
                    out.violation_count
                );
                for v in &out.violations {
                    println!("    {v}");
                }
            }
        }
        fuzz_violations += fam_violations;
        fuzz_summaries.push((family.name(), checks, fam_violations));
        println!(
            "  {:<15} {:>10} checks  {} violation(s)",
            family.name(),
            checks,
            fam_violations
        );
    }
    drop(_fuzz_span);

    // ── Aggregate coverage ───────────────────────────────────────────
    let mut total = AuditOutcome::empty();
    for k in &kernels {
        total.merge(&k.outcome, 0);
    }
    println!("\nper-op coverage (kernel batteries):");
    for (mnemonic, count) in total.coverage() {
        println!("  {mnemonic:<8} {count}");
    }

    let wall = t_start.elapsed().as_secs_f64();
    let sound = total_violations == 0 && fuzz_violations == 0 && cross_mismatches == 0;

    // ── AUDIT.json ───────────────────────────────────────────────────
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"points_per_kernel\": {points_per_kernel},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"reports\": {}, \"points\": {}, \"checks\": {}, \
             \"violations\": {}, \"domain_misses\": {}, \"empty_nodes\": {}, \
             \"seconds\": {:.3}}}{}",
            k.name,
            k.reports,
            k.outcome.points,
            k.outcome.checks,
            k.outcome.violation_count,
            k.outcome.domain_misses,
            k.empty_nodes,
            k.secs,
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"cross_mode\": [");
    for (i, (name, nodes, replayed, mismatches)) in cross_results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"nodes\": {nodes}, \"replayed\": {replayed}, \
             \"mismatches\": {mismatches}}}{}",
            if i + 1 < cross_results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fuzz\": [");
    for (i, (name, checks, violations)) in fuzz_summaries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"family\": \"{name}\", \"cases\": {fuzz_cases_per_family}, \
             \"checks\": {checks}, \"violations\": {violations}}}{}",
            if i + 1 < fuzz_summaries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"op_coverage\": {{");
    let cov: Vec<(&'static str, u64)> = total.coverage().collect();
    for (i, (mnemonic, count)) in cov.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{mnemonic}\": {count}{}",
            if i + 1 < cov.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"wall_seconds\": {wall:.3},");
    let _ = writeln!(json, "  \"sound\": {sound}");
    json.push_str("}\n");
    let out_dir = out_dir_arg();
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let audit_path = out_dir.join("AUDIT.json");
    std::fs::write(&audit_path, &json).expect("write AUDIT.json");

    println!(
        "\nwrote {} — {} ({wall:.1}s)",
        audit_path.display(),
        if sound { "SOUND" } else { "VIOLATIONS FOUND" }
    );

    if let Some(session) = session {
        let config = vec![
            ("quick".to_owned(), quick.to_string()),
            ("points_per_kernel".to_owned(), points_per_kernel.to_string()),
        ];
        finish_trace(session, &out_dir, 1, &config, trace_path.as_deref());
    }
    if !sound {
        std::process::exit(1);
    }
}
