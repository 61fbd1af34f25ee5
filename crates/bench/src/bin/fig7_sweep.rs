//! Figure 7 (the paper's main result): output quality and energy
//! consumption for the five benchmarks as a function of the ratio of
//! accurately executed tasks, with loop perforation as the baseline.
//!
//! Prints one table per benchmark, writes `fig7_results.csv` and a
//! `BENCH_qor.json` quality-of-result report (per-kernel
//! quality-vs-ratio curves joined with the runtime's achieved ratio,
//! task tallies and repeated wall-time samples — the input to the
//! `scorpio_diff` regression gate), and ends with the §4.3 summary
//! block (energy reductions; PSNR/error advantages over perforation).
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin fig7_sweep \
//!     [--small] [--threads N] [--reps N] [--out-dir DIR] [--trace trace.json] \
//!     [--adaptive]
//! ```
//!
//! `--threads N` sizes the task-execution worker pool (default: one
//! worker per available core). `--reps N` (default 3) repeats the
//! timed significance run of every point, recording each wall time in
//! the QoR report. `--out-dir DIR` (default `out/`) is where all
//! artifacts land. `--trace <path>` enables scorpio-obs
//! instrumentation: the run writes a Chrome-trace file to `<path>`,
//! a `RUN_fig7_sweep.json` run manifest, and an
//! `EVENTS_fig7_sweep.jsonl` structured task-event log (one JSON
//! object per executed/dropped task and per `taskwait`).
//!
//! `--adaptive` additionally closes the loop on every kernel after its
//! static sweep: an `AdaptiveController` seeded from the just-measured
//! curve searches for the cheapest ratio meeting the kernel's default
//! quality target (see `scorpio_bench::adaptive::default_objective`),
//! and the verdicts land in `BENCH_adaptive.json` next to the QoR
//! report — the input to the adaptive-controller gate. With `--trace`
//! the controller's full decision sequence (one `ratio_decision` event
//! per observation, with before/after ratios and the quality signal)
//! lands in the events log and the run manifest.

use scorpio_bench::{
    adaptive::{resolve_objective, run_adaptive, MAX_STEPS},
    finish_trace, flag_present, out_dir_arg, reps_arg, threads_arg, to_csv, trace_arg, usage_check,
    AdaptiveKernel, AdaptiveReport, QorKernel, QorPoint, QorReport, SweepRow, ADAPTIVE_SCHEMA,
    QOR_SCHEMA,
};
use scorpio_kernels::{blackscholes, dct, fisheye, nbody, sobel};
use scorpio_quality::{psnr_images, relative_error_l2, GrayImage, SyntheticImage};
use scorpio_runtime::{EnergyModel, ExecutionStats, Executor};

const RATIOS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

/// One sweep row: (ratio, sig quality, sig energy, perf quality, perf energy).
type Row = (f64, f64, f64, Option<f64>, Option<f64>);

struct BenchResult {
    name: &'static str,
    metric: &'static str,
    rows: Vec<Row>,
}

impl BenchResult {
    fn print(&self) {
        println!("\n=== {} (quality: {}) ===", self.name, self.metric);
        println!(
            "{:>6} | {:>14} {:>12} | {:>14} {:>12}",
            "ratio", "sig quality", "sig E(J)", "perf quality", "perf E(J)"
        );
        let fmt_q = |v: f64| {
            if self.metric == "rel_error" {
                format!("{v:>14.4e}")
            } else {
                format!("{v:>14.4}")
            }
        };
        for (ratio, sq, se, pq, pe) in &self.rows {
            println!(
                "{ratio:>6.1} | {} {se:>12.4} | {} {}",
                fmt_q(*sq),
                match pq {
                    Some(v) => fmt_q(*v),
                    None => format!("{:>14}", "n/a"),
                },
                match pe {
                    Some(v) => format!("{v:>12.4}"),
                    None => format!("{:>12}", "n/a"),
                }
            );
        }
    }

    fn csv_rows(&self) -> Vec<SweepRow> {
        let metric = self.metric;
        let mut out = Vec::new();
        for (ratio, sq, se, pq, pe) in &self.rows {
            out.push(SweepRow {
                benchmark: self.name,
                method: "significance",
                ratio: *ratio,
                quality_metric: metric,
                quality: *sq,
                energy_j: *se,
            });
            if let (Some(q), Some(e)) = (pq, pe) {
                out.push(SweepRow {
                    benchmark: self.name,
                    method: "perforation",
                    ratio: *ratio,
                    quality_metric: metric,
                    quality: *q,
                    energy_j: *e,
                });
            }
        }
        out
    }

    /// Mean quality advantage of significance over perforation across
    /// the approximate ratios (dB for PSNR metrics, error ratio for
    /// relative-error metrics).
    fn quality_advantage(&self) -> Option<f64> {
        let diffs: Vec<f64> = self
            .rows
            .iter()
            .filter(|(r, ..)| *r < 1.0)
            .filter_map(|(_, sq, _, pq, _)| pq.map(|pq| (*sq, pq)))
            .map(|(sq, pq)| {
                if self.metric == "psnr_db" {
                    let cap = |v: f64| v.min(99.0);
                    cap(sq) - cap(pq)
                } else {
                    // error ratio (how many times larger the perforated
                    // error is), in log10.
                    (pq.max(1e-18) / sq.max(1e-18)).log10()
                }
            })
            .collect();
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.iter().sum::<f64>() / diffs.len() as f64)
        }
    }

    /// Energy reduction of the significance version at the most
    /// aggressive approximation vs the fully accurate run.
    fn energy_reduction(&self) -> f64 {
        let full = self.rows.last().unwrap().2;
        let min = self.rows.first().unwrap().2;
        1.0 - min / full
    }
}

fn image_workload(small: bool, seed: u64) -> GrayImage {
    let size = if small { 96 } else { 512 };
    SyntheticImage::GaussianBlobs.render(size, size, seed)
}

/// Runs `f`, returning its result and the elapsed wall nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Runs the closed loop on one kernel, seeded from its just-measured
/// static curve, reusing the sweep's significance closure.
fn adapt_kernel(
    curve: &QorKernel,
    model: &EnergyModel,
    sig: &dyn Fn(f64) -> ((f64, ExecutionStats), u64),
) -> AdaptiveKernel {
    let objective = resolve_objective(&curve.name);
    let verdict = run_adaptive(curve, objective, MAX_STEPS, model, |r| sig(r).0);
    println!(
        "[adaptive] {:<14} {} {} → ratio {:.3}, quality {:.4}, {:.4} J, {} steps, converged: {}, \
         target met: {}, dominates static: {}",
        verdict.name,
        verdict.target_kind,
        verdict.target,
        verdict.adaptive.final_ratio,
        verdict.adaptive.quality,
        verdict.adaptive.energy_j,
        verdict.adaptive.steps,
        verdict.adaptive.converged,
        verdict.target_met,
        verdict.dominates,
    );
    verdict
}

/// Sweeps one kernel over [`RATIOS`]: the significance run is repeated
/// `reps` times per point (each wall time sampled for `scorpio_diff`'s
/// statistics), the perforation baseline — deterministic and not part
/// of the QoR curve — once. Returns the printable table and the QoR
/// curve; a `ratio` marker event is emitted per point while tracing.
fn sweep(
    name: &'static str,
    metric: &'static str,
    reps: usize,
    model: &EnergyModel,
    sig: impl Fn(f64) -> ((f64, ExecutionStats), u64),
    perf: Option<&dyn Fn(f64) -> (f64, ExecutionStats)>,
) -> (BenchResult, QorKernel) {
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &ratio in &RATIOS {
        scorpio_obs::ratio_event(name, ratio);
        let mut samples = Vec::with_capacity(reps);
        let mut quality = f64::NAN;
        let mut stats = ExecutionStats::default();
        for _ in 0..reps {
            let ((q, s), ns) = sig(ratio);
            samples.push(ns);
            quality = q;
            stats = s;
        }
        let energy_j = model.energy(&stats);
        let (pq, pe) = match perf {
            Some(run) => {
                let (q, s) = run(ratio);
                (Some(q), Some(model.energy(&s)))
            }
            None => (None, None),
        };
        rows.push((ratio, quality, energy_j, pq, pe));
        points.push(QorPoint {
            ratio,
            quality,
            energy_j,
            achieved_ratio: stats.accurate as f64 / stats.total().max(1) as f64,
            accurate: stats.accurate as u64,
            approximate: stats.approximate as u64,
            dropped: stats.dropped as u64,
            time_ns_samples: samples,
        });
    }
    (
        BenchResult { name, metric, rows },
        QorKernel {
            name: name.to_owned(),
            metric: metric.to_owned(),
            higher_is_better: metric == "psnr_db",
            points,
        },
    )
}

const SYNOPSIS: &str = "\
usage: fig7_sweep [--small] [--threads N] [--reps N] [--out-dir DIR] [--trace PATH]
                  [--adaptive]";

fn main() {
    usage_check(
        SYNOPSIS,
        &[
            "--small",
            "--threads",
            "--reps",
            "--out-dir",
            "--trace",
            "--adaptive",
        ],
    );
    let small = flag_present("--small");
    let out_dir = out_dir_arg();
    let reps = reps_arg(3);
    let adaptive = flag_present("--adaptive");
    let trace_path = trace_arg();
    let session = trace_path
        .as_ref()
        .map(|_| scorpio_obs::RunSession::start("fig7_sweep"));
    let executor = match threads_arg() {
        Some(threads) => Executor::new(threads),
        None => Executor::with_available_parallelism(),
    };
    let model = EnergyModel::xeon_e5_2695v3();
    let mut results = Vec::new();
    let mut kernels = Vec::new();
    let mut adaptive_kernels: Vec<AdaptiveKernel> = Vec::new();
    let mut push = |(result, kernel): (BenchResult, QorKernel)| {
        results.push(result);
        kernels.push(kernel);
    };

    // ── Sobel ────────────────────────────────────────────────────────
    {
        let _span = scorpio_obs::span("sobel");
        let img = image_workload(small, 101);
        eprintln!("[sobel] {}×{}", img.width(), img.height());
        let full = sobel::reference(&img);
        let sig = |ratio: f64| {
            let ((out, stats), ns) = timed(|| sobel::tasked(&img, &executor, ratio));
            ((psnr_images(&full, &out).min(99.0), stats), ns)
        };
        let (result, kernel) = sweep(
            "sobel",
            "psnr_db",
            reps,
            &model,
            sig,
            Some(&|ratio| {
                let (perf, stats) = sobel::perforated(&img, ratio);
                (psnr_images(&full, &perf).min(99.0), stats)
            }),
        );
        if adaptive {
            adaptive_kernels.push(adapt_kernel(&kernel, &model, &sig));
        }
        push((result, kernel));
    }

    // ── DCT ──────────────────────────────────────────────────────────
    {
        let _span = scorpio_obs::span("dct");
        let img = if small {
            image_workload(true, 202)
        } else {
            SyntheticImage::GaussianBlobs.render(256, 256, 202)
        };
        eprintln!("[dct] {}×{}", img.width(), img.height());
        let full = dct::reference(&img);
        let sig = |ratio: f64| {
            let ((out, stats), ns) = timed(|| dct::tasked(&img, &executor, ratio));
            ((psnr_images(&full, &out).min(99.0), stats), ns)
        };
        let (result, kernel) = sweep(
            "dct",
            "psnr_db",
            reps,
            &model,
            sig,
            Some(&|ratio| {
                let (perf, stats) = dct::perforated(&img, ratio);
                (psnr_images(&full, &perf).min(99.0), stats)
            }),
        );
        if adaptive {
            adaptive_kernels.push(adapt_kernel(&kernel, &model, &sig));
        }
        push((result, kernel));
    }

    // ── Fisheye ──────────────────────────────────────────────────────
    {
        let _span = scorpio_obs::span("fisheye");
        let (w, h, bw, bh) = if small {
            (160, 120, 32, 24)
        } else {
            (1280, 960, 128, 64)
        };
        let lens = fisheye::Lens::for_image(w, h);
        let img = SyntheticImage::ValueNoise.render(w, h, 303);
        eprintln!("[fisheye] {w}×{h}, blocks {bw}×{bh}");
        let full = fisheye::reference(&img, &lens);
        let sig = |ratio: f64| {
            let ((out, stats), ns) =
                timed(|| fisheye::tasked_with_blocks(&img, &lens, &executor, ratio, bw, bh));
            ((psnr_images(&full, &out).min(99.0), stats), ns)
        };
        let (result, kernel) = sweep(
            "fisheye",
            "psnr_db",
            reps,
            &model,
            sig,
            Some(&|ratio| {
                let (perf, stats) = fisheye::perforated(&img, &lens, ratio);
                (psnr_images(&full, &perf).min(99.0), stats)
            }),
        );
        if adaptive {
            adaptive_kernels.push(adapt_kernel(&kernel, &model, &sig));
        }
        push((result, kernel));
    }

    // ── N-Body ───────────────────────────────────────────────────────
    {
        let _span = scorpio_obs::span("nbody");
        let params = if small {
            nbody::Params::small()
        } else {
            nbody::Params::evaluation()
        };
        eprintln!(
            "[nbody] {} atoms, {} regions, {} steps",
            params.atoms(),
            params.regions.pow(3),
            params.steps
        );
        let exact = nbody::reference(&params).flatten();
        let sig = |ratio: f64| {
            let ((state, stats), ns) = timed(|| nbody::tasked(&params, &executor, ratio));
            (
                (relative_error_l2(&exact, &state.flatten()).max(1e-18), stats),
                ns,
            )
        };
        let (result, kernel) = sweep(
            "nbody",
            "rel_error",
            reps,
            &model,
            sig,
            Some(&|ratio| {
                let (perf, stats) = nbody::perforated(&params, ratio);
                (relative_error_l2(&exact, &perf.flatten()).max(1e-18), stats)
            }),
        );
        if adaptive {
            adaptive_kernels.push(adapt_kernel(&kernel, &model, &sig));
        }
        push((result, kernel));
    }

    // ── BlackScholes (perforation not applicable, §4.2) ─────────────
    {
        let _span = scorpio_obs::span("blackscholes");
        let n = if small { 4096 } else { 65_536 };
        let options = blackscholes::generate_options(n, 404);
        eprintln!("[blackscholes] {n} options");
        let exact = blackscholes::reference(&options);
        let sig = |ratio: f64| {
            let ((prices, stats), ns) =
                timed(|| blackscholes::tasked(&options, 256, &executor, ratio));
            ((relative_error_l2(&exact, &prices).max(1e-18), stats), ns)
        };
        let (result, kernel) = sweep("blackscholes", "rel_error", reps, &model, sig, None);
        if adaptive {
            adaptive_kernels.push(adapt_kernel(&kernel, &model, &sig));
        }
        push((result, kernel));
    }

    // ── Output ───────────────────────────────────────────────────────
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let mut csv_rows = Vec::new();
    for r in &results {
        r.print();
        csv_rows.extend(r.csv_rows());
    }
    let csv_path = out_dir.join("fig7_results.csv");
    std::fs::write(&csv_path, to_csv(&csv_rows)).expect("write fig7_results.csv");
    println!("\nwrote {} ({} rows)", csv_path.display(), csv_rows.len());

    // A non-empty drop counter means the event log overflowed and the
    // exported timeline is truncated, so the report is marked and
    // `scorpio_diff` will warn whenever it consumes it.
    let degraded = scorpio_obs::events_dropped() > 0;
    if degraded {
        eprintln!(
            "warning: {} task events were dropped — marking reports degraded",
            scorpio_obs::events_dropped()
        );
    }
    let qor = QorReport {
        schema: QOR_SCHEMA.to_owned(),
        name: "fig7_sweep".to_owned(),
        git: scorpio_obs::git_describe(),
        threads: executor.threads(),
        reps,
        small,
        degraded,
        kernels,
    };
    let qor_path = out_dir.join("BENCH_qor.json");
    std::fs::write(&qor_path, qor.to_json()).expect("write BENCH_qor.json");
    println!(
        "wrote {} ({} kernels × {} ratios, {reps} timing reps)",
        qor_path.display(),
        qor.kernels.len(),
        RATIOS.len()
    );

    if adaptive {
        let report = AdaptiveReport {
            schema: ADAPTIVE_SCHEMA.to_owned(),
            name: "fig7_sweep".to_owned(),
            git: scorpio_obs::git_describe(),
            threads: executor.threads(),
            small,
            degraded,
            kernels: adaptive_kernels,
        };
        let path = out_dir.join("BENCH_adaptive.json");
        std::fs::write(&path, report.to_json()).expect("write BENCH_adaptive.json");
        println!(
            "wrote {} ({} kernels, adaptive vs best static)",
            path.display(),
            report.kernels.len()
        );
    }

    // §4.3 summary block.
    println!("\n=== §4.3 summary ===");
    let mut reductions = Vec::new();
    for r in &results {
        let red = r.energy_reduction();
        reductions.push(red);
        match r.quality_advantage() {
            Some(adv) if r.metric == "psnr_db" => println!(
                "{:<14} energy reduction at ratio 0: {:>5.1}% | mean PSNR advantage over perforation: {:+.2} dB",
                r.name,
                red * 100.0,
                adv
            ),
            Some(adv) => println!(
                "{:<14} energy reduction at ratio 0: {:>5.1}% | perforated error is 10^{:.1} times larger on average",
                r.name,
                red * 100.0,
                adv
            ),
            None => println!(
                "{:<14} energy reduction at ratio 0: {:>5.1}% | perforation n/a (no loop to perforate)",
                r.name,
                red * 100.0
            ),
        }
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!(
        "\nmean energy reduction across benchmarks: {:.0}% (paper: 56% mean, 31–91% range)",
        mean * 100.0
    );

    if let Some(session) = session {
        let config = [
            ("small".to_owned(), small.to_string()),
            ("threads".to_owned(), executor.threads().to_string()),
            ("reps".to_owned(), reps.to_string()),
            ("adaptive".to_owned(), adaptive.to_string()),
        ];
        finish_trace(
            session,
            &out_dir,
            executor.threads(),
            &config,
            trace_path.as_deref(),
        );
    }
}
