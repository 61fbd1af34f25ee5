//! Parallel-engine benchmark harness: measures analyses/second for the
//! Fig. 5 InverseMapping per-pixel batch at 1/2/4/8 workers, the
//! tape-reuse ablation (warm arena vs fresh tape per analysis), the
//! replay ablation (compiled-trace replay vs re-recording) at one
//! worker, and the lane-width ablation (1/2/4/8 replay lanes, one
//! worker) over the fisheye grid, a BlackScholes book and a DCT block
//! batch, then writes the results to `BENCH_parallel.json` in
//! `--out-dir` (default `out/`).
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin bench_parallel -- [--small] [--out-dir DIR]
//! ```
//!
//! Speedups are relative to the one-worker engine (which runs inline,
//! without any pool synchronisation). `available_parallelism` is
//! recorded alongside: on a machine with fewer cores than workers the
//! extra workers time-slice one core and the speedup saturates at the
//! core count.

use std::fmt::Write as _;
use std::time::Instant;

use scorpio_core::{Analysis, AnalysisArena, ParallelAnalysis, ReplayOrRecord};
use scorpio_kernels::fisheye::{
    analysis_inverse_mapping, analysis_inverse_mapping_grid, analysis_inverse_mapping_grid_lanes,
    analysis_inverse_mapping_in, analysis_inverse_mapping_replay_in, Lens,
};
use scorpio_kernels::{blackscholes, dct};

/// Worker counts the scaling sweep measures.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Replay lane widths the lane ablation measures.
const LANE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Timing repetitions; the minimum is reported (classic best-of-N to
/// shed scheduler noise).
const REPS: usize = 5;

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One kernel's lane-width ablation rows: `(lanes, seconds,
/// items_per_sec, speedup_vs_scalar)` at each [`LANE_WIDTHS`] entry,
/// timed by `run(lanes)` (best of [`REPS`], one warm-up run first).
fn lane_sweep(
    kernel: &str,
    items: usize,
    mut run: impl FnMut(usize),
) -> Vec<(usize, f64, f64, f64)> {
    println!("\nlane ablation: {kernel} (1 worker, {items} items)");
    println!("{:>8} {:>12} {:>16} {:>9}", "lanes", "time (ms)", "items/sec", "speedup");
    let mut rows = Vec::new();
    let mut scalar_s = f64::NAN;
    for &lanes in &LANE_WIDTHS {
        run(lanes); // warm-up (allocation, first-touch, icache)
        let secs = time_best(REPS, || run(lanes));
        if lanes == 1 {
            scalar_s = secs;
        }
        let speedup = scalar_s / secs;
        let rate = items as f64 / secs;
        println!("{lanes:>8} {:>12.3} {rate:>16.0} {speedup:>8.2}x", secs * 1e3);
        rows.push((lanes, secs, rate, speedup));
    }
    rows
}

/// Serializes one kernel's lane ablation into a JSON object.
fn lane_json(kernel: &str, items: usize, rows: &[(usize, f64, f64, f64)]) -> String {
    let widths: Vec<String> = rows
        .iter()
        .map(|(lanes, secs, rate, speedup)| {
            format!(
                "{{\"lanes\": {lanes}, \"seconds\": {secs:.6}, \
                 \"items_per_sec\": {rate:.1}, \"speedup_vs_scalar\": {speedup:.3}}}"
            )
        })
        .collect();
    format!(
        "{{\"kernel\": \"{kernel}\", \"items\": {items}, \"widths\": [{}]}}",
        widths.join(", ")
    )
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    // The Fig. 5 sample grid (small: the figure harness' own 32×24;
    // default: 64×48 for longer, steadier timings).
    let (gw, gh) = if small { (32usize, 24usize) } else { (64, 48) };
    let analyses = gw * gh;
    let lens = Lens::for_image(1280, 960);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "=== Parallel-engine benchmark: Fig. 5 grid {gw}×{gh} ({analyses} analyses), \
         {cores} core{} ===\n",
        if cores == 1 { "" } else { "s" }
    );

    // ── Scaling sweep ────────────────────────────────────────────────
    let mut rows = Vec::new();
    let mut serial_s = f64::NAN;
    println!("{:>8} {:>12} {:>16} {:>9}", "threads", "time (ms)", "analyses/sec", "speedup");
    for &threads in &WORKER_COUNTS {
        let engine = ParallelAnalysis::new(threads);
        // One warm-up run (first-touch allocation, thread spawn paths).
        let baseline = analysis_inverse_mapping_grid(&lens, gw, gh, &engine).expect("analysis");
        let secs = time_best(REPS, || {
            let out = analysis_inverse_mapping_grid(&lens, gw, gh, &engine).expect("analysis");
            assert_eq!(out.len(), baseline.len());
        });
        if threads == 1 {
            serial_s = secs;
        }
        let speedup = serial_s / secs;
        let rate = analyses as f64 / secs;
        println!(
            "{threads:>8} {:>12.3} {rate:>16.0} {speedup:>8.2}x",
            secs * 1e3
        );
        rows.push((threads, secs, rate, speedup));
    }

    // ── Tape-reuse ablation (one worker) ─────────────────────────────
    // The same per-pixel analysis run serially: a fresh tape per call
    // vs one warm arena reused across all calls.
    let pixels: Vec<(f64, f64)> = (0..analyses)
        .map(|i| {
            let (gx, gy) = (i % gw, i / gw);
            (
                (gx as f64 + 0.5) * lens.width as f64 / gw as f64,
                (gy as f64 + 0.5) * lens.height as f64 / gh as f64,
            )
        })
        .collect();
    let fresh_s = time_best(REPS, || {
        for &(u, v) in &pixels {
            analysis_inverse_mapping(&lens, u, v).expect("analysis");
        }
    });
    let mut arena = AnalysisArena::new();
    let arena_s = time_best(REPS, || {
        for &(u, v) in &pixels {
            analysis_inverse_mapping_in(&mut arena, &lens, u, v).expect("analysis");
        }
    });
    let reuse_speedup = fresh_s / arena_s;
    println!(
        "\ntape-reuse ablation (1 worker, {analyses} analyses):\n\
         {:>14}: {:>9.3} ms\n{:>14}: {:>9.3} ms  ({reuse_speedup:.2}x)",
        "fresh tape",
        fresh_s * 1e3,
        "warm arena",
        arena_s * 1e3,
    );

    // ── Replay ablation (one worker) ─────────────────────────────────
    // The same per-pixel batch once more, through the record-once /
    // replay-many driver: the first pixel records + compiles, every
    // further pixel replays the compiled trace with its own input
    // boxes. Compared against the fresh-recording and warm-arena
    // re-recording loops above; results are bit-identical throughout.
    let mut replay_arena = AnalysisArena::new();
    let mut replay_driver = ReplayOrRecord::new(Analysis::new());
    let replay_s = time_best(REPS, || {
        for &(u, v) in &pixels {
            analysis_inverse_mapping_replay_in(&mut replay_driver, &mut replay_arena, &lens, u, v)
                .expect("analysis");
        }
    });
    let replay_vs_fresh = fresh_s / replay_s;
    let replay_vs_arena = arena_s / replay_s;
    println!(
        "\nreplay ablation (1 worker, {analyses} analyses):\n\
         {:>14}: {:>9.3} ms\n{:>14}: {:>9.3} ms\n\
         {:>14}: {:>9.3} ms  ({replay_vs_fresh:.2}x vs fresh, {replay_vs_arena:.2}x vs arena)",
        "fresh record",
        fresh_s * 1e3,
        "arena record",
        arena_s * 1e3,
        "replay",
        replay_s * 1e3,
    );
    let stats = replay_driver.stats();
    println!(
        "replay stats: {} records, {} replays, {} fallbacks",
        stats.records, stats.replays, stats.fallbacks
    );

    // ── Lane-width ablation (one worker) ─────────────────────────────
    // The lane-blocked replay engine at 1/2/4/8 lanes per compiled-trace
    // walk, judged by single-thread throughput: the fisheye grid above,
    // a BlackScholes option book, and a DCT block batch. Width 1 is the
    // single-lane instance of the one interpreter (one walk per item), so
    // its row is the baseline; results are bit-identical at every width.
    let lane_engine = ParallelAnalysis::new(1);
    let fisheye_rows = lane_sweep("fisheye_grid", analyses, |lanes| {
        let out = match lanes {
            1 => analysis_inverse_mapping_grid_lanes::<1>(&lens, gw, gh, &lane_engine),
            2 => analysis_inverse_mapping_grid_lanes::<2>(&lens, gw, gh, &lane_engine),
            4 => analysis_inverse_mapping_grid_lanes::<4>(&lens, gw, gh, &lane_engine),
            8 => analysis_inverse_mapping_grid_lanes::<8>(&lens, gw, gh, &lane_engine),
            _ => unreachable!("unmeasured lane width"),
        };
        assert_eq!(out.expect("analysis").len(), analyses);
    });

    let book = blackscholes::generate_options(if small { 256 } else { 1024 }, 42);
    let bs_rows = lane_sweep("blackscholes_book", book.len(), |lanes| {
        let out = match lanes {
            1 => blackscholes::analysis_options_lanes::<1>(&book, &lane_engine),
            2 => blackscholes::analysis_options_lanes::<2>(&book, &lane_engine),
            4 => blackscholes::analysis_options_lanes::<4>(&book, &lane_engine),
            8 => blackscholes::analysis_options_lanes::<8>(&book, &lane_engine),
            _ => unreachable!("unmeasured lane width"),
        };
        assert_eq!(out.expect("analysis").len(), book.len());
    });

    // Deterministic pseudo-image blocks (LCG pixels, no RNG dependency).
    let dct_blocks: Vec<[[f64; dct::BLOCK]; dct::BLOCK]> = {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..if small { 8 } else { 16 })
            .map(|_| {
                let mut b = [[0.0; dct::BLOCK]; dct::BLOCK];
                for row in &mut b {
                    for p in row.iter_mut() {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        *p = (state >> 56) as f64; // 0..=255
                    }
                }
                b
            })
            .collect()
    };
    let dct_rows = lane_sweep("dct_blocks", dct_blocks.len(), |lanes| {
        let out = match lanes {
            1 => dct::analysis_blocks_lanes::<1>(&dct_blocks, 8.0, &lane_engine),
            2 => dct::analysis_blocks_lanes::<2>(&dct_blocks, 8.0, &lane_engine),
            4 => dct::analysis_blocks_lanes::<4>(&dct_blocks, 8.0, &lane_engine),
            8 => dct::analysis_blocks_lanes::<8>(&dct_blocks, 8.0, &lane_engine),
            _ => unreachable!("unmeasured lane width"),
        };
        assert_eq!(out.expect("analysis").len(), dct_blocks.len());
    });

    // ── BENCH_parallel.json ──────────────────────────────────────────
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"fig5_inverse_mapping\",");
    let _ = writeln!(json, "  \"grid\": [{gw}, {gh}],");
    let _ = writeln!(json, "  \"analyses\": {analyses},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"workers\": [");
    for (i, (threads, secs, rate, speedup)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {threads}, \"seconds\": {secs:.6}, \
             \"analyses_per_sec\": {rate:.1}, \"speedup_vs_serial\": {speedup:.3}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"tape_reuse\": {{\"fresh_seconds\": {fresh_s:.6}, \
         \"arena_seconds\": {arena_s:.6}, \"speedup\": {reuse_speedup:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"compiled_replay\": {{\"fresh_seconds\": {fresh_s:.6}, \
         \"arena_seconds\": {arena_s:.6}, \"replay_seconds\": {replay_s:.6}, \
         \"speedup_vs_fresh\": {replay_vs_fresh:.3}, \
         \"speedup_vs_arena\": {replay_vs_arena:.3}, \
         \"records\": {}, \"replays\": {}, \"fallbacks\": {}}},",
        stats.records, stats.replays, stats.fallbacks
    );
    let _ = writeln!(json, "  \"lane_replay\": {{\"kernels\": [");
    let kernel_objs = [
        lane_json("fisheye_grid", analyses, &fisheye_rows),
        lane_json("blackscholes_book", book.len(), &bs_rows),
        lane_json("dct_blocks", dct_blocks.len(), &dct_rows),
    ];
    for (i, obj) in kernel_objs.iter().enumerate() {
        let _ = writeln!(json, "    {obj}{}", if i + 1 < kernel_objs.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]}}");
    json.push_str("}\n");
    let out_dir = scorpio_bench::out_dir_arg();
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let path = out_dir.join("BENCH_parallel.json");
    std::fs::write(&path, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {}", path.display());
}
