//! Figure 5: significance map of the Fisheye InverseMapping kernel over
//! a 1280×960 output image — border pixels' coordinate computations are
//! the most sensitive, centre pixels the least.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin fig5_inverse_mapping -- [--threads N]
//! ```
//!
//! The per-pixel analyses are independent, so `--threads N` fans them
//! over the parallel analysis engine (default: serial). The map is
//! bit-identical at every thread count. `--trace <path>` additionally
//! writes a Chrome trace to `<path>` and a `RUN_fig5_inverse_mapping.json`
//! run manifest.

use scorpio_bench::{finish_trace, heat_map, out_dir_arg, threads_arg, trace_arg};
use scorpio_core::{ParallelAnalysis, DEFAULT_LANES};
use scorpio_kernels::fisheye::{
    analysis_inverse_mapping, analysis_inverse_mapping_grid_lanes, Lens,
};

fn main() {
    let threads = threads_arg().unwrap_or(1);
    let trace_path = trace_arg();
    let session = trace_path
        .as_ref()
        .map(|_| scorpio_obs::RunSession::start("fig5_inverse_mapping"));
    let lens = Lens::for_image(1280, 960);
    // Sample a 32×24 grid of output pixels (one analysis run each —
    // 768 profile runs, each a handful of DynDFG nodes).
    let (gw, gh) = (32usize, 24usize);
    println!(
        "=== Fig. 5: InverseMapping significance over {}×{} (grid {gw}×{gh}, {threads} thread{}) ===\n",
        lens.width,
        lens.height,
        if threads == 1 { "" } else { "s" }
    );

    let engine = ParallelAnalysis::new(threads);
    let flat = {
        let _span = scorpio_obs::span("grid_analysis");
        analysis_inverse_mapping_grid_lanes::<DEFAULT_LANES>(&lens, gw, gh, &engine)
            .expect("analysis")
    };
    let rows: Vec<Vec<f64>> = flat.chunks(gw).map(|r| r.to_vec()).collect();

    println!("heat map (darker = more significant):");
    print!("{}", heat_map(&rows));

    // Radial profile along the half-diagonal.
    println!("\nradial profile (centre → corner):");
    {
        let _span = scorpio_obs::span("radial_profile");
        let (cx, cy) = lens.center();
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            let u = cx + t * (cx - 2.0);
            let v = cy + t * (cy - 2.0);
            let s = analysis_inverse_mapping(&lens, u, v).expect("analysis");
            let bar = "#".repeat(((s).sqrt() * 2.0).min(70.0) as usize);
            println!("  r/rmax = {t:>4.1}: S = {s:>10.3}  {bar}");
        }
    }
    println!(
        "\n→ the paper's Fig. 5 pattern: border blocks get high task\n\
         significance, central blocks low (the fisheye lens magnified\n\
         peripheral content, so correcting it is border-sensitive)."
    );

    if let Some(session) = session {
        let config = vec![
            ("threads".to_owned(), threads.to_string()),
            ("grid".to_owned(), format!("{gw}x{gh}")),
        ];
        finish_trace(session, &out_dir_arg(), threads, &config, trace_path.as_deref());
    }
}
