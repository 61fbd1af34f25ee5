//! §6 future work: cross-check of the interval-AD significances against
//! the Monte-Carlo estimator ("combining the robustness of algorithmic
//! differentiation to Monte Carlo-based methodologies").
//!
//! The MC estimate of `w(u·∇u y)` converges from below to a value
//! enclosed by the interval result; both must agree on rankings.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin mc_crosscheck -- [--threads N]
//! ```
//!
//! `--threads N` fans the Monte-Carlo samples over N workers (default:
//! serial); the estimates are bit-identical at every thread count.
//! `--trace <path>` writes a Chrome trace and a `RUN_mc_crosscheck.json`
//! run manifest.

use scorpio_bench::{finish_trace, out_dir_arg, threads_arg, trace_arg};
use scorpio_core::mc;
use scorpio_kernels::maclaurin;

fn main() {
    let threads = threads_arg().unwrap_or(1);
    let trace_path = trace_arg();
    let session = trace_path
        .as_ref()
        .map(|_| scorpio_obs::RunSession::start("mc_crosscheck"));
    println!(
        "=== Monte-Carlo vs interval-AD significance (maclaurin, N = 6, {threads} thread{}) ===\n",
        if threads == 1 { "" } else { "s" }
    );
    let (x0, n) = (0.49, 6i32);
    let ia = {
        let _span = scorpio_obs::span("interval_analysis");
        maclaurin::analysis(x0, n as usize).expect("interval analysis")
    };

    let closure = move |ctx: &mc::McCtx<'_>| {
        let x = ctx.input("x", x0 - 0.5, x0 + 0.5);
        let mut result = ctx.constant(0.0);
        for i in 0..n {
            let term = x.powi(i);
            ctx.intermediate(&term, format!("term{i}"));
            result = result + term;
        }
        ctx.output(&result, "result");
        Ok(())
    };

    println!("{:<8} {:>12} | MC estimate by sample count", "term", "interval");
    print!("{:<8} {:>12} |", "", "");
    let sample_counts = [16usize, 64, 256, 1024, 4096];
    for s in sample_counts {
        print!(" {s:>9}");
    }
    println!();

    let mc_reports: Vec<mc::McReport> = {
        let _span = scorpio_obs::span("mc_estimation");
        sample_counts
            .iter()
            .map(|&s| mc::estimate(s, 20_24, threads, closure).expect("mc"))
            .collect()
    };

    let mut converged_below = true;
    for i in 0..n {
        let name = format!("term{i}");
        let ia_raw = ia.var(&name).unwrap().significance_raw;
        print!("{name:<8} {ia_raw:>12.4} |");
        for report in &mc_reports {
            let v = report
                .vars
                .iter()
                .find(|v| v.name == name)
                .unwrap()
                .significance_raw;
            print!(" {v:>9.4}");
            if v > ia_raw + 1e-9 {
                converged_below = false;
            }
        }
        println!();
    }

    println!(
        "\nMC estimates enclosed by the interval result: {}",
        if converged_below { "yes" } else { "NO (bug!)" }
    );

    // Ranking agreement at the largest sample count.
    let final_mc = mc_reports.last().unwrap();
    let mut agree = true;
    for i in 1..(n - 1) {
        let a = ia
            .significance_of(&format!("term{i}"))
            .unwrap();
        let b = ia
            .significance_of(&format!("term{}", i + 1))
            .unwrap();
        let ma = final_mc.significance_of(&format!("term{i}")).unwrap();
        let mb = final_mc
            .significance_of(&format!("term{}", i + 1))
            .unwrap();
        if (a > b) != (ma > mb) {
            agree = false;
        }
    }
    println!("term rankings agree at 4096 samples: {}", if agree { "yes" } else { "no" });
    println!(
        "\n→ sampling reproduces the interval ranking while tolerating\n\
         data-dependent control flow; the interval result stays the sound\n\
         upper envelope. A hybrid (MC for branchy code, IA elsewhere) is\n\
         exactly the future work the paper sketches."
    );

    if let Some(session) = session {
        let config = vec![("threads".to_owned(), threads.to_string())];
        finish_trace(session, &out_dir_arg(), threads, &config, trace_path.as_deref());
    }
}
