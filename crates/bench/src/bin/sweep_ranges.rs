//! §6 future work: "extending significance analysis to a wider range of
//! input intervals to accommodate the fact that code significance is
//! input-dependent for some benchmarks" — the input-range sweep.
//!
//! ```sh
//! cargo run --release -p scorpio-bench --bin sweep_ranges
//! ```

use scorpio_core::sweep::sweep_input_scale;
use scorpio_core::Analysis;

fn main() {
    let scales = [0.25, 0.5, 1.0, 1.5, 2.0];

    // ── Maclaurin: ranking is stable across widths ─────────────────────
    println!("=== maclaurin: term ranking vs input width ===\n");
    let sweep = sweep_input_scale(&Analysis::new(), &scales, 1, |ctx| {
        let x = ctx.input_centered("x", 0.25, 0.25);
        let mut acc = ctx.constant(0.0);
        for i in 0..6 {
            let t = x.powi(i);
            ctx.intermediate(&t, format!("term{i}"));
            acc = acc + t;
        }
        ctx.output(&acc, "y");
        Ok(())
    })
    .expect("sweep");
    print!("{:<8}", "scale");
    for p in &sweep.points {
        print!(" {:>9.2}", p.scale);
    }
    println!();
    for i in 0..6 {
        let name = format!("term{i}");
        print!("{name:<8}");
        for v in sweep.trajectory(&name).unwrap() {
            print!(" {v:>9.4}");
        }
        println!();
    }
    println!(
        "ranking stability across scales: {:.0}%\n",
        sweep.ranking_stability() * 100.0
    );

    // ── BlackScholes: the block ranking's input dependence ────────────
    println!("=== blackscholes: block ranking vs parameter-range width ===\n");
    let sweep = sweep_input_scale(&Analysis::new(), &scales, 1, |ctx| {
        let spot = ctx.input("spot", 80.0, 120.0);
        let strike = ctx.input("strike", 90.0, 110.0);
        let rate = ctx.input("rate", 0.03, 0.08);
        let vol = ctx.input("vol", 0.2, 0.5);
        let time = ctx.input("time", 0.5, 1.5);
        let sqrt_t = time.sqrt();
        let d1 = ((spot / strike).ln() + (rate + vol.sqr() * 0.5) * time) / (vol * sqrt_t);
        ctx.intermediate(&d1, "A");
        let d2 = d1 - vol * sqrt_t;
        ctx.intermediate(&d2, "B");
        let nd1 = d1.cndf();
        ctx.intermediate(&nd1, "C1");
        let nd2 = d2.cndf();
        ctx.intermediate(&nd2, "C2");
        let disc = (-(rate * time)).exp();
        ctx.intermediate(&disc, "D");
        let price = spot * nd1 - strike * disc * nd2;
        ctx.output(&price, "price");
        Ok(())
    })
    .expect("sweep");
    print!("{:<8}", "scale");
    for p in &sweep.points {
        print!(" {:>9.2}", p.scale);
    }
    println!();
    for name in ["A", "B", "C1", "C2", "D"] {
        print!("{name:<8}");
        for v in sweep.trajectory(name).unwrap() {
            print!(" {v:>9.4}");
        }
        println!();
    }
    println!(
        "ranking stability across scales: {:.0}%",
        sweep.ranking_stability() * 100.0
    );
    println!(
        "\n→ where stability is below 100%, a single-profile significance\n\
         assignment is input-dependent (the paper's §6 caveat); the sweep\n\
         pinpoints which rankings to re-derive per deployment input range."
    );
}
