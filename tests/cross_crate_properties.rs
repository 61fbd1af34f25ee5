//! Property-based integration tests spanning crates: the interval/AD
//! machinery against the kernels' real math, and the runtime's ratio
//! semantics against kernel quality.

use proptest::prelude::*;
use scorpio::analysis::Analysis;
use scorpio::interval::Interval;
use scorpio::kernels::{blackscholes, maclaurin};
use scorpio::runtime::{perforation::Perforator, Executor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The analysed enclosure of the Maclaurin sum contains the concrete
    /// reference value for any sample point of the input box.
    #[test]
    fn maclaurin_enclosure_soundness(x0 in -0.4f64..0.4, t in -0.5f64..=0.5, n in 2usize..12) {
        let report = maclaurin::analysis(x0, n).unwrap();
        let enclosure = report.var("result").unwrap().enclosure;
        let sample = maclaurin::reference(x0 + t, n);
        prop_assert!(
            enclosure.contains(sample),
            "reference({}) = {} outside {}", x0 + t, sample, enclosure
        );
    }

    /// BlackScholes interval pricing encloses concrete prices over the
    /// whole parameter box (a 5-input end-to-end enclosure check through
    /// ln, sqrt, exp and the CNDF).
    #[test]
    fn blackscholes_enclosure_soundness(
        s in 0.0f64..=1.0, k in 0.0f64..=1.0, r in 0.0f64..=1.0,
        v in 0.0f64..=1.0, t in 0.0f64..=1.0,
    ) {
        let report = Analysis::new().run(|ctx| {
            let spot = ctx.input("spot", 80.0, 120.0);
            let strike = ctx.input("strike", 90.0, 110.0);
            let rate = ctx.input("rate", 0.01, 0.1);
            let vol = ctx.input("vol", 0.15, 0.65);
            let time = ctx.input("time", 0.25, 2.0);
            let sqrt_t = time.sqrt();
            let d1 = ((spot / strike).ln() + (rate + vol.sqr() * 0.5) * time) / (vol * sqrt_t);
            let d2 = d1 - vol * sqrt_t;
            let price = spot * d1.cndf() - strike * (-(rate * time)).exp() * d2.cndf();
            ctx.output(&price, "price");
            Ok(())
        }).unwrap();
        let enclosure = report.var("price").unwrap().enclosure;

        let opt = blackscholes::Option_ {
            spot: 80.0 + 40.0 * s,
            strike: 90.0 + 20.0 * k,
            rate: 0.01 + 0.09 * r,
            volatility: 0.15 + 0.5 * v,
            time: 0.25 + 1.75 * t,
            call: true,
        };
        let price = blackscholes::price(&opt);
        prop_assert!(enclosure.contains(price), "{price} outside {enclosure}");
    }

    /// The runtime's accurate-task count honours the ratio for arbitrary
    /// Maclaurin sizes, and the result degrades towards the perforated
    /// value as tasks lose their terms.
    #[test]
    fn ratio_accounting_matches_spec(n in 2usize..40, ratio in 0.0f64..=1.0) {
        let executor = Executor::new(2);
        let (_, stats) = maclaurin::tasked(0.3, n, &executor, ratio);
        let tasks = n - 1; // term 0 is precomputed
        prop_assert_eq!(stats.total(), tasks);
        let min_acc = (ratio * tasks as f64).ceil() as usize;
        prop_assert!(stats.accurate >= min_acc);
        prop_assert!(stats.accurate <= tasks);
    }

    /// Perforation keeps exactly ⌊n·f⌋ iterations for any size, and the
    /// kept set of a lower fraction is a subset of a higher one.
    #[test]
    fn perforation_exactness_and_nesting(n in 1usize..200, f1 in 0.0f64..=1.0, f2 in 0.0f64..=1.0) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let p_lo = Perforator::new(n, lo);
        let p_hi = Perforator::new(n, hi);
        prop_assert_eq!(p_lo.kept(), (n as f64 * lo).floor() as usize);
        for i in 0..n {
            if p_lo.keep(i) {
                prop_assert!(p_hi.keep(i), "iteration {i} lost raising {lo} → {hi}");
            }
        }
    }

    /// Interval splitting of a piecewise closure covers the declared
    /// domain with subdomain hulls and keeps every subdomain enclosure
    /// sound.
    #[test]
    fn splitting_covers_domain(threshold in -0.8f64..0.8) {
        let report = scorpio::analysis::splitting::run_with_splitting(
            &Analysis::new(),
            24,
            move |ctx| {
                let x = ctx.input("x", -1.0, 1.0);
                let above = ctx.branch(
                    x.value().certainly_gt(Interval::point(threshold)),
                    "x > threshold",
                )?;
                let y = if above { x * 2.0 } else { x * -3.0 };
                ctx.output(&y, "y");
                Ok(())
            },
        ).unwrap();
        let hull = report
            .subdomains
            .iter()
            .map(|b| b[0])
            .fold(Interval::EMPTY, |acc, iv| acc.hull(iv));
        prop_assert!((hull.inf() - (-1.0)).abs() < 1e-9);
        prop_assert!((hull.sup() - 1.0).abs() < 1e-9);
        // Merged enclosure of y covers both branches' extremes.
        let y = report.vars.iter().find(|v| v.name == "y").unwrap();
        prop_assert!(y.enclosure.contains(2.0) || y.enclosure.contains(3.0));
    }
}

#[test]
fn monte_carlo_agrees_with_interval_ranking() {
    // The MC estimator (future-work extension) must reproduce the
    // interval analysis' term ranking on the Maclaurin example.
    let ia = maclaurin::analysis(0.49, 5).unwrap();
    let mc = scorpio::analysis::mc::estimate(512, 42, 1, |ctx| {
        let x = ctx.input("x", 0.49 - 0.5, 0.49 + 0.5);
        let mut result = ctx.constant(0.0);
        for i in 0..5 {
            let term = x.powi(i);
            ctx.intermediate(&term, format!("term{i}"));
            result = result + term;
        }
        ctx.output(&result, "result");
        Ok(())
    })
    .unwrap();

    for i in 1..4 {
        let ia_i = ia.significance_of(&format!("term{i}")).unwrap();
        let ia_j = ia.significance_of(&format!("term{}", i + 1)).unwrap();
        let mc_i = mc.significance_of(&format!("term{i}")).unwrap();
        let mc_j = mc.significance_of(&format!("term{}", i + 1)).unwrap();
        assert_eq!(
            ia_i > ia_j,
            mc_i > mc_j,
            "ranking disagreement at term{i}: IA ({ia_i}, {ia_j}) vs MC ({mc_i}, {mc_j})"
        );
    }
}
